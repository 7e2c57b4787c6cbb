// Direct unit tests of the MPI matching engine (posted/unexpected queues,
// wildcard semantics, arrival-order matching), and a differential test
// against a reference model of the queues.
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "sim/engine.hpp"
#include "simmpi/message.hpp"
#include "util/rng.hpp"

namespace dpml::simmpi {
namespace {

Envelope env(int ctx, int src, int tag, std::size_t bytes = 0) {
  Envelope e;
  e.ctx = ctx;
  e.src = src;
  e.tag = tag;
  e.bytes = bytes;
  return e;
}

struct RecvProbe {
  explicit RecvProbe(sim::Engine& e, int ctx, int src, int tag,
                     std::size_t cap = 1024)
      : done(e) {
    pr.ctx = ctx;
    pr.src = src;
    pr.tag = tag;
    pr.capacity = cap;
    pr.done = &done;
  }
  sim::Flag done;
  PostedRecv pr;
};

TEST(Matcher, DeliveryBeforePostGoesUnexpected) {
  sim::Engine e;
  MatchStats stats;
  Matcher m(stats);
  m.deliver(env(0, 3, 7));
  EXPECT_EQ(m.unexpected_count(), 1u);
  RecvProbe p(e, 0, 3, 7);
  m.post_recv(&p.pr);
  EXPECT_TRUE(p.done.posted());
  EXPECT_EQ(m.unexpected_count(), 0u);
  EXPECT_EQ(p.pr.recv_src, 3);
  EXPECT_EQ(p.pr.recv_tag, 7);
}

TEST(Matcher, PostBeforeDeliveryMatches) {
  sim::Engine e;
  MatchStats stats;
  Matcher m(stats);
  RecvProbe p(e, 0, 1, 2);
  m.post_recv(&p.pr);
  EXPECT_EQ(m.posted_count(), 1u);
  m.deliver(env(0, 1, 2));
  EXPECT_TRUE(p.done.posted());
  EXPECT_EQ(m.posted_count(), 0u);
}

TEST(Matcher, ContextSourceTagAllMustMatch) {
  sim::Engine e;
  MatchStats stats;
  Matcher m(stats);
  RecvProbe p(e, 5, 1, 2);
  m.post_recv(&p.pr);
  m.deliver(env(4, 1, 2));  // wrong ctx
  m.deliver(env(5, 0, 2));  // wrong src
  m.deliver(env(5, 1, 3));  // wrong tag
  EXPECT_FALSE(p.done.posted());
  EXPECT_EQ(m.unexpected_count(), 3u);
  m.deliver(env(5, 1, 2));
  EXPECT_TRUE(p.done.posted());
}

TEST(Matcher, WildcardsMatchAnything) {
  sim::Engine e;
  MatchStats stats;
  Matcher m(stats);
  RecvProbe p(e, 0, kAnySource, kAnyTag);
  m.post_recv(&p.pr);
  m.deliver(env(0, 9, 42));
  EXPECT_TRUE(p.done.posted());
  EXPECT_EQ(p.pr.recv_src, 9);
  EXPECT_EQ(p.pr.recv_tag, 42);
}

TEST(Matcher, WildcardDoesNotCrossContext) {
  sim::Engine e;
  MatchStats stats;
  Matcher m(stats);
  RecvProbe p(e, 1, kAnySource, kAnyTag);
  m.post_recv(&p.pr);
  m.deliver(env(2, 0, 0));
  EXPECT_FALSE(p.done.posted());
}

TEST(Matcher, ArrivalOrderWithinMatchingClass) {
  // Two messages with the same envelope: the earlier arrival matches first.
  sim::Engine e;
  MatchStats stats;
  Matcher m(stats);
  Envelope e1 = env(0, 1, 5, 11);
  Envelope e2 = env(0, 1, 5, 22);
  m.deliver(std::move(e1));
  m.deliver(std::move(e2));
  RecvProbe a(e, 0, 1, 5);
  m.post_recv(&a.pr);
  EXPECT_EQ(a.pr.recv_bytes, 11u);
  RecvProbe b(e, 0, 1, 5);
  m.post_recv(&b.pr);
  EXPECT_EQ(b.pr.recv_bytes, 22u);
}

TEST(Matcher, PostedOrderForWildcards) {
  // Two posted receives that both match: the earlier post wins.
  sim::Engine e;
  MatchStats stats;
  Matcher m(stats);
  RecvProbe first(e, 0, kAnySource, kAnyTag);
  RecvProbe second(e, 0, kAnySource, kAnyTag);
  m.post_recv(&first.pr);
  m.post_recv(&second.pr);
  m.deliver(env(0, 2, 2));
  EXPECT_TRUE(first.done.posted());
  EXPECT_FALSE(second.done.posted());
}

TEST(Matcher, SelectiveRecvSkipsNonMatching) {
  // A tagged recv must skip a non-matching unexpected message and leave it
  // queued for a later matching recv.
  sim::Engine e;
  MatchStats stats;
  Matcher m(stats);
  m.deliver(env(0, 1, /*tag=*/10, 1));
  m.deliver(env(0, 1, /*tag=*/20, 2));
  RecvProbe want20(e, 0, 1, 20);
  m.post_recv(&want20.pr);
  EXPECT_TRUE(want20.done.posted());
  EXPECT_EQ(want20.pr.recv_bytes, 2u);
  EXPECT_EQ(m.unexpected_count(), 1u);
  RecvProbe want10(e, 0, 1, 10);
  m.post_recv(&want10.pr);
  EXPECT_EQ(want10.pr.recv_bytes, 1u);
}

TEST(Matcher, TruncationFlagSet) {
  sim::Engine e;
  MatchStats stats;
  Matcher m(stats);
  RecvProbe p(e, 0, 1, 1, /*cap=*/4);
  m.post_recv(&p.pr);
  m.deliver(env(0, 1, 1, /*bytes=*/64));
  EXPECT_TRUE(p.done.posted());
  EXPECT_TRUE(p.pr.truncated);
}

TEST(Matcher, EagerPayloadCopied) {
  sim::Engine e;
  MatchStats stats;
  Matcher m(stats);
  std::vector<std::byte> out(4);
  RecvProbe p(e, 0, 1, 1, 4);
  p.pr.out = MutBytes{out};
  m.post_recv(&p.pr);
  Envelope msg = env(0, 1, 1, 4);
  msg.data = {std::byte{1}, std::byte{2}, std::byte{3}, std::byte{4}};
  m.deliver(std::move(msg));
  EXPECT_EQ(out[0], std::byte{1});
  EXPECT_EQ(out[3], std::byte{4});
}

TEST(Matcher, RendezvousMatchInvokesCallback) {
  sim::Engine e;
  MatchStats stats;
  Matcher m(stats);
  bool matched = false;
  Envelope rts = env(0, 2, 9, 1 << 20);
  rts.rendezvous = true;
  rts.on_match = [&](PostedRecv& pr) {
    matched = true;
    EXPECT_EQ(pr.recv_bytes, 1u << 20);
    pr.done->post();  // payload delivery stand-in
  };
  m.deliver(std::move(rts));
  RecvProbe p(e, 0, 2, 9, 1 << 20);
  m.post_recv(&p.pr);
  EXPECT_TRUE(matched);
  EXPECT_TRUE(p.done.posted());
}

// ---------------------------------------------------------------------------
// Differential test: seeded random post/deliver/peek sequences replayed on
// the Matcher and on a reference model that keeps both queues in
// std::deques and scans them in order. Both must pair the same receive with
// the same envelope at the same step, and hold the same queues throughout.

struct RefEnv {
  int ctx, src, tag;
  std::size_t bytes;
  bool rendezvous;
  int id;
};
struct RefRecv {
  int ctx, src, tag;
  std::size_t capacity;
  int id;
};

bool ref_matches(int ctx, int src, int tag, const RefEnv& e) {
  return ctx == e.ctx && (src == kAnySource || src == e.src) &&
         (tag == kAnyTag || tag == e.tag);
}

// The arrival-order scan of a deque-based matcher.
struct RefMatcher {
  std::deque<RefEnv> unexpected;
  std::deque<RefRecv> posted;

  // (receive id, envelope id) of the match this step made, if any.
  std::optional<std::pair<int, int>> post(const RefRecv& r) {
    for (auto it = unexpected.begin(); it != unexpected.end(); ++it) {
      if (ref_matches(r.ctx, r.src, r.tag, *it)) {
        const int env = it->id;
        unexpected.erase(it);
        return std::make_pair(r.id, env);
      }
    }
    posted.push_back(r);
    return std::nullopt;
  }
  std::optional<std::pair<int, int>> deliver(const RefEnv& e) {
    for (auto it = posted.begin(); it != posted.end(); ++it) {
      if (ref_matches(it->ctx, it->src, it->tag, e)) {
        const int recv = it->id;
        posted.erase(it);
        return std::make_pair(recv, e.id);
      }
    }
    unexpected.push_back(e);
    return std::nullopt;
  }
  int peek(int ctx, int src, int tag) const {
    for (const RefEnv& e : unexpected) {
      if (ref_matches(ctx, src, tag, e)) return e.id;
    }
    return -1;
  }
};

// One receive of the Matcher side; envelope ids ride in recv_cost.
struct LiveRecv {
  LiveRecv(sim::Engine& e, const RefRecv& r) : done(e), ref(r) {
    pr.ctx = r.ctx;
    pr.src = r.src;
    pr.tag = r.tag;
    pr.capacity = r.capacity;
    out.assign(r.capacity, std::byte{0});
    pr.out = MutBytes{out};
    pr.done = &done;
  }
  sim::Flag done;
  RefRecv ref;
  std::vector<std::byte> out;
  PostedRecv pr;
  bool rendezvous_matched = false;
  bool reported = false;
};

std::byte payload_byte(int id) { return static_cast<std::byte>(id * 7 + 1); }

void run_differential(std::uint64_t seed, int steps) {
  util::SplitMix64 rng(seed);
  const auto below = [&rng](int n) {
    return static_cast<int>(rng.next_below(static_cast<std::uint64_t>(n)));
  };
  sim::Engine engine;
  MatchStats stats;
  Matcher m(stats);
  RefMatcher ref;
  std::deque<LiveRecv> recvs;  // stable addresses for the posted links
  int next_id = 0;
  std::uint64_t matches = 0;
  std::uint64_t deepest_posted = 0;
  std::uint64_t deepest_unexpected = 0;

  // The receive the Matcher completed at this step, if any.
  const auto completed = [&recvs]() -> LiveRecv* {
    LiveRecv* got = nullptr;
    for (LiveRecv& r : recvs) {
      if (r.reported || !(r.done.posted() || r.rendezvous_matched)) continue;
      EXPECT_EQ(got, nullptr) << "two receives completed in one step";
      r.reported = true;
      got = &r;
    }
    return got;
  };

  for (int step = 0; step < steps; ++step) {
    const std::string where =
        "seed " + std::to_string(seed) + " step " + std::to_string(step);
    const int ctx = below(3);
    const int src = below(4);
    const int tag = below(3);
    const int op = below(10);
    std::optional<std::pair<int, int>> want;
    if (op < 4) {  // post a receive, sometimes with wildcards or too small
      const RefRecv r{ctx, below(4) == 0 ? kAnySource : src,
                      below(4) == 0 ? kAnyTag : tag,
                      static_cast<std::size_t>(below(9)), next_id++};
      want = ref.post(r);
      LiveRecv& live = recvs.emplace_back(engine, r);
      m.post_recv(&live.pr);
    } else if (op < 9) {  // deliver an eager or rendezvous envelope
      const RefEnv e{ctx, src, tag, static_cast<std::size_t>(below(8)),
                     below(5) == 0, next_id++};
      want = ref.deliver(e);
      Envelope env;
      env.ctx = e.ctx;
      env.src = e.src;
      env.tag = e.tag;
      env.bytes = e.bytes;
      env.recv_cost = e.id;
      env.rendezvous = e.rendezvous;
      if (e.rendezvous) {
        env.on_match = [&recvs](PostedRecv& pr) {
          for (LiveRecv& r : recvs) {
            if (&r.pr == &pr) r.rendezvous_matched = true;
          }
        };
      } else {
        env.data.assign(e.bytes, payload_byte(e.id));
      }
      m.deliver(std::move(env));
    } else {  // probe without consuming
      const int psrc = below(3) == 0 ? kAnySource : src;
      const int ptag = below(3) == 0 ? kAnyTag : tag;
      const Envelope* got = m.peek(ctx, psrc, ptag);
      EXPECT_EQ(got == nullptr ? -1 : static_cast<int>(got->recv_cost),
                ref.peek(ctx, psrc, ptag))
          << where;
    }

    const LiveRecv* r = completed();
    std::optional<std::pair<int, int>> got;
    if (r != nullptr) {
      got = std::make_pair(r->ref.id, static_cast<int>(r->pr.recv_cost));
    }
    ASSERT_EQ(got, want) << where;
    if (r != nullptr) {
      ++matches;
      EXPECT_EQ(r->pr.truncated, r->pr.recv_bytes > r->ref.capacity) << where;
      if (r->done.posted() && !r->pr.truncated) {  // eager payload copied
        for (std::size_t i = 0; i < r->pr.recv_bytes; ++i) {
          EXPECT_EQ(r->out[i], payload_byte(got->second)) << where;
        }
      }
    }
    ASSERT_EQ(m.unexpected_count(), ref.unexpected.size()) << where;
    ASSERT_EQ(m.posted_count(), ref.posted.size()) << where;
    deepest_posted = std::max<std::uint64_t>(deepest_posted, ref.posted.size());
    deepest_unexpected =
        std::max<std::uint64_t>(deepest_unexpected, ref.unexpected.size());
    // The forward views hold the reference queues, in order.
    std::size_t i = 0;
    for (const Envelope& e : m.unexpected()) {
      ASSERT_EQ(static_cast<int>(e.recv_cost), ref.unexpected[i++].id) << where;
    }
    i = 0;
    for (const PostedRecv& pr : m.posted()) {
      const auto& want_recv = ref.posted[i++];
      ASSERT_EQ(pr.ctx, want_recv.ctx) << where;
      ASSERT_EQ(pr.src, want_recv.src) << where;
      ASSERT_EQ(pr.tag, want_recv.tag) << where;
      ASSERT_EQ(pr.capacity, want_recv.capacity) << where;
    }
  }
  EXPECT_EQ(stats.posted_matches + stats.delivered_matches, matches);
  EXPECT_EQ(stats.peak_posted, deepest_posted);
  EXPECT_EQ(stats.peak_unexpected, deepest_unexpected);
}

TEST(MatcherDifferential, RandomSequencesMatchTheDequeScan) {
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    run_differential(seed, 300);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(MatcherDifferential, CountsMatchesScansAndDepths) {
  sim::Engine e;
  MatchStats stats;
  Matcher m(stats);
  m.deliver(env(0, 1, 1));
  m.deliver(env(0, 2, 2));
  RecvProbe want2(e, 0, 2, 2);
  m.post_recv(&want2.pr);  // scans two unexpected entries
  RecvProbe a(e, 0, 3, 3);
  RecvProbe b(e, 0, 4, 4);
  m.post_recv(&a.pr);  // scans the one left, then queues
  m.post_recv(&b.pr);
  m.deliver(env(0, 4, 4));  // scans both posted receives
  EXPECT_EQ(stats.posted_matches, 1u);
  EXPECT_EQ(stats.delivered_matches, 1u);
  EXPECT_EQ(stats.scanned, 2u + 1u + 1u + 2u);
  EXPECT_EQ(stats.peak_posted, 2u);
  EXPECT_EQ(stats.peak_unexpected, 2u);
}

TEST(MatcherDifferential, DestroyingAMatcherFreesQueuedEnvelopes) {
  // Envelopes still queued at teardown (a deadlocked run, a leaked send)
  // go back to the frame pool with their payloads and continuations; under
  // ASan/LSan a leak or a double free here is reported.
  sim::Engine e;
  const std::uint64_t live_before = sim::FramePool::local().stats().live;
  auto token = std::make_shared<int>(7);
  {
    MatchStats stats;
    Matcher m(stats);
    for (int i = 0; i < 5; ++i) {
      Envelope msg = env(0, i, i, 64);
      msg.data.assign(64, std::byte{1});
      if (i % 2 == 1) {
        msg.rendezvous = true;
        msg.on_match = [token](PostedRecv&) {};
      }
      m.deliver(std::move(msg));
    }
    EXPECT_EQ(m.unexpected_count(), 5u);
    EXPECT_EQ(sim::FramePool::local().stats().live, live_before + 5);
    EXPECT_EQ(token.use_count(), 3);
  }
  EXPECT_EQ(sim::FramePool::local().stats().live, live_before);
  EXPECT_EQ(token.use_count(), 1);
}

}  // namespace
}  // namespace dpml::simmpi
