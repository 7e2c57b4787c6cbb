#include "simmpi/message.hpp"

#include <cstring>
#include <new>

#include "util/error.hpp"

namespace dpml::simmpi {

Matcher::~Matcher() {
  while (unexpected_.head_ != nullptr) (void)take(nullptr, unexpected_.head_);
}

Envelope Matcher::take(Queued* prev, Queued* q) {
  unexpected_.unlink(prev, q);
  Envelope env = std::move(static_cast<Envelope&>(*q));
  q->~Queued();
  sim::FramePool::local().deallocate(q, sizeof(Queued));
  return env;
}

void Matcher::complete(PostedRecv& pr, Envelope& env) {
  pr.recv_bytes = env.bytes;
  pr.recv_src = env.src;
  pr.recv_tag = env.tag;
  pr.recv_cost = env.recv_cost;
  pr.truncated = env.bytes > pr.capacity;
  pr.recv_dtype = env.dtype;
  if (env.rendezvous) {
    // Hand control to the sender-side continuation: it sends CTS, moves the
    // payload, and posts pr.done at delivery time.
    DPML_CHECK(env.on_match != nullptr);
    env.on_match(pr);
    return;
  }
  if (!pr.truncated && !env.data.empty() && !pr.out.empty()) {
    std::memcpy(pr.out.data(), env.data.data(), env.data.size());
  }
  // The payload buffer is consumed here; hand its storage back to the
  // engine's pool for the next message.
  if (recycle_ != nullptr) recycle_->release(std::move(env.data));
  DPML_CHECK(pr.done != nullptr);
  pr.done->post();
}

void Matcher::post_recv(PostedRecv* pr) {
  DPML_CHECK(pr != nullptr && pr->done != nullptr);
  if (oracle_ != nullptr) {
    if (pr->src == kAnySource || pr->tag == kAnyTag) {
      oracle_->note_wildcard_recv(mc_rank_, pr->ctx);
    }
    if (pr->src == kAnySource) {
      // Unexpected-queue choice point: the first matching envelope of each
      // distinct source is eligible (per-source FIFO order is preserved);
      // with two or more sources queued, the match is a real MPI race.
      // Each candidate is kept with its predecessor, for the unlink.
      std::vector<std::pair<Queued*, Queued*>> firsts;
      for (Queued *prev = nullptr, *q = unexpected_.head_; q != nullptr;
           prev = q, q = q->next) {
        ++stats_.scanned;
        if (!matches(*pr, *q)) continue;
        bool seen = false;
        for (const auto& f : firsts) seen = seen || f.second->src == q->src;
        if (!seen) firsts.emplace_back(prev, q);
      }
      if (!firsts.empty()) {
        std::size_t pick = 0;
        if (firsts.size() >= 2) {
          std::vector<sim::ChoiceAlt> alts;
          alts.reserve(firsts.size());
          for (const auto& f : firsts) {
            alts.push_back({mc_rank_, f.second->ctx, f.second->tag,
                            f.second->src});
          }
          pick = oracle_->choose(sim::ChoiceKind::match, alts);
          DPML_CHECK_MSG(pick < firsts.size(),
                         "schedule oracle match choice out of range");
        }
        Envelope env = take(firsts[pick].first, firsts[pick].second);
        ++stats_.posted_matches;
        complete(*pr, env);
        return;
      }
      queue_posted(pr);
      return;
    }
  }
  for (Queued *prev = nullptr, *q = unexpected_.head_; q != nullptr;
       prev = q, q = q->next) {
    ++stats_.scanned;
    if (matches(*pr, *q)) {
      Envelope env = take(prev, q);
      ++stats_.posted_matches;
      complete(*pr, env);
      return;
    }
  }
  queue_posted(pr);
}

void Matcher::queue_posted(PostedRecv* pr) {
  posted_.push_back(pr);
  stats_.peak_posted =
      std::max<std::uint64_t>(stats_.peak_posted, posted_.size());
}

void Matcher::deliver(Envelope env) {
  for (PostedRecv *prev = nullptr, *pr = posted_.head_; pr != nullptr;
       prev = pr, pr = pr->next) {
    ++stats_.scanned;
    if (matches(*pr, env)) {
      posted_.unlink(prev, pr);
      ++stats_.delivered_matches;
      complete(*pr, env);
      return;
    }
  }
  void* block = sim::FramePool::local().allocate(sizeof(Queued));
  unexpected_.push_back(new (block) Queued(std::move(env)));
  stats_.peak_unexpected =
      std::max<std::uint64_t>(stats_.peak_unexpected, unexpected_.size());
  for (sim::Flag* f : watchers_) f->post();
  watchers_.clear();
}

const Envelope* Matcher::peek(int ctx, int src, int tag) const {
  PostedRecv probe;
  probe.ctx = ctx;
  probe.src = src;
  probe.tag = tag;
  for (const Envelope& env : unexpected_) {
    if (matches(probe, env)) return &env;
  }
  return nullptr;
}

}  // namespace dpml::simmpi
