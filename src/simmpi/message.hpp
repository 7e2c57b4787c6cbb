// Message envelopes and tag matching.
//
// Each rank owns a Matcher with the usual MPI queues: unexpected messages
// and posted receives. Matching is by (context, source, tag) with wildcard
// support, in envelope arrival order — eager envelopes are delivered when
// the payload has fully arrived, rendezvous envelopes when the RTS control
// message arrives.
//
// Both queues are FIFO lists threaded through their entries, so a Matcher
// allocates nothing when it is built. A posted receive is its PostedRecv,
// which lives in the receiving frame; an unexpected envelope sits in a node
// taken from the thread's FramePool (sim/pool.hpp) and given back when a
// receive matches it or the Matcher is destroyed. The scans are short on
// collective traffic (a handful of entries), so lists beat hashed buckets.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <iterator>
#include <vector>

#include "sim/oracle.hpp"
#include "sim/pool.hpp"
#include "sim/sync.hpp"
#include "simmpi/datatype.hpp"

namespace dpml::simmpi {

inline constexpr int kAnySource = -1;
inline constexpr int kAnyTag = -1;

struct PostedRecv;

struct Envelope {
  int ctx = 0;
  int src = 0;  // world rank of the sender
  int tag = 0;
  std::size_t bytes = 0;
  sim::ByteBuffer data;         // payload (empty in metadata-only runs)
  sim::Time recv_cost = 0;      // receiver-side overhead charged after match
  bool rendezvous = false;
  // simcheck annotation: the sender's reduction dtype at send time (a
  // simmpi::Dtype value), or -1 when unchecked / outside a reduction.
  int dtype = -1;
  // Rendezvous only: invoked at match time; sends CTS and schedules the
  // payload transfer, which eventually posts the receive's done flag.
  std::function<void(PostedRecv&)> on_match;
};

struct PostedRecv {
  int ctx = 0;
  int src = kAnySource;
  int tag = kAnyTag;
  std::size_t capacity = 0;
  MutBytes out{};
  sim::Flag* done = nullptr;
  // Filled at completion:
  std::size_t recv_bytes = 0;
  int recv_src = -1;
  int recv_tag = -1;
  sim::Time recv_cost = 0;
  bool truncated = false;
  int recv_dtype = -1;  // simcheck: the matched envelope's dtype annotation
  PostedRecv* next = nullptr;  // the Matcher's posted-queue link
};

// Matching work of the Matchers that count into one record (a Machine's
// ranks): sums of matches and scanned entries, maxima of queue depths.
struct MatchStats {
  std::uint64_t posted_matches = 0;     // receives matched when posted
  std::uint64_t delivered_matches = 0;  // receives matched on delivery
  std::uint64_t scanned = 0;            // queue entries the scans examined
  std::uint64_t peak_posted = 0;        // deepest posted-receive queue
  std::uint64_t peak_unexpected = 0;    // deepest unexpected queue

  void merge(const MatchStats& o) {
    posted_matches += o.posted_matches;
    delivered_matches += o.delivered_matches;
    scanned += o.scanned;
    peak_posted = std::max(peak_posted, o.peak_posted);
    peak_unexpected = std::max(peak_unexpected, o.peak_unexpected);
  }
  bool operator==(const MatchStats&) const = default;
};

// A FIFO threaded through its nodes' `next` links. Iteration is forward
// only, in queue order; the owning Matcher alone links and unlinks.
template <typename Node>
class IntrusiveFifo {
 public:
  class iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = Node;
    using difference_type = std::ptrdiff_t;
    using pointer = const Node*;
    using reference = const Node&;

    iterator() = default;
    explicit iterator(const Node* n) : n_(n) {}
    const Node& operator*() const { return *n_; }
    iterator& operator++() {
      n_ = n_->next;
      return *this;
    }
    iterator operator++(int) {
      iterator old = *this;
      n_ = n_->next;
      return old;
    }
    bool operator==(const iterator&) const = default;

   private:
    const Node* n_ = nullptr;
  };

  iterator begin() const { return iterator(head_); }
  iterator end() const { return iterator(); }
  std::size_t size() const { return size_; }

 private:
  friend class Matcher;

  void push_back(Node* n) {
    n->next = nullptr;
    (tail_ != nullptr ? tail_->next : head_) = n;
    tail_ = n;
    ++size_;
  }
  // Unlink `n`, whose predecessor is `prev` (null when `n` is the head).
  void unlink(Node* prev, Node* n) {
    (prev != nullptr ? prev->next : head_) = n->next;
    if (tail_ == n) tail_ = prev;
    n->next = nullptr;
    --size_;
  }

  Node* head_ = nullptr;
  Node* tail_ = nullptr;
  std::size_t size_ = 0;
};

class Matcher {
  // An unexpected envelope in its pooled queue node.
  struct Queued : Envelope {
    explicit Queued(Envelope&& e) : Envelope(std::move(e)) {}
    Queued* next = nullptr;
  };

 public:
  // Counts its matching work into `stats`.
  explicit Matcher(MatchStats& stats) : stats_(stats) {}
  Matcher(const Matcher&) = delete;
  Matcher& operator=(const Matcher&) = delete;
  // Gives the queued envelopes' nodes back to the pool. Posted receives
  // belong to their frames.
  ~Matcher();

  // Post a receive; matches against the unexpected queue first.
  void post_recv(PostedRecv* pr);

  // Deliver an arriving envelope; matches against posted receives first.
  void deliver(Envelope env);

  std::size_t unexpected_count() const { return unexpected_.size(); }
  std::size_t posted_count() const { return posted_.size(); }

  // Probe support: first matching unexpected envelope, not consumed.
  const Envelope* peek(int ctx, int src, int tag) const;
  // One-shot notification on the next unexpected arrival (blocking probe).
  void watch_arrivals(sim::Flag* f) { watchers_.push_back(f); }

  // simcheck end-of-run inspection: leaked unexpected envelopes (each
  // entry is an Envelope) and still-posted (never-matched) receives.
  const IntrusiveFifo<Queued>& unexpected() const { return unexpected_; }
  const IntrusiveFifo<PostedRecv>& posted() const { return posted_; }

  // Recycle consumed eager payload buffers through the engine's pool (set
  // by the owning Rank; unset matchers free buffers normally).
  void set_recycler(sim::BufferPool* pool) { recycle_ = pool; }

  // Model-checking seam (sim/oracle.hpp): wildcard posts report their
  // channel, and an MPI_ANY_SOURCE receive that could match several queued
  // sources becomes an explicit choice point. Null (the default) keeps the
  // canonical arrival-order scan byte-for-byte.
  void set_oracle(sim::ScheduleOracle* oracle, int world_rank) {
    oracle_ = oracle;
    mc_rank_ = world_rank;
  }

 private:
  static bool matches(const PostedRecv& pr, const Envelope& env) {
    return pr.ctx == env.ctx &&
           (pr.src == kAnySource || pr.src == env.src) &&
           (pr.tag == kAnyTag || pr.tag == env.tag);
  }

  // Unlink `q` (predecessor `prev`) from the unexpected queue and return
  // its envelope; the node goes back to the pool.
  Envelope take(Queued* prev, Queued* q);
  // Queue a receive no envelope matched.
  void queue_posted(PostedRecv* pr);
  // Complete `pr` with `env` (copy payload for eager, trigger rendezvous).
  void complete(PostedRecv& pr, Envelope& env);

  MatchStats& stats_;
  IntrusiveFifo<Queued> unexpected_;
  IntrusiveFifo<PostedRecv> posted_;
  std::vector<sim::Flag*> watchers_;
  sim::BufferPool* recycle_ = nullptr;
  sim::ScheduleOracle* oracle_ = nullptr;
  int mc_rank_ = -1;
};

}  // namespace dpml::simmpi
