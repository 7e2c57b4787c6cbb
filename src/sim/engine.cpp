#include "sim/engine.hpp"

#include <algorithm>
#include <bit>
#include <utility>

#include "sim/sync.hpp"
#include "util/error.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

namespace dpml::sim {

std::uint64_t peak_rss_kb() {
#if defined(__unix__) || defined(__APPLE__)
  struct rusage ru {};
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0;
#if defined(__APPLE__)
  // ru_maxrss is bytes on Darwin, kilobytes elsewhere.
  return static_cast<std::uint64_t>(ru.ru_maxrss) / 1024;
#else
  return static_cast<std::uint64_t>(ru.ru_maxrss);
#endif
#else
  return 0;
#endif
}

void Engine::check_not_past(Time t) const {
  DPML_CHECK_MSG(t >= now_, "cannot schedule an event in the simulated past");
}

void Engine::check_reserved(std::uint64_t seq) const {
  DPML_CHECK_MSG(seq < seq_, "event seq was never reserved");
}

Engine::Engine()
    : table_(std::size_t{1} << kInitialTableBits, Instant{0, kNil}) {
  buckets_.fill(kNil);
  FramePool::local().attach();
  frame_base_ = FramePool::local().stats();
}

Engine::~Engine() {
  destroy_suspended();
  // Drop callback records still queued (a run abandoned by an error or a
  // machine torn down mid-simulation) without invoking them.
  for (const std::uint32_t head : buckets_) {
    for (std::uint32_t r = head; r != kNil; r = runs_[r].link) {
      for (std::uint32_t i = runs_[r].head; i != kNil; i = items_[i].next) {
        if (items_[i].cb != nullptr) destroy_callback(items_[i].cb);
      }
    }
  }
  // Every pooled block this engine's run held is back: the last engine on
  // the thread lets the frame pool give its memory up.
  FramePool::local().detach();
}

void Engine::destroy_suspended() {
  // Destroying a root unlinks it (its promise's destructor).
  while (roots_ != nullptr) {
    std::coroutine_handle<Detached::promise_type>::from_promise(*roots_)
        .destroy();
  }
  live_tasks_ = 0;
}

void Engine::push_event(Time t, std::uint64_t seq, std::coroutine_handle<> h,
                        CallbackBase* cb) {
  std::uint32_t i = free_item_;
  if (i != kNil) {
    // Field by field: an Item built on the stack and copied in is reloaded
    // with wide loads that straddle its narrower stores, and each such
    // load waits for the stores to retire.
    Item& it = items_[i];
    free_item_ = it.next;
    it.seq = seq;
    it.handle = h;
    it.cb = cb;
    it.next = kNil;
  } else {
    i = static_cast<std::uint32_t>(items_.size());
    items_.push_back(Item{seq, h, cb, kNil});
  }
  Run& run = runs_[run_at(t)];
  if (run.tail == kNil) {
    run.head = i;
    run.tail = i;
  } else if (items_[run.tail].seq < seq) {
    // Every fresh seq is the largest yet, so FIFO order is seq order.
    items_[run.tail].next = i;
    run.tail = i;
  } else {
    // A reserved seq (schedule_call_at_seq) takes its sorted place.
    std::uint32_t prev = kNil;
    std::uint32_t cur = run.head;
    while (items_[cur].seq < seq) {
      prev = cur;
      cur = items_[cur].next;
    }
    items_[i].next = cur;
    (prev == kNil ? run.head : items_[prev].next) = i;
  }
  if (++queued_ > peak_queued_) peak_queued_ = queued_;
}

std::uint32_t Engine::run_at(Time t) {
  if (t == cached_t_) return cached_run_;
  cached_t_ = t;
  // A post at now(): the run being drained.
  if (t == last_ && buckets_[0] != kNil) return cached_run_ = buckets_[0];
  if (2 * (open_runs_ + 1) > table_.size()) grow_table();
  const std::size_t mask = table_.size() - 1;
  std::size_t s = home_slot(t);
  while (table_[s].run != kNil && table_[s].t != t) s = (s + 1) & mask;
  if (table_[s].run == kNil) table_[s] = Instant{t, open_run(t)};
  return cached_run_ = table_[s].run;
}

// A new empty run for `t`, filed in its bucket (the caller files it in the
// table).
std::uint32_t Engine::open_run(Time t) {
  std::uint32_t r = free_run_;
  if (r != kNil) {
    free_run_ = runs_[r].head;
    runs_[r] = Run{t, kNil, kNil, kNil};
  } else {
    r = static_cast<std::uint32_t>(runs_.size());
    runs_.push_back(Run{t, kNil, kNil, kNil});
  }
  file(r);
  ++instants_;
  peak_instants_ = std::max<std::uint64_t>(peak_instants_, ++open_runs_);
  return r;
}

// t ^ last_ < 2^63 for t >= last_ >= 0, so the bucket is at most 63.
void Engine::file(std::uint32_t r) {
  const int b =
      std::bit_width(static_cast<std::uint64_t>(runs_[r].t ^ last_));
  runs_[r].link = buckets_[b];
  buckets_[b] = r;
  occupied_ |= std::uint64_t{1} << b;
}

// Double the table and re-insert every open instant (the buckets list
// them).
void Engine::grow_table() {
  table_.assign(table_.size() * 2, Instant{0, kNil});
  --table_shift_;
  const std::size_t mask = table_.size() - 1;
  for (const std::uint32_t head : buckets_) {
    for (std::uint32_t r = head; r != kNil; r = runs_[r].link) {
      std::size_t s = home_slot(runs_[r].t);
      while (table_[s].run != kNil) s = (s + 1) & mask;
      table_[s] = Instant{runs_[r].t, r};
    }
  }
}

void Engine::close_front() {
  const std::uint32_t r = buckets_[0];
  const Time t = runs_[r].t;
  buckets_[0] = kNil;
  occupied_ &= ~std::uint64_t{1};
  --open_runs_;
  // Backward-shift deletion: pull each later entry of the probe cluster
  // into the hole unless the hole lies before that entry's home slot, so
  // every entry stays reachable from its home without tombstones.
  const std::size_t mask = table_.size() - 1;
  std::size_t hole = home_slot(t);
  while (table_[hole].run != r) hole = (hole + 1) & mask;
  for (std::size_t j = (hole + 1) & mask; table_[j].run != kNil;
       j = (j + 1) & mask) {
    if (((j - home_slot(table_[j].t)) & mask) >= ((j - hole) & mask)) {
      table_[hole] = table_[j];
      hole = j;
    }
  }
  table_[hole].run = kNil;
  // The cache may still name this run, but never matches again: the next
  // pop moves now() past t, so no later push is at t.
  runs_[r].head = free_run_;
  free_run_ = r;
}

std::uint32_t Engine::front() {
  if (buckets_[0] != kNil) {
    if (runs_[buckets_[0]].head != kNil) return buckets_[0];
    close_front();
  }
  // The least non-empty bucket holds the earliest instant, which becomes
  // last_. Its runs all move to lower buckets, the earliest to bucket 0.
  // A run of a higher bucket keeps its bucket: last_ changed only in bits
  // below that run's top bit of difference from it.
  const int b = std::countr_zero(occupied_);
  std::uint32_t list = buckets_[b];
  buckets_[b] = kNil;
  occupied_ &= occupied_ - 1;
  Time least = runs_[list].t;
  for (std::uint32_t r = runs_[list].link; r != kNil; r = runs_[r].link) {
    least = std::min(least, runs_[r].t);
  }
  last_ = least;
  while (list != kNil) {
    const std::uint32_t next = runs_[list].link;
    file(list);
    list = next;
  }
  return buckets_[0];
}

Engine::Event Engine::take(std::uint32_t prev, std::uint32_t i) {
  Run& run = runs_[buckets_[0]];
  Item& it = items_[i];
  (prev == kNil ? run.head : items_[prev].next) = it.next;
  if (run.tail == i) run.tail = prev;
  const Event ev{last_, it.handle, it.cb};
  it.next = free_item_;
  free_item_ = i;
  --queued_;
  return ev;
}

// The front run holds every queued event at the earliest instant, in seq
// order, so its head is the (t, seq) minimum. A drained front run closes
// only here: until the next pop, a push at now() joins it.
Engine::Event Engine::pop_event() {
  const std::uint32_t r = front();
  if (oracle_ != nullptr) return pop_event_mc();
  return take(kNil, runs_[r].head);
}

// Oracle-attached pop. If the canonical next event is a tagged message
// deliver, the enabled set at this instant is every tagged deliver of the
// front run; the oracle may redirect which one fires first. Untagged
// events (coroutine resumes, timers, transport-internal hops) are never
// reordered — only message delivery order is a real-MPI degree of freedom.
Engine::Event Engine::pop_event_mc() {
  const std::uint32_t head = runs_[buckets_[0]].head;
  if (mc_meta_.find(items_[head].seq) == mc_meta_.end()) {
    return take(kNil, head);
  }
  // The run's tagged delivers, in seq (= canonical) order.
  struct Cand {
    std::uint64_t seq;
    std::uint32_t prev;
    std::uint32_t idx;
    McChannel ch;
  };
  std::vector<Cand> cands;
  for (std::uint32_t prev = kNil, i = head; i != kNil;
       prev = i, i = items_[i].next) {
    const auto it = mc_meta_.find(items_[i].seq);
    if (it != mc_meta_.end()) {
      cands.push_back({items_[i].seq, prev, i, it->second});
    }
  }
  // Per-source FIFO dedupe within each (rank, ctx) channel: a second
  // message from the same source can never overtake the first, so only the
  // oldest per (rank, ctx, src) is an alternative at all. The canonical
  // event's (rank, ctx) partition is the choice point; eligible events in
  // other partitions land in disjoint Matcher queues and are independent
  // (they get their own pop turns), so a naive permutation explorer's
  // sibling branches over them are pruned here.
  std::vector<Cand> alts;
  std::uint64_t eligible = 0;
  std::vector<McChannel> seen;
  for (const Cand& c : cands) {
    bool dup = false;
    for (const McChannel& s : seen) {
      dup = dup || (s.rank == c.ch.rank && s.ctx == c.ch.ctx &&
                    s.src == c.ch.src);
    }
    if (dup) continue;
    seen.push_back(c.ch);
    ++eligible;
    if (c.ch.rank == cands.front().ch.rank &&
        c.ch.ctx == cands.front().ch.ctx) {
      alts.push_back(c);
    }
  }
  std::size_t pick = 0;
  if (alts.size() >= 2 &&
      oracle_->race_matters(alts.front().ch.rank, alts.front().ch.ctx)) {
    std::vector<ChoiceAlt> choice;
    choice.reserve(alts.size());
    for (const Cand& c : alts) {
      choice.push_back({c.ch.rank, c.ch.ctx, c.ch.tag, c.ch.src});
    }
    pick = oracle_->choose(ChoiceKind::pop, choice);
    DPML_CHECK_MSG(pick < alts.size(), "schedule oracle pop choice out of range");
    oracle_->note_pruned(eligible - alts.size());
  } else {
    // No observable race at this pop (single candidate in the canonical
    // channel, or no wildcard consumer there): all other enabled orders
    // are equivalent, so their sibling branches are pruned wholesale.
    oracle_->note_pruned(eligible - 1);
  }
  const Cand& c = alts[pick];
  mc_meta_.erase(c.seq);
  return take(c.prev, c.idx);
}

Engine::Detached Engine::run_detached(CoTask<void> task,
                                      std::shared_ptr<Flag> done) {
  ++live_tasks_;
  try {
    co_await std::move(task);
  } catch (...) {
    record_error(std::current_exception());
  }
  --live_tasks_;
  if (done) done->post();
}

void Engine::spawn(CoTask<void> task) {
  run_detached(std::move(task), nullptr);
}

std::shared_ptr<Flag> Engine::spawn_sub(CoTask<void> task) {
  auto done = make_pooled<Flag>(*this);
  run_detached(std::move(task), done);
  return done;
}

void Engine::record_error(std::exception_ptr e) {
  if (!error_) error_ = e;
}

void Engine::run() {
  while (queued_ != 0) {
    const Event ev = pop_event();
    DPML_CHECK(ev.t >= now_);
    now_ = ev.t;
    if (ev.cb == nullptr) {
      ++resumes_;
      ev.handle.resume();
    } else {
      ++callbacks_;
      ev.cb->invoke(ev.cb, *this);
    }
    if (error_) break;
  }
  if (error_) {
    auto e = std::exchange(error_, nullptr);
    std::rethrow_exception(e);
  }
  if (hold_until_ > now_) now_ = hold_until_;
  if (live_tasks_ > 0) {
    throw util::DeadlockError(
        "simulation deadlock: event queue drained with " +
        std::to_string(live_tasks_) + " simulated process(es) still blocked");
  }
}

}  // namespace dpml::sim
