#include "sim/engine.hpp"

#include <algorithm>
#include <utility>

#include "sim/sync.hpp"
#include "util/error.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

namespace dpml::sim {

const char* scheduler_kind_name(SchedulerKind kind) {
  switch (kind) {
    case SchedulerKind::automatic: return "auto";
    case SchedulerKind::binary_heap: return "binary-heap";
    case SchedulerKind::calendar: return "calendar";
  }
  return "?";
}

SchedulerKind scheduler_kind_by_name(const std::string& name) {
  if (name == "auto" || name == "automatic") return SchedulerKind::automatic;
  if (name == "heap" || name == "binary-heap" || name == "binary_heap") {
    return SchedulerKind::binary_heap;
  }
  if (name == "calendar") return SchedulerKind::calendar;
  DPML_CHECK_MSG(false, "unknown scheduler '" + name +
                            "'; valid names: auto, binary-heap, calendar");
  return SchedulerKind::automatic;
}

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

void Engine::push_event(Event ev) {
  // Calendar staging: only the near future (t < front_limit_) enters the
  // front heap; later events take an O(1) append into their year bucket or
  // the overflow. Everything below front_limit_ is already in the front
  // heap, so popping the front min is popping the global min.
  if (sched_ == SchedulerKind::calendar && ev.t >= front_limit_) {
    if (width_ > 0 &&
        ev.t < year_start_ + static_cast<Time>(kNumBuckets) * width_) {
      const auto idx = static_cast<std::size_t>((ev.t - year_start_) / width_);
      buckets_[idx].push_back(ev);
    } else {
      overflow_.push_back(ev);
    }
    ++staged_;
    note_queued();
    return;
  }
  heap_.push_back(ev);
  std::push_heap(heap_.begin(), heap_.end(), later);
  note_queued();
}

Engine::Event Engine::pop_event() {
  if (heap_.empty()) refill_front();
  if (oracle_ != nullptr) return pop_event_mc();
  std::pop_heap(heap_.begin(), heap_.end(), later);
  Event ev = heap_.back();
  heap_.pop_back();
  return ev;
}

// Oracle-attached pop. heap_[0] is the global (t, seq) minimum (the calendar
// invariant keeps every event with t < front_limit_ in the front heap, so
// all events sharing the minimum's timestamp are in heap_). If that minimum
// is a tagged message deliver, the enabled set at this instant is every
// same-t tagged deliver; the oracle may redirect which one fires first.
// Untagged events (coroutine resumes, timers, transport-internal hops) are
// never reordered — only message delivery order is a real-MPI degree of
// freedom.
Engine::Event Engine::pop_event_mc() {
  const auto top = mc_meta_.find(heap_.front().seq);
  if (top == mc_meta_.end()) {
    std::pop_heap(heap_.begin(), heap_.end(), later);
    Event ev = heap_.back();
    heap_.pop_back();
    return ev;
  }
  const Time t = heap_.front().t;
  // Collect same-instant tagged delivers in seq (= canonical) order.
  struct Cand {
    std::uint64_t seq;
    std::size_t idx;
    McChannel ch;
  };
  std::vector<Cand> cands;
  for (std::size_t i = 0; i < heap_.size(); ++i) {
    if (heap_[i].t != t) continue;
    const auto it = mc_meta_.find(heap_[i].seq);
    if (it != mc_meta_.end()) cands.push_back({heap_[i].seq, i, it->second});
  }
  std::sort(cands.begin(), cands.end(),
            [](const Cand& a, const Cand& b) { return a.seq < b.seq; });
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
  const std::size_t idx = alts[static_cast<std::size_t>(pick)].idx;
  mc_meta_.erase(alts[static_cast<std::size_t>(pick)].seq);
  Event ev = heap_[idx];
  // Remove an arbitrary heap element: swap the tail in and re-heapify. Mc
  // runs are tiny (np <= 5); this O(n) never touches the default path.
  heap_[idx] = heap_.back();
  heap_.pop_back();
  std::make_heap(heap_.begin(), heap_.end(), later);
  return ev;
}

// Move staged events into the front heap until it is non-empty: drain year
// buckets in order (each drained bucket advances front_limit_ past it), and
// when the year is spent, rebuild it from the overflow. Preconditions:
// heap_ empty, staged_ > 0.
void Engine::refill_front() {
  DPML_CHECK(staged_ > 0);
  for (;;) {
    if (width_ == 0) {
      rebuild_year();
      continue;
    }
    while (next_bucket_ < kNumBuckets && buckets_[next_bucket_].empty()) {
      ++next_bucket_;
    }
    if (next_bucket_ == kNumBuckets) {
      width_ = 0;  // year spent; everything staged is in overflow_
      continue;
    }
    std::vector<Event>& b = buckets_[next_bucket_];
    staged_ -= b.size();
    heap_.swap(b);  // b keeps heap_'s (empty) storage; capacity recycles
    std::make_heap(heap_.begin(), heap_.end(), later);
    ++next_bucket_;
    front_limit_ = year_start_ + static_cast<Time>(next_bucket_) * width_;
    if (next_bucket_ == kNumBuckets) width_ = 0;
    if (!heap_.empty()) return;
  }
}

// Lay a new year over the overflow events: year_start_ at their minimum
// time, bucket width the smallest power of two covering span/kNumBuckets.
// Deterministic by construction — a pure function of queued event times.
void Engine::rebuild_year() {
  DPML_CHECK(!overflow_.empty());
  Time lo = overflow_.front().t;
  Time hi = lo;
  for (const Event& ev : overflow_) {
    if (ev.t < lo) lo = ev.t;
    if (ev.t > hi) hi = ev.t;
  }
  year_start_ = lo;
  const Time span = hi - lo + 1;
  Time per_bucket = span / static_cast<Time>(kNumBuckets) + 1;
  width_ = 1;
  while (width_ < per_bucket) width_ <<= 1;
  next_bucket_ = 0;
  front_limit_ = year_start_;
  const Time year_end = year_start_ + static_cast<Time>(kNumBuckets) * width_;
  std::vector<Event> pending;
  pending.swap(overflow_);
  for (const Event& ev : pending) {
    if (ev.t < year_end) {
      buckets_[static_cast<std::size_t>((ev.t - year_start_) / width_)]
          .push_back(ev);
    } else {
      overflow_.push_back(ev);
    }
  }
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
  auto done = std::make_shared<Flag>(*this);
  run_detached(std::move(task), done);
  return done;
}

void Engine::record_error(std::exception_ptr e) {
  if (!error_) error_ = e;
}

void Engine::run() {
  while (!queue_empty()) {
    Event ev = pop_event();
    DPML_CHECK(ev.t >= now_);
    now_ = ev.t;
    ++events_processed_;
    if (ev.handle) {
      ev.handle.resume();
    } else if (ev.cb != nullptr) {
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
