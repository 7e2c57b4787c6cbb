// Discrete-event simulation engine.
//
// The Engine owns the event queue and the global simulated clock. Simulated
// processes are CoTask coroutines spawned onto the engine; they advance the
// clock only by awaiting delay()/until() or synchronization primitives.
// Events scheduled for the same instant fire in schedule order (a strictly
// monotone sequence number breaks ties), so runs are bitwise deterministic.
//
// Hot path: an event is either a coroutine resume (a bare handle, no
// allocation) or a callback. Callbacks are type-erased records placed in a
// per-engine slab pool (sim/pool.hpp), so steady-state scheduling allocates
// nothing once the pool is warm. The pre-pool schedule_fn() shim is gone —
// schedule_call() is the only form (the dpmllint `schedule-fn` rule keeps
// it from coming back).
//
// Two schedulers sit behind SchedulerKind, both draining events in exactly
// the same strict (t, seq) total order — the choice can never change
// simulated results, only host throughput:
//
//   binary_heap  the classic open-coded binary heap over one reserved,
//                flat Event vector.
//   calendar     a calendar-queue hybrid for extreme-scale runs: a small
//                "front" binary heap serves the near future, a year of
//                fixed-width buckets (flat Event vectors whose capacity is
//                recycled across years, same cache-friendly layout) stages
//                the mid future with O(1) inserts, and an overflow vector
//                absorbs everything beyond the year. When the front drains,
//                the next non-empty bucket is heapified into it wholesale —
//                so same-instant bursts (a 100k-rank barrier release) cost
//                one O(n) heapify instead of degenerate bucket scans, and
//                strict (t, seq) order is preserved by the front heap's
//                comparator.
#pragma once

#include <coroutine>
#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/oracle.hpp"
#include "sim/pool.hpp"
#include "sim/task.hpp"
#include "sim/time.hpp"

namespace dpml::sim {

class Flag;

// Event-queue implementation choice. `automatic` is resolved by the layer
// that knows the run's data mode (sim::resolve_scheduler in dataplane.hpp);
// an Engine constructed with `automatic` directly uses the binary heap.
enum class SchedulerKind {
  automatic,
  binary_heap,
  calendar,
};

const char* scheduler_kind_name(SchedulerKind kind);
// Throws util::InvariantError listing the valid names. Accepts "auto",
// "heap"/"binary-heap"/"binary_heap", and "calendar".
SchedulerKind scheduler_kind_by_name(const std::string& name);

// Peak resident set size of this process in KB (getrusage; 0 where
// unsupported). Host-side only, like the wall-clock perf fields.
std::uint64_t peak_rss_kb();

// Host-side performance counters for one engine run (events/sec and the
// wall-clock fields are computed by the callers that own wall timing; the
// engine itself never reads a wall clock).
struct EnginePerf {
  std::uint64_t events = 0;           // events processed
  std::uint64_t peak_live_events = 0; // high-water mark of the front heap
  // High-water mark of the whole event backlog: front heap plus calendar
  // buckets plus overflow. Equal to peak_live_events under the binary heap.
  std::uint64_t peak_queue_depth = 0;
  std::uint64_t peak_rss_kb = 0;      // process peak RSS (host-side, KB)
  PoolStats callback_pool;            // pooled callback records
  PoolStats payload_pool;             // recycled payload buffers
};

class Engine {
 public:
  explicit Engine(SchedulerKind sched = SchedulerKind::binary_heap)
      : sched_(sched == SchedulerKind::calendar ? SchedulerKind::calendar
                                                : SchedulerKind::binary_heap) {
    heap_.reserve(kInitialHeapReserve);
    if (sched_ == SchedulerKind::calendar) buckets_.resize(kNumBuckets);
  }
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;
  ~Engine() {
    // Drop callback records still queued (a run abandoned by an error or a
    // machine torn down mid-simulation) without invoking them, wherever
    // they are staged.
    auto drop = [this](std::vector<Event>& evs) {
      for (Event& ev : evs) {
        if (ev.cb != nullptr) destroy_callback(ev.cb);
      }
      evs.clear();
    };
    drop(heap_);
    for (auto& b : buckets_) drop(b);
    drop(overflow_);
  }

  Time now() const { return now_; }
  SchedulerKind scheduler() const { return sched_; }

  // Schedule a coroutine resume / callback at absolute time `t` (>= now).
  void schedule_at(Time t, std::coroutine_handle<> h) {
    check_not_past(t);
    push_event(Event{t, seq_++, h, nullptr});
  }

  // Schedule an arbitrary callable at absolute time `t`. The callable is
  // moved into a pooled record: no heap allocation once the pool is warm.
  template <typename F>
  void schedule_call(Time t, F&& fn) {
    check_not_past(t);
    post_call(t, seq_++, std::forward<F>(fn));
  }

  // schedule_call with message-delivery metadata for model checking: when
  // an oracle is attached the event is recorded as a deliver on channel
  // `ch`, so same-instant pops can be redirected (sim/oracle.hpp). Without
  // an oracle this is exactly schedule_call.
  template <typename F>
  void schedule_call_mc(Time t, const McChannel& ch, F&& fn) {
    if (oracle_ != nullptr) mc_meta_.emplace(seq_, ch);
    schedule_call(t, std::forward<F>(fn));
  }

  // Reserve `n` consecutive sequence numbers and return the first. Every
  // later schedule_call / schedule_call_mc draws a seq past the block, so a
  // reserved seq never aliases a model-checking tag.
  std::uint64_t reserve_seqs(std::uint64_t n) {
    const std::uint64_t base = seq_;
    seq_ += n;
    return base;
  }

  // schedule_call at a seq taken from reserve_seqs: the event takes the
  // (t, seq) place the reserving batch's event with that seq would have
  // had. The flow fabric posts its one live completion wake this way in
  // place of a per-flow batch (src/fabric/fabric.hpp).
  template <typename F>
  void schedule_call_at_seq(Time t, std::uint64_t seq, F&& fn) {
    check_not_past(t);
    check_reserved(seq);
    post_call(t, seq, std::forward<F>(fn));
  }

  // Keep the clock from stopping before `t`: when run() drains the queue,
  // now() advances to the latest time held. A layer that elides events
  // which would only have fired as no-ops declares their times here, so
  // the end-of-run clock — and every time average taken over it — is
  // unchanged by the elision.
  void hold_until(Time t) {
    if (t > hold_until_) hold_until_ = t;
  }

  // Attach a schedule oracle (model-checking mode). Null — the default —
  // keeps every pop canonical with zero candidate-list work.
  void set_oracle(ScheduleOracle* oracle) { oracle_ = oracle; }
  ScheduleOracle* oracle() const { return oracle_; }

  // Awaitable that resumes the caller after `d` picoseconds.
  // A non-positive delay resumes without suspension.
  auto delay(Time d) { return DelayAwaiter{*this, now_ + (d > 0 ? d : 0)}; }
  auto until(Time t) { return DelayAwaiter{*this, t}; }

  // Run `task` as a detached simulated process. The engine tracks liveness:
  // run() reports a deadlock if the queue drains while processes are blocked.
  void spawn(CoTask<void> task);

  // Run `task` as a sub-operation; the returned Flag posts on completion.
  // Used for non-blocking operations (isend/irecv/iallreduce).
  std::shared_ptr<Flag> spawn_sub(CoTask<void> task);

  // Process events until the queue is empty or a spawned task fails.
  // Rethrows the first task exception; throws util::DeadlockError if
  // processes remain blocked with no pending events.
  void run();

  std::uint64_t events_processed() const { return events_processed_; }
  int live_tasks() const { return live_tasks_; }

  // Pre-size the front event heap (e.g. for the expected number of
  // concurrently scheduled rank events) so early growth does not reallocate
  // mid-run.
  void reserve_events(std::size_t n) {
    if (n > heap_.capacity()) heap_.reserve(n);
  }

  // Recycled payload buffers for the payload data plane (see sim/pool.hpp;
  // access outside the plane is flagged by dpmllint's payload-plane rule).
  BufferPool& payload_pool() { return payload_pool_; }

  // Counters for perf reporting (dpmlsim --perf, MeasureResult::perf).
  EnginePerf perf() const {
    EnginePerf p;
    p.events = events_processed_;
    p.peak_live_events = peak_live_events_;
    p.peak_queue_depth = peak_queue_depth_;
    p.peak_rss_kb = sim::peak_rss_kb();
    p.callback_pool = callback_pool_.stats();
    p.payload_pool = payload_pool_.stats();
    return p;
  }

  // Record a task failure (used by the spawn wrapper; also available to
  // runtime components that detect fatal conditions outside a task).
  void record_error(std::exception_ptr e);

  struct DelayAwaiter {
    Engine& engine;
    Time at;
    bool await_ready() const noexcept { return at <= engine.now(); }
    void await_suspend(std::coroutine_handle<> h) { engine.schedule_at(at, h); }
    void await_resume() const noexcept {}
  };

 private:
  static constexpr std::size_t kInitialHeapReserve = 1024;
  // One calendar year: enough buckets that a year rebuild is rare, few
  // enough that scanning for the next non-empty bucket is trivial.
  static constexpr std::size_t kNumBuckets = 256;
  // Chunk size covering every in-tree schedule_call capture (the largest is
  // the transport's routed-delivery lambda: this + a handful of ints/Times +
  // a moved std::function continuation). Larger captures fall back to
  // operator new, counted as pool misses.
  static constexpr std::size_t kCallbackChunk = 192;

  // Type-erased pooled callback record. invoke() moves the callable out,
  // returns the record to the pool, then runs it — so a callback may throw
  // or schedule further events without holding pool memory.
  struct CallbackBase {
    void (*invoke)(CallbackBase*, Engine&);
    void (*dispose)(CallbackBase*, Engine&);
  };
  template <typename Fn>
  struct Callback : CallbackBase {
    explicit Callback(Fn f) : fn(std::move(f)) {
      invoke = [](CallbackBase* b, Engine& e) {
        auto* self = static_cast<Callback*>(b);
        Fn local = std::move(self->fn);
        self->~Callback();
        e.callback_pool_.deallocate(self, sizeof(Callback));
        local();
      };
      dispose = [](CallbackBase* b, Engine& e) {
        auto* self = static_cast<Callback*>(b);
        self->~Callback();
        e.callback_pool_.deallocate(self, sizeof(Callback));
      };
    }
    Fn fn;
  };

  void destroy_callback(CallbackBase* cb) { cb->dispose(cb, *this); }

  template <typename F>
  void post_call(Time t, std::uint64_t seq, F&& fn) {
    using Fn = std::decay_t<F>;
    void* mem = callback_pool_.allocate(sizeof(Callback<Fn>));
    auto* cb = ::new (mem) Callback<Fn>(std::forward<F>(fn));
    push_event(Event{t, seq, {}, cb});
  }

  // Small-footprint event record: trivially movable, no allocation, stored
  // flat in reserved vectors (front heap, calendar buckets, overflow) so
  // scheduler traversals stay cache-friendly.
  struct Event {
    Time t;
    std::uint64_t seq;
    std::coroutine_handle<> handle;  // preferred: resume directly
    CallbackBase* cb;                // pooled callback otherwise
  };
  // Min-heap order: earliest (t, seq) first.
  static bool later(const Event& a, const Event& b) {
    if (a.t != b.t) return a.t > b.t;
    return a.seq > b.seq;
  }

  void check_not_past(Time t) const;
  void check_reserved(std::uint64_t seq) const;
  void push_event(Event ev);
  Event pop_event();
  // Oracle-attached pop: may redirect which same-instant tagged deliver
  // event leaves the front heap first (engine.cpp).
  Event pop_event_mc();
  bool queue_empty() const { return heap_.empty() && staged_ == 0; }

  // Calendar internals (engine.cpp): refill the front heap from the next
  // non-empty bucket, rebuilding the year from overflow when it is spent.
  void refill_front();
  void rebuild_year();
  void note_queued() {
    const std::uint64_t depth =
        static_cast<std::uint64_t>(heap_.size()) + staged_;
    if (heap_.size() > peak_live_events_) peak_live_events_ = heap_.size();
    if (depth > peak_queue_depth_) peak_queue_depth_ = depth;
  }

  // Detached wrapper coroutine: owns the task, maintains the live count,
  // captures exceptions, posts the optional completion flag.
  struct Detached {
    struct promise_type {
      Detached get_return_object() { return {}; }
      std::suspend_never initial_suspend() noexcept { return {}; }
      std::suspend_never final_suspend() noexcept { return {}; }
      void return_void() {}
      void unhandled_exception() noexcept { std::terminate(); }
    };
  };
  Detached run_detached(CoTask<void> task, std::shared_ptr<Flag> done);

  SchedulerKind sched_;
  // Front heap: the only stage events are popped from. Under the binary
  // heap scheduler it is the whole queue.
  std::vector<Event> heap_;
  // Calendar stages (empty under the binary heap scheduler). Invariants:
  // heap_ holds every queued event with t < front_limit_; bucket i holds
  // events with t in [year_start_ + i*width_, year_start_ + (i+1)*width_)
  // for i >= next_bucket_; overflow_ holds events at or beyond the year end
  // (and everything, initially, until the first year is built).
  std::vector<std::vector<Event>> buckets_;
  std::vector<Event> overflow_;
  Time year_start_ = 0;
  Time width_ = 0;  // 0: no active year
  Time front_limit_ = std::numeric_limits<Time>::min();
  std::size_t next_bucket_ = 0;
  std::uint64_t staged_ = 0;  // events in buckets_ + overflow_
  Time now_ = 0;
  Time hold_until_ = 0;
  std::uint64_t seq_ = 0;
  std::uint64_t events_processed_ = 0;
  std::uint64_t peak_live_events_ = 0;
  std::uint64_t peak_queue_depth_ = 0;
  int live_tasks_ = 0;
  std::exception_ptr error_{};
  SlabPool callback_pool_{kCallbackChunk};
  BufferPool payload_pool_;
  // Model-checking seam: null on every default path. mc_meta_ maps the seq
  // of each still-queued tagged deliver event to its channel; entries are
  // erased when their event pops, so the map stays bounded by the backlog.
  ScheduleOracle* oracle_ = nullptr;
  std::map<std::uint64_t, McChannel> mc_meta_;
};

}  // namespace dpml::sim
