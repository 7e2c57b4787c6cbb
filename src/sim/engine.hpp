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
// per-engine slab pool (sim/pool.hpp), and coroutine frames — every
// CoTask, the detached wrapper of spawn()/spawn_sub() — come from the
// thread's FramePool, as does spawn_sub()'s completion Flag. Once the
// pools are warm, steady-state scheduling and spawning allocate nothing.
// The pre-pool schedule_fn() shim is gone — schedule_call() is the only
// form (the dpmllint `schedule-fn` rule keeps it from coming back).
//
// Teardown: the engine tracks its live detached processes. A run that
// deadlocks or fails leaves some suspended; destroy_suspended() destroys
// their frames (Machine calls it before its checker, matchers and slots
// go, ~Engine for a bare engine), so every pooled frame is back before the
// thread's pool gives its memory up.
//
// The event queue is an instant queue. Ranks of a collective run in
// lockstep, so many queued events share a timestamp: the queue keeps one
// FIFO run of events per distinct timestamp (pooled items linked by index)
// and a binary heap over the timestamps only. A flat open-addressing
// table maps a timestamp to its run, and the last-pushed instant is
// cached. Pops drain the earliest run from its head; only opening and
// closing a run touches the heap. Events drain in strict (t, seq) order
// (docs/MODEL.md §10 gives the argument).
#pragma once

#include <algorithm>
#include <coroutine>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/oracle.hpp"
#include "sim/pool.hpp"
#include "sim/task.hpp"
#include "sim/time.hpp"

namespace dpml::sim {

class Flag;

// Ignored: one event queue serves every run. The type and the `scheduler`
// option fields that carry it remain only because the benchmark driver
// (benchmark/dpmlbench.cpp) still sets them.
enum class SchedulerKind {
  automatic,
  binary_heap,
  calendar,
};

// Peak resident set size of this process in KB (getrusage; 0 where
// unsupported). Host-side only, like the wall-clock perf fields.
std::uint64_t peak_rss_kb();

// Host-side performance counters for one engine run (events/sec and the
// wall-clock fields are computed by the callers that own wall timing; the
// engine itself never reads a wall clock).
struct EnginePerf {
  std::uint64_t events = 0;           // events processed
  std::uint64_t resumes = 0;          // ... of which coroutine resumes
  std::uint64_t callbacks = 0;        // ... of which pooled callbacks
  std::uint64_t instants = 0;         // runs opened (distinct-instant pushes)
  std::uint64_t peak_instants = 0;    // most runs queued at once
  std::uint64_t peak_queue_depth = 0; // queued-event high-water mark
  PoolStats callback_pool;            // pooled callback records
  PoolStats payload_pool;             // recycled payload buffers
  // Coroutine frames and per-message records: the thread's FramePool,
  // with hits and misses counted since this engine was built.
  PoolStats frame_pool;

  // Fold another run's counters in: sums, the maxima of the peaks, and
  // merged pools.
  void merge(const EnginePerf& o) {
    events += o.events;
    resumes += o.resumes;
    callbacks += o.callbacks;
    instants += o.instants;
    peak_instants = std::max(peak_instants, o.peak_instants);
    peak_queue_depth = std::max(peak_queue_depth, o.peak_queue_depth);
    callback_pool.merge(o.callback_pool);
    payload_pool.merge(o.payload_pool);
    frame_pool.merge(o.frame_pool);
  }
};

class Engine {
 public:
  Engine();
  explicit Engine(SchedulerKind) : Engine() {}  // see SchedulerKind
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;
  ~Engine();

  Time now() const { return now_; }

  // Schedule a coroutine resume / callback at absolute time `t` (>= now).
  void schedule_at(Time t, std::coroutine_handle<> h) {
    check_not_past(t);
    push_event(t, seq_++, h, nullptr);
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

  // Run `task` as a sub-operation; the returned Flag (a FramePool record)
  // posts on completion. Used for non-blocking operations
  // (isend/irecv/iallreduce).
  std::shared_ptr<Flag> spawn_sub(CoTask<void> task);

  // Destroy every spawned process that is still suspended (a deadlocked or
  // abandoned run), with the tasks it owns. Call it while everything their
  // frames reference still exists; queued resumes of those frames must
  // never run afterwards, so the engine is not run again.
  void destroy_suspended();

  // Process events until the queue is empty or a spawned task fails.
  // Rethrows the first task exception; throws util::DeadlockError if
  // processes remain blocked with no pending events.
  void run();

  std::uint64_t events_processed() const { return resumes_ + callbacks_; }
  int live_tasks() const { return live_tasks_; }

  // Pre-size the event item pool (e.g. for the expected number of
  // concurrently scheduled rank events) so early growth does not reallocate
  // mid-run.
  void reserve_events(std::size_t n) { items_.reserve(n); }

  // Recycled payload buffers for the payload data plane (see sim/pool.hpp;
  // access outside the plane is flagged by dpmllint's payload-plane rule).
  BufferPool& payload_pool() { return payload_pool_; }

  // Counters for perf reporting (dpmlsim --perf, MeasureResult::perf).
  EnginePerf perf() const {
    EnginePerf p;
    p.events = events_processed();
    p.resumes = resumes_;
    p.callbacks = callbacks_;
    p.instants = instants_;
    p.peak_instants = peak_instants_;
    p.peak_queue_depth = peak_queued_;
    p.callback_pool = callback_pool_.stats();
    p.payload_pool = payload_pool_.stats();
    p.frame_pool = FramePool::local().stats_since(frame_base_);
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
  static constexpr std::uint32_t kNil = 0xffffffffu;  // no item / no run
  // Initial timestamp-table size: a power of two, kept at most half full.
  static constexpr int kInitialTableBits = 10;
  // Chunk size covering every in-tree schedule_call capture (the largest is
  // the transport's cross-leaf hop: this + a handful of ints/Times + the
  // moved delivery continuation with its eager Envelope). Larger captures
  // fall back to operator new, counted as pool misses.
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
    push_event(t, seq, {}, cb);
  }

  // One queued event: a pooled item of its instant's run. Items never move
  // while queued, so runs link them by index.
  struct Item {
    std::uint64_t seq;
    std::coroutine_handle<> handle;  // preferred: resume directly
    CallbackBase* cb;                // pooled callback otherwise
    std::uint32_t next;              // next item of the run or free list
  };
  // The events queued at one timestamp, ascending in seq.
  struct Run {
    std::uint32_t head;  // kNil when drained; free-list link once closed
    std::uint32_t tail;
  };
  // A queued timestamp and its run: the entry of both the heap and the
  // timestamp table (where run == kNil marks an empty slot).
  struct Instant {
    Time t;
    std::uint32_t run;
  };
  static bool later(const Instant& a, const Instant& b) { return a.t > b.t; }
  // What run() needs of a popped event.
  struct Event {
    Time t;
    std::coroutine_handle<> handle;
    CallbackBase* cb;
  };

  void check_not_past(Time t) const;
  void check_reserved(std::uint64_t seq) const;
  void push_event(Time t, std::uint64_t seq, std::coroutine_handle<> h,
                  CallbackBase* cb);
  // The run of instant `t`, opened if no event at `t` is queued.
  std::uint32_t run_at(Time t);
  std::uint32_t open_run(Time t);
  Event pop_event();
  // Oracle-attached pop: may redirect which same-instant tagged deliver
  // event leaves the front run first (engine.cpp).
  Event pop_event_mc();
  // Unlink item `i` (after `prev`, kNil at the head) from the front run.
  Event take(std::uint32_t prev, std::uint32_t i);
  // Drop the drained front run from the heap and the table.
  void close_front();
  std::size_t home_slot(Time t) const {
    return static_cast<std::size_t>(
        (static_cast<std::uint64_t>(t) * 0x9E3779B97F4A7C15ull) >>
        table_shift_);
  }
  void grow_table();

  // Detached wrapper coroutine: owns the task, maintains the live count,
  // captures exceptions, posts the optional completion flag. Its promise
  // links itself into the engine's list of live roots while the frame
  // exists, so destroy_suspended() can reach a frame that never finishes.
  struct Detached {
    struct promise_type {
      promise_type(Engine& e, CoTask<void>&, std::shared_ptr<Flag>&)
          : engine(e), next(e.roots_) {
        if (next != nullptr) next->prev = this;
        e.roots_ = this;
      }
      ~promise_type() {
        (prev != nullptr ? prev->next : engine.roots_) = next;
        if (next != nullptr) next->prev = prev;
      }
      static void* operator new(std::size_t size) {
        return FramePool::local().allocate(size);
      }
      static void operator delete(void* p, std::size_t size) noexcept {
        FramePool::local().deallocate(p, size);
      }
      Detached get_return_object() { return {}; }
      std::suspend_never initial_suspend() noexcept { return {}; }
      std::suspend_never final_suspend() noexcept { return {}; }
      void return_void() {}
      void unhandled_exception() noexcept { std::terminate(); }

      Engine& engine;
      promise_type* prev = nullptr;
      promise_type* next;
    };
  };
  Detached run_detached(CoTask<void> task, std::shared_ptr<Flag> done);

  // Invariants: every queued timestamp has exactly one open run, listed
  // once in heap_ and once in table_; only the front run may be empty
  // (it closes on the next pop, so pushes at now() keep joining it).
  std::vector<Item> items_;
  std::uint32_t free_item_ = kNil;
  std::vector<Run> runs_;
  std::uint32_t free_run_ = kNil;
  std::vector<Instant> heap_;   // min-heap on t
  std::vector<Instant> table_;  // linear probing, at most half full
  int table_shift_ = 64 - kInitialTableBits;
  Time cached_t_ = -1;  // the last-pushed instant (none: no push is < 0)
  std::uint32_t cached_run_ = kNil;
  std::uint64_t queued_ = 0;
  Time now_ = 0;
  Time hold_until_ = 0;
  std::uint64_t seq_ = 0;
  std::uint64_t resumes_ = 0;
  std::uint64_t callbacks_ = 0;
  std::uint64_t instants_ = 0;
  std::uint64_t peak_instants_ = 0;
  std::uint64_t peak_queued_ = 0;
  int live_tasks_ = 0;
  Detached::promise_type* roots_ = nullptr;  // live detached frames
  PoolStats frame_base_;  // the thread's FramePool counters at construction
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
