// Slab and frame allocation for simulation hot paths.
//
// The engine schedules millions of short-lived callback records, every
// simulated operation is a coroutine frame, and the transport copies
// payload bytes into per-message buffers; allocating each of those with
// operator new dominates the host-side profile of large sweeps. Three
// pools fix that:
//
//   SlabPool    fixed-size-chunk allocator with an intrusive free list.
//               Chunks come from slabs (large blocks carved on demand);
//               freed chunks go back on the free list, so steady-state
//               allocation is a pointer pop. Requests larger than the chunk
//               size fall back to operator new (counted as misses).
//
//   FramePool   per-thread, size-classed recycler for coroutine frames
//               (CoTask promises and the engine's detached wrapper) and the
//               per-message records handed out through FrameAllocator
//               (spawn_sub's completion Flag, irecv's result). Classes are
//               16 bytes apart up to 2 KB, carved from slabs; a freed block
//               goes on its class's free list, so a warm pool serves a
//               frame with a pointer pop. Larger frames go to operator new
//               as counted misses. Each Engine attaches on construction;
//               when the thread's last engine is destroyed the pool hands
//               its slabs back to the system allocator (if a frame is still
//               alive, once it dies).
//
//   BufferPool  recycler for std::vector<std::byte> payload buffers,
//               bucketed by power-of-two capacity class. acquire() resizes
//               a recycled vector (no reallocation when the class matches);
//               release() returns the storage for the next message.
//
// None of the pools is thread-safe: each Engine owns its SlabPool and
// BufferPool, the FramePool is per thread, and one engine is only ever
// built, driven and torn down on one thread (the parallel sweep executor
// gives every job its own Machine/Engine). Accounting invariants — live
// counts, hit/miss totals, zero live allocations at teardown — are asserted
// in debug and locked by tests/sim_pool_test.cpp.
//
// Under AddressSanitizer the slab pools poison the memory they hold free
// (the ASAN_* macros are no-ops otherwise), so a use after free of a pooled
// callback record, frame or message record is still reported even though
// the block never goes back to the system allocator.
#pragma once

#include <sanitizer/asan_interface.h>

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <utility>
#include <vector>

#include "util/error.hpp"

namespace dpml::sim {

// Allocation counters shared by the pools (and surfaced through
// Engine::perf() into MeasureResult / dpmlsim --perf).
struct PoolStats {
  std::uint64_t hits = 0;        // served from the free list / bucket
  std::uint64_t misses = 0;      // needed fresh memory (slab carve, oversize)
  std::uint64_t live = 0;        // currently outstanding allocations
  std::uint64_t peak_live = 0;   // high-water mark of `live`
  std::uint64_t bytes_reserved = 0;  // memory held by the pool itself

  double hit_rate() const {
    const std::uint64_t total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) /
                                  static_cast<double>(total);
  }
  void note_alloc(bool hit) {
    hit ? ++hits : ++misses;
    ++live;
    if (live > peak_live) peak_live = live;
  }
  void note_free() {
    DPML_CHECK_MSG(live > 0, "pool free without a matching allocation");
    --live;
  }
  void merge(const PoolStats& o) {
    hits += o.hits;
    misses += o.misses;
    live += o.live;
    peak_live += o.peak_live;
    bytes_reserved += o.bytes_reserved;
  }
};

class SlabPool {
 public:
  explicit SlabPool(std::size_t chunk_size, std::size_t chunks_per_slab = 256)
      : chunk_size_(align_up(chunk_size)), chunks_per_slab_(chunks_per_slab) {
    DPML_CHECK(chunk_size_ >= sizeof(FreeChunk) && chunks_per_slab_ > 0);
  }
  SlabPool(const SlabPool&) = delete;
  SlabPool& operator=(const SlabPool&) = delete;
  ~SlabPool() {
    // Every allocation must have been returned; a live chunk here would be
    // freed out from under its owner when the slabs are released.
    DPML_CHECK_MSG(stats_.live == 0,
                   "SlabPool destroyed with live allocations");
    for (std::byte* s : slabs_) {
      ASAN_UNPOISON_MEMORY_REGION(s, chunk_size_ * chunks_per_slab_);
      ::operator delete[](s, std::align_val_t{kAlign});
    }
  }

  std::size_t chunk_size() const { return chunk_size_; }
  const PoolStats& stats() const { return stats_; }

  void* allocate(std::size_t size) {
    if (size > chunk_size_) {
      stats_.note_alloc(/*hit=*/false);
      return ::operator new(size, std::align_val_t{kAlign});
    }
    if (free_ == nullptr) {
      carve_slab();
      stats_.note_alloc(/*hit=*/false);
    } else {
      stats_.note_alloc(/*hit=*/true);
    }
    FreeChunk* c = free_;
    ASAN_UNPOISON_MEMORY_REGION(c, chunk_size_);
    free_ = c->next;
    return c;
  }

  void deallocate(void* p, std::size_t size) {
    if (p == nullptr) return;
    stats_.note_free();
    if (size > chunk_size_) {
      ::operator delete(p, std::align_val_t{kAlign});
      return;
    }
    auto* c = static_cast<FreeChunk*>(p);
    c->next = free_;
    free_ = c;
    ASAN_POISON_MEMORY_REGION(c, chunk_size_);
  }

 private:
  static constexpr std::size_t kAlign = alignof(std::max_align_t);
  static std::size_t align_up(std::size_t n) {
    return (n + kAlign - 1) / kAlign * kAlign;
  }

  struct FreeChunk {
    FreeChunk* next;
  };

  void carve_slab() {
    const std::size_t bytes = chunk_size_ * chunks_per_slab_;
    auto* slab = static_cast<std::byte*>(
        ::operator new[](bytes, std::align_val_t{kAlign}));
    slabs_.push_back(slab);
    stats_.bytes_reserved += bytes;
    // Push in reverse so the free list hands chunks out in address order.
    for (std::size_t i = chunks_per_slab_; i-- > 0;) {
      auto* c = reinterpret_cast<FreeChunk*>(slab + i * chunk_size_);
      c->next = free_;
      free_ = c;
    }
    ASAN_POISON_MEMORY_REGION(slab, bytes);
  }

  std::size_t chunk_size_;
  std::size_t chunks_per_slab_;
  FreeChunk* free_ = nullptr;
  std::vector<std::byte*> slabs_;
  PoolStats stats_;
};

// Per-thread size-classed pool for coroutine frames and per-message
// records. Not a member of the Engine: a coroutine's operator new sees only
// the frame size, so the pool is reached through FramePool::local(). The
// object is constant-initialized and trivially destructible, so that call
// is a plain thread-local access. A block goes back on the thread that took
// it: a frame is created, run and destroyed on its engine's thread.
//
// Blocks are carved from 64 KB slabs, so a miss is a pointer bump and
// giving the memory back is a few frees, not one per block. The pool holds
// no memory while no engine is alive on its thread and no block is out:
// the last engine's detach, or the last block's return after it, frees
// the slabs.
class FramePool {
 public:
  static constexpr std::size_t kGranule = 16;      // class spacing (bytes)
  static constexpr std::size_t kMaxPooled = 2048;  // larger: operator new
  static constexpr std::size_t kClasses = kMaxPooled / kGranule;
  static constexpr std::size_t kSlabBytes = 64 * 1024;

  constexpr FramePool() = default;
  FramePool(const FramePool&) = delete;
  FramePool& operator=(const FramePool&) = delete;

  // This thread's pool.
  static FramePool& local();

  void* allocate(std::size_t size) {
    if (size > kMaxPooled) {
      stats_.note_alloc(/*hit=*/false);
      return ::operator new(size);
    }
    const std::size_t cls = class_of(size);
    FreeBlock* b = free_[cls];
    if (b == nullptr) {
      stats_.note_alloc(/*hit=*/false);
      return carve(class_bytes(cls));
    }
    ASAN_UNPOISON_MEMORY_REGION(b, class_bytes(cls));
    free_[cls] = b->next;
    stats_.note_alloc(/*hit=*/true);
    return b;
  }

  void deallocate(void* p, std::size_t size) noexcept {
    if (p == nullptr) return;
    stats_.note_free();
    if (size > kMaxPooled) {
      ::operator delete(p);
    } else {
      auto* b = static_cast<FreeBlock*>(p);
      const std::size_t cls = class_of(size);
      b->next = free_[cls];
      free_[cls] = b;
      ASAN_POISON_MEMORY_REGION(b, class_bytes(cls));
    }
    if (engines_ == 0 && stats_.live == 0) release();
  }

  // Engine lifetime hooks: once the thread's last engine is gone and every
  // block is back, the slabs go back to the system allocator.
  void attach() noexcept { ++engines_; }
  void detach() noexcept {
    if (--engines_ == 0 && stats_.live == 0) release();
  }
  int engines() const noexcept { return engines_; }

  // This thread's counters since the thread started: hits, misses (carved
  // or oversize blocks), live blocks and their high-water mark since the
  // pool last emptied, and the slab bytes held.
  const PoolStats& stats() const noexcept { return stats_; }
  // stats() with hits and misses counted from `base`, an earlier stats()
  // snapshot: one engine's share of a pool its thread may share.
  PoolStats stats_since(const PoolStats& base) const noexcept {
    PoolStats s = stats_;
    s.hits -= base.hits;
    s.misses -= base.misses;
    return s;
  }

 private:
  struct FreeBlock {
    FreeBlock* next;
  };
  struct alignas(kGranule) Slab {
    Slab* next;
  };
  static constexpr std::size_t class_of(std::size_t size) {
    return size == 0 ? 0 : (size - 1) / kGranule;
  }
  static constexpr std::size_t class_bytes(std::size_t cls) {
    return (cls + 1) * kGranule;
  }

  void* carve(std::size_t bytes) {
    if (static_cast<std::size_t>(end_ - next_) < bytes) {
      auto* slab = static_cast<Slab*>(::operator new(kSlabBytes));
      slab->next = slabs_;
      slabs_ = slab;
      next_ = reinterpret_cast<std::byte*>(slab) + sizeof(Slab);
      end_ = reinterpret_cast<std::byte*>(slab) + kSlabBytes;
      stats_.bytes_reserved += kSlabBytes;
      ASAN_POISON_MEMORY_REGION(next_, end_ - next_);
    }
    void* p = next_;
    next_ += bytes;
    ASAN_UNPOISON_MEMORY_REGION(p, bytes);
    return p;
  }

  void release() noexcept {
    if (slabs_ == nullptr) return;
    while (slabs_ != nullptr) {
      Slab* next = slabs_->next;
      ASAN_UNPOISON_MEMORY_REGION(slabs_, kSlabBytes);
      ::operator delete(slabs_);
      slabs_ = next;
    }
    for (FreeBlock*& head : free_) head = nullptr;
    next_ = end_ = nullptr;
    stats_.bytes_reserved = 0;
    stats_.peak_live = 0;
  }

  FreeBlock* free_[kClasses] = {};
  Slab* slabs_ = nullptr;
  std::byte* next_ = nullptr;  // the newest slab's unused tail
  std::byte* end_ = nullptr;
  int engines_ = 0;
  PoolStats stats_;
};

namespace detail {
inline thread_local constinit FramePool t_frame_pool;
}  // namespace detail

inline FramePool& FramePool::local() { return detail::t_frame_pool; }

// Standard allocator over this thread's FramePool: std::allocate_shared
// with it puts a shared record and its control block in one pooled block.
template <typename T>
struct FrameAllocator {
  using value_type = T;
  static_assert(alignof(T) <= __STDCPP_DEFAULT_NEW_ALIGNMENT__,
                "FramePool blocks carry operator new's default alignment");

  FrameAllocator() = default;
  template <typename U>
  FrameAllocator(const FrameAllocator<U>&) noexcept {}

  T* allocate(std::size_t n) {
    return static_cast<T*>(FramePool::local().allocate(n * sizeof(T)));
  }
  void deallocate(T* p, std::size_t n) noexcept {
    FramePool::local().deallocate(p, n * sizeof(T));
  }
  template <typename U>
  bool operator==(const FrameAllocator<U>&) const noexcept {
    return true;
  }
};

// A shared T in one FramePool block (record and control block together).
template <typename T, typename... Args>
std::shared_ptr<T> make_pooled(Args&&... args) {
  return std::allocate_shared<T>(FrameAllocator<T>{},
                                 std::forward<Args>(args)...);
}

// Power-of-two-bucketed recycler for payload byte buffers. The transport
// copies each in-flight message's bytes into an owned buffer; recycling the
// storage turns that per-message allocation into a bucket pop once the
// working set is warm.
class BufferPool {
 public:
  BufferPool() = default;
  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  const PoolStats& stats() const { return stats_; }

  // A buffer of exactly `size` bytes (contents unspecified: callers
  // overwrite the full span). Capacity comes from the size-class bucket
  // when one is warm.
  std::vector<std::byte> acquire(std::size_t size) {
    std::vector<std::byte> buf;
    auto& bucket = buckets_[class_of(size)];
    if (!bucket.empty()) {
      buf = std::move(bucket.back());
      bucket.pop_back();
      stats_.bytes_reserved -= buf.capacity();
      stats_.note_alloc(/*hit=*/true);
    } else {
      buf.reserve(std::size_t{1} << class_of(size));
      stats_.note_alloc(/*hit=*/false);
    }
    buf.resize(size);
    return buf;
  }

  // Return a buffer's storage for reuse. Empty vectors are ignored (the
  // metadata-only path never owns payload storage).
  void release(std::vector<std::byte>&& buf) {
    if (buf.capacity() == 0) return;
    stats_.note_free();
    buf.clear();
    stats_.bytes_reserved += buf.capacity();
    buckets_[class_of(buf.capacity())].push_back(std::move(buf));
  }

  // The transport releases buffers it got from acquire(); an empty span
  // from a metadata-only run never hit the pool, so the live count must
  // only drop for real storage.
  std::uint64_t live() const { return stats_.live; }

 private:
  static constexpr std::size_t kClasses = 32;  // up to 2^31 bytes
  static std::size_t class_of(std::size_t size) {
    std::size_t cls = 0;
    while ((std::size_t{1} << cls) < size && cls + 1 < kClasses) ++cls;
    return cls;
  }

  std::vector<std::vector<std::byte>> buckets_[kClasses];
  PoolStats stats_;
};

}  // namespace dpml::sim
