// The data plane: the one owner of in-flight payload bytes and of the
// collectives' scratch.
//
// Simulated time is charged from message metadata (size, dtype, op-cost),
// never from payload bytes, so a Machine runs in one of two modes with
// bit-identical results (docs/MODEL.md §10, tests/timeonly_test.cpp):
// payload machines (RunOptions::with_data) copy each outgoing payload into
// a pooled buffer recycled on delivery, and draw scratch from the same
// pool; metadata-only machines pass empty spans end to end, allocate
// nothing and count the bytes they elided. Pooled buffers are not
// zero-filled: each is overwritten before it is read.
// dpmllint's `payload-plane` rule flags Engine::payload_pool() access
// outside this file and the engine/pool internals.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <new>
#include <span>
#include <utility>
#include <vector>

#include "sim/engine.hpp"
#include "util/error.hpp"

namespace dpml::sim {

// Ignored: every run uses the one PayloadPlane, and metadata-only runs
// (with_data = false) are the payload-free mode. The type and the
// `data_mode` option fields that carry it remain only because the benchmark
// driver (benchmark/dpmlbench.cpp) still sets them.
enum class DataMode {
  payload,
  timeonly,
};

// A scratch buffer drawn from the payload pool, handed back to it when
// destroyed (so a collective's later invocations reuse warm storage);
// empty on metadata-only machines. Its bytes start unwritten: the holder
// writes a range before reading it.
class ScratchBuffer {
 public:
  ScratchBuffer() = default;
  ScratchBuffer(BufferPool& pool, std::size_t bytes)
      : pool_(&pool), buf_(pool.acquire(bytes)) {}
  ScratchBuffer(ScratchBuffer&& o) noexcept
      : pool_(std::exchange(o.pool_, nullptr)), buf_(std::move(o.buf_)) {}
  ScratchBuffer& operator=(ScratchBuffer&& o) noexcept {
    if (this != &o) {
      release();
      pool_ = std::exchange(o.pool_, nullptr);
      buf_ = std::move(o.buf_);
    }
    return *this;
  }
  ScratchBuffer(const ScratchBuffer&) = delete;
  ScratchBuffer& operator=(const ScratchBuffer&) = delete;
  ~ScratchBuffer() { release(); }

  std::byte* data() noexcept { return buf_.data(); }
  std::size_t size() const noexcept { return buf_.size(); }
  bool empty() const noexcept { return buf_.empty(); }
  std::byte* begin() noexcept { return buf_.data(); }
  std::byte* end() noexcept { return buf_.data() + buf_.size(); }

 private:
  void release() noexcept {
    if (pool_ == nullptr) return;
    try {
      pool_->release(std::move(buf_));
    } catch (const std::bad_alloc&) {
      // The bucket could not grow: buf_ frees its storage instead, which
      // costs a later acquire a fresh allocation and nothing else.
    }
    pool_ = nullptr;
  }

  BufferPool* pool_ = nullptr;
  ByteBuffer buf_;
};

class PayloadPlane {
 public:
  PayloadPlane(Engine& engine, bool with_data)
      : engine_(engine), with_data_(with_data) {}

  // Take ownership of the payload `data` of an outgoing `bytes`-byte
  // message: a pooled copy on payload machines, nothing on metadata-only
  // ones (which throw util::InvariantError if `data` is not empty).
  ByteBuffer capture(std::size_t bytes, std::span<const std::byte> data) {
    if (!with_data_) {
      DPML_CHECK_MSG(data.empty(),
                     "payload bytes reached a metadata-only machine; "
                     "with_data = false runs must pass empty spans end to "
                     "end");
      elided_bytes_ += bytes;
      return {};
    }
    if (data.empty()) return {};
    ByteBuffer buf = engine_.payload_pool().acquire(data.size());
    std::memcpy(buf.data(), data.data(), data.size());
    copied_bytes_ += data.size();
    return buf;
  }

  // Return a delivered payload's storage to the pool.
  void reclaim(ByteBuffer payload) {
    engine_.payload_pool().release(std::move(payload));
  }

  // A collective's scratch of `bytes` bytes from the pool; empty on
  // metadata-only machines and for zero bytes.
  ScratchBuffer scratch(std::size_t bytes) {
    if (!with_data_ || bytes == 0) return {};
    return ScratchBuffer(engine_.payload_pool(), bytes);
  }

  // Recycler handed to receive-side matchers so consumed payload buffers
  // flow back into the pool.
  BufferPool* recycler() noexcept { return &engine_.payload_pool(); }

  // Payload bytes a metadata-only machine has elided so far (0 on payload
  // machines).
  std::uint64_t elided_bytes() const noexcept { return elided_bytes_; }
  // Payload bytes a payload machine has copied into message buffers so far
  // (0 on metadata-only machines).
  std::uint64_t copied_bytes() const noexcept { return copied_bytes_; }

 private:
  Engine& engine_;
  bool with_data_;
  std::uint64_t elided_bytes_ = 0;
  std::uint64_t copied_bytes_ = 0;
};

}  // namespace dpml::sim
