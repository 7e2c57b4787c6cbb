#include "coll/coll.hpp"

#include <cstring>

#include "util/error.hpp"

namespace dpml::coll {

std::vector<std::byte> CollArgs::scratch(std::size_t nbytes) const {
  DPML_CHECK(rank != nullptr);
  if (!rank->machine().with_data()) return {};
  return std::vector<std::byte>(nbytes);
}

void CollArgs::check() const {
  DPML_CHECK_MSG(rank != nullptr && comm != nullptr,
                 "CollArgs missing rank/comm");
  const std::size_t nbytes = bytes();
  DPML_CHECK_MSG(recv.empty() || recv.size() == nbytes,
                 "recv buffer size mismatch");
  if (inplace) {
    DPML_CHECK_MSG(send.empty(), "in-place collective must not pass sendbuf");
  } else {
    DPML_CHECK_MSG(send.empty() || send.size() == nbytes,
                   "send buffer size mismatch");
  }
  if (rank->machine().with_data()) {
    DPML_CHECK_MSG(!recv.empty() || nbytes == 0,
                   "data-mode collective requires a recv buffer");
    DPML_CHECK_MSG(inplace || !send.empty() || nbytes == 0,
                   "data-mode collective requires a send buffer");
  }
}

Part partition(std::size_t count, int parts, int index) {
  DPML_CHECK(parts >= 1);
  DPML_CHECK(index >= 0 && index < parts);
  const std::size_t base = count / static_cast<std::size_t>(parts);
  const std::size_t rem = count % static_cast<std::size_t>(parts);
  const auto idx = static_cast<std::size_t>(index);
  Part p;
  p.count = base + (idx < rem ? 1 : 0);
  p.offset = base * idx + (idx < rem ? idx : rem);
  return p;
}

sim::Engine::DelayAwaiter local_copy(Rank& r, std::size_t bytes,
                                     MutBytes dst, ConstBytes src) {
  if (!dst.empty() && !src.empty()) std::memcpy(dst.data(), src.data(), bytes);
  const auto& host = r.machine().config().host;
  return r.engine().delay(host.copy_startup +
                          sim::transfer_time(bytes, host.copy_bw));
}

sim::Engine::DelayAwaiter copy_in(const CollArgs& a, MutBytes to) {
  if (a.inplace) return a.rank->engine().delay(0);
  return local_copy(*a.rank, a.bytes(), to, a.send);
}

InterAlgo resolve_auto(std::size_t bytes, int comm_size) {
  if (comm_size <= 2) return InterAlgo::recursive_doubling;
  if (bytes <= 2048) return InterAlgo::recursive_doubling;
  return InterAlgo::reduce_scatter_allgather;
}

sim::CoTask<void> inter_allreduce(CollArgs a, InterAlgo algo) {
  if (algo == InterAlgo::automatic) {
    algo = resolve_auto(a.bytes(), a.comm->size());
  }
  switch (algo) {
    case InterAlgo::recursive_doubling:
      return allreduce_recursive_doubling(std::move(a));
    case InterAlgo::reduce_scatter_allgather:
      return allreduce_reduce_scatter_allgather(std::move(a));
    case InterAlgo::ring:
      return allreduce_ring_channels(std::move(a), 1);
    case InterAlgo::binomial:
      return allreduce_binomial(std::move(a));
    case InterAlgo::automatic:
      break;
  }
  DPML_CHECK_MSG(false, "unreachable inter algo");
}

}  // namespace dpml::coll
