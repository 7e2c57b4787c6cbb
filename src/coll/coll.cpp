#include "coll/coll.hpp"

#include <cstring>
#include <string>

#include "util/error.hpp"

namespace dpml::coll {

std::vector<std::byte> CollArgs::scratch(std::size_t nbytes) const {
  DPML_CHECK(rank != nullptr);
  if (!rank->machine().with_data()) return {};
  return std::vector<std::byte>(nbytes);
}

namespace {

[[noreturn]] void reject(CollKind kind, const std::string& msg) {
  throw util::InvariantError(std::string(coll_kind_name(kind)) + ": " + msg);
}

void check_extent(CollKind kind, const char* name, std::size_t have,
                  std::size_t want) {
  if (have == 0 || have == want) return;
  reject(kind, std::string(name) + " buffer holds " + std::to_string(have) +
                   " bytes; expected " +
                   (want == 0 ? std::string("none")
                              : "0 or " + std::to_string(want)));
}

}  // namespace

void check_args(CollKind kind, const CollArgs& a) {
  if (a.rank == nullptr || a.comm == nullptr) {
    reject(kind, "CollArgs missing rank/comm");
  }
  const KindContract c = contract_of(kind);
  const int p = a.comm->size();
  if (c.rooted && (a.root < 0 || a.root >= p)) {
    reject(kind, "root " + std::to_string(a.root) + " out of range for " +
                     std::to_string(p) + " ranks");
  }
  if (a.inplace && c.in_place == InPlace::no) {
    reject(kind, "does not run in place; pass the input in send");
  }
  const bool in_recv = input_in_recv(kind, a.inplace);
  if (a.inplace && in_recv && !a.send.empty()) {
    reject(kind, "an in-place call passes no send buffer");
  }
  // Any rank may pass an at_root buffer; only the root's is read.
  const std::size_t block = a.bytes();
  check_extent(kind, "send", a.send.size(),
               extent_blocks(c.send, p, true) * block);
  check_extent(kind, "recv", a.recv.size(),
               extent_blocks(c.recv, p, true) * block);
  if (block == 0 || !a.rank->machine().with_data()) return;
  const bool at_root =
      c.rooted && a.comm->rank_of_world(a.rank->world_rank()) == a.root;
  if (input_blocks(kind, p, at_root) > 0 &&
      (in_recv ? a.recv.empty() : a.send.empty())) {
    reject(kind, std::string("a data-mode call needs its input in ") +
                     (in_recv ? "recv" : "send"));
  }
  if (holds_result(kind, at_root) && a.recv.empty()) {
    reject(kind, "a data-mode call needs a recv buffer for its result");
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
