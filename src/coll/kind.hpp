// The nine collective kinds and their per-kind buffer contract.
//
// Dependency-free, so the registry (coll/registry.hpp), the algorithms'
// entry validation (coll::check_args), the measurement harness, the
// explorer and the semantics checker (check/check.hpp), which sits below
// the coll layer, read one enum, one spelling and one contract.
#pragma once

#include <cstddef>

namespace dpml::coll {

enum class CollKind {
  allreduce,
  reduce,
  bcast,
  alltoall,
  allgather,
  reduce_scatter,
  gather,
  scatter,
  barrier,
};

inline constexpr CollKind kAllCollKinds[] = {
    CollKind::allreduce,      CollKind::reduce,  CollKind::bcast,
    CollKind::alltoall,       CollKind::allgather,
    CollKind::reduce_scatter, CollKind::gather,  CollKind::scatter,
    CollKind::barrier};

constexpr const char* coll_kind_name(CollKind k) {
  switch (k) {
    case CollKind::allreduce: return "allreduce";
    case CollKind::reduce: return "reduce";
    case CollKind::bcast: return "bcast";
    case CollKind::alltoall: return "alltoall";
    case CollKind::allgather: return "allgather";
    case CollKind::reduce_scatter: return "reduce_scatter";
    case CollKind::gather: return "gather";
    case CollKind::scatter: return "scatter";
    case CollKind::barrier: return "barrier";
  }
  return "?";
}

// A buffer's extent in blocks of `count` elements (`count` as
// coll/registry.hpp defines it per kind).
enum class Extent : unsigned char {
  none,     // the kind takes no such buffer
  one,      // one block
  all,      // p blocks, one per comm rank
  at_root,  // p blocks at the root; the other ranks' go unused
};

// Where a rank's input sits when the call is not in place.
enum class InputAt : unsigned char {
  none,       // no data (barrier)
  send,       // in send (for scatter the root's only: its send is at_root)
  root_recv,  // in the root's recv (bcast)
};

// What an in-place call (CollArgs::inplace, MPI_IN_PLACE) means.
enum class InPlace : unsigned char {
  no,       // rejected
  recv,     // the input sits in recv (in block `me` when recv spans p
            // blocks: allgather) and send stays empty
  ignored,  // accepted and ignored: the input stays in send (alltoall)
};

// One kind's buffer contract. check::reference_mismatch says what the
// outputs must equal.
struct KindContract {
  bool rooted = false;   // reduce, bcast, gather, scatter
  bool reduces = false;  // allreduce, reduce, reduce_scatter
  Extent send = Extent::none;
  Extent recv = Extent::none;
  InputAt input = InputAt::none;
  InPlace in_place = InPlace::no;
};

constexpr KindContract contract_of(CollKind k) {
  using E = Extent;
  using I = InputAt;
  switch (k) {
    case CollKind::allreduce:
      return {false, true, E::one, E::one, I::send, InPlace::recv};
    case CollKind::reduce:
      return {true, true, E::one, E::one, I::send, InPlace::recv};
    case CollKind::bcast:
      return {true, false, E::none, E::one, I::root_recv, InPlace::recv};
    case CollKind::alltoall:
      return {false, false, E::all, E::all, I::send, InPlace::ignored};
    case CollKind::allgather:
      return {false, false, E::one, E::all, I::send, InPlace::recv};
    case CollKind::reduce_scatter:
      return {false, true, E::all, E::one, I::send, InPlace::no};
    case CollKind::gather:
      return {true, false, E::one, E::at_root, I::send, InPlace::no};
    case CollKind::scatter:
      return {true, false, E::at_root, E::one, I::send, InPlace::no};
    case CollKind::barrier:
      break;
  }
  return {};  // barrier: count 0 and no buffers
}

// Whether a rank's input sits in recv: the bcast root's always, and every
// rank's in an in-place call of a kind whose in-place form is real.
constexpr bool input_in_recv(CollKind k, bool inplace) {
  const KindContract c = contract_of(k);
  return c.input == InputAt::root_recv ||
         (inplace && c.in_place == InPlace::recv);
}

// Blocks a buffer of extent `e` spans at one rank of a p-rank communicator
// (0: the rank passes none).
constexpr std::size_t extent_blocks(Extent e, int p, bool at_root) {
  switch (e) {
    case Extent::none: return 0;
    case Extent::one: return 1;
    case Extent::all: return static_cast<std::size_t>(p);
    case Extent::at_root: return at_root ? static_cast<std::size_t>(p) : 0;
  }
  return 0;
}

// Blocks of one rank's input (0: the rank contributes none).
constexpr std::size_t input_blocks(CollKind k, int p, bool at_root) {
  const KindContract c = contract_of(k);
  switch (c.input) {
    case InputAt::none: return 0;
    case InputAt::send: return extent_blocks(c.send, p, at_root);
    case InputAt::root_recv: return at_root ? 1 : 0;
  }
  return 0;
}

// Whether a rank's recv ends holding a result. A rooted kind either fans
// the root's input out (bcast, scatter: every rank's does) or collects
// every rank's input (reduce, gather: only the root's does).
constexpr bool holds_result(CollKind k, bool at_root) {
  const KindContract c = contract_of(k);
  if (c.recv == Extent::none) return false;
  const bool collects = c.rooted && c.input == InputAt::send &&
                        c.send != Extent::at_root;
  return at_root || !collects;
}

}  // namespace dpml::coll
