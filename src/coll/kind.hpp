// The nine collective kinds.
//
// Dependency-free, so the registry (coll/registry.hpp) and the semantics
// checker (check/check.hpp), which sits below the coll layer, name a kind
// with the one enum and the one spelling.
#pragma once

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

}  // namespace dpml::coll
