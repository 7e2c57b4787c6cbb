// SHArP-like in-network aggregation substrate.
//
// Models the Scalable Hierarchical Aggregation Protocol (Graham et al.,
// COM-HPC'16) at the level the paper's designs depend on:
//   * a reduction tree of switch aggregation nodes above the member hosts
//     (1 level if all members share a leaf switch, 2 levels otherwise);
//   * per-operation per-level fixed cost plus a per-byte streaming cost
//     (switch ALUs are built for small latency-critical payloads, so the
//     per-byte cost exceeds host reduction cost — this produces the ~4KB
//     host/SHArP crossover of Figure 8);
//   * a bounded number of concurrently outstanding operations and a bounded
//     number of groups ("SHArP can support only a small number of concurrent
//     operations and SHArP communicators", paper §4.3) — the reason the
//     node-/socket-leader designs exist instead of one group per DPML leader;
//   * result multicast down the tree to every member.
//
// Real data flows through the aggregation in data mode, so SHArP-based
// allreduce results are bit-checkable like every other algorithm.
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "net/models.hpp"
#include "sim/sync.hpp"
#include "sim/task.hpp"
#include "simmpi/datatype.hpp"
#include "simmpi/machine.hpp"

namespace dpml::sharp {

// Thrown for fabric-level failures: group limit exceeded, payload too large.
class SharpError : public std::runtime_error {
 public:
  explicit SharpError(const std::string& what) : std::runtime_error(what) {}
};

struct Group {
  int id = -1;
  int context = 0;            // machine context used to sequence operations
  std::vector<int> members;   // world ranks, one logical port each
  int levels = 1;             // aggregation tree depth above the hosts
};

class SharpFabric {
 public:
  // The machine's cluster preset must have a SharpModel.
  explicit SharpFabric(simmpi::Machine& machine);

  const net::SharpModel& model() const { return model_; }
  simmpi::Machine& machine() { return machine_; }

  // Create an aggregation group over the given world ranks. Throws
  // SharpError once max_groups are live.
  const Group& create_group(std::vector<int> members);
  void destroy_group(int id);
  // Create-once lookup: the first call with `name` creates the group over
  // `members`; later calls return the cached group (members must match).
  const Group& named_group(const std::string& name,
                           const std::vector<int>& members);
  int groups_live() const { return static_cast<int>(groups_.size()); }

  // True if a payload of `bytes` can be aggregated in-network.
  bool supports(std::size_t bytes) const { return bytes <= model_.max_payload; }

  // Allreduce across the group; called by every member rank (SPMD).
  // `in`/`out` may be empty (metadata-only) or alias each other.
  sim::CoTask<void> allreduce(simmpi::Rank& r, const Group& g,
                              std::size_t count, simmpi::Dtype dt,
                              const simmpi::Op& op, simmpi::ConstBytes in,
                              simmpi::MutBytes out);

  // In-network barrier: a zero-payload aggregation + multicast (the paper's
  // §8 future work — SHArP for other collectives).
  sim::CoTask<void> barrier(simmpi::Rank& r, const Group& g);

  // In-network broadcast: the root member uploads `bytes`, the switch tree
  // multicasts to every member. `buf` is read at the root and written at
  // the other members.
  sim::CoTask<void> bcast(simmpi::Rank& r, const Group& g, int root_world,
                          std::size_t bytes, simmpi::MutBytes buf);

  int ops_in_flight() const {
    return model_.max_outstanding_ops - op_slots_.available();
  }

 private:
  struct OpState {
    OpState(sim::Engine& e, int members)
        : arrivals(e, members), slot_held(e) {}
    sim::Latch arrivals;
    sim::Flag slot_held;
    bool slot_requested = false;
    bool finish_computed = false;
    sim::Time max_arrival = 0;
    sim::Time finish = 0;
    std::vector<std::byte> acc;
    bool acc_init = false;
    int delivered = 0;
  };

  // `uploader` for an operation every member uploads to.
  static constexpr int kEveryMember = -1;

  // The one switch-tree operation; every member of `g` calls it (SPMD).
  // The members upload their `in` (`uploader` kEveryMember), or the member
  // with world rank `uploader` alone does; the switches fold the uploads
  // with `op` level by level if `fold`, or only forward them; the result
  // is multicast to every member and copied into its `out` (the lone
  // uploader's excepted). `op` is taken by value: a caller may pass a
  // temporary and return the task.
  sim::CoTask<void> tree_op(simmpi::Rank& r, const Group& g,
                            std::size_t count, simmpi::Dtype dt, simmpi::Op op,
                            simmpi::ConstBytes in, simmpi::MutBytes out,
                            int uploader, bool fold);
  sim::CoTask<void> grab_slot(OpState& op);
  OpState& op_state(std::int64_t key, int members);

  simmpi::Machine& machine_;
  net::SharpModel model_;
  sim::Semaphore op_slots_;
  std::unordered_map<int, Group> groups_;
  std::unordered_map<std::string, int> named_;
  std::unordered_map<std::int64_t, std::unique_ptr<OpState>> ops_;
  int next_group_id_ = 0;
};

}  // namespace dpml::sharp
