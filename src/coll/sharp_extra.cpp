#include "coll/sharp_extra.hpp"

#include <utility>
#include <vector>

#include "util/error.hpp"

namespace dpml::coll {

using simmpi::CollSlot;
using simmpi::Machine;

namespace {

std::vector<int> node_leaders(Machine& m) {
  std::vector<int> members;
  members.reserve(static_cast<std::size_t>(m.num_nodes()));
  for (int n = 0; n < m.num_nodes(); ++n) members.push_back(n * m.ppn());
  return members;
}

}  // namespace

sim::CoTask<void> barrier_sharp(CollArgs a, sharp::SharpFabric& fabric) {
  DPML_CHECK(a.rank != nullptr && a.comm != nullptr);
  Rank& r = *a.rank;
  Machine& m = r.machine();
  DPML_CHECK_MSG(a.comm->context() == m.world().context(),
                 "SHArP barrier runs on the world communicator");
  const int ppn = m.ppn();
  if (ppn == 1) {
    const sharp::Group& g = fabric.named_group("all_ranks", m.world().ranks());
    co_await fabric.barrier(r, g);
    co_return;
  }
  const std::int64_t key = r.next_coll_key(a.comm->context());
  CollSlot& slot = r.node().slot(key);
  if (!slot.initialized) {
    slot.latches.emplace_back(r.engine(), ppn - 1);
    slot.flags.emplace_back(r.engine());
    slot.initialized = true;
  }
  if (r.local_rank() == 0) {
    const sharp::Group& g = fabric.named_group("node_leaders", node_leaders(m));
    co_await slot.latches[0].wait();
    co_await fabric.barrier(r, g);
    co_await r.signal(slot.flags[0]);
  } else {
    co_await r.signal(slot.latches[0]);
    co_await slot.flags[0].wait();
    co_await r.compute(m.config().host.flag_latency);
  }
  r.node().release_slot(key, ppn);
}

sim::CoTask<void> bcast_sharp(CollArgs a, sharp::SharpFabric& fabric) {
  check_bcast(a);
  Rank& r = *a.rank;
  Machine& m = r.machine();
  DPML_CHECK_MSG(a.comm->context() == m.world().context(),
                 "SHArP bcast runs on the world communicator");
  const std::size_t nbytes = a.bytes();
  if (!fabric.supports(nbytes)) {
    co_await bcast_single_leader(std::move(a));
    co_return;
  }
  const int ppn = m.ppn();
  const Comm& c = *a.comm;
  if (ppn == 1) {
    const sharp::Group& g = fabric.named_group("all_ranks", m.world().ranks());
    co_await fabric.bcast(r, g, c.world_rank(a.root), nbytes, a.recv);
    co_return;
  }
  const int root_node = c.world_rank(a.root) / ppn;
  const int root_local = c.world_rank(a.root) % ppn;
  const bool is_leader = r.local_rank() == 0;

  const std::int64_t key = r.next_coll_key(c.context());
  CollSlot& slot = r.node().slot(key);
  if (!slot.initialized) {
    slot.windows.emplace_back(nbytes, m.socket_of_local(0), m.with_data());
    slot.flags.emplace_back(r.engine());
    slot.initialized = true;
  }

  // Payload to the root node's leader if the root is not itself a leader.
  if (r.world_rank() == c.world_rank(a.root) && root_local != 0) {
    co_await r.send(c, c.rank_of_world(root_node * ppn),
                    static_cast<int>((key & 0x3ff)) * 2048 + 3, nbytes,
                    as_const(a.recv));
  }
  if (is_leader) {
    if (r.node_id() == root_node && root_local != 0) {
      co_await r.recv(c, a.root, static_cast<int>((key & 0x3ff)) * 2048 + 3,
                      nbytes, a.recv);
    }
    const sharp::Group& g = fabric.named_group("node_leaders", node_leaders(m));
    co_await fabric.bcast(r, g, root_node * ppn, nbytes, a.recv);
    co_await r.shm_put(slot.windows[0], 0, nbytes, as_const(a.recv));
    co_await r.signal(slot.flags[0]);
  } else {
    co_await slot.flags[0].wait();
    if (r.world_rank() != c.world_rank(a.root)) {
      co_await r.shm_get(slot.windows[0], 0, nbytes, a.recv);
    }
  }
  r.node().release_slot(key, ppn);
}

}  // namespace dpml::coll
