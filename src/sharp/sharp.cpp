#include "sharp/sharp.hpp"

#include <algorithm>
#include <cstring>
#include <functional>

#include "fabric/fabric.hpp"
#include "util/error.hpp"

namespace dpml::sharp {

using sim::Time;
using sim::transfer_time;

SharpFabric::SharpFabric(simmpi::Machine& machine)
    : machine_(machine),
      model_([&] {
        DPML_CHECK_MSG(machine.config().has_sharp(),
                       "cluster '" + machine.config().name +
                           "' has no SHArP-capable fabric");
        return *machine.config().sharp;
      }()),
      op_slots_(machine.engine(), model_.max_outstanding_ops) {}

const Group& SharpFabric::create_group(std::vector<int> members) {
  DPML_CHECK_MSG(!members.empty(), "empty SHArP group");
  if (static_cast<int>(groups_.size()) >= model_.max_groups) {
    throw SharpError("SHArP group limit reached (" +
                     std::to_string(model_.max_groups) + ")");
  }
  for (int w : members) {
    DPML_CHECK(w >= 0 && w < machine_.world_size());
  }
  Group g;
  g.id = next_group_id_++;
  g.context = machine_.alloc_context();
  g.members = std::move(members);
  int lo_node = machine_.num_nodes();
  int hi_node = -1;
  for (int w : g.members) {
    const int n = machine_.rank(w).node_id();
    lo_node = std::min(lo_node, n);
    hi_node = std::max(hi_node, n);
  }
  g.levels = machine_.topology().aggregation_levels(lo_node, hi_node);
  auto [it, ok] = groups_.emplace(g.id, std::move(g));
  DPML_CHECK(ok);
  return it->second;
}

void SharpFabric::destroy_group(int id) {
  DPML_CHECK_MSG(groups_.erase(id) == 1, "destroying unknown SHArP group");
  for (auto it = named_.begin(); it != named_.end(); ++it) {
    if (it->second == id) {
      named_.erase(it);
      break;
    }
  }
}

const Group& SharpFabric::named_group(const std::string& name,
                                      const std::vector<int>& members) {
  auto it = named_.find(name);
  if (it != named_.end()) {
    const Group& g = groups_.at(it->second);
    DPML_CHECK_MSG(g.members == members,
                   "named SHArP group '" + name + "' member mismatch");
    return g;
  }
  const Group& g = create_group(members);
  named_.emplace(name, g.id);
  return g;
}

sim::CoTask<void> SharpFabric::grab_slot(OpState& op) {
  co_await op_slots_.acquire();
  op.slot_held.post();
}

SharpFabric::OpState& SharpFabric::op_state(std::int64_t key, int members) {
  auto it = ops_.find(key);
  if (it == ops_.end()) {
    it = ops_.emplace(key, std::make_unique<OpState>(machine_.engine(), members))
             .first;
  }
  return *it->second;
}

sim::CoTask<void> SharpFabric::tree_op(simmpi::Rank& r, const Group& g,
                                       std::size_t count, simmpi::Dtype dt,
                                       simmpi::Op op, simmpi::ConstBytes in,
                                       simmpi::MutBytes out, int uploader,
                                       bool fold) {
  const std::size_t bytes = count * simmpi::dtype_size(dt);
  if (!supports(bytes)) {
    throw SharpError("SHArP payload of " + std::to_string(bytes) +
                     " bytes exceeds max_payload " +
                     std::to_string(model_.max_payload));
  }
  DPML_CHECK_MSG(groups_.count(g.id) != 0, "operation on destroyed group");
  DPML_CHECK(in.empty() || in.size() == bytes);
  DPML_CHECK(out.empty() || out.size() == bytes);
  if (uploader != kEveryMember) {
    DPML_CHECK_MSG(std::find(g.members.begin(), g.members.end(), uploader) !=
                       g.members.end(),
                   "bcast root must be a group member");
  }

  sim::Engine& eng = machine_.engine();
  const net::NicModel& nic = machine_.config().nic;
  const int members = static_cast<int>(g.members.size());
  const std::int64_t key = r.next_coll_key(g.context);
  OpState& st = op_state(key, members);

  // The whole operation occupies one of the fabric's outstanding-op slots
  // from first member arrival to the tree's finish.
  if (!st.slot_requested) {
    st.slot_requested = true;
    eng.spawn(grab_slot(st));
  }
  co_await st.slot_held.wait();

  const Time occupancy =
      std::max<Time>(nic.per_msg_tx, transfer_time(bytes, nic.link_bw));
  const int my_hca = machine_.hca_of_local(r.local_rank());
  fabric::FlowFabric* ff = machine_.flow_fabric();
  if (uploader == kEveryMember || r.world_rank() == uploader) {
    // Upload my payload to the leaf switch (standard NIC injection path;
    // one wire hop plus the leaf switch's ingress).
    co_await eng.delay(nic.o_send);
    const Time t0 = eng.now();
    const Time inj_done = t0 + transfer_time(bytes, nic.proc_bw);
    // The payload materializes at the switch once the upload leg completes:
    // the first one seeds the result, later ones fold into it. A lone
    // uploader's arrival opens the gate for every member.
    std::vector<std::byte> payload(in.begin(), in.end());
    OpState* stp = &st;
    const bool lone = uploader != kEveryMember;
    std::function<void()> arrive = [this, stp, count, dt, op, lone,
                                    payload = std::move(payload)]() mutable {
      stp->max_arrival = std::max(stp->max_arrival, machine_.engine().now());
      if (!payload.empty()) {
        if (!stp->acc_init) {
          stp->acc = std::move(payload);
          stp->acc_init = true;
        } else {
          op.apply(dt, count, simmpi::MutBytes{stp->acc},
                   simmpi::ConstBytes{payload});
        }
      }
      stp->arrivals.arrive(lone ? stp->arrivals.pending() : 1);
    };
    if (ff != nullptr) {
      // Flow-fabric upload: the TX engine charges its per-message cost, the
      // payload drains as a node->leaf flow sharing the uplink fairly, and
      // it lands one wire+switch hop after the slower of the injection pipe
      // and the flow.
      const auto tx = r.node().tx(my_hca).acquire_grant(t0, nic.per_msg_tx);
      const int my_node = r.node_id();
      eng.schedule_call(tx.start, [this, ff, my_node, bytes, inj_done,
                                 arrive = std::move(arrive)]() mutable {
        ff->start_uplink_flow(
            my_node, bytes, machine_.config().nic.link_bw,
            [this, inj_done,
             arrive = std::move(arrive)](Time flow_done) mutable {
              const net::NicModel& n = machine_.config().nic;
              const Time at_switch = std::max(inj_done, flow_done) +
                                     n.wire_latency + n.switch_latency;
              machine_.engine().schedule_call(at_switch, std::move(arrive));
            });
      });
    } else {
      const auto tx = r.node().tx(my_hca).acquire_grant(t0, occupancy);
      const Time at_switch = std::max(inj_done, tx.done) + nic.wire_latency +
                             nic.switch_latency;
      eng.schedule_call(at_switch, std::move(arrive));
    }
  }
  co_await st.arrivals.wait();

  // Every payload is in the tree: it folds level by level (a bcast only
  // forwards) and reaches the top switch.
  const Time hop = nic.wire_latency + nic.switch_latency;
  if (!st.finish_computed) {
    st.finish_computed = true;
    const Time per_level =
        fold ? model_.level_overhead +
                   static_cast<Time>(model_.agg_ns_per_byte *
                                     static_cast<double>(bytes) *
                                     static_cast<double>(sim::kNanosecond))
             : 0;
    st.finish = st.max_arrival + g.levels * per_level + (g.levels - 1) * hop;
    // The op slot frees once the tree has produced the result.
    eng.schedule_call(st.finish, [this]() { op_slots_.release(); });
  }

  // Multicast down: top switch -> my leaf -> my node, then normal RX path.
  const Time down_latency = (g.levels - 1) * hop + nic.wire_latency;
  auto delivered = std::make_shared<sim::Flag>(eng);
  const int my_node = r.node_id();
  if (ff != nullptr) {
    // Flow-fabric download: the result leaves the tree at st.finish as a
    // leaf->node flow; delivery adds the multicast path latency and the RX
    // per-message cost.
    eng.schedule_call(st.finish, [this, ff, my_node, my_hca, bytes, down_latency,
                                delivered]() {
      ff->start_downlink_flow(
          my_node, bytes, machine_.config().nic.link_bw,
          [this, my_node, my_hca, down_latency, delivered](Time flow_done) {
            machine_.engine().schedule_call(
                flow_done + down_latency, [this, my_node, my_hca, delivered]() {
                  const Time rx_done = machine_.node(my_node).rx(my_hca).acquire(
                      machine_.engine().now(), machine_.config().nic.per_msg_tx);
                  machine_.engine().schedule_call(rx_done,
                                                [delivered]() { delivered->post(); });
                });
          });
    });
  } else {
    const Time down_head = st.finish + down_latency;
    eng.schedule_call(down_head, [this, my_node, my_hca, occupancy, delivered]() {
      const Time rx_done = machine_.node(my_node).rx(my_hca).acquire(
          machine_.engine().now(), occupancy);
      machine_.engine().schedule_call(rx_done, [delivered]() { delivered->post(); });
    });
  }
  co_await delivered->wait();
  co_await eng.delay(nic.o_recv);
  // A lone uploader already holds the result.
  if (!out.empty() && st.acc_init && r.world_rank() != uploader) {
    std::memcpy(out.data(), st.acc.data(), bytes);
  }
  if (++st.delivered == members) {
    ops_.erase(key);
  }
}

sim::CoTask<void> SharpFabric::allreduce(simmpi::Rank& r, const Group& g,
                                         std::size_t count, simmpi::Dtype dt,
                                         const simmpi::Op& op,
                                         simmpi::ConstBytes in,
                                         simmpi::MutBytes out) {
  return tree_op(r, g, count, dt, op, in, out, kEveryMember, true);
}

sim::CoTask<void> SharpFabric::barrier(simmpi::Rank& r, const Group& g) {
  return tree_op(r, g, 0, simmpi::Dtype::u8, simmpi::ReduceOp::bor, {}, {},
                 kEveryMember, true);
}

sim::CoTask<void> SharpFabric::bcast(simmpi::Rank& r, const Group& g,
                                     int root_world, std::size_t bytes,
                                     simmpi::MutBytes buf) {
  return tree_op(r, g, bytes, simmpi::Dtype::u8, simmpi::ReduceOp::bor,
                 simmpi::ConstBytes{buf}, buf, root_world, false);
}

}  // namespace dpml::sharp
