#include "simmpi/machine.hpp"

#include <algorithm>
#include <cstring>
#include <memory>
#include <utility>

#include "util/error.hpp"
#include "util/log.hpp"

namespace dpml::simmpi {

using sim::Time;
using sim::transfer_time;

namespace {

int ceil_div(int a, int b) { return (a + b - 1) / b; }

// Scale a charge by a perturbation factor. The factor-1.0 early-out keeps
// clean paths integer-exact (no double round-trip) even when a Perturbation
// exists but the relevant injector is inactive for this rank.
Time scale_time(Time t, double factor) {
  if (factor == 1.0) return t;
  return static_cast<Time>(static_cast<double>(t) * factor);
}

}  // namespace

// ---------------------------------------------------------------------------
// Node

Node::Node(Machine& m, int id)
    : machine_(m), id_(id), mem_("node" + std::to_string(id) + ".mem") {
  const int hcas = std::max(1, m.config().node.hcas);
  for (int h = 0; h < hcas; ++h) {
    tx_.emplace_back("node" + std::to_string(id) + ".tx" + std::to_string(h));
    rx_.emplace_back("node" + std::to_string(id) + ".rx" + std::to_string(h));
  }
}

CollSlot& Node::slot(std::int64_t key) { return slots_[key]; }

void Node::release_slot(std::int64_t key, int parties) {
  auto it = slots_.find(key);
  DPML_CHECK_MSG(it != slots_.end(), "releasing unknown collective slot");
  if (++it->second.released == parties) slots_.erase(it);
}

// ---------------------------------------------------------------------------
// Rank

Rank::Rank(Machine& m, int world_rank)
    : machine_(&m), world_rank_(world_rank) {
  node_id_ = world_rank / m.ppn();
  local_rank_ = world_rank % m.ppn();
  socket_ = m.socket_of_local(local_rank_);
  matcher_.set_recycler(m.data_plane().recycler());
  if (m.options().oracle != nullptr) {
    matcher_.set_oracle(m.options().oracle, world_rank_);
  }
}

sim::Engine& Rank::engine() { return machine_->engine(); }
Node& Rank::node() { return machine_->node(node_id_); }

sim::CoTask<void> Rank::busy(Time t) {
  // Compute charges carry the per-rank jitter/straggler factor; everything
  // routed through compute() (application phases, leader collection costs)
  // is noise-bearing work.
  if (perturb::Perturbation* pt = machine_->perturbation()) {
    t = scale_time(t, pt->compute_factor(world_rank_));
  }
  co_await engine().delay(t);
}

Time Rank::reduce_cost(std::size_t bytes) const {
  return static_cast<Time>(static_cast<double>(bytes) *
                           machine_->config().host.reduce_ns_per_byte *
                           static_cast<double>(sim::kNanosecond));
}

sim::CoTask<void> Rank::reduce_compute(std::size_t bytes) {
  // A reduction streams its operands through the node's memory system, so
  // concurrent reducers (multiple DPML leaders, or a full node of flat-
  // algorithm ranks) share the aggregate memory pipe. This is the physical
  // effect that makes leader counts plateau (paper §6.2/§6.4: 16 leaders is
  // near-optimal; beyond that the node is memory-bound, not compute-bound).
  // Perturbation jitter scales the processor-side cost only; the shared
  // memory-pipe occupancy stays nominal (noise models core-local effects).
  machine_->stats_.reduce_bytes += bytes;
  Time proc_cost = reduce_cost(bytes);
  if (perturb::Perturbation* pt = machine_->perturbation()) {
    proc_cost = scale_time(proc_cost, pt->compute_factor(world_rank_));
  }
  const Time t0 = engine().now();
  const Time proc_done = t0 + proc_cost;
  const Time mem_done = node().mem().acquire(
      t0, transfer_time(bytes, machine_->config().host.mem_agg_bw));
  const Time done = std::max(proc_done, mem_done);
  machine_->trace("reduce", "compute", world_rank_, t0, done);
  co_await engine().until(done);
}

sim::CoTask<void> Rank::send(const Comm& comm, int dst, int tag,
                             std::size_t bytes, ConstBytes data) {
  return machine_->do_send(*this, comm.world_rank(dst), comm.context(), tag,
                           bytes, data);
}

sim::CoTask<RecvResult> Rank::recv(const Comm& comm, int src, int tag,
                                   std::size_t capacity, MutBytes out) {
  const int src_world = src == kAnySource ? kAnySource : comm.world_rank(src);
  return machine_->do_recv(*this, src_world, comm.context(), tag, capacity,
                           out);
}

std::shared_ptr<sim::Flag> Rank::isend(const Comm& comm, int dst, int tag,
                                       std::size_t bytes, ConstBytes data) {
  return engine().spawn_sub(send(comm, dst, tag, bytes, data));
}

namespace {
sim::CoTask<void> irecv_body(sim::CoTask<RecvResult> op,
                             std::shared_ptr<RecvResult> out) {
  *out = co_await std::move(op);
}
}  // namespace

RecvHandle Rank::irecv(const Comm& comm, int src, int tag,
                       std::size_t capacity, MutBytes out) {
  auto result = sim::make_pooled<RecvResult>();
  auto done = engine().spawn_sub(
      irecv_body(recv(comm, src, tag, capacity, out), result));
  return RecvHandle{std::move(done), std::move(result)};
}

sim::CoTask<RecvResult> Rank::sendrecv(const Comm& comm, int dst, int send_tag,
                                       std::size_t send_bytes, int src,
                                       int recv_tag,
                                       std::size_t recv_capacity,
                                       ConstBytes send_data,
                                       MutBytes recv_out) {
  auto sf = isend(comm, dst, send_tag, send_bytes, send_data);
  const RecvResult res =
      co_await recv(comm, src, recv_tag, recv_capacity, recv_out);
  co_await sf->wait();
  co_return res;
}

bool Rank::iprobe(const Comm& comm, int src, int tag, RecvResult* info) {
  const int src_world = src == kAnySource ? kAnySource : comm.world_rank(src);
  const Envelope* env = matcher_.peek(comm.context(), src_world, tag);
  if (env == nullptr) return false;
  if (info != nullptr) {
    info->bytes = env->bytes;
    info->src = env->src;
    info->tag = env->tag;
  }
  return true;
}

sim::CoTask<RecvResult> Rank::probe(const Comm& comm, int src, int tag) {
  RecvResult info;
  while (!iprobe(comm, src, tag, &info)) {
    sim::Flag arrived(engine());
    matcher_.watch_arrivals(&arrived);
    co_await arrived.wait();
  }
  co_return info;
}

sim::CoTask<void> Rank::shm_put(ShmWindow& w, std::size_t offset,
                                std::size_t bytes, ConstBytes src) {
  return machine_->do_shm_copy(*this, w, offset, bytes, src, {}, /*is_put=*/true);
}

sim::CoTask<void> Rank::shm_get(ShmWindow& w, std::size_t offset,
                                std::size_t bytes, MutBytes dst) {
  return machine_->do_shm_copy(*this, w, offset, bytes, {}, dst, /*is_put=*/false);
}

sim::CoTask<void> Rank::signal(sim::Flag& f) {
  co_await engine().delay(machine_->config().host.flag_latency);
  f.post();
}

sim::CoTask<void> Rank::signal(sim::Latch& l) {
  co_await engine().delay(machine_->config().host.flag_latency);
  l.arrive();
}

std::int64_t Rank::next_coll_key(int context) {
  const std::int64_t seq = coll_seq_[context]++;
  return (static_cast<std::int64_t>(context) << 32) | seq;
}

// ---------------------------------------------------------------------------
// Machine

Machine::Machine(net::ClusterConfig cfg, int nodes, int ppn, RunOptions opt)
    : cfg_(std::move(cfg)),
      opt_(opt),
      nodes_used_(nodes),
      ppn_(ppn),
      data_plane_(engine_, opt.with_data),
      topo_(nodes, cfg_.nodes_per_leaf) {
  DPML_CHECK_MSG(nodes >= 1, "need at least one node");
  DPML_CHECK_MSG(nodes <= cfg_.total_nodes,
                 "cluster '" + cfg_.name + "' has only " +
                     std::to_string(cfg_.total_nodes) + " nodes");
  DPML_CHECK_MSG(ppn >= 1 && ppn <= cfg_.max_ppn(),
                 "ppn out of range for cluster '" + cfg_.name + "'");
  // Enforce the preset's declared fabric shape up front: deriving the link
  // plan validates nodes_per_leaf and oversubscription for every cluster,
  // whether or not the flow-level model is enabled for this run.
  (void)fabric::FabricTopo::derive(cfg_, nodes);
  // Pre-size the event pool for the in-flight event population: the
  // measured backlog peaks at 4 events per rank (the paper's Fig. 5/9
  // sweep on cluster B) and 2 per rank at 8,192 metadata-only ranks.
  engine_.reserve_events(static_cast<std::size_t>(nodes) *
                         static_cast<std::size_t>(ppn) * 4);
  if (opt_.oracle != nullptr) {
    DPML_CHECK_MSG(opt_.check_level != check::CheckLevel::off,
                   "a schedule oracle explores alternative message orders; "
                   "run it under simcheck (check_level=basic/strict) so a "
                   "bad schedule is reported rather than silently computed");
    engine_.set_oracle(opt_.oracle);
  }
  for (int i = 0; i < nodes; ++i) nodes_.emplace_back(*this, i);
  std::vector<int> world_ranks(static_cast<std::size_t>(nodes) * ppn);
  for (int i = 0; i < static_cast<int>(world_ranks.size()); ++i) {
    world_ranks[i] = i;
  }
  world_ = Comm(0, std::move(world_ranks));
  for (int w = 0; w < world_size(); ++w) ranks_.emplace_back(*this, w);
  if (!opt_.perturb.empty()) {
    perturb_ =
        std::make_unique<perturb::Perturbation>(opt_.perturb, world_size());
  }
  if (opt_.fabric_level == fabric::FabricLevel::links) {
    fabric_ = std::make_unique<fabric::FlowFabric>(engine_, cfg_, nodes);
    if (perturb_ != nullptr && perturb_->has_link_rules()) {
      // Link-degradation rules become per-link capacity scaling: node-scoped
      // rules choke that node's edge links, fully-wildcarded rules choke the
      // whole fabric, and rule windows trigger reallocation at their
      // boundaries. (Pairwise rules cap individual flows in fabric_send.)
      perturb::Perturbation* pt = perturb_.get();
      fabric_->set_capacity_scaler([this, pt](int link, sim::Time now) {
        double s = pt->fabric_global_scale(now);
        const int owner = fabric_->link_node(link);
        if (owner >= 0) s *= pt->fabric_node_scale(owner, now);
        return s;
      });
      fabric_->schedule_reallocations(pt->link_rule_boundaries());
    }
  } else if (cfg_.oversubscription > 1.0) {
    // LogGP path: the oversubscribed core is approximated by per-leaf FIFO
    // uplink/downlink pools (the flow fabric models it per-link instead).
    core_bw_ = cfg_.nic.link_bw * cfg_.nodes_per_leaf / cfg_.oversubscription;
    for (int leafidx = 0; leafidx < topo_.num_leaves(); ++leafidx) {
      leaf_up_.emplace_back("leaf" + std::to_string(leafidx) + ".up");
      leaf_down_.emplace_back("leaf" + std::to_string(leafidx) + ".down");
    }
  }
  if (opt_.check_level != check::CheckLevel::off) {
    checker_ = std::make_unique<check::Checker>(opt_.check_level,
                                                opt_.with_data, world_size());
  }
}

Machine::~Machine() { engine_.destroy_suspended(); }

void Machine::enable_trace() {
  if (tracer_) return;
  tracer_ = std::make_unique<Tracer>();
  tracer_->set_process_name("cluster " + cfg_.name + " " +
                            std::to_string(nodes_used_) + "x" +
                            std::to_string(ppn_));
  for (int w = 0; w < world_size(); ++w) {
    tracer_->set_thread_name(
        w, "rank " + std::to_string(w) + " (node " +
               std::to_string(w / ppn_) + ")");
  }
  if (fabric_ != nullptr) {
    // One lane per fabric link, below the rank lanes; congestion intervals
    // (two or more flows sharing the link) show up as spans on that lane.
    const int base = world_size();
    for (int l = 0; l < fabric_->topo().num_links(); ++l) {
      tracer_->set_thread_name(base + l, "link " + fabric_->link_name(l));
    }
    fabric_->set_congestion_listener(
        [this, base](int link, Time from, Time until) {
          if (until > from) {
            tracer_->add("congested", "fabric", base + link, from, until);
          }
        });
  }
}

// The hop chain moves `complete` from record to record: each hop's pooled
// callback carries it (with the eager Envelope it holds) and nothing is
// copied or boxed in a std::function.
template <typename Complete>
void Machine::route(int src_node, int dst_node, int dst_hca,
                    sim::Time tx_start, sim::Time occupancy,
                    std::size_t bytes, sim::Time extra_latency,
                    Complete complete) {
  const net::NicModel& nic = cfg_.nic;
  const bool same_leaf = topo_.leaf_of(src_node) == topo_.leaf_of(dst_node);
  if (same_leaf || leaf_up_.empty()) {
    const Time head = tx_start + topo_.path_latency(src_node, dst_node, nic) +
                      extra_latency;
    engine_.schedule_call(head, [this, dst_node, dst_hca, occupancy,
                                 complete = std::move(complete)]() mutable {
      const Time rx_done =
          node(dst_node).rx(dst_hca).acquire(engine_.now(), occupancy);
      complete(rx_done);
    });
    return;
  }
  // Cross-leaf: node -> leaf -> (uplink) core -> (downlink) leaf -> node.
  // The per-leaf uplink/downlink pools model the oversubscribed core.
  const Time hop = nic.wire_latency + nic.switch_latency;
  const Time occ_core = transfer_time(bytes, core_bw_);
  const int src_leaf = topo_.leaf_of(src_node);
  const int dst_leaf = topo_.leaf_of(dst_node);
  engine_.schedule_call(
      tx_start + hop + extra_latency,
      [this, src_leaf, dst_leaf, dst_node, dst_hca, occupancy, occ_core, hop,
       complete = std::move(complete)]() mutable {
        const auto up =
            leaf_up_[static_cast<std::size_t>(src_leaf)].acquire_grant(
                engine_.now(), occ_core);
        engine_.schedule_call(
            up.start + hop,
            [this, dst_leaf, dst_node, dst_hca, occupancy, occ_core,
             complete = std::move(complete)]() mutable {
              const auto dn =
                  leaf_down_[static_cast<std::size_t>(dst_leaf)].acquire_grant(
                      engine_.now(), occ_core);
              // core -> destination leaf switch -> destination node.
              engine_.schedule_call(
                  dn.start + cfg_.nic.switch_latency + cfg_.nic.wire_latency,
                  [this, dst_node, dst_hca, occupancy,
                   complete = std::move(complete)]() mutable {
                    const Time rx_done = node(dst_node).rx(dst_hca).acquire(
                        engine_.now(), occupancy);
                    complete(rx_done);
                  });
            });
      });
}

template <typename Complete>
void Machine::fabric_send(int src_node, int src_hca, int dst_node, int dst_hca,
                          sim::Time t0, std::size_t bytes,
                          sim::Time extra_latency, Complete complete) {
  const net::NicModel& nic = cfg_.nic;
  // Pairwise link-degradation rules cap this flow's own rate; node-scoped
  // and global rules are applied as link-capacity scaling by the fabric.
  double pair_scale = 1.0;
  if (perturb_ != nullptr && perturb_->has_link_rules()) {
    pair_scale = perturb_->fabric_pair_scale(src_node, dst_node, engine_.now());
  }
  const double rate_cap = nic.link_bw * pair_scale;
  const Time path = topo_.path_latency(src_node, dst_node, nic) + extra_latency;
  // The NIC TX engine charges only its per-message cost: wire serialization
  // is the flow itself, draining at the max-min fair rate.
  const auto tx = node(src_node).tx(src_hca).acquire_grant(t0, nic.per_msg_tx);
  engine_.schedule_call(tx.start, [this, src_node, dst_node, dst_hca, bytes,
                                   rate_cap, path,
                                   complete = std::move(complete)]() mutable {
    fabric_->start_flow(
        src_node, dst_node, bytes, rate_cap,
        [this, dst_node, dst_hca, path,
         complete = std::move(complete)](Time flow_done) mutable {
          // Last byte off the wire; the head latency and the RX per-message
          // cost complete the delivery.
          engine_.schedule_call(
              flow_done + path, [this, dst_node, dst_hca,
                                 complete = std::move(complete)]() mutable {
                const Time rx_done = node(dst_node).rx(dst_hca).acquire(
                    engine_.now(), cfg_.nic.per_msg_tx);
                complete(rx_done);
              });
        });
  });
}

Rank& Machine::rank(int world_rank) {
  DPML_CHECK(world_rank >= 0 && world_rank < world_size());
  return ranks_[static_cast<std::size_t>(world_rank)];
}

Node& Machine::node(int id) {
  DPML_CHECK(id >= 0 && id < nodes_used_);
  return nodes_[static_cast<std::size_t>(id)];
}

int Machine::socket_of_local(int local_rank) const {
  DPML_CHECK(local_rank >= 0 && local_rank < ppn_);
  const int per_socket = ceil_div(ppn_, cfg_.node.sockets);
  return local_rank / per_socket;
}

int Machine::hca_of_local(int local_rank) const {
  const int hcas = std::max(1, cfg_.node.hcas);
  if (hcas == 1) return 0;
  // Map the rank's socket onto the rails (sockets >= hcas: group sockets;
  // hcas > sockets: spread local ranks round-robin within the socket).
  const int sockets = cfg_.node.sockets;
  if (hcas <= sockets) {
    return socket_of_local(local_rank) * hcas / sockets;
  }
  return local_rank % hcas;
}

sim::Time Machine::collection_cost(int leader_local, int lo_local,
                                   int hi_local) const {
  DPML_CHECK(lo_local >= 0 && hi_local <= ppn_);
  const int leader_socket = socket_of_local(leader_local);
  Time cost = 0;
  for (int i = lo_local; i < hi_local; ++i) {
    if (i == leader_local) continue;
    cost += socket_of_local(i) == leader_socket
                ? cfg_.host.gather_poll
                : cfg_.host.gather_poll_xsocket;
  }
  return cost;
}

int Machine::leader_local_rank(int leader_index, int num_leaders) const {
  DPML_CHECK(num_leaders >= 1 && num_leaders <= ppn_);
  DPML_CHECK(leader_index >= 0 && leader_index < num_leaders);
  // Spread leaders evenly across local ranks (and therefore across sockets,
  // since ranks are socket-major): leader j sits at floor(j * ppn / l).
  return static_cast<int>((static_cast<std::int64_t>(leader_index) * ppn_) /
                          num_leaders);
}

int Machine::leader_index_of_local(int lr, int num_leaders) const {
  const int j = static_cast<int>(
      (static_cast<std::int64_t>(lr) * num_leaders + ppn_ - 1) / ppn_);
  if (j < num_leaders && leader_local_rank(j, num_leaders) == lr) return j;
  return -1;
}

const Comm& Machine::leader_comm(int leader_index, int num_leaders) {
  const std::int64_t key =
      static_cast<std::int64_t>(num_leaders) * 4096 + leader_index;
  auto it = leader_comms_.find(key);
  if (it != leader_comms_.end()) return it->second;
  const int lr = leader_local_rank(leader_index, num_leaders);
  std::vector<int> members;
  members.reserve(static_cast<std::size_t>(nodes_used_));
  for (int n = 0; n < nodes_used_; ++n) members.push_back(n * ppn_ + lr);
  auto [ins, ok] =
      leader_comms_.emplace(key, Comm(alloc_context(), std::move(members)));
  DPML_CHECK(ok);
  return ins->second;
}

const Comm& Machine::split_comm(const Comm& parent,
                                const std::vector<int>& colors,
                                const std::vector<int>& keys, int my_color) {
  DPML_CHECK_MSG(static_cast<int>(colors.size()) == parent.size() &&
                     static_cast<int>(keys.size()) == parent.size(),
                 "split_comm needs one color and key per parent member");
  if (my_color < 0) return null_comm_;  // MPI_UNDEFINED
  // Cache key: every member of one logical split passes identical arrays,
  // so content-addressing yields the same Comm (and context) for all.
  std::string cache_key = std::to_string(parent.context()) + "|" +
                          std::to_string(my_color);
  for (std::size_t i = 0; i < colors.size(); ++i) {
    cache_key += "," + std::to_string(colors[i]) + ":" +
                 std::to_string(keys[i]);
  }
  auto it = split_cache_.find(cache_key);
  if (it != split_cache_.end()) return it->second;
  // Members of my color, ordered by (key, parent rank).
  std::vector<std::pair<int, int>> order;  // (key, parent rank)
  for (int pr = 0; pr < parent.size(); ++pr) {
    if (colors[static_cast<std::size_t>(pr)] == my_color) {
      order.emplace_back(keys[static_cast<std::size_t>(pr)], pr);
    }
  }
  std::sort(order.begin(), order.end());
  std::vector<int> members;
  members.reserve(order.size());
  for (const auto& [key, pr] : order) {
    (void)key;
    members.push_back(parent.world_rank(pr));
  }
  auto [ins, ok] = split_cache_.emplace(
      cache_key, Comm(alloc_context(), std::move(members)));
  DPML_CHECK(ok);
  return ins->second;
}

const Comm& Machine::make_comm(std::vector<int> world_ranks) {
  for (int w : world_ranks) DPML_CHECK(w >= 0 && w < world_size());
  extra_comms_.emplace_back(alloc_context(), std::move(world_ranks));
  return extra_comms_.back();
}

double Machine::avg_tx_utilization() const {
  if (engine_.now() == 0) return 0.0;
  double acc = 0.0;
  double rails = 0.0;
  for (const Node& n : nodes_) {
    Node& nn = const_cast<Node&>(n);
    for (int h = 0; h < nn.num_hcas(); ++h) {
      acc += static_cast<double>(nn.tx(h).busy_time());
      rails += 1.0;
    }
  }
  return acc / (static_cast<double>(engine_.now()) * rails);
}

double Machine::avg_rx_utilization() const {
  if (engine_.now() == 0) return 0.0;
  double acc = 0.0;
  double rails = 0.0;
  for (const Node& n : nodes_) {
    Node& nn = const_cast<Node&>(n);
    for (int h = 0; h < nn.num_hcas(); ++h) {
      acc += static_cast<double>(nn.rx(h).busy_time());
      rails += 1.0;
    }
  }
  return acc / (static_cast<double>(engine_.now()) * rails);
}

void Machine::run(const std::function<sim::CoTask<void>(Rank&)>& main) {
  for (auto& r : ranks_) engine_.spawn(main(r));
  if (checker_ == nullptr) {
    engine_.run();
    if (fabric_ != nullptr) fabric_->finish(engine_.now());
    return;
  }
  // Checked run: intercept the engine's deadlock diagnosis so the checker
  // can augment it with a per-rank blocked-request report, then sweep every
  // endpoint for leaked requests and render the final verdict.
  bool deadlocked = false;
  std::string deadlock_what;
  try {
    engine_.run();
  } catch (const util::DeadlockError& e) {
    deadlocked = true;
    deadlock_what = e.what();
  }
  if (fabric_ != nullptr) fabric_->finish(engine_.now());
  for (auto& r : ranks_) {
    checker_->note_endpoint_state(r.world_rank(), r.matcher());
  }
  std::size_t slots = 0;
  for (const Node& n : nodes_) slots += n.live_slots();
  checker_->finalize(deadlocked, deadlock_what, slots,
                     tracer_ ? tracer_->open_count() : 0);
}

// ---------------------------------------------------------------------------
// Transport

// State between the rendezvous sender and the match-time callback running on
// the receiver side. It lives in the sender's frame, which waits on `cts`
// until that callback has run, so the callback and its CTS event reach it
// through a plain pointer: the RTS's on_match then fits std::function's
// inline storage and the handshake allocates nothing.
struct Machine::RndvState {
  RndvState(sim::Engine& e, int src, int dst)
      : cts(e), src_node(src), dst_node(dst) {}
  sim::Flag cts;
  PostedRecv* pr = nullptr;
  int src_node;
  int dst_node;
};

// Every envelope delivery (shm, eager, rendezvous-RTS) funnels through here;
// tagging it with its (rank, ctx, tag, src) channel lets a model-checking
// oracle reorder same-instant deliveries (no-op when detached).
void Machine::deliver_at(Time t, int dst_world, Envelope env) {
  const sim::McChannel ch{dst_world, env.ctx, env.tag, env.src};
  engine_.schedule_call_mc(
      t, ch, [this, dst_world, env = std::move(env)]() mutable {
        rank(dst_world).matcher().deliver(std::move(env));
      });
}

Envelope Machine::envelope(const Outgoing& m, sim::Time recv_cost) {
  Envelope env;
  env.ctx = m.ctx;
  env.src = m.sender.world_rank();
  env.tag = m.tag;
  env.bytes = m.bytes;
  env.recv_cost = recv_cost;
  env.dtype = m.dtype;
  return env;
}

// Link-degradation rules are evaluated when the message enters the fabric
// (time-windowed rules see the current simulated time): a bandwidth scale on
// the wire occupancy and extra head latency on the path.
void Machine::link_mods(int src_node, int dst_node, double& bw_scale,
                        Time& extra) const {
  bw_scale = 1.0;
  extra = 0;
  if (perturb_ != nullptr && perturb_->has_link_rules()) {
    bw_scale = perturb_->link_bw_scale(src_node, dst_node, engine_.now());
    extra = perturb_->link_extra_latency(src_node, dst_node, engine_.now());
  }
}

// The steps of do_send that do not suspend live in plain member functions,
// so the send's coroutine frame holds only what spans its suspensions.

// Intra-node: shared-memory transport (copy + flag). Returns when the
// sender's copy is done.
Time Machine::send_shm(const Outgoing& m) {
  const net::HostModel& host = cfg_.host;
  const int src_world = m.sender.world_rank();
  DPML_CHECK_MSG(m.dst.world_rank() != src_world,
                 "self-send is not supported");
  const bool xsock = m.dst.socket() != m.sender.socket();
  const double bw = xsock ? host.copy_bw_xsocket : host.copy_bw;
  const Time t0 = engine_.now();
  const Time proc_cost = host.copy_startup +
                         (xsock ? host.xsocket_latency : 0) +
                         transfer_time(m.bytes, bw);
  const Time proc_done = t0 + scale_time(proc_cost, m.chg);
  const Time mem_done =
      node(m.sender.node_id())
          .mem()
          .acquire(t0, transfer_time(m.bytes, host.mem_agg_bw));
  const Time done = std::max(proc_done, mem_done);
  stats_.shm_messages += 1;
  stats_.shm_bytes += m.bytes;
  trace("shm-send", "shm", src_world, t0, done);
  Envelope env = envelope(m, host.flag_latency);
  env.data = data_plane_.capture(m.bytes, m.data);
  deliver_at(done + host.flag_latency, m.dst.world_rank(), std::move(env));
  return done;
}

// Eager inter-node message, after the sender's o_send overhead. Returns when
// the sender's injection pipe has drained.
Time Machine::send_eager(const Outgoing& m, Time o_send) {
  const net::NicModel& nic = cfg_.nic;
  const int src_node = m.sender.node_id();
  const int dst_node = m.dst.node_id();
  const int src_hca = hca_of_local(m.sender.local_rank());
  const int dst_hca = hca_of_local(m.dst.local_rank());
  const int src_world = m.sender.world_rank();
  const int dst_world = m.dst.world_rank();
  const Time t0 = engine_.now();
  const Time inj_done =
      t0 + scale_time(transfer_time(m.bytes, nic.proc_bw), m.chg);
  double lbw;
  Time extra;
  link_mods(src_node, dst_node, lbw, extra);
  Envelope env = envelope(m, nic.o_recv);
  env.data = data_plane_.capture(m.bytes, m.data);
  auto deliver = [this, dst_world, env = std::move(env)](Time rx_done) mutable {
    deliver_at(rx_done, dst_world, std::move(env));
  };
  if (fabric_ != nullptr) {
    trace("net-send", "net", src_world, t0 - o_send, inj_done);
    fabric_send(src_node, src_hca, dst_node, dst_hca, t0, m.bytes, extra,
                std::move(deliver));
  } else {
    const Time occupancy = std::max<Time>(
        nic.per_msg_tx, transfer_time(m.bytes, nic.link_bw * lbw));
    const auto tx = node(src_node).tx(src_hca).acquire_grant(t0, occupancy);
    trace("net-send", "net", src_world, t0 - o_send,
          std::max(inj_done, tx.done));
    route(src_node, dst_node, dst_hca, tx.start, occupancy, m.bytes, extra,
          std::move(deliver));
  }
  return inj_done;
}

// Rendezvous RTS control message; its match sends the CTS that posts
// `st.cts`.
void Machine::send_rts(const Outgoing& m, RndvState& st) {
  const net::NicModel& nic = cfg_.nic;
  const int src_hca = hca_of_local(m.sender.local_rank());
  const int dst_hca = hca_of_local(m.dst.local_rank());
  const auto txg = node(st.src_node)
                       .tx(src_hca)
                       .acquire_grant(engine_.now(), nic.per_msg_tx);
  Envelope rts = envelope(m, nic.o_recv);
  rts.rendezvous = true;
  rts.on_match = [this, s = &st](PostedRecv& pr) {
    s->pr = &pr;
    // CTS control message back to the sender (receiver-side overhead plus
    // the return path, including any degraded-link extra latency).
    Time cts_extra = 0;
    if (perturb_ != nullptr && perturb_->has_link_rules()) {
      cts_extra = perturb_->link_extra_latency(s->dst_node, s->src_node,
                                               engine_.now());
    }
    const Time cts_arrive =
        engine_.now() + cfg_.nic.o_send +
        topo_.path_latency(s->dst_node, s->src_node, cfg_.nic) + cts_extra;
    engine_.schedule_call(cts_arrive, [s]() { s->cts.post(); });
  };
  double lbw;
  Time extra;
  link_mods(st.src_node, st.dst_node, lbw, extra);
  route(st.src_node, st.dst_node, dst_hca, txg.start, nic.per_msg_tx, 0,
        extra,
        [this, dst_world = m.dst.world_rank(),
         rts = std::move(rts)](Time rx_done) mutable {
          deliver_at(rx_done, dst_world, std::move(rts));
        });
}

// Rendezvous payload, after the CTS and the sender's o_send overhead, into
// the matched receive `pr`. Returns when the sender's injection pipe has
// drained.
Time Machine::send_payload(const Outgoing& m, PostedRecv* pr) {
  const net::NicModel& nic = cfg_.nic;
  const int src_node = m.sender.node_id();
  const int dst_node = m.dst.node_id();
  const int src_hca = hca_of_local(m.sender.local_rank());
  const int dst_hca = hca_of_local(m.dst.local_rank());
  const Time t0 = engine_.now();
  const Time inj_done =
      t0 + scale_time(transfer_time(m.bytes, nic.proc_bw), m.chg);
  double lbw;
  Time extra;
  link_mods(src_node, dst_node, lbw, extra);
  auto deliver = [this, pr, payload = data_plane_.capture(m.bytes, m.data)](
                     Time rx_done) mutable {
    engine_.schedule_call(rx_done, [this, pr,
                                    payload = std::move(payload)]() mutable {
      if (!pr->truncated && !payload.empty() && !pr->out.empty()) {
        std::memcpy(pr->out.data(), payload.data(), payload.size());
      }
      data_plane_.reclaim(std::move(payload));
      pr->done->post();
    });
  };
  if (fabric_ != nullptr) {
    fabric_send(src_node, src_hca, dst_node, dst_hca, t0, m.bytes, extra,
                std::move(deliver));
  } else {
    const Time occupancy = std::max<Time>(
        nic.per_msg_tx, transfer_time(m.bytes, nic.link_bw * lbw));
    const auto tx = node(src_node).tx(src_hca).acquire_grant(t0, occupancy);
    route(src_node, dst_node, dst_hca, tx.start, occupancy, m.bytes, extra,
          std::move(deliver));
  }
  return inj_done;
}

sim::CoTask<void> Machine::do_send(Rank& sender, int dst_world, int ctx,
                                   int tag, std::size_t bytes,
                                   ConstBytes data) {
  DPML_CHECK_MSG(data.empty() || data.size() == bytes,
                 "send payload size mismatch");
  Rank& dst = rank(dst_world);
  const int src_world = sender.world_rank();

  // simcheck: validate the send against the current reduction dtype, hold a
  // read lease on the payload span for the duration of the blocking send
  // (MPI forbids touching the buffer until the send returns), and stamp the
  // dtype annotation that receivers check against. Host-side only: no
  // simulated time is charged.
  check::Checker* ck = checker_.get();
  check::BufferLease send_lease;
  int send_dtype = -1;
  if (ck != nullptr) {
    ck->on_send(src_world, dst_world, ctx, tag, bytes);
    send_lease = ck->acquire_read(src_world, data, "send", ctx, tag);
    send_dtype = ck->current_dtype(src_world);
  }

  // Perturbation modifiers. `chg` scales every host-side charge the sender
  // makes (straggler model); the clean value 1.0 leaves charges untouched
  // via scale_time's early-out.
  const Outgoing m{sender,
                   dst,
                   ctx,
                   tag,
                   bytes,
                   data,
                   send_dtype,
                   perturb_ != nullptr ? perturb_->charge_scale(src_world)
                                       : 1.0};

  if (dst.node_id() == sender.node_id()) {
    co_await engine_.until(send_shm(m));
    co_return;
  }

  // Inter-node data movement is pipelined: the per-process injection pipe,
  // the node TX link, and the destination RX link each serialize the payload
  // once, but they overlap in time (cut-through), so a single uncontended
  // message pays the bottleneck stage only once. The sender's blocking call
  // returns when its own injection pipe has drained (buffer reusable).
  const net::NicModel& nic = cfg_.nic;
  const Time o_send = scale_time(nic.o_send, m.chg);
  stats_.net_messages += 1;
  stats_.net_bytes += bytes;
  if (bytes < nic.rendezvous_threshold) {
    co_await engine_.delay(o_send);
    co_await engine_.until(send_eager(m, o_send));
    co_return;
  }

  // Rendezvous: RTS control message, wait for CTS, then move the payload.
  stats_.rndv_handshakes += 1;
  co_await engine_.delay(o_send);
  RndvState state(engine_, sender.node_id(), dst.node_id());
  send_rts(m, state);
  co_await state.cts.wait();
  co_await engine_.delay(o_send);
  co_await engine_.until(send_payload(m, state.pr));
}

sim::CoTask<RecvResult> Machine::do_recv(Rank& receiver, int src_world,
                                         int ctx, int tag,
                                         std::size_t capacity, MutBytes out) {
  DPML_CHECK_MSG(out.empty() || out.size() >= capacity,
                 "recv buffer smaller than stated capacity");
  // simcheck: hold a write lease on the destination span while the receive
  // is outstanding; any other live operation touching it is a violation.
  check::Checker* ck = checker_.get();
  check::BufferLease recv_lease;
  if (ck != nullptr && !out.empty()) {
    recv_lease = ck->acquire_write(receiver.world_rank(),
                                   out.first(std::min(capacity, out.size())),
                                   "recv", ctx, tag);
  }
  PostedRecv pr;
  pr.ctx = ctx;
  pr.src = src_world;
  pr.tag = tag;
  pr.capacity = capacity;
  pr.out = out;
  sim::Flag done(engine_);
  pr.done = &done;
  receiver.matcher().post_recv(&pr);
  co_await done.wait();
  Time recv_cost = pr.recv_cost;
  if (perturb_ != nullptr) {
    recv_cost =
        scale_time(recv_cost, perturb_->charge_scale(receiver.world_rank()));
  }
  co_await engine_.delay(recv_cost);
  if (pr.truncated) {
    throw util::MessageError(
        "message truncated: rank " + std::to_string(receiver.world_rank()) +
        " posted " + std::to_string(capacity) + " bytes for (ctx=" +
        std::to_string(ctx) + ", src=" + std::to_string(pr.recv_src) +
        ", tag=" + std::to_string(pr.recv_tag) + ") but " +
        std::to_string(pr.recv_bytes) + " arrived");
  }
  if (ck != nullptr) {
    ck->on_recv_complete(receiver.world_rank(), ctx, pr);
  }
  co_return RecvResult{pr.recv_bytes, pr.recv_src, pr.recv_tag};
}

sim::CoTask<void> Machine::do_shm_copy(Rank& r, ShmWindow& w,
                                       std::size_t offset, std::size_t bytes,
                                       ConstBytes src, MutBytes dst,
                                       bool is_put) {
  DPML_CHECK_MSG(offset + bytes <= w.size(), "window copy out of range");
  DPML_CHECK(src.empty() || src.size() == bytes);
  DPML_CHECK(dst.empty() || dst.size() == bytes);
  // simcheck: the user-side span is live for the duration of the copy.
  check::BufferLease shm_lease;
  if (checker_ != nullptr) {
    shm_lease = is_put ? checker_->acquire_read(r.world_rank(), src, "shm-put",
                                                0, 0)
                       : checker_->acquire_write(r.world_rank(), dst,
                                                 "shm-get", 0, 0);
  }
  const net::HostModel& host = cfg_.host;
  const bool xsock = r.socket() != w.owner_socket();
  const double bw = xsock ? host.copy_bw_xsocket : host.copy_bw;
  const Time t0 = engine_.now();
  Time proc_cost = host.copy_startup + (xsock ? host.xsocket_latency : 0) +
                   transfer_time(bytes, bw);
  if (perturb_ != nullptr) {
    proc_cost = scale_time(proc_cost, perturb_->charge_scale(r.world_rank()));
  }
  const Time proc_done = t0 + proc_cost;
  const Time mem_done =
      r.node().mem().acquire(t0, transfer_time(bytes, host.mem_agg_bw));
  stats_.window_copies += 1;
  stats_.shm_bytes += bytes;
  trace(is_put ? "shm-put" : "shm-get", "shm", r.world_rank(), t0,
        std::max(proc_done, mem_done));
  co_await engine_.until(std::max(proc_done, mem_done));
  if (w.has_data() && bytes > 0) {
    if (!src.empty()) {
      std::memcpy(w.data().data() + offset, src.data(), bytes);
    } else if (!dst.empty()) {
      std::memcpy(dst.data(), w.data().data() + offset, bytes);
    }
  }
}

}  // namespace dpml::simmpi
