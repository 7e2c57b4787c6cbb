// The simulated machine: nodes, ranks, transport, shared memory.
//
// A Machine instantiates a cluster preset at a given (nodes, ppn) scale and
// provides the MPI-like runtime the collective algorithms are written
// against. Ranks are coroutine programs spawned with run(); simulated time
// advances only through the engine. Real payload bytes flow when
// RunOptions::with_data is set (the default); metadata-only runs charge
// identical simulated time without touching payload memory, which keeps
// 10,000-rank experiments within laptop memory.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "check/check.hpp"
#include "fabric/fabric.hpp"
#include "net/cluster.hpp"
#include "net/topology.hpp"
#include "perturb/perturb.hpp"
#include "sim/dataplane.hpp"
#include "sim/engine.hpp"
#include "sim/resource.hpp"
#include "sim/sync.hpp"
#include "simmpi/comm.hpp"
#include "simmpi/datatype.hpp"
#include "simmpi/message.hpp"
#include "simmpi/stats.hpp"
#include "simmpi/trace.hpp"

namespace dpml::simmpi {

class Machine;
class Rank;

struct RunOptions {
  bool with_data = true;
  std::uint64_t seed = 1;
  // Deterministic machine perturbations (compute jitter, arrival skew, link
  // degradation, stragglers). An empty spec — the default — builds no
  // perturbation runtime at all: every charge path is bit-identical to a
  // machine constructed before this field existed.
  perturb::PerturbSpec perturb{};
  // MPI-semantics verification (simcheck). `off` constructs no checker and
  // leaves every path byte-identical; `basic`/`strict` attach a
  // check::Checker whose hooks are pure host-side bookkeeping, so even
  // checked runs report identical simulated times.
  check::CheckLevel check_level = check::CheckLevel::off;
  // Fabric fidelity. `none` — the default — keeps the classic LogGP
  // transport bit-identical (golden tests); `links` routes every inter-node
  // payload through the flow-level max-min fair link model, enforcing the
  // cluster's nodes_per_leaf/oversubscription capacities.
  fabric::FabricLevel fabric_level = fabric::FabricLevel::none;
  // Ignored (see sim::DataMode): metadata-only runs are the payload-free
  // mode.
  sim::DataMode data_mode = sim::DataMode::payload;
  // Ignored (see sim::SchedulerKind): one event queue serves every run.
  sim::SchedulerKind scheduler = sim::SchedulerKind::automatic;
  // Model-checking schedule oracle (sim/oracle.hpp), attached to the engine
  // and every rank's Matcher. Null — the default — keeps all scheduling
  // canonical; the explorer in src/mc/ supplies one to enumerate message
  // races (docs/CHECKING.md).
  sim::ScheduleOracle* oracle = nullptr;
};

struct RecvResult {
  std::size_t bytes = 0;
  int src = -1;
  int tag = -1;
};

// Handle for a non-blocking receive: completion flag plus result storage.
struct RecvHandle {
  std::shared_ptr<sim::Flag> done;
  std::shared_ptr<RecvResult> result;
};

// A shared-memory region owned by one socket of a node. Windows are the
// staging buffers of the hierarchical algorithms (DPML phase 1/4 targets).
class ShmWindow {
 public:
  ShmWindow(std::size_t bytes, int owner_socket, bool with_data)
      : size_(bytes), owner_socket_(owner_socket) {
    if (with_data) mem_.resize(bytes);
  }

  std::size_t size() const { return size_; }
  int owner_socket() const { return owner_socket_; }
  bool has_data() const { return !mem_.empty(); }
  MutBytes data() { return MutBytes{mem_.data(), mem_.size()}; }
  ConstBytes data() const { return ConstBytes{mem_.data(), mem_.size()}; }

 private:
  std::size_t size_;
  int owner_socket_;
  std::vector<std::byte> mem_;
};

// Per-node, per-collective-invocation shared state: windows, latches, flags.
// The first rank of the node to reach the collective initializes the slot
// (pure data setup, no simulated time), reserving each vector once: waiters
// hold references into them, so they never grow after set-up. The last rank
// to release the slot frees it.
struct CollSlot {
  bool initialized = false;
  std::vector<ShmWindow> windows;
  std::vector<sim::Latch> latches;
  std::vector<sim::Flag> flags;
  int released = 0;
};

// The awaitables of the one-wake primitives. Each wakes its caller once:
// the primitive computes its charge at the call and schedules the one wake
// when awaited, and what the wake completes runs as the caller resumes. So
// a one-wake primitive takes no coroutine frame and no second resume.
//
// A shared-memory copy (Rank::shm_put / shm_get) moves its bytes as the
// caller resumes. On a checked machine it holds the checker's lease on the
// user-side span until it is destroyed, so the span stays checked across
// the wake.
struct [[nodiscard]] ShmCopy : sim::Engine::DelayAwaiter {
  std::byte* to = nullptr;  // null: no bytes move (metadata-only)
  const std::byte* from = nullptr;
  std::size_t bytes = 0;
  check::BufferLease lease;
  void await_resume() const;
};

// A signal (Rank::signal) posts its flag or arrives at its latch as the
// caller resumes.
template <typename Sync>
struct [[nodiscard]] Signal : sim::Engine::DelayAwaiter {
  Sync& target;
  void await_resume() const {
    if constexpr (std::is_same_v<Sync, sim::Flag>) {
      target.post();
    } else {
      target.arrive();
    }
  }
};

class Node {
 public:
  Node(Machine& m, int id);

  int id() const { return id_; }
  Machine& machine() { return machine_; }

  // Per-HCA (rail) NIC resources; single-HCA nodes have one of each.
  sim::FifoResource& tx(int hca = 0) { return tx_.at(static_cast<std::size_t>(hca)); }
  sim::FifoResource& rx(int hca = 0) { return rx_.at(static_cast<std::size_t>(hca)); }
  sim::FifoResource& mem() { return mem_; }
  int num_hcas() const { return static_cast<int>(tx_.size()); }

  // Shared collective state, keyed by (context << 32 | invocation seq).
  CollSlot& slot(std::int64_t key);
  // Called once per participating rank when done with the slot; the last of
  // `parties` callers erases it.
  void release_slot(std::int64_t key, int parties);
  std::size_t live_slots() const { return slots_.size(); }

 private:
  Machine& machine_;
  int id_;
  std::vector<sim::FifoResource> tx_;
  std::vector<sim::FifoResource> rx_;
  sim::FifoResource mem_;
  std::unordered_map<std::int64_t, CollSlot> slots_;
};

class Rank {
 public:
  Rank(Machine& m, int world_rank);

  Machine& machine() { return *machine_; }
  sim::Engine& engine();

  int world_rank() const { return world_rank_; }
  int node_id() const { return node_id_; }
  int local_rank() const { return local_rank_; }
  int socket() const { return socket_; }
  Node& node();

  // ---- Point-to-point ----
  // Destination/source are comm ranks within `comm`. Payload spans may be
  // empty (metadata-only). Blocking send returns when the local buffer is
  // reusable; blocking recv returns when the message has been delivered.
  sim::CoTask<void> send(const Comm& comm, int dst, int tag, std::size_t bytes,
                         ConstBytes data = {});
  sim::CoTask<RecvResult> recv(const Comm& comm, int src, int tag,
                               std::size_t capacity, MutBytes out = {});
  std::shared_ptr<sim::Flag> isend(const Comm& comm, int dst, int tag,
                                   std::size_t bytes, ConstBytes data = {});
  RecvHandle irecv(const Comm& comm, int src, int tag, std::size_t capacity,
                   MutBytes out = {});
  // Combined exchange (MPI_Sendrecv): non-blocking send + blocking recv.
  sim::CoTask<RecvResult> sendrecv(const Comm& comm, int dst, int send_tag,
                                   std::size_t send_bytes, int src,
                                   int recv_tag, std::size_t recv_capacity,
                                   ConstBytes send_data = {},
                                   MutBytes recv_out = {});

  // Non-blocking probe (MPI_Iprobe): true if a matching message is queued;
  // fills `info` without consuming the message.
  bool iprobe(const Comm& comm, int src, int tag, RecvResult* info = nullptr);
  // Blocking probe (MPI_Probe): waits until a matching message arrives.
  sim::CoTask<RecvResult> probe(const Comm& comm, int src, int tag);

  // ---- Compute ----
  // compute, reduce_compute, shm_put, shm_get and signal return the
  // frame-free awaitables above: co_await them where they are called
  // (they are not CoTasks, so they cannot be spawned).
  [[nodiscard]] sim::Engine::DelayAwaiter compute(sim::Time t);
  // Charge the cost of combining `bytes` of reduction operands once.
  [[nodiscard]] sim::Engine::DelayAwaiter reduce_compute(std::size_t bytes);
  sim::Time reduce_cost(std::size_t bytes) const;

  // ---- Shared memory ----
  // Copy into / out of a node-shared window, charging copy costs (socket
  // aware) and the node memory pipe.
  ShmCopy shm_put(ShmWindow& w, std::size_t offset, std::size_t bytes,
                  ConstBytes src = {});
  ShmCopy shm_get(ShmWindow& w, std::size_t offset, std::size_t bytes,
                  MutBytes dst = {});
  // Signal a node-shared flag/latch, charging the shared-memory flag cost.
  Signal<sim::Flag> signal(sim::Flag& f);
  Signal<sim::Latch> signal(sim::Latch& l);

  // Per-(context) invocation counter used to key collective slots; every
  // rank of a node calls the same collective sequence on a context, so the
  // counter values agree across the node.
  std::int64_t next_coll_key(int context);

  Matcher& matcher() { return matcher_; }

 private:
  Machine* machine_;
  int world_rank_;
  int node_id_;
  int local_rank_;
  int socket_;
  Matcher matcher_;
  // (context, next invocation seq): a rank meets a few contexts, so a flat
  // list beats a hash table, and a rank allocates it on its first
  // collective rather than at set-up.
  std::vector<std::pair<int, std::int64_t>> coll_seq_;
};

class Machine {
 public:
  // Build a machine using the first `nodes` nodes of `cfg` with `ppn`
  // processes per node. Throws if the preset cannot host that shape.
  Machine(net::ClusterConfig cfg, int nodes, int ppn, RunOptions opt = {});
  // Destroys the rank processes a deadlocked or failed run left suspended
  // while the checker, matchers and slots their frames reference exist.
  ~Machine();

  sim::Engine& engine() { return engine_; }
  const net::ClusterConfig& config() const { return cfg_; }
  const net::FabricTopology& topology() const { return topo_; }
  const RunOptions& options() const { return opt_; }
  bool with_data() const { return opt_.with_data; }
  // The plane owning in-flight payload storage.
  sim::PayloadPlane& data_plane() { return data_plane_; }

  int num_nodes() const { return nodes_used_; }
  int ppn() const { return ppn_; }
  int world_size() const { return nodes_used_ * ppn_; }

  Rank& rank(int world_rank);
  Node& node(int id);
  const Comm& world() const { return world_; }

  // Communicator of the j-th leader (of `num_leaders`) on every node.
  // Cached; contexts are unique per (num_leaders, j).
  const Comm& leader_comm(int leader_index, int num_leaders);
  // World ranks of the first local rank of every populated socket, node by
  // node: the SHArP socket-leader design's leaders. Built once.
  const std::vector<int>& socket_leaders();

  // Arbitrary sub-communicator over the given world ranks (fresh context).
  const Comm& make_comm(std::vector<int> world_ranks);

  // MPI_Comm_split semantics over an existing communicator: members with
  // the same color form a new communicator, ordered by (key, old rank).
  // color < 0 (MPI_UNDEFINED) yields no membership. Deterministic: the
  // split for a given (parent, colors, keys) is computed once and cached by
  // call sequence, so every member receives the same Comm object.
  const Comm& split_comm(const Comm& parent,
                         const std::vector<int>& colors,
                         const std::vector<int>& keys, int my_color);

  int alloc_context() { return next_context_++; }

  // Socket hosting a given local rank (socket-major placement).
  int socket_of_local(int local_rank) const;

  // HCA (rail) a local rank injects through: rails are distributed across
  // sockets so that each socket uses its closest HCA (paper §4.3's
  // HCA-aware leader selection falls out of this mapping).
  int hca_of_local(int local_rank) const;

  // Leader-side cost of collecting contributions from locals [lo, hi)
  // (excluding the leader itself): per-contributor poll, socket aware.
  sim::Time collection_cost(int leader_local, int lo_local,
                            int hi_local) const;

  // Local rank index of leader j when using `num_leaders` leaders on a node
  // with this machine's ppn: leaders are spread across sockets the way the
  // paper's implementation does (socket-major round robin).
  int leader_local_rank(int leader_index, int num_leaders) const;
  // True if local rank `lr` is a leader under `num_leaders`.
  int leader_index_of_local(int lr, int num_leaders) const;

  // Spawn `main` for every rank and run the simulation to completion.
  void run(const std::function<sim::CoTask<void>(Rank&)>& main);

  // Wall-clock of the simulated run so far.
  sim::Time now() const { return engine_.now(); }

  // Aggregate communication counters for the run so far.
  const CommStats& comm_stats() const { return stats_; }
  // Matching work of every rank's Matcher so far.
  const MatchStats& match_stats() const { return match_stats_; }

  // Per-collective attribution keyed "<kind>/<label>" (e.g.
  // "allreduce/dpml(l=8)"). Populated by core::run_collective while tracing
  // is enabled; empty otherwise.
  const std::map<std::string, CollectiveStats>& collective_stats() const {
    return coll_stats_;
  }
  void note_collective(const std::string& key, sim::Time elapsed) {
    if (!tracer_) return;
    CollectiveStats& cs = coll_stats_[key];
    cs.ops += 1;
    cs.rank_time += elapsed;
    if (fabric_ != nullptr) {
      cs.fabric_links = true;
      cs.oversubscription = cfg_.oversubscription;
      cs.max_link_util = std::max(
          cs.max_link_util, fabric_->max_avg_link_utilization(engine_.now()));
      cs.fabric_flows = fabric_->total_flows();
    }
  }

  // The perturbation runtime, or nullptr for a pristine machine. Charge
  // paths branch on this pointer; the null path is the exact pre-perturb
  // code.
  perturb::Perturbation* perturbation() const { return perturb_.get(); }

  // The semantics checker, or nullptr when RunOptions::check_level is off.
  check::Checker* checker() const { return checker_.get(); }

  // The flow-level fabric, or nullptr when RunOptions::fabric_level is
  // none (the classic LogGP transport path).
  fabric::FlowFabric* flow_fabric() const { return fabric_.get(); }

  // Per-collective arrival/exit imbalance, keyed like collective_stats().
  // Populated by core::run_collective while tracing or a perturbation is
  // active.
  const std::map<std::string, ImbalanceStats>& imbalance_stats() const {
    return imbalance_.stats();
  }
  void note_imbalance(const std::string& key, int parties, int rank,
                      sim::Time entry, sim::Time exit) {
    imbalance_.note(key, parties, rank, entry, exit);
  }

  // Optional tracing: enable before run(); spans accumulate in tracer().
  // Also labels the viewer lanes ("rank N (node X)") via tracer metadata.
  void enable_trace();
  bool tracing() const { return tracer_ != nullptr; }
  Tracer& tracer() { return *tracer_; }

  // Record a span (no-op unless tracing).
  void trace(const char* name, const char* category, int rank,
             sim::Time start, sim::Time end) {
    if (tracer_) tracer_->add(name, category, rank, start, end);
  }

  // Fraction of simulated time each NIC direction was busy, averaged over
  // nodes (0 when no time has elapsed).
  double avg_tx_utilization() const;
  double avg_rx_utilization() const;

 private:
  net::ClusterConfig cfg_;
  RunOptions opt_;
  int nodes_used_;
  int ppn_;
  sim::Engine engine_;
  sim::PayloadPlane data_plane_;
  net::FabricTopology topo_;
  MatchStats match_stats_;  // every rank's Matcher counts here
  std::deque<Node> nodes_;
  std::deque<Rank> ranks_;
  Comm world_;
  int next_context_ = 1;
  std::unordered_map<std::int64_t, Comm> leader_comms_;
  std::vector<int> socket_leaders_;  // empty until first asked for
  std::deque<Comm> extra_comms_;
  std::unordered_map<std::string, Comm> split_cache_;
  Comm null_comm_;
  CommStats stats_;
  std::map<std::string, CollectiveStats> coll_stats_;
  ImbalanceTracker imbalance_;
  std::unique_ptr<Tracer> tracer_;
  std::unique_ptr<perturb::Perturbation> perturb_;
  std::unique_ptr<check::Checker> checker_;
  std::unique_ptr<fabric::FlowFabric> fabric_;

  // Per-leaf fat-tree uplink/downlink pools (empty when the core is
  // modelled as non-blocking, i.e. oversubscription == 1).
  std::deque<sim::FifoResource> leaf_up_;
  std::deque<sim::FifoResource> leaf_down_;
  double core_bw_ = 0.0;  // GB/s per leaf uplink pool

  friend class Rank;

  // Schedule the fabric traversal of a message whose head leaves the source
  // NIC at tx_start; `complete(Time)` runs with the RX completion time.
  // `extra_latency` is perturbation-injected path delay (0 when clean).
  template <typename Complete>
  void route(int src_node, int dst_node, int dst_hca, sim::Time tx_start,
             sim::Time occupancy, std::size_t bytes, sim::Time extra_latency,
             Complete complete);

  // Flow-fabric payload path (fabric_level == links): the NIC TX engine
  // charges only its per-message cost, the payload drains as a max-min fair
  // flow, and delivery adds path latency plus the RX per-message cost.
  // `complete(Time)` runs with the RX completion time.
  template <typename Complete>
  void fabric_send(int src_node, int src_hca, int dst_node, int dst_hca,
                   sim::Time t0, std::size_t bytes, sim::Time extra_latency,
                   Complete complete);

  // Transport implementation (machine.cpp). do_send's steps that do not
  // suspend are the send_* members, so its coroutine frame holds only what
  // spans a suspension: the message below and the rendezvous state.
  struct Outgoing {
    Rank& sender;
    Rank& dst;
    int ctx;
    int tag;
    std::size_t bytes;
    ConstBytes data;
    int dtype;   // simcheck dtype annotation (-1 when unchecked)
    double chg;  // perturbation charge scale (1.0 when clean)
  };
  struct RndvState;
  sim::CoTask<void> do_send(Rank& sender, int dst_world, int ctx, int tag,
                            std::size_t bytes, ConstBytes data);
  sim::Time send_shm(const Outgoing& m);
  sim::Time send_eager(const Outgoing& m, sim::Time o_send);
  void send_rts(const Outgoing& m, RndvState& st);
  sim::Time send_payload(const Outgoing& m, PostedRecv* pr);
  Envelope envelope(const Outgoing& m, sim::Time recv_cost);
  void deliver_at(sim::Time t, int dst_world, Envelope env);
  void link_mods(int src_node, int dst_node, double& bw_scale,
                 sim::Time& extra) const;
  sim::CoTask<RecvResult> do_recv(Rank& receiver, int src_world, int ctx,
                                  int tag, std::size_t capacity, MutBytes out);
  ShmCopy do_shm_copy(Rank& r, ShmWindow& w, std::size_t offset,
                      std::size_t bytes, ConstBytes src, MutBytes dst,
                      bool is_put);
};

}  // namespace dpml::simmpi
