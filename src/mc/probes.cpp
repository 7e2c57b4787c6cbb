#include "mc/probes.hpp"

#include <cstddef>
#include <utility>
#include <vector>

#include "coll/coll.hpp"
#include "coll/registry.hpp"
#include "sim/time.hpp"
#include "simmpi/machine.hpp"
#include "util/error.hpp"

namespace dpml::mc {

namespace {

using coll::CollArgs;
using coll::CollKind;
using coll::CollSpec;
using simmpi::Comm;
using simmpi::MutBytes;
using simmpi::Rank;
using simmpi::RecvResult;

// Root-gathered allreduce over MPI_ANY_SOURCE receives. `sorted` selects
// the correct fold (per-comm-rank slots, ascending order); the arrival
// variant folds each contribution as it matches — the planted
// schedule-sensitive bug (see probes.hpp).
sim::CoTask<void> allreduce_probe(CollArgs a, bool sorted) {
  coll::check_args(coll::CollKind::allreduce, a);
  Rank& r = *a.rank;
  const Comm& c = *a.comm;
  const int me = c.rank_of_world(r.world_rank());
  if (me < 0) co_return;
  co_await coll::copy_in(a);
  const int p = c.size();
  if (p == 1) co_return;
  const std::size_t nbytes = a.bytes();

  if (me != 0) {
    co_await r.send(c, 0, a.tag_base, nbytes, coll::as_const(a.recv));
    co_await r.recv(c, 0, a.tag_base + 1, nbytes, a.recv);
    co_return;
  }

  // Root. Let every contribution land in the unexpected queue before the
  // first wildcard receive posts: the source-matching race is then a real
  // choice point rather than an artifact of posting order.
  co_await r.engine().delay(sim::ms(1));
  auto slots = a.scratch(nbytes * static_cast<std::size_t>(p - 1));
  std::vector<int> slot_rank(static_cast<std::size_t>(p - 1), -1);
  for (int i = 0; i < p - 1; ++i) {
    MutBytes slot{};
    if (!slots.empty()) {
      slot = MutBytes{slots.data() + static_cast<std::size_t>(i) * nbytes,
                      nbytes};
    }
    const RecvResult res =
        co_await r.recv(c, simmpi::kAnySource, a.tag_base, nbytes, slot);
    slot_rank[static_cast<std::size_t>(i)] = c.rank_of_world(res.src);
    if (!sorted) {
      // BUG (by design): arrival order is not comm-rank order under every
      // schedule, so a non-commutative op folds operands transposed.
      co_await r.reduce_compute(nbytes);
      a.op.apply(a.dt, a.count, a.recv, coll::as_const(slot));
    }
  }
  if (sorted) {
    for (int cr = 1; cr < p; ++cr) {
      for (std::size_t i = 0; i < slot_rank.size(); ++i) {
        if (slot_rank[i] != cr) continue;
        MutBytes slot{};
        if (!slots.empty()) {
          slot = MutBytes{slots.data() + i * nbytes, nbytes};
        }
        co_await r.reduce_compute(nbytes);
        a.op.apply(a.dt, a.count, a.recv, coll::as_const(slot));
      }
    }
  }
  for (int dst = 1; dst < p; ++dst) {
    co_await r.send(c, dst, a.tag_base + 1, nbytes, coll::as_const(a.recv));
  }
}

}  // namespace

void ensure_probe_algorithms() {
  coll::ensure_builtin_collectives();
  auto& reg = coll::CollRegistry::instance();
  if (reg.find(CollKind::allreduce, "mc-probe-arrival") != nullptr) return;
  coll::CollCaps caps;
  // Below three ranks the root gathers a single contribution: no matching
  // race exists, so the planted bug is unreachable by any schedule.
  caps.min_comm_size = 3;
  reg.add(coll::CollDescriptor{
      "mc-probe-arrival", CollKind::allreduce, caps,
      [](CollArgs a, const CollSpec&) {
        return allreduce_probe(std::move(a), /*sorted=*/false);
      }});
  reg.add(coll::CollDescriptor{
      "mc-probe-sorted", CollKind::allreduce, caps,
      [](CollArgs a, const CollSpec&) {
        return allreduce_probe(std::move(a), /*sorted=*/true);
      }});
}

}  // namespace dpml::mc
