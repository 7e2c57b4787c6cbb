#include "core/tuner.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace dpml::core {

namespace {

// Expand one tunable descriptor into concrete candidate specs.
void expand_candidates(const coll::CollDescriptor& d, int ppn,
                       std::size_t bytes, std::vector<coll::CollSpec>* out) {
  if (!d.caps.uses_leaders) {
    coll::CollSpec s;
    s.algo = d.name;
    out->push_back(s);
    return;
  }
  int prev = 0;
  for (int l : {1, 2, 4, 8, 16}) {
    const int eff = std::min(l, ppn);
    if (eff == prev) continue;
    prev = eff;
    coll::CollSpec s;
    s.algo = d.name;
    s.leaders = eff;
    s.pipeline_k = 1;
    out->push_back(s);
    // Pipelined variants only make sense when the per-leader partition is
    // still large (paper §4.2).
    if (d.caps.supports_pipelining &&
        bytes / static_cast<std::size_t>(eff) >= 64 * 1024) {
      for (int k : {2, 4, 8}) {
        coll::CollSpec sp = s;
        sp.pipeline_k = k;
        out->push_back(sp);
      }
    }
  }
}

}  // namespace

std::vector<coll::CollSpec> registry_candidates(CollKind kind, int ppn,
                                                bool has_sharp,
                                                std::size_t bytes) {
  std::vector<coll::CollSpec> out;
  const auto descs = coll::CollRegistry::instance().list(kind);
  // Host-level designs first, fabric-offloaded ones after, mirroring the
  // paper's sweep order (DPML configurations, then SHArP designs).
  for (const coll::CollDescriptor* d : descs) {
    if (d->caps.tunable && !d->caps.needs_fabric) {
      expand_candidates(*d, ppn, bytes, &out);
    }
  }
  for (const coll::CollDescriptor* d : descs) {
    if (d->caps.tunable && d->caps.needs_fabric && has_sharp &&
        bytes <= d->caps.max_tune_bytes) {
      expand_candidates(*d, ppn, bytes, &out);
    }
  }
  return out;
}

TuneResult tune_collective(CollKind kind, const net::ClusterConfig& cfg,
                           int nodes, int ppn, std::size_t bytes,
                           const std::vector<coll::CollSpec>& candidates,
                           const MeasureOptions& opt) {
  DPML_CHECK_MSG(!candidates.empty(), "empty candidate set");
  const auto& reg = coll::CollRegistry::instance();
  TuneResult result;
  for (const coll::CollSpec& cand : candidates) {
    const coll::CollDescriptor& d = reg.at(kind, cand.algo);
    if (d.caps.needs_fabric && !cfg.has_sharp()) continue;
    const MeasureResult m =
        measure_collective(kind, cfg, nodes, ppn, bytes, cand, opt);
    result.all.push_back(TunedEntry{cand, m.avg_us});
    result.perf.add(m);
  }
  DPML_CHECK_MSG(!result.all.empty(), "no runnable candidates");
  std::sort(result.all.begin(), result.all.end(),
            [](const TunedEntry& a, const TunedEntry& b) {
              return a.avg_us < b.avg_us;
            });
  result.best = result.all.front();
  return result;
}

TuneResult tune_collective(CollKind kind, const net::ClusterConfig& cfg,
                           int nodes, int ppn, std::size_t bytes,
                           const MeasureOptions& opt) {
  return tune_collective(kind, cfg, nodes, ppn, bytes,
                         registry_candidates(kind, ppn, cfg.has_sharp(), bytes),
                         opt);
}

}  // namespace dpml::core
