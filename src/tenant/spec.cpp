// Spec grammars for the tenant subsystem (--bg-traffic, --fail-links) and
// the deterministic default job mix.
#include "tenant/tenant.hpp"

#include <algorithm>
#include <sstream>

#include "util/args.hpp"
#include "util/error.hpp"

namespace dpml::tenant {

namespace {

[[noreturn]] void bad_traffic(const std::string& what) {
  throw util::InvariantError("bad --bg-traffic spec: " + what);
}

[[noreturn]] void bad_fail(const std::string& what) {
  throw util::InvariantError("bad --fail-links spec: " + what);
}

std::vector<std::string> split(const std::string& text, char sep) {
  std::vector<std::string> out;
  std::string cur;
  for (char ch : text) {
    if (ch == sep) {
      out.push_back(cur);
      cur.clear();
    } else {
      cur += ch;
    }
  }
  out.push_back(cur);
  return out;
}

std::string trim(const std::string& s) {
  std::size_t b = s.find_first_not_of(" \t");
  if (b == std::string::npos) return "";
  std::size_t e = s.find_last_not_of(" \t");
  return s.substr(b, e - b + 1);
}

// "a=1,b=2" -> [(a,"1"), (b,"2")].
std::vector<std::pair<std::string, std::string>> params(
    const std::string& text) {
  std::vector<std::pair<std::string, std::string>> out;
  if (trim(text).empty()) return out;
  for (const std::string& tok : split(text, ',')) {
    const std::size_t eq = tok.find('=');
    if (eq == std::string::npos) {
      out.emplace_back(trim(tok), "");
    } else {
      out.emplace_back(trim(tok.substr(0, eq)), trim(tok.substr(eq + 1)));
    }
  }
  return out;
}

}  // namespace

const char* placement_name(Placement p) {
  switch (p) {
    case Placement::block:
      return "block";
    case Placement::round_robin:
      return "round-robin";
    case Placement::random:
      return "random";
  }
  return "?";
}

Placement placement_by_name(const std::string& name) {
  if (name == "block") return Placement::block;
  if (name == "round-robin" || name == "rr") return Placement::round_robin;
  if (name == "random") return Placement::random;
  throw util::InvariantError("unknown placement '" + name +
                             "'; valid: block, round-robin, random");
}

const char* matrix_name(Matrix m) {
  switch (m) {
    case Matrix::none:
      return "none";
    case Matrix::uniform:
      return "uniform";
    case Matrix::permutation:
      return "permutation";
    case Matrix::hotspot:
      return "hotspot";
  }
  return "?";
}

std::string TrafficSpec::to_string() const {
  if (empty()) return "";
  std::ostringstream os;
  os << matrix_name(matrix) << ":load=" << load << ",bytes=" << bytes;
  if (matrix == Matrix::hotspot) {
    os << ",hot_frac=" << hot_frac << ",hot_node=" << hot_node;
  }
  if (matrix == Matrix::permutation && shift != 0) os << ",shift=" << shift;
  os << ",seed=" << seed;
  return os.str();
}

TrafficSpec TrafficSpec::parse(const std::string& text) {
  TrafficSpec t;
  const std::string body = trim(text);
  if (body.empty()) return t;
  const std::size_t colon = body.find(':');
  const std::string kind = trim(body.substr(0, colon));
  const std::string rest =
      colon == std::string::npos ? "" : body.substr(colon + 1);
  if (kind == "uniform") {
    t.matrix = Matrix::uniform;
  } else if (kind == "permutation") {
    t.matrix = Matrix::permutation;
  } else if (kind == "hotspot") {
    t.matrix = Matrix::hotspot;
  } else if (kind == "none") {
    t.matrix = Matrix::none;
  } else {
    bad_traffic("unknown matrix '" + kind +
                "'; valid: uniform, permutation, hotspot, none");
  }
  for (const auto& [k, v] : params(rest)) {
    if (k == "load") {
      t.load = util::Args::parse_double("--bg-traffic " + k, v);
    } else if (k == "bytes") {
      t.bytes = util::Args::parse_bytes("--bg-traffic " + k, v);
    } else if (k == "hot_frac") {
      t.hot_frac = util::Args::parse_double("--bg-traffic " + k, v);
    } else if (k == "hot_node") {
      t.hot_node = util::Args::parse_int("--bg-traffic " + k, v);
    } else if (k == "shift") {
      t.shift = util::Args::parse_int("--bg-traffic " + k, v);
    } else if (k == "seed") {
      t.seed = util::Args::parse_u64("--bg-traffic " + k, v);
    } else {
      bad_traffic("unknown parameter '" + k +
                  "'; valid: load, bytes, hot_frac, hot_node, shift, seed");
    }
  }
  if (t.load <= 0.0 || t.load > 1.0) bad_traffic("load must be in (0, 1]");
  if (t.bytes == 0) bad_traffic("bytes must be > 0");
  if (t.hot_frac < 0.0 || t.hot_frac > 1.0) {
    bad_traffic("hot_frac must be in [0, 1]");
  }
  if (t.hot_node < 0) bad_traffic("hot_node must be >= 0");
  return t;
}

std::string FailSpec::to_string() const {
  std::ostringstream os;
  bool first = true;
  for (const Event& e : events) {
    if (!first) os << ";";
    first = false;
    os << "way=" << e.way;
    if (e.leaf >= 0) os << ",leaf=" << e.leaf;
    os << ",at_us=" << e.at_us;
    if (e.recover_us > 0.0) os << ",recover_us=" << e.recover_us;
  }
  return os.str();
}

FailSpec FailSpec::parse(const std::string& text) {
  FailSpec f;
  const std::string body = trim(text);
  if (body.empty()) return f;
  for (const std::string& clause : split(body, ';')) {
    if (trim(clause).empty()) continue;
    Event e;
    bool have_way = false;
    for (const auto& [k, v] : params(clause)) {
      if (k == "way") {
        e.way = util::Args::parse_int("--fail-links " + k, v);
        have_way = true;
      } else if (k == "leaf") {
        e.leaf = util::Args::parse_int("--fail-links " + k, v);
      } else if (k == "at_us") {
        e.at_us = util::Args::parse_double("--fail-links " + k, v);
      } else if (k == "recover_us") {
        e.recover_us = util::Args::parse_double("--fail-links " + k, v);
      } else {
        bad_fail("unknown parameter '" + k +
                 "'; valid: way, leaf, at_us, recover_us");
      }
    }
    if (!have_way) bad_fail("every clause needs way=W");
    if (e.way < 0) bad_fail("way must be >= 0");
    if (e.leaf < -1) bad_fail("leaf must be >= 0 (or omitted for all)");
    if (e.at_us < 0.0) bad_fail("at_us must be >= 0");
    if (e.recover_us != 0.0 && e.recover_us <= e.at_us) {
      bad_fail("recover_us must be after at_us (or 0 = never)");
    }
    f.events.push_back(e);
  }
  return f;
}

FailSpec FailSpec::default_spec() {
  FailSpec f;
  Event e;
  e.way = 0;
  e.leaf = -1;  // whole core switch 0
  e.at_us = 30.0;
  e.recover_us = 150.0;
  f.events.push_back(e);
  return f;
}

std::vector<JobSpec> default_jobs(int count, const net::ClusterConfig& cfg,
                                  int nodes_available) {
  DPML_CHECK_MSG(count >= 1, "tenant job count must be >= 1");
  DPML_CHECK_MSG(nodes_available >= count,
                 "tenant mix needs at least one node per job");
  // Sub-communicator-safe patterns only: the world_only hierarchical
  // designs (dpml, single-leader, ...) assume they own the whole machine.
  struct Mix {
    coll::CollKind kind;
    const char* algo;
    std::size_t bytes;
  };
  static const Mix kMix[] = {
      {coll::CollKind::allreduce, "ring", 262144},
      {coll::CollKind::allreduce, "rsa", 65536},
      {coll::CollKind::alltoall, "auto", 16384},
      {coll::CollKind::allgather, "ring", 32768},
      {coll::CollKind::reduce_scatter, "ring", 131072},
      {coll::CollKind::bcast, "binomial", 65536},
  };
  constexpr int kMixSize = static_cast<int>(sizeof(kMix) / sizeof(kMix[0]));
  // Evenly split the node budget; earlier jobs absorb the remainder.
  std::vector<JobSpec> jobs;
  const int base = nodes_available / count;
  int extra = nodes_available % count;
  for (int j = 0; j < count; ++j) {
    const Mix& m = kMix[j % kMixSize];
    JobSpec s;
    s.name = "job" + std::to_string(j);
    s.kind = m.kind;
    s.algo = m.algo;
    s.bytes = m.bytes;
    s.nodes = base + (extra > 0 ? 1 : 0);
    if (extra > 0) --extra;
    s.iterations = 4;
    // On SHArP-capable clusters the second job exercises in-network
    // aggregation, so jobs contend for the shared op slots too.
    if (j == 1 && cfg.sharp.has_value()) {
      s.kind = coll::CollKind::allreduce;
      s.algo = "sharp";
      s.sharp = true;
      s.bytes = std::min<std::size_t>(cfg.sharp->max_payload, 2048);
    }
    jobs.push_back(std::move(s));
  }
  return jobs;
}

}  // namespace dpml::tenant
