// AdaptiveTable: per-size selection tables with a contention-level
// dimension (docs/MODEL.md §12), their tuner and their level-0 dispatcher.
#include "adapt/adapt.hpp"

#include <limits>
#include <optional>
#include <sstream>
#include <utility>

#include "core/api.hpp"
#include "util/args.hpp"
#include "util/error.hpp"

namespace dpml::adapt {

namespace {

constexpr std::size_t kCatchAll = std::numeric_limits<std::size_t>::max();

// Persist leaders/pipeline_k exactly when the registered descriptor honours
// them.
bool persists_params(coll::CollKind kind, const std::string& algo) {
  const coll::CollDescriptor* d =
      coll::CollRegistry::instance().find(kind, algo);
  return d != nullptr && d->caps.uses_leaders;
}

}  // namespace

AdaptiveTable::AdaptiveTable(std::vector<Entry> entries)
    : AdaptiveTable(std::move(entries), {}) {}

AdaptiveTable::AdaptiveTable(std::vector<Entry> entries,
                             const std::vector<int>& lines)
    : entries_(std::move(entries)) {
  validate(lines);
}

void AdaptiveTable::validate(const std::vector<int>& lines) const {
  const auto where = [&](std::size_t i) {
    return lines.empty() ? "adaptive table entry " + std::to_string(i + 1)
                         : "adaptive table line " + std::to_string(lines[i]);
  };
  const auto bound = [](const Entry& e) {
    return e.max_bytes == kCatchAll ? std::string("*")
                                    : "<=" + std::to_string(e.max_bytes);
  };
  // One line: where, the (kind, level), then the broken rule.
  const auto broken = [&](std::size_t i, const std::string& rule) {
    const Entry& e = entries_[i];
    return util::InvariantError(where(i) + ": " +
                                coll::coll_kind_name(e.kind) + " level " +
                                std::to_string(e.level) + ": " + rule);
  };
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    const int level = entries_[i].level;
    if (level < 0 || level >= kLevels) {
      throw broken(i, "level out of range [0, " + std::to_string(kLevels) +
                          ")");
    }
  }
  // Per (kind, level): bounds strictly ascending, catch-all present and
  // last. Pairs may interleave freely in the entry list.
  for (coll::CollKind kind : coll::kAllCollKinds) {
    for (int level = 0; level < kLevels; ++level) {
      std::optional<std::size_t> last;  // previous entry of this pair
      for (std::size_t i = 0; i < entries_.size(); ++i) {
        const Entry& e = entries_[i];
        if (e.kind != kind || e.level != level) continue;
        if (last) {
          const Entry& prev = entries_[*last];
          if (prev.max_bytes == kCatchAll) {
            throw broken(i, "the catch-all must be last, but this entry "
                            "follows the catch-all of " + where(*last));
          }
          if (e.max_bytes <= prev.max_bytes) {
            throw broken(i, "size bounds must ascend strictly, but " +
                                bound(e) + " follows " + bound(prev) +
                                " of " + where(*last));
          }
        }
        last = i;
      }
      if (last && entries_[*last].max_bytes != kCatchAll) {
        throw broken(*last, "a catch-all '*' entry must follow the last "
                            "size bound " + bound(entries_[*last]));
      }
    }
  }
}

AdaptiveTable AdaptiveTable::defaults() {
  std::vector<Entry> entries;
  // Channel ladder for congested allreduce jobs: under max-min fair sharing
  // a job's aggregate share of a contended link grows with its concurrent
  // flow count, so rising contention buys more cring channels. No level-0
  // entries: a quiet fabric keeps the job's static plan.
  const int ladder[kLevels] = {0, 2, 4, 8};
  for (int level = 1; level < kLevels; ++level) {
    Entry e;
    e.kind = coll::CollKind::allreduce;
    e.level = level;
    e.max_bytes = kCatchAll;
    e.spec.algo = "cring";
    e.spec.leaders = ladder[level];
    e.spec.pipeline_k = 1;
    entries.push_back(e);
  }
  return AdaptiveTable(std::move(entries));
}

AdaptiveTable AdaptiveTable::tune(coll::CollKind kind,
                                  const net::ClusterConfig& cfg, int nodes,
                                  int ppn,
                                  const std::vector<std::size_t>& probe_sizes,
                                  const core::MeasureOptions& opt) {
  DPML_CHECK_MSG(!probe_sizes.empty(), "no probe sizes");
  std::vector<Entry> entries;
  for (std::size_t i = 0; i < probe_sizes.size(); ++i) {
    Entry e;
    e.kind = kind;
    e.max_bytes = i + 1 == probe_sizes.size() ? kCatchAll : probe_sizes[i];
    e.spec =
        core::tune_collective(kind, cfg, nodes, ppn, probe_sizes[i], opt)
            .best.spec;
    e.spec.fabric = nullptr;  // tables are machine-independent
    // Merge adjacent entries with identical specs (keeps tables small).
    if (!entries.empty() && entries.back().spec.algo == e.spec.algo &&
        entries.back().spec.leaders == e.spec.leaders &&
        entries.back().spec.pipeline_k == e.spec.pipeline_k) {
      entries.back().max_bytes = e.max_bytes;
    } else {
      entries.push_back(e);
    }
  }
  return AdaptiveTable(std::move(entries));
}

AdaptiveTable AdaptiveTable::parse(const std::string& text) {
  std::vector<Entry> entries;
  std::vector<int> lines;
  std::istringstream is(text);
  std::string line;
  int lineno = 0;
  while (std::getline(is, line)) {
    ++lineno;
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    std::istringstream ls(line);
    std::string tok;
    if (!(ls >> tok)) continue;  // blank line
    // Numbers follow the util::Args rule; errors name the line and field.
    const std::string where = "adaptive table line " + std::to_string(lineno);
    const auto bad = [&](const std::string& what) {
      return util::InvariantError(where + ": " + what + " in '" + line + "'");
    };
    // A leader count or pipeline depth: an int of at least 1.
    const auto positive = [&](const char* field, const std::string& text) {
      const int n = util::Args::parse_int(where + " " + field, text);
      if (n < 1) {
        throw util::InvariantError("bad value '" + text + "' for " + where +
                                   " " + field + ": expected at least 1");
      }
      return n;
    };
    Entry e;
    // Optional leading collective kind (bare lines are allreduce, the
    // legacy convention).
    if (coll::is_coll_kind_name(tok)) {
      e.kind = coll::coll_kind_by_name(tok);
      if (!(ls >> tok)) throw bad("missing size bound");
    }
    // Optional contention-level qualifier; plain lines are level 0, so
    // legacy selection tables parse unchanged.
    if (tok.rfind("@c", 0) == 0) {
      e.level = util::Args::parse_int(where + " contention level",
                                      tok.substr(2));
      if (!(ls >> tok)) throw bad("missing size bound");
    }
    if (tok == "*") {
      e.max_bytes = kCatchAll;
    } else if (tok.rfind("<=", 0) == 0) {
      e.max_bytes = util::Args::parse_u64(where + " size bound", tok.substr(2));
    } else {
      throw bad("size bound '" + tok + "' must be '<=N' or '*'");
    }
    std::string algo;
    if (!(ls >> algo)) throw bad("missing algorithm");
    e.spec.algo = coll::CollRegistry::instance().at(e.kind, algo).name;
    if (ls >> tok) {
      e.spec.leaders = positive("leaders", tok);
      if (ls >> tok) e.spec.pipeline_k = positive("pipeline depth", tok);
    }
    if (ls >> tok) {
      throw util::InvariantError(where + ": unexpected '" + tok +
                                 "' after the pipeline depth");
    }
    entries.push_back(e);
    lines.push_back(lineno);
  }
  return AdaptiveTable(std::move(entries), lines);
}

std::string AdaptiveTable::serialize() const {
  std::ostringstream os;
  // The banner names the extension, so emit it only when the extension is
  // used: level-0-only tables serialize as plain legacy selection tables.
  bool leveled = false;
  for (const Entry& e : entries_) leveled = leveled || e.level != 0;
  if (leveled) {
    os << "# dpml adaptive selection table (@cN = contention level)\n";
  }
  for (const Entry& e : entries_) {
    if (e.kind != coll::CollKind::allreduce) {
      os << coll::coll_kind_name(e.kind) << " ";
    }
    // Level 0 serializes without a qualifier, so level-0-only tables
    // round-trip in the legacy selection-table format.
    if (e.level != 0) os << "@c" << e.level << " ";
    if (e.max_bytes == kCatchAll) {
      os << "*";
    } else {
      os << "<=" << e.max_bytes;
    }
    os << "  " << e.spec.algo;
    if (persists_params(e.kind, e.spec.algo)) {
      os << " " << e.spec.leaders << " " << e.spec.pipeline_k;
    }
    os << "\n";
  }
  return os.str();
}

const AdaptiveTable::Entry* AdaptiveTable::select(coll::CollKind kind,
                                                  std::size_t bytes,
                                                  int level) const {
  if (level >= kLevels) level = kLevels - 1;
  for (int lv = level; lv >= 0; --lv) {
    const Entry* catch_all = nullptr;
    for (const Entry& e : entries_) {
      if (e.kind != kind || e.level != lv) continue;
      if (bytes <= e.max_bytes) return &e;
      catch_all = &e;
    }
    // validate() guarantees a populated (kind, level) ends with a
    // catch-all, so reaching here with entries seen means bytes matched
    // nothing only if the level is unpopulated.
    if (catch_all != nullptr) return catch_all;
  }
  return nullptr;
}

coll::CollSpec AdaptiveTable::level0(coll::CollKind kind, std::size_t bytes,
                                     bool has_fabric) const {
  const Entry* e = select(kind, bytes, 0);
  DPML_CHECK_MSG(e != nullptr,
                 std::string("selection table has no entries for ") +
                     coll::coll_kind_name(kind));
  coll::CollSpec spec = e->spec;
  if (!has_fabric && kind == coll::CollKind::allreduce &&
      coll::CollRegistry::instance().at(kind, spec.algo).caps.needs_fabric) {
    // Graceful degradation on fabric-less platforms: fall back to the tuned
    // host design family.
    spec.algo = "dpml";
    spec.leaders = 1;
    spec.pipeline_k = 1;
  }
  return spec;
}

void AdaptiveTable::record(coll::CollKind kind, int level,
                           const coll::CollSpec& spec) {
  DPML_CHECK_MSG(level >= 0 && level < kLevels,
                 "record: level out of range");
  for (Entry& e : entries_) {
    if (e.kind == kind && e.level == level && e.max_bytes == kCatchAll) {
      e.spec = spec;
      e.spec.fabric = nullptr;  // tables are machine-independent
      return;
    }
  }
  Entry e;
  e.kind = kind;
  e.level = level;
  e.max_bytes = kCatchAll;
  e.spec = spec;
  e.spec.fabric = nullptr;
  entries_.push_back(e);
}

sim::CoTask<void> run_collective(coll::CollKind kind, coll::CollArgs args,
                                 const AdaptiveTable& table,
                                 sharp::SharpFabric* fabric) {
  coll::CollSpec spec = table.level0(kind, args.bytes(), fabric != nullptr);
  if (core::takes_fabric(kind, spec.algo)) spec.fabric = fabric;
  return core::run_collective(kind, std::move(args), spec);
}

}  // namespace dpml::adapt
