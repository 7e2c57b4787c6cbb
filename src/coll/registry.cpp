#include "coll/registry.hpp"

#include <sstream>
#include <utility>

#include "util/error.hpp"

namespace dpml::coll {

CollKind coll_kind_by_name(const std::string& name) {
  for (CollKind k : kAllCollKinds) {
    if (name == coll_kind_name(k)) return k;
  }
  std::ostringstream os;
  os << "unknown collective kind '" << name << "'; valid kinds:";
  for (CollKind k : kAllCollKinds) os << " " << coll_kind_name(k);
  DPML_CHECK_MSG(false, os.str());
  return CollKind::allreduce;
}

bool is_coll_kind_name(const std::string& name) {
  for (CollKind k : kAllCollKinds) {
    if (name == coll_kind_name(k)) return true;
  }
  return false;
}

std::string CollSpec::label(CollKind kind) const {
  std::string s = algo;
  const CollDescriptor* d = CollRegistry::instance().find(kind, algo);
  if (d != nullptr && d->caps.uses_leaders) {
    s += "(l=" + std::to_string(leaders);
    if (d->caps.supports_pipelining && pipeline_k > 1) {
      s += ",k=" + std::to_string(pipeline_k);
    }
    s += ")";
  }
  return s;
}

CollRegistry& CollRegistry::instance() {
  static CollRegistry registry;
  return registry;
}

void CollRegistry::add(CollDescriptor d) {
  DPML_CHECK_MSG(!d.name.empty(), "collective descriptor needs a name");
  DPML_CHECK_MSG(static_cast<bool>(d.make),
                 "collective descriptor '" + d.name + "' needs a factory");
  for (const CollDescriptor& e : entries_) {
    DPML_CHECK_MSG(
        e.kind != d.kind || e.name != d.name,
        std::string("duplicate collective registration: ") +
            coll_kind_name(d.kind) + "/" + d.name);
  }
  entries_.push_back(std::move(d));
}

const CollDescriptor* CollRegistry::find(CollKind kind,
                                         const std::string& name) const {
  ensure_builtin_collectives();
  for (const CollDescriptor& e : entries_) {
    if (e.kind == kind && e.name == name) return &e;
  }
  return nullptr;
}

const CollDescriptor& CollRegistry::at(CollKind kind,
                                       const std::string& name) const {
  const CollDescriptor* d = find(kind, name);
  if (d == nullptr) {
    std::ostringstream os;
    os << "unknown " << coll_kind_name(kind) << " algorithm '" << name
       << "'; registered:";
    for (const std::string& n : names(kind)) os << " " << n;
    // A kind/algorithm mix-up (e.g. --collective bcast --algorithm dpml) is
    // far more common than a typo; say which kinds do register the name.
    std::string others;
    for (CollKind k : kAllCollKinds) {
      if (k != kind && find(k, name) != nullptr) {
        if (!others.empty()) others += ", ";
        others += coll_kind_name(k);
      }
    }
    if (!others.empty()) {
      os << " ('" << name << "' is a registered algorithm of: " << others
         << ")";
    }
    DPML_CHECK_MSG(false, os.str());
  }
  return *d;
}

std::vector<const CollDescriptor*> CollRegistry::list(CollKind kind) const {
  ensure_builtin_collectives();
  std::vector<const CollDescriptor*> out;
  for (const CollDescriptor& e : entries_) {
    if (e.kind == kind) out.push_back(&e);
  }
  return out;
}

std::vector<std::string> CollRegistry::names(CollKind kind) const {
  std::vector<std::string> out;
  for (const CollDescriptor* d : list(kind)) out.push_back(d->name);
  return out;
}

CollRegistration::CollRegistration(CollDescriptor d) {
  CollRegistry::instance().add(std::move(d));
}

CollDescriptor plain_desc(std::string name, CollKind kind,
                          sim::CoTask<void> (*fn)(CollArgs), CollCaps caps) {
  return {std::move(name), kind, caps,
          [fn](CollArgs a, const CollSpec&) { return fn(std::move(a)); }};
}

void ensure_builtin_collectives() {
  // Touching one symbol per implementation TU forces those archive members
  // (and their static CollRegistration objects) into the link, in a fixed
  // order so registry enumeration is deterministic.
  static const bool once = [] {
    link_flat_collectives();
    link_dpml_collectives();
    link_sharp_collectives();
    link_baseline_collectives();
    link_reduce_collectives();
    link_bcast_collectives();
    link_alltoall_collectives();
    link_group_collectives();
    return true;
  }();
  (void)once;
}

}  // namespace dpml::coll
