#include "perturb/spec.hpp"

#include <sstream>

#include "util/args.hpp"
#include "util/error.hpp"

namespace dpml::perturb {

namespace {

constexpr const char* kInjectors = "jitter, skew, link, stragglers, seed";

[[noreturn]] void bad_clause(const std::string& what) {
  throw util::InvariantError("bad --perturb spec: " + what);
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

// A number of injector `injector`'s field `key`, by the util::Args
// number rule (the error names --perturb, the injector and the field).
double number(const char* injector, const std::string& key,
              const std::string& text) {
  return util::Args::parse_double(
      std::string("--perturb ") + injector + " " + key, text);
}

int integer(const char* injector, const std::string& key,
            const std::string& text) {
  return util::Args::parse_int(
      std::string("--perturb ") + injector + " " + key, text);
}

// "a=1,b=2" -> [(a,"1"), (b,"2")]; bare tokens get an empty value.
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

JitterSpec parse_jitter(const std::string& value) {
  JitterSpec j;
  const std::size_t colon = value.find(':');
  const std::string kind = trim(value.substr(0, colon));
  const std::string rest =
      colon == std::string::npos ? "" : value.substr(colon + 1);
  if (kind == "uniform") {
    j.kind = JitterKind::uniform;
  } else if (kind == "lognormal") {
    j.kind = JitterKind::lognormal;
  } else if (kind == "spike") {
    j.kind = JitterKind::spike;
  } else {
    bad_clause("unknown jitter distribution '" + kind +
               "'; valid: uniform, lognormal, spike");
  }
  for (const auto& [k, v] : params(rest)) {
    if (k == "frac") {
      j.frac = number("jitter", k, v);
    } else if (k == "sigma") {
      j.sigma = number("jitter", k, v);
    } else if (k == "prob") {
      j.prob = number("jitter", k, v);
    } else if (k == "scale") {
      j.scale = number("jitter", k, v);
    } else {
      bad_clause("unknown jitter parameter '" + k +
                 "'; valid: frac, sigma, prob, scale");
    }
  }
  if (j.frac < 0.0 || j.frac >= 1.0) bad_clause("jitter frac must be in [0,1)");
  if (j.sigma < 0.0) bad_clause("jitter sigma must be >= 0");
  if (j.prob < 0.0 || j.prob > 1.0) bad_clause("jitter prob must be in [0,1]");
  if (j.scale <= 0.0) bad_clause("jitter scale must be > 0");
  return j;
}

SkewSpec parse_skew(const std::string& value) {
  SkewSpec s;
  const std::size_t colon = value.find(':');
  const std::string kind = trim(value.substr(0, colon));
  const std::string rest =
      colon == std::string::npos ? "" : value.substr(colon + 1);
  if (kind == "uniform") {
    s.kind = SkewKind::uniform;
  } else if (kind == "fixed") {
    s.kind = SkewKind::fixed;
  } else {
    bad_clause("unknown skew kind '" + kind + "'; valid: uniform, fixed");
  }
  for (const auto& [k, v] : params(rest)) {
    if (k == "max_us") {
      s.max = sim::us(number("skew", k, v));
    } else if (k == "us") {
      for (const std::string& off : split(v, '/')) {
        s.offsets.push_back(sim::us(number("skew", k, trim(off))));
      }
    } else {
      bad_clause("unknown skew parameter '" + k + "'; valid: max_us, us");
    }
  }
  if (s.kind == SkewKind::uniform && s.max < 0) {
    bad_clause("skew max_us must be >= 0");
  }
  if (s.kind == SkewKind::fixed && s.offsets.empty()) {
    bad_clause("skew=fixed needs us=A/B/... offsets");
  }
  return s;
}

LinkSpec parse_link(const std::string& value) {
  LinkSpec l;
  for (const auto& [k, v] : params(value)) {
    if (k == "bw") {
      l.bw_scale = number("link", k, v);
    } else if (k == "lat_us") {
      l.extra_latency = sim::us(number("link", k, v));
    } else if (k == "src") {
      l.src = integer("link", k, v);
    } else if (k == "dst") {
      l.dst = integer("link", k, v);
    } else if (k == "from_us") {
      l.from = sim::us(number("link", k, v));
    } else if (k == "until_us") {
      l.until = sim::us(number("link", k, v));
    } else {
      bad_clause("unknown link parameter '" + k +
                 "'; valid: bw, lat_us, src, dst, from_us, until_us");
    }
  }
  if (l.bw_scale <= 0.0) bad_clause("link bw scale must be > 0");
  if (l.extra_latency < 0) bad_clause("link lat_us must be >= 0");
  if (l.until != 0 && l.until <= l.from) {
    bad_clause("link window needs until_us > from_us");
  }
  return l;
}

StragglerSpec parse_stragglers(const std::string& value) {
  StragglerSpec s;
  for (const auto& [k, v] : params(value)) {
    if (k == "k") {
      s.count = integer("stragglers", k, v);
    } else if (k == "scale") {
      s.scale = number("stragglers", k, v);
    } else {
      bad_clause("unknown stragglers parameter '" + k + "'; valid: k, scale");
    }
  }
  if (s.count < 0) bad_clause("stragglers k must be >= 0");
  if (s.scale <= 0.0) bad_clause("stragglers scale must be > 0");
  return s;
}

std::string format_us(sim::Time t) {
  std::ostringstream os;
  os << sim::to_us(t);
  return os.str();
}

}  // namespace

bool PerturbSpec::empty() const {
  return jitter.kind == JitterKind::none && skew.kind == SkewKind::none &&
         links.empty() && (stragglers.count == 0 || stragglers.scale == 1.0);
}

PerturbSpec PerturbSpec::parse(const std::string& text) {
  PerturbSpec spec;
  if (trim(text).empty()) return spec;
  for (const std::string& raw : split(text, ';')) {
    const std::string clause = trim(raw);
    if (clause.empty()) continue;
    const std::size_t eq = clause.find('=');
    const std::string key = trim(clause.substr(0, eq));
    const std::string value =
        eq == std::string::npos ? "" : clause.substr(eq + 1);
    if (key == "jitter") {
      spec.jitter = parse_jitter(value);
    } else if (key == "skew") {
      spec.skew = parse_skew(value);
    } else if (key == "link") {
      spec.links.push_back(parse_link(value));
    } else if (key == "stragglers") {
      spec.stragglers = parse_stragglers(value);
    } else if (key == "seed") {
      spec.seed = util::Args::parse_u64("--perturb seed", trim(value));
    } else {
      bad_clause("unknown perturbation injector '" + key +
                 "'; valid injectors: " + kInjectors);
    }
  }
  return spec;
}

std::string PerturbSpec::to_string() const {
  if (empty()) return "";
  std::ostringstream os;
  const char* sep = "";
  switch (jitter.kind) {
    case JitterKind::none:
      break;
    case JitterKind::uniform:
      os << sep << "jitter=uniform:frac=" << jitter.frac;
      sep = ";";
      break;
    case JitterKind::lognormal:
      os << sep << "jitter=lognormal:sigma=" << jitter.sigma;
      sep = ";";
      break;
    case JitterKind::spike:
      os << sep << "jitter=spike:prob=" << jitter.prob
         << ",scale=" << jitter.scale;
      sep = ";";
      break;
  }
  switch (skew.kind) {
    case SkewKind::none:
      break;
    case SkewKind::uniform:
      os << sep << "skew=uniform:max_us=" << format_us(skew.max);
      sep = ";";
      break;
    case SkewKind::fixed: {
      os << sep << "skew=fixed:us=";
      const char* slash = "";
      for (sim::Time t : skew.offsets) {
        os << slash << format_us(t);
        slash = "/";
      }
      sep = ";";
      break;
    }
  }
  for (const LinkSpec& l : links) {
    os << sep << "link=bw=" << l.bw_scale;
    if (l.extra_latency != 0) os << ",lat_us=" << format_us(l.extra_latency);
    if (l.src >= 0) os << ",src=" << l.src;
    if (l.dst >= 0) os << ",dst=" << l.dst;
    if (l.from != 0) os << ",from_us=" << format_us(l.from);
    if (l.until != 0) os << ",until_us=" << format_us(l.until);
    sep = ";";
  }
  if (stragglers.count > 0 && stragglers.scale != 1.0) {
    os << sep << "stragglers=k=" << stragglers.count
       << ",scale=" << stragglers.scale;
    sep = ";";
  }
  os << sep << "seed=" << seed;
  return os.str();
}

}  // namespace dpml::perturb
