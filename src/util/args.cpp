#include "util/args.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <limits>
#include <type_traits>
#include <utility>

#include "util/error.hpp"

namespace dpml::util {

namespace {

// A non-negative integer written as digits only: no sign, no fraction, no
// trailing text, no wrap-around. The error names the value and its field
// (`what`, e.g. "size '12x' for --sizes") and the form it expects.
std::uint64_t parse_digits(const std::string& digits, const std::string& what,
                           const std::string& form) {
  std::uint64_t n = 0;
  const char* last = digits.data() + digits.size();
  const auto [end, ec] = std::from_chars(digits.data(), last, n);
  if (end != last || ec == std::errc::invalid_argument) {
    throw InvariantError("bad " + what + ": expected " + form);
  }
  if (ec != std::errc{}) {
    throw InvariantError("bad " + what + ": does not fit in 64 bits");
  }
  return n;
}

// The whole text of field `what` as a number: an optional sign, then what
// std::from_chars reads, and nothing after; doubles must be finite.
template <typename T>
T parse_number(const std::string& what, const std::string& text,
               const char* form) {
  T value{};
  const char* first = text.data();
  const char* last = first + text.size();
  if (first != last && *first == '+') ++first;  // from_chars takes '-' only
  const bool one_sign = first == text.data() || *first != '-';
  const auto [end, ec] = std::from_chars(first, last, value);
  bool ok = end == last && ec == std::errc{} && one_sign;
  if constexpr (std::is_floating_point_v<T>) ok = ok && std::isfinite(value);
  if (!ok) {
    const bool range = end == last && ec == std::errc::result_out_of_range;
    throw InvariantError("bad value '" + text + "' for " + what +
                         ": expected " + form +
                         (range ? " (out of range)" : ""));
  }
  return value;
}

}  // namespace

Args::Args(int argc, char** argv) {
  DPML_CHECK(argc >= 1);
  program_ = argv[0];
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(std::move(arg));
      continue;
    }
    arg.erase(0, 2);
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      bare_.erase(arg.substr(0, eq));
      flags_[arg.substr(0, eq)] = arg.substr(eq + 1);
      continue;
    }
    // "--key value" unless the next token is another flag (then boolean).
    if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      bare_.erase(arg);
      flags_[arg] = argv[++i];
    } else {
      bare_.insert(arg);
      flags_[arg] = "true";
    }
  }
}

bool Args::has(const std::string& key) const {
  used_[key] = true;
  return flags_.count(key) != 0;
}

std::string Args::get(const std::string& key, const std::string& def) const {
  used_[key] = true;
  auto it = flags_.find(key);
  return it == flags_.end() ? def : it->second;
}

std::string Args::get_named(const std::string& key, const char* what) const {
  const std::string v = get(key);
  if (bare_.count(key) != 0 || v.empty()) {
    throw InvariantError("--" + key + " needs " + what);
  }
  return v;
}

std::string Args::get_path(const std::string& key) const {
  return has(key) ? get_named(key, "a file path") : "";
}

std::string Args::get_dir(const std::string& key,
                          const std::string& def) const {
  return has(key) ? get_named(key, "a directory") : def;
}

int Args::get_int(const std::string& key, int def) const {
  const std::string v = get(key);
  return v.empty() ? def : parse_int("--" + key, v);
}

double Args::get_double(const std::string& key, double def) const {
  const std::string v = get(key);
  return v.empty() ? def : parse_double("--" + key, v);
}

int Args::parse_int(const std::string& what, const std::string& text) {
  return parse_number<int>(what, text, "an integer");
}

std::uint64_t Args::parse_u64(const std::string& what,
                              const std::string& text) {
  return parse_number<std::uint64_t>(what, text, "a non-negative integer");
}

double Args::parse_double(const std::string& what, const std::string& text) {
  return parse_number<double>(what, text, "a finite number");
}

bool Args::get_bool(const std::string& key, bool def) const {
  const std::string v = get(key);
  if (v.empty()) return def;
  if (v == "true" || v == "1" || v == "yes" || v == "on") return true;
  if (v == "false" || v == "0" || v == "no" || v == "off") return false;
  throw InvariantError("bad value '" + v + "' for --" + key +
                       ": expected true/false, 1/0, yes/no or on/off");
}

std::size_t Args::parse_bytes(const std::string& what,
                              const std::string& text) {
  const std::string field = "size '" + text + "' for " + what;
  std::size_t mult = 1;
  std::string digits = text;
  if (!digits.empty()) {
    switch (std::toupper(static_cast<unsigned char>(digits.back()))) {
      case 'K': mult = std::size_t{1} << 10; break;
      case 'M': mult = std::size_t{1} << 20; break;
      case 'G': mult = std::size_t{1} << 30; break;
      default: break;
    }
    if (mult != 1) digits.pop_back();
  }
  const std::uint64_t n =
      parse_digits(digits, field, "digits with an optional K/M/G suffix");
  if (n > std::numeric_limits<std::size_t>::max() / mult) {
    throw InvariantError("bad " + field + ": does not fit in 64 bits");
  }
  return static_cast<std::size_t>(n) * mult;
}

std::size_t Args::get_bytes(const std::string& key, std::size_t def) const {
  const std::string v = get(key);
  return v.empty() ? def : parse_bytes("--" + key, v);
}

std::vector<std::size_t> Args::parse_size_range(const std::string& what,
                                                const std::string& text) {
  std::vector<std::string> parts;
  std::string cur;
  for (char ch : text) {
    if (ch == ':') {
      parts.push_back(cur);
      cur.clear();
    } else {
      cur.push_back(ch);
    }
  }
  parts.push_back(cur);
  const std::string range = "size range '" + text + "' for " + what;
  if (parts.size() != 2 && parts.size() != 3) {
    throw InvariantError("bad " + range + ": expected lo:hi[:factor]");
  }
  const std::size_t lo = parse_bytes(what, parts[0]);
  const std::size_t hi = parse_bytes(what, parts[1]);
  const std::uint64_t factor =
      parts.size() == 3
          ? parse_digits(parts[2],
                         "size range factor '" + parts[2] + "' for " + what,
                         "digits")
          : 4;
  if (lo < 1 || hi < lo || factor < 2) {
    throw InvariantError("bad " + range +
                         ": expected 1 <= lo <= hi and a factor of at least 2");
  }
  std::vector<std::size_t> out;
  for (std::size_t b = lo;; b *= factor) {
    out.push_back(b);
    if (b > hi / factor) break;  // the next step passes hi (or would wrap)
  }
  return out;
}

std::vector<std::string> split(const std::string& text, char sep) {
  std::vector<std::string> out(1);
  for (char ch : text) {
    if (ch == sep) {
      out.emplace_back();
    } else {
      out.back() += ch;
    }
  }
  return out;
}

std::string trim(const std::string& s) {
  const std::size_t b = s.find_first_not_of(" \t");
  if (b == std::string::npos) return "";
  return s.substr(b, s.find_last_not_of(" \t") - b + 1);
}

std::vector<std::pair<std::string, std::string>> spec_params(
    const std::string& flag, const std::string& text) {
  std::vector<std::pair<std::string, std::string>> out;
  if (trim(text).empty()) return out;
  const auto bad = [&](const std::string& what) {
    throw InvariantError("bad " + flag + " spec: " + what + " in '" +
                         trim(text) + "'");
  };
  for (const std::string& tok : split(text, ',')) {
    const std::size_t eq = tok.find('=');
    std::string key = trim(tok.substr(0, eq));
    std::string value = eq == std::string::npos ? "" : trim(tok.substr(eq + 1));
    if (key.empty()) bad("empty key");
    if (value.empty()) bad("key '" + key + "' has no value");
    for (const auto& [k, v] : out) {
      if (k == key) bad("key '" + key + "' given twice");
    }
    out.emplace_back(std::move(key), std::move(value));
  }
  return out;
}

std::vector<std::string> Args::unused() const {
  std::vector<std::string> out;
  for (const auto& [k, v] : flags_) {
    (void)v;
    if (!used_.count(k)) out.push_back(k);
  }
  return out;
}

}  // namespace dpml::util
