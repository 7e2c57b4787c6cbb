// Minimal command-line flag parser for the tools and examples.
//
// Supports "--key value", "--key=value", and bare positional arguments.
// Typed getters with defaults; unknown-flag detection for helpful errors.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace dpml::util {

class Args {
 public:
  Args(int argc, char** argv);

  const std::string& program() const { return program_; }
  const std::vector<std::string>& positional() const { return positional_; }

  bool has(const std::string& key) const;
  std::string get(const std::string& key, const std::string& def = "") const;
  // A file-valued flag: its path, or "" when the flag is absent. A bare
  // flag ("--out" with no value, which other getters read as true) or an
  // empty "--out=" names no file and throws util::InvariantError
  // "--key needs a file path".
  std::string get_path(const std::string& key) const;
  // A directory-valued flag: its directory, or `def` when the flag is
  // absent. A bare flag or an empty value names no directory and throws
  // util::InvariantError "--key needs a directory".
  std::string get_dir(const std::string& key, const std::string& def) const;
  // Typed getters read the whole value ("2x", "1.5" for an integer, "inf"
  // and "maybe" all throw util::InvariantError naming --key and the text):
  // integers take an optional sign and must fit in an int, doubles must be
  // finite, and booleans are true/false, 1/0, yes/no or on/off (a bare flag
  // reads true).
  int get_int(const std::string& key, int def) const;
  double get_double(const std::string& key, double def) const;
  // The same number rule for a number read outside an Args, such as a
  // field of a spec flag or of a table line; `what` names the field in
  // the error ("--fail-links way", "adaptive table line 2 size bound").
  // parse_u64 takes no minus sign and anything up to 2^64 - 1.
  static int parse_int(const std::string& what, const std::string& text);
  static std::uint64_t parse_u64(const std::string& what,
                                 const std::string& text);
  static double parse_double(const std::string& what,
                             const std::string& text);
  bool get_bool(const std::string& key, bool def = false) const;

  // Parse a byte size: digits with an optional K/M/G suffix ("64K" ->
  // 65536). Anything else ("16KB", "1.5K", "-8") or a size past 64 bits
  // throws util::InvariantError naming the text and, like the number rule
  // above, the field `what` ("bad size '12x' for --bucket: ...").
  static std::size_t parse_bytes(const std::string& what,
                                 const std::string& text);
  std::size_t get_bytes(const std::string& key, std::size_t def) const;

  // Parse a size range "4:1M[:4]" (lo:hi[:factor]) into a geometric sweep;
  // the factor is digits only and at least 2. Errors name `what`.
  static std::vector<std::size_t> parse_size_range(const std::string& what,
                                                   const std::string& text);

  // Keys that were provided but never queried (typo detection).
  std::vector<std::string> unused() const;

 private:
  // The value of a flag given to name `what` (a file, a directory): a bare
  // flag or an empty value throws "--key needs <what>".
  std::string get_named(const std::string& key, const char* what) const;

  std::string program_;
  // Ordered: unused() reports typos in deterministic (sorted) order.
  std::map<std::string, std::string> flags_;
  std::set<std::string> bare_;  // flags given without a value
  mutable std::map<std::string, bool> used_;
  std::vector<std::string> positional_;
};

}  // namespace dpml::util
