#include "lint.hpp"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <map>
#include <ostream>
#include <set>
#include <sstream>
#include <stdexcept>

namespace dpml::lint {

namespace {

bool ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

// Replace the contents of comments and string/char literals with spaces so
// the rule scanners only ever see code. Newlines are preserved (line numbers
// stay valid); everything else inside a masked region becomes ' '.
std::string mask_comments_and_strings(const std::string& in) {
  std::string out = in;
  enum class St { code, line_comment, block_comment, str, chr, raw };
  St st = St::code;
  std::string raw_delim;  // ")delim" terminator of the active raw string
  for (std::size_t i = 0; i < in.size(); ++i) {
    const char c = in[i];
    const char n = i + 1 < in.size() ? in[i + 1] : '\0';
    switch (st) {
      case St::code:
        if (c == '/' && n == '/') {
          st = St::line_comment;
          out[i] = ' ';
        } else if (c == '/' && n == '*') {
          st = St::block_comment;
          out[i] = ' ';
        } else if (c == 'R' && n == '"' &&
                   (i == 0 || !ident_char(in[i - 1]))) {
          // R"delim( ... )delim"
          std::size_t open = in.find('(', i + 2);
          if (open == std::string::npos) break;  // malformed; give up
          raw_delim = ")" + in.substr(i + 2, open - (i + 2)) + "\"";
          for (std::size_t j = i; j <= open; ++j) {
            if (out[j] != '\n') out[j] = ' ';
          }
          i = open;
          st = St::raw;
        } else if (c == '"') {
          st = St::str;
        } else if (c == '\'' && !(i > 0 && ident_char(in[i - 1]))) {
          // Skip digit separators (1'000'000): a quote straight after an
          // identifier/digit character is not a char literal.
          st = St::chr;
        }
        break;
      case St::line_comment:
        if (c == '\n') {
          st = St::code;
        } else {
          out[i] = ' ';
        }
        break;
      case St::block_comment:
        if (c == '*' && n == '/') {
          out[i] = ' ';
          out[i + 1] = ' ';
          ++i;
          st = St::code;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
      case St::str:
        if (c == '\\') {
          out[i] = ' ';
          if (n != '\0' && n != '\n') {
            out[i + 1] = ' ';
            ++i;
          }
        } else if (c == '"') {
          st = St::code;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
      case St::chr:
        if (c == '\\') {
          out[i] = ' ';
          if (n != '\0' && n != '\n') {
            out[i + 1] = ' ';
            ++i;
          }
        } else if (c == '\'') {
          st = St::code;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
      case St::raw:
        if (in.compare(i, raw_delim.size(), raw_delim) == 0) {
          for (std::size_t j = 0; j < raw_delim.size(); ++j) out[i + j] = ' ';
          i += raw_delim.size() - 1;
          st = St::code;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
    }
  }
  return out;
}

int line_of(const std::vector<std::size_t>& starts, std::size_t pos) {
  auto it = std::upper_bound(starts.begin(), starts.end(), pos);
  return static_cast<int>(it - starts.begin());
}

std::vector<std::size_t> line_starts(const std::string& s) {
  std::vector<std::size_t> starts{0};
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (s[i] == '\n') starts.push_back(i + 1);
  }
  return starts;
}

// Suppression comments, parsed from the RAW text (they live in comments).
struct Suppressions {
  std::set<std::string> file_wide;
  std::map<int, std::set<std::string>> by_line;

  bool allows(const std::string& rule, int line) const {
    auto hit = [&](const std::set<std::string>& s) {
      return s.count("all") != 0 || s.count(rule) != 0;
    };
    if (hit(file_wide)) return true;
    for (int l : {line, line - 1}) {
      auto it = by_line.find(l);
      if (it != by_line.end() && hit(it->second)) return true;
    }
    return false;
  }
};

Suppressions parse_suppressions(const std::string& raw) {
  Suppressions sup;
  std::istringstream is(raw);
  std::string line;
  int ln = 0;
  while (std::getline(is, line)) {
    ++ln;
    std::size_t pos = 0;
    while ((pos = line.find("dpmllint:", pos)) != std::string::npos) {
      std::size_t p = pos + 9;
      while (p < line.size() && line[p] == ' ') ++p;
      bool file_wide = false;
      if (line.compare(p, 11, "allow-file(") == 0) {
        file_wide = true;
        p += 11;
      } else if (line.compare(p, 6, "allow(") == 0) {
        p += 6;
      } else {
        pos += 9;
        continue;
      }
      const std::size_t close = line.find(')', p);
      if (close != std::string::npos) {
        const std::string rule = line.substr(p, close - p);
        if (file_wide) {
          sup.file_wide.insert(rule);
        } else {
          sup.by_line[ln].insert(rule);
        }
      }
      pos = p;
    }
  }
  return sup;
}

// Position of the next identifier-boundary occurrence of `word` at or after
// `from` in `s`, or npos.
std::size_t find_token(const std::string& s, const std::string& word,
                       std::size_t from) {
  std::size_t pos = from;
  while ((pos = s.find(word, pos)) != std::string::npos) {
    const bool left_ok = pos == 0 || !ident_char(s[pos - 1]);
    const std::size_t end = pos + word.size();
    const bool right_ok = end >= s.size() || !ident_char(s[end]);
    if (left_ok && right_ok) return pos;
    pos += 1;
  }
  return std::string::npos;
}

bool contains_token(const std::string& s, const std::string& word) {
  return find_token(s, word, 0) != std::string::npos;
}

std::size_t skip_ws(const std::string& s, std::size_t p) {
  while (p < s.size() &&
         std::isspace(static_cast<unsigned char>(s[p])) != 0) {
    ++p;
  }
  return p;
}

// Index just past the delimiter that matches s[open] ('(' / '[' / '{' / '<'),
// or npos if unbalanced. Angle matching is heuristic (treats every '>' as a
// closer), which is fine for the declaration contexts we scan.
std::size_t match_close(const std::string& s, std::size_t open) {
  const char oc = s[open];
  const char cc = oc == '(' ? ')' : oc == '[' ? ']' : oc == '{' ? '}' : '>';
  int depth = 0;
  for (std::size_t i = open; i < s.size(); ++i) {
    if (s[i] == oc) {
      ++depth;
    } else if (s[i] == cc) {
      if (--depth == 0) return i + 1;
    }
  }
  return std::string::npos;
}

// ---------------------------------------------------------------------------
// Rule: raw-random / wall-clock
// ---------------------------------------------------------------------------

struct BannedToken {
  const char* token;
  bool needs_call;  // must be followed by '(' (function-style tokens only)
  const char* rule;
  const char* hint;
};

constexpr BannedToken kBanned[] = {
    {"rand", true, "raw-random", "use util::SplitMix64 (src/util/rng)"},
    {"srand", true, "raw-random", "use util::SplitMix64 (src/util/rng)"},
    {"drand48", true, "raw-random", "use util::SplitMix64 (src/util/rng)"},
    {"lrand48", true, "raw-random", "use util::SplitMix64 (src/util/rng)"},
    {"random_device", false, "raw-random",
     "nondeterministic seed source; derive streams from the run seed"},
    {"mt19937", false, "raw-random",
     "use util::SplitMix64 so (seed, stream) fully determines draws"},
    {"mt19937_64", false, "raw-random",
     "use util::SplitMix64 so (seed, stream) fully determines draws"},
    {"default_random_engine", false, "raw-random",
     "use util::SplitMix64 so (seed, stream) fully determines draws"},
    {"time", true, "wall-clock", "simulated code must use Engine::now()"},
    {"clock", true, "wall-clock", "simulated code must use Engine::now()"},
    {"gettimeofday", true, "wall-clock",
     "simulated code must use Engine::now()"},
    {"clock_gettime", true, "wall-clock",
     "simulated code must use Engine::now()"},
    {"system_clock", false, "wall-clock",
     "simulated code must use Engine::now()"},
    {"steady_clock", false, "wall-clock",
     "simulated code must use Engine::now()"},
    {"high_resolution_clock", false, "wall-clock",
     "simulated code must use Engine::now()"},
};

void scan_banned_tokens(const std::string& file, const std::string& masked,
                        const std::vector<std::size_t>& starts,
                        std::vector<Finding>& out) {
  // util/rng is the one sanctioned home for randomness primitives.
  const bool is_rng = file.find("util/rng") != std::string::npos;
  for (const BannedToken& b : kBanned) {
    if (is_rng && std::string(b.rule) == "raw-random") continue;
    std::size_t pos = 0;
    while ((pos = find_token(masked, b.token, pos)) != std::string::npos) {
      const std::size_t after = skip_ws(masked, pos + std::string(b.token).size());
      const bool is_call = after < masked.size() && masked[after] == '(';
      // Member access (obj.time(...)) is some other API, not libc.
      const bool member =
          pos > 0 && (masked[pos - 1] == '.' ||
                      (pos > 1 && masked[pos - 2] == '-' &&
                       masked[pos - 1] == '>'));
      if ((!b.needs_call || is_call) && !member) {
        out.push_back({file, line_of(starts, pos), b.rule,
                       std::string(b.token) + ": " + b.hint});
      }
      pos += std::string(b.token).size();
    }
  }
}

// ---------------------------------------------------------------------------
// Rule: unordered-iteration
// ---------------------------------------------------------------------------

// Names declared in this file with an unordered container type, e.g.
//   std::unordered_map<int, Comm> leader_comms_;
std::set<std::string> unordered_decls(const std::string& masked) {
  std::set<std::string> names;
  for (const char* kw : {"unordered_map", "unordered_multimap",
                         "unordered_set", "unordered_multiset"}) {
    std::size_t pos = 0;
    while ((pos = find_token(masked, kw, pos)) != std::string::npos) {
      std::size_t p = skip_ws(masked, pos + std::string(kw).size());
      pos = p;
      if (p >= masked.size() || masked[p] != '<') continue;
      p = match_close(masked, p);
      if (p == std::string::npos) continue;
      p = skip_ws(masked, p);
      // Skip refs/pointers in "const unordered_map<...>& x".
      while (p < masked.size() && (masked[p] == '&' || masked[p] == '*')) {
        p = skip_ws(masked, p + 1);
      }
      std::size_t q = p;
      while (q < masked.size() && ident_char(masked[q])) ++q;
      if (q > p) names.insert(masked.substr(p, q - p));
    }
  }
  return names;
}

void scan_unordered_iteration(const std::string& file,
                              const std::string& masked,
                              const std::vector<std::size_t>& starts,
                              std::vector<Finding>& out) {
  const std::set<std::string> decls = unordered_decls(masked);
  if (decls.empty()) return;
  std::size_t pos = 0;
  while ((pos = find_token(masked, "for", pos)) != std::string::npos) {
    const std::size_t start = pos;
    pos += 3;
    std::size_t p = skip_ws(masked, pos);
    if (p >= masked.size() || masked[p] != '(') continue;
    const std::size_t close = match_close(masked, p);
    if (close == std::string::npos) continue;
    const std::string head = masked.substr(p + 1, close - p - 2);
    // Range-for: find a top-level ':' that is not part of '::'.
    std::size_t colon = std::string::npos;
    int depth = 0;
    for (std::size_t i = 0; i < head.size(); ++i) {
      const char c = head[i];
      if (c == '(' || c == '[' || c == '{') ++depth;
      if (c == ')' || c == ']' || c == '}') --depth;
      if (c == ':' && depth == 0) {
        if ((i + 1 < head.size() && head[i + 1] == ':') ||
            (i > 0 && head[i - 1] == ':')) {
          continue;
        }
        colon = i;
        break;
      }
    }
    if (colon == std::string::npos) continue;
    std::string range = head.substr(colon + 1);
    // Trim and unwrap "this->NAME" / "NAME".
    std::size_t b = 0, e = range.size();
    while (b < e && std::isspace(static_cast<unsigned char>(range[b])) != 0) ++b;
    while (e > b && std::isspace(static_cast<unsigned char>(range[e - 1])) != 0) --e;
    range = range.substr(b, e - b);
    if (range.compare(0, 6, "this->") == 0) range = range.substr(6);
    const bool plain = !range.empty() &&
                       std::all_of(range.begin(), range.end(), ident_char);
    if (plain && decls.count(range) != 0) {
      out.push_back(
          {file, line_of(starts, start), "unordered-iteration",
           "range-for over unordered container '" + range +
               "': iteration order is implementation-defined and must not "
               "reach simulated-time decisions; use std::map or sort first"});
    }
  }
}

// ---------------------------------------------------------------------------
// Rule: coro-ref-capture
// ---------------------------------------------------------------------------

// A '[' opens a lambda introducer when what precedes it cannot be an array
// subscript or attribute: after an identifier, ')' or ']' it is a subscript;
// '[[' is an attribute.
bool lambda_introducer_at(const std::string& s, std::size_t pos) {
  if (pos + 1 < s.size() && s[pos + 1] == '[') return false;  // [[attr]]
  if (pos > 0 && s[pos - 1] == '[') return false;
  std::size_t p = pos;
  while (p > 0 &&
         std::isspace(static_cast<unsigned char>(s[p - 1])) != 0) {
    --p;
  }
  if (p == 0) return true;
  const char prev = s[p - 1];
  if (prev == ')' || prev == ']') return false;
  if (!ident_char(prev)) return true;
  // Identifier before '[': subscript, unless it is a keyword like return.
  std::size_t q = p;
  while (q > 0 && ident_char(s[q - 1])) --q;
  const std::string word = s.substr(q, p - q);
  return word == "return" || word == "co_return" || word == "co_await" ||
         word == "co_yield" || word == "case";
}

// True if the capture list text (between '[' and its ']') contains a
// by-reference capture: '&' at the start of a capture item.
bool has_ref_capture(const std::string& caps) {
  bool item_start = true;
  for (std::size_t i = 0; i < caps.size(); ++i) {
    const char c = caps[i];
    if (std::isspace(static_cast<unsigned char>(c)) != 0) continue;
    if (item_start && c == '&') return true;
    item_start = (c == ',');
  }
  return false;
}

void scan_coro_ref_capture(const std::string& file, const std::string& masked,
                           const std::vector<std::size_t>& starts,
                           std::vector<Finding>& out) {
  if (!contains_token(masked, "co_await") &&
      !contains_token(masked, "co_yield")) {
    return;
  }
  std::size_t pos = 0;
  while ((pos = masked.find('[', pos)) != std::string::npos) {
    const std::size_t open = pos;
    ++pos;
    if (!lambda_introducer_at(masked, open)) continue;
    const std::size_t caps_end = match_close(masked, open);
    if (caps_end == std::string::npos) continue;
    const std::string caps = masked.substr(open + 1, caps_end - open - 2);
    if (!has_ref_capture(caps)) continue;
    // Walk forward over (params), specifiers and the trailing return type to
    // the body's '{'. Bail at statement boundaries — then it was not a
    // lambda after all.
    std::size_t p = skip_ws(masked, caps_end);
    if (p < masked.size() && masked[p] == '(') {
      p = match_close(masked, p);
      if (p == std::string::npos) continue;
    }
    while (p < masked.size() && masked[p] != '{' && masked[p] != ';' &&
           masked[p] != ')' && masked[p] != ',') {
      ++p;
    }
    if (p >= masked.size() || masked[p] != '{') continue;
    const std::size_t body_end = match_close(masked, p);
    if (body_end == std::string::npos) continue;
    const std::string body = masked.substr(p, body_end - p);
    if (contains_token(body, "co_await") || contains_token(body, "co_yield")) {
      out.push_back(
          {file, line_of(starts, open), "coro-ref-capture",
           "lambda coroutine captures by reference; the frame suspends at "
           "co_await and can outlive every captured object — capture by "
           "value or pass state through parameters"});
    }
  }
}

// ---------------------------------------------------------------------------
// Rule: await-temporary
// ---------------------------------------------------------------------------

// A braced-init-list argument inside a co_await full expression materialises
// a temporary that must live across the suspension. The toolchain this repo
// pins (gcc 12) miscompiles the destruction of such extra non-trivially-
// destructible temporaries: the frame slot is torn down early, reused for
// other locals, and torn down again when the full expression ends — observed
// as munmap_chunk()/bad-free at the end of the awaiting statement. Bind the
// value to a named local before the co_await instead. A bare empty `{}` is
// tolerated: it conventionally denotes a default span and carries no state.
// A type name before the braces (T{...}, ns::T<U>{}) makes a temporary even
// when they are empty, so that form is flagged either way.

// The start of the (qualified, possibly templated) name that ends right
// before `end`, or npos when no name ends there.
std::size_t type_name_start(const std::string& s, std::size_t end) {
  std::size_t p = end;
  while (true) {
    if (p > 0 && s[p - 1] == '>') {  // template arguments: back to '<'
      int depth = 0;
      while (p > 0) {
        --p;
        if (s[p] == '>') ++depth;
        if (s[p] == '<' && --depth == 0) break;
      }
      if (depth != 0) return std::string::npos;
    }
    const std::size_t name_end = p;
    while (p > 0 && ident_char(s[p - 1])) --p;
    if (p == name_end) return std::string::npos;
    if (p < 2 || s[p - 1] != ':' || s[p - 2] != ':') return p;
    p -= 2;
  }
}

void scan_await_temporary(const std::string& file, const std::string& masked,
                          const std::vector<std::size_t>& starts,
                          std::vector<Finding>& out) {
  std::size_t pos = 0;
  while ((pos = find_token(masked, "co_await", pos)) != std::string::npos) {
    const std::size_t kw = pos;
    pos += 8;
    // Walk the awaited expression to its end: ';', or a ')' / '}' closing a
    // scope the co_await itself did not open.
    int depth = 0;
    for (std::size_t i = kw + 8; i < masked.size(); ++i) {
      const char c = masked[i];
      if (c == '(' || c == '[') {
        ++depth;
        continue;
      }
      if (c == ')' || c == ']') {
        if (depth == 0) break;
        --depth;
        continue;
      }
      if (c == ';' && depth == 0) break;
      if (c != '{') continue;
      if (depth == 0) break;  // a block, not an argument: statement over
      // An argument-position brace follows '(' or ',', directly or after a
      // type name; anything else (a lambda body, also after a trailing
      // return type) is skipped wholesale (nested co_awaits are found by
      // their own keyword).
      const auto prev_code = [&masked, kw](std::size_t p) {
        while (p > kw &&
               std::isspace(static_cast<unsigned char>(masked[p - 1])) != 0) {
          --p;
        }
        return p;
      };
      std::size_t p = prev_code(i);
      bool typed = false;
      if (ident_char(masked[p - 1]) || masked[p - 1] == '>') {
        const std::size_t name = type_name_start(masked, p);
        typed = name != std::string::npos && name > kw;
        if (typed) p = prev_code(name);
      }
      const char prev = masked[p - 1];
      const std::size_t close = match_close(masked, i);
      if (close == std::string::npos) break;
      if (prev == '(' || prev == ',') {
        bool nonempty = typed;
        for (std::size_t q = i + 1; q + 1 < close && !nonempty; ++q) {
          if (std::isspace(static_cast<unsigned char>(masked[q])) == 0) {
            nonempty = true;
          }
        }
        if (nonempty) {
          out.push_back(
              {file, line_of(starts, i), "await-temporary",
               "braced temporary inside a co_await expression; gcc 12 "
               "double-destroys extra temporaries that live across the "
               "suspension — bind it to a named local before the co_await"});
        }
      }
      i = close - 1;
    }
  }
}

// ---------------------------------------------------------------------------
// Rule: schedule-fn
// ---------------------------------------------------------------------------

// Engine::schedule_fn was a compatibility shim over the pooled
// schedule_call: every event it scheduled moved through a std::function,
// which heap-allocated on the engine hot path. The shim has been removed;
// the rule stays so the name cannot be reintroduced — use schedule_call
// (the callable is placed in the per-engine slab pool).
void scan_schedule_fn(const std::string& file, const std::string& masked,
                      const std::vector<std::size_t>& starts,
                      std::vector<Finding>& out) {
  std::size_t pos = 0;
  while ((pos = find_token(masked, "schedule_fn", pos)) != std::string::npos) {
    out.push_back(
        {file, line_of(starts, pos), "schedule-fn",
         "schedule_fn was a shim that heap-allocated a std::function per "
         "event and has been removed; use Engine::schedule_call (pooled)"});
    pos += std::string("schedule_fn").size();
  }
}

// ---------------------------------------------------------------------------
// Rule: match-order-assumption
// ---------------------------------------------------------------------------

// Under dpmlmc (src/mc/) the order in which same-timestamp messages land in
// a Matcher queue is a schedule choice, not a stable total order: code that
// indexes Matcher::unexpected()/posted() positionally, or orders events by
// their engine seq number, bakes in the canonical schedule and will be
// falsified by the explorer. The matcher and engine themselves (which own
// the queues and define the tie-break) are the sanctioned homes.
void scan_match_order_assumption(const std::string& file,
                                 const std::string& masked,
                                 const std::vector<std::size_t>& starts,
                                 std::vector<Finding>& out) {
  const bool is_home = file.find("sim/engine.") != std::string::npos ||
                       file.find("simmpi/message.") != std::string::npos;
  if (is_home) return;

  // Positional access into a Matcher queue accessor:
  //   m.unexpected()[0]  m.posted().front()  m.unexpected().at(i)  ...
  for (const char* queue : {"unexpected", "posted"}) {
    std::size_t pos = 0;
    while ((pos = find_token(masked, queue, pos)) != std::string::npos) {
      const std::size_t tok = pos;
      pos += std::string(queue).size();
      std::size_t p = skip_ws(masked, pos);
      if (p >= masked.size() || masked[p] != '(') continue;
      p = match_close(masked, p);
      if (p == std::string::npos) continue;
      p = skip_ws(masked, p);
      const bool subscript = p < masked.size() && masked[p] == '[';
      bool positional_member = false;
      if (!subscript && p < masked.size() && masked[p] == '.') {
        const std::size_t q = skip_ws(masked, p + 1);
        for (const char* m : {"front", "back", "at"}) {
          const std::size_t len = std::string(m).size();
          if (masked.compare(q, len, m) == 0 &&
              (q + len >= masked.size() || !ident_char(masked[q + len]))) {
            positional_member = true;
            break;
          }
        }
      }
      if (subscript || positional_member) {
        out.push_back(
            {file, line_of(starts, tok), "match-order-assumption",
             std::string(queue) +
                 "(): positional access into a Matcher queue assumes a "
                 "fixed arrival order; same-timestamp order is a schedule "
                 "choice explored by dpmlmc — match by (ctx, src, tag) "
                 "instead"});
      }
    }
  }

  // Ordering comparisons on an event's seq member (a.seq < b.seq, ...).
  // Equality lookups are fine: only relational operators assume the
  // tie-break order. `<<`/`>>` (streams, shifts) and `->` are not
  // comparisons.
  std::size_t pos = 0;
  while ((pos = find_token(masked, "seq", pos)) != std::string::npos) {
    const std::size_t tok = pos;
    pos += 3;
    const bool member =
        tok > 0 && (masked[tok - 1] == '.' ||
                    (tok > 1 && masked[tok - 2] == '-' &&
                     masked[tok - 1] == '>'));
    if (!member) continue;
    const std::size_t p = skip_ws(masked, tok + 3);
    if (p >= masked.size()) continue;
    const char c = masked[p];
    const char n = p + 1 < masked.size() ? masked[p + 1] : '\0';
    const bool relational =
        (c == '<' && n != '<') || (c == '>' && n != '>' && n != '\0');
    if (relational) {
      out.push_back(
          {file, line_of(starts, tok), "match-order-assumption",
           "ordering comparison on an event seq number outside the engine; "
           "seq is the canonical tie-break the schedule explorer varies — "
           "do not derive program behavior from it"});
    }
  }
}

// ---------------------------------------------------------------------------
// Rule: payload-plane
// ---------------------------------------------------------------------------

// Payload buffers are owned by the data plane (sim/dataplane.hpp): transport
// and algorithm code must route captures/releases through PayloadPlane so
// metadata-only runs elide them. A direct Engine::payload_pool() call
// outside the plane bypasses that seam and would silently reintroduce
// per-message payload storage on metadata-only runs. The engine/pool
// internals and the plane itself are the sanctioned homes for the call.
void scan_payload_plane(const std::string& file, const std::string& masked,
                        const std::vector<std::size_t>& starts,
                        std::vector<Finding>& out) {
  for (const char* home : {"sim/engine.", "sim/pool.", "sim/dataplane."}) {
    if (file.find(home) != std::string::npos) return;
  }
  std::size_t pos = 0;
  while ((pos = find_token(masked, "payload_pool", pos)) !=
         std::string::npos) {
    const std::size_t after =
        skip_ws(masked, pos + std::string("payload_pool").size());
    if (after < masked.size() && masked[after] == '(') {
      out.push_back(
          {file, line_of(starts, pos), "payload-plane",
           "direct Engine::payload_pool() access outside the data plane; "
           "route payload capture/release through sim::PayloadPlane "
           "(PayloadPlane::capture / PayloadPlane::reclaim) so "
           "metadata-only runs stay payload-free"});
    }
    pos += std::string("payload_pool").size();
  }
}

}  // namespace

std::vector<Finding> lint_source(const std::string& file,
                                 const std::string& content) {
  const std::string masked = mask_comments_and_strings(content);
  const std::vector<std::size_t> starts = line_starts(masked);
  const Suppressions sup = parse_suppressions(content);

  std::vector<Finding> found;
  scan_banned_tokens(file, masked, starts, found);
  scan_unordered_iteration(file, masked, starts, found);
  scan_coro_ref_capture(file, masked, starts, found);
  scan_await_temporary(file, masked, starts, found);
  scan_schedule_fn(file, masked, starts, found);
  scan_match_order_assumption(file, masked, starts, found);
  scan_payload_plane(file, masked, starts, found);

  std::vector<Finding> kept;
  for (Finding& f : found) {
    if (!sup.allows(f.rule, f.line)) kept.push_back(std::move(f));
  }
  std::sort(kept.begin(), kept.end(), [](const Finding& a, const Finding& b) {
    if (a.line != b.line) return a.line < b.line;
    return a.rule < b.rule;
  });
  return kept;
}

std::vector<Finding> lint_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("dpmllint: cannot read " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return lint_source(path, ss.str());
}

std::vector<std::string> collect_sources(
    const std::vector<std::string>& paths) {
  namespace fs = std::filesystem;
  std::vector<std::string> files;
  auto want = [](const fs::path& p) {
    const std::string ext = p.extension().string();
    return ext == ".hpp" || ext == ".h" || ext == ".cpp" || ext == ".cc";
  };
  for (const std::string& p : paths) {
    if (fs::is_directory(p)) {
      for (const auto& ent : fs::recursive_directory_iterator(p)) {
        if (ent.is_regular_file() && want(ent.path())) {
          files.push_back(ent.path().string());
        }
      }
    } else {
      files.push_back(p);
    }
  }
  std::sort(files.begin(), files.end());
  files.erase(std::unique(files.begin(), files.end()), files.end());
  return files;
}

void print_text(std::ostream& os, const std::vector<Finding>& findings) {
  for (const Finding& f : findings) {
    os << f.file << ":" << f.line << ": [" << f.rule << "] " << f.message
       << "\n";
  }
  os << "dpmllint: " << findings.size() << " finding(s)\n";
}

namespace {

void json_escape(std::ostream& os, const std::string& s) {
  os << '"';
  for (char c : s) {
    switch (c) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\t': os << "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          os << "\\u00" << "0123456789abcdef"[(c >> 4) & 0xf]
             << "0123456789abcdef"[c & 0xf];
        } else {
          os << c;
        }
    }
  }
  os << '"';
}

}  // namespace

void print_json(std::ostream& os, const std::vector<Finding>& findings) {
  os << "[\n";
  for (std::size_t i = 0; i < findings.size(); ++i) {
    const Finding& f = findings[i];
    os << "  {\"file\": ";
    json_escape(os, f.file);
    os << ", \"line\": " << f.line << ", \"rule\": ";
    json_escape(os, f.rule);
    os << ", \"message\": ";
    json_escape(os, f.message);
    os << "}" << (i + 1 < findings.size() ? "," : "") << "\n";
  }
  os << "]\n";
}

}  // namespace dpml::lint
