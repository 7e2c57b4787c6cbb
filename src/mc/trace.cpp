#include "mc/trace.hpp"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <exception>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>

#include "net/cluster.hpp"
#include "util/error.hpp"

namespace dpml::mc {

namespace {

// ---------------------------------------------------------------------------
// JSON writer helpers.

std::string escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

// A malformed trace: one line naming the field or the offset, no source
// path.
[[noreturn]] void bad_trace(const std::string& what) {
  throw util::InvariantError("mc trace: " + what);
}

// ---------------------------------------------------------------------------
// Minimal recursive-descent JSON reader — just enough for trace files.

struct JsonValue {
  enum class Type { null, boolean, number, string, array, object };
  Type type = Type::null;
  bool b = false;
  double num = 0.0;
  std::string str;  // a string's text, or a number as written
  std::vector<JsonValue> arr;
  std::vector<std::pair<std::string, JsonValue>> obj;

  const JsonValue* find(const std::string& key) const {
    for (const auto& [k, v] : obj) {
      if (k == key) return &v;
    }
    return nullptr;
  }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  JsonValue parse() {
    JsonValue v = value();
    ws();
    if (pos_ != text_.size()) bad_trace("trailing JSON content");
    return v;
  }

 private:
  void ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])) != 0) {
      ++pos_;
    }
  }

  char peek() {
    ws();
    if (pos_ >= text_.size()) bad_trace("truncated JSON");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) {
      bad_trace(std::string("expected '") + c + "' at offset " +
                std::to_string(pos_));
    }
    ++pos_;
  }

  bool consume(const std::string& word) {
    if (text_.compare(pos_, word.size(), word) == 0) {
      pos_ += word.size();
      return true;
    }
    return false;
  }

  JsonValue value() {
    JsonValue v;
    switch (peek()) {
      case '{': {
        v.type = JsonValue::Type::object;
        expect('{');
        if (peek() == '}') {
          expect('}');
          return v;
        }
        for (;;) {
          JsonValue key = value();
          if (key.type != JsonValue::Type::string) {
            bad_trace("object key must be a string");
          }
          expect(':');
          v.obj.emplace_back(key.str, value());
          if (peek() == ',') {
            expect(',');
            continue;
          }
          expect('}');
          return v;
        }
      }
      case '[': {
        v.type = JsonValue::Type::array;
        expect('[');
        if (peek() == ']') {
          expect(']');
          return v;
        }
        for (;;) {
          v.arr.push_back(value());
          if (peek() == ',') {
            expect(',');
            continue;
          }
          expect(']');
          return v;
        }
      }
      case '"': {
        v.type = JsonValue::Type::string;
        expect('"');
        while (pos_ < text_.size() && text_[pos_] != '"') {
          char c = text_[pos_++];
          if (c == '\\') {
            if (pos_ >= text_.size()) bad_trace("truncated escape");
            const char e = text_[pos_++];
            switch (e) {
              case 'n': c = '\n'; break;
              case 't': c = '\t'; break;
              case 'r': c = '\r'; break;
              case 'u': {
                if (pos_ + 4 > text_.size()) bad_trace("truncated \\u escape");
                unsigned code = 0;
                std::size_t used = 0;
                try {
                  code = static_cast<unsigned>(
                      std::stoul(text_.substr(pos_, 4), &used, 16));
                } catch (const std::exception&) {
                  used = 0;
                }
                if (used != 4) bad_trace("malformed \\u escape");
                pos_ += 4;
                c = static_cast<char>(code & 0xFF);
                break;
              }
              default: c = e; break;  // \" \\ \/ and friends
            }
          }
          v.str += c;
        }
        expect('"');
        return v;
      }
      default: {
        if (consume("true")) {
          v.type = JsonValue::Type::boolean;
          v.b = true;
          return v;
        }
        if (consume("false")) {
          v.type = JsonValue::Type::boolean;
          return v;
        }
        if (consume("null")) return v;
        v.type = JsonValue::Type::number;
        std::size_t used = 0;
        try {
          v.num = std::stod(text_.substr(pos_), &used);
        } catch (const std::exception&) {
          used = 0;
        }
        if (used == 0) {
          bad_trace("malformed JSON number at offset " + std::to_string(pos_));
        }
        v.str = text_.substr(pos_, used);
        pos_ += used;
        return v;
      }
    }
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

const JsonValue& require(const JsonValue& obj, const std::string& key) {
  const JsonValue* v = obj.find(key);
  if (v == nullptr) bad_trace("missing field '" + key + "'");
  return *v;
}

// A whole number in [lo, INT_MAX]; `what` names the field.
int as_int(const JsonValue& v, const std::string& what, int lo) {
  if (v.type != JsonValue::Type::number) {
    bad_trace("field '" + what + "' must be a number");
  }
  // Written so that NaN fails too.
  const bool whole = v.num >= lo &&
                     v.num <= std::numeric_limits<int>::max() &&
                     v.num == std::floor(v.num);
  if (!whole) {
    bad_trace("field '" + what + "' must be a whole number >= " +
              std::to_string(lo) + " that fits an int, got " + v.str);
  }
  return static_cast<int>(v.num);
}

std::string as_str(const JsonValue& v, const std::string& what) {
  if (v.type != JsonValue::Type::string) {
    bad_trace("field '" + what + "' must be a string");
  }
  return v.str;
}

const std::vector<JsonValue>& as_array(const JsonValue& v,
                                       const std::string& what) {
  if (v.type != JsonValue::Type::array) {
    bad_trace("field '" + what + "' must be an array");
  }
  return v.arr;
}

simmpi::Dtype dtype_by_name(const std::string& name) {
  constexpr simmpi::Dtype kAll[] = {simmpi::Dtype::f32, simmpi::Dtype::f64,
                                    simmpi::Dtype::i32, simmpi::Dtype::i64,
                                    simmpi::Dtype::u8};
  for (const simmpi::Dtype dt : kAll) {
    if (name == simmpi::dtype_name(dt)) return dt;
  }
  bad_trace("field 'dtype' names no dtype: '" + name + "'");
}

}  // namespace

std::string McConfig::label() const {
  std::ostringstream os;
  os << coll::coll_kind_name(kind) << "/" << algo << " np=" << np() << " ("
     << nodes << "x" << ppn << ") count=" << count << " dt="
     << simmpi::dtype_name(dt) << " leaders=" << leaders;
  return os.str();
}

std::string trace_json(const Trace& t) {
  std::ostringstream os;
  os << "{\n  \"mc_trace\": 1,\n  \"config\": {";
  os << "\"cluster\": \"" << escape(t.config.cluster) << "\", ";
  os << "\"nodes\": " << t.config.nodes << ", ";
  os << "\"ppn\": " << t.config.ppn << ", ";
  os << "\"kind\": \"" << coll::coll_kind_name(t.config.kind) << "\", ";
  os << "\"algo\": \"" << escape(t.config.algo) << "\", ";
  os << "\"count\": " << t.config.count << ", ";
  os << "\"dtype\": \"" << simmpi::dtype_name(t.config.dt) << "\", ";
  os << "\"leaders\": " << t.config.leaders << ", ";
  os << "\"root\": " << t.config.root << ", ";
  os << "\"op\": \"affine\", \"check\": \"strict\"},\n";
  os << "  \"choices\": [";
  for (std::size_t i = 0; i < t.choices.size(); ++i) {
    if (i > 0) os << ", ";
    os << t.choices[i];
  }
  os << "],\n  \"wild\": [";
  for (std::size_t i = 0; i < t.wild.size(); ++i) {
    if (i > 0) os << ", ";
    os << "[" << t.wild[i].first << ", " << t.wild[i].second << "]";
  }
  os << "],\n";
  os << "  \"failure\": {\"type\": \"" << escape(t.failure_type)
     << "\", \"report\": \"" << escape(t.failure_report) << "\"}";
  if (!t.deadlock_json.empty()) {
    os << ",\n  \"deadlock\": " << t.deadlock_json;
  }
  os << "\n}\n";
  return os.str();
}

void save_trace(const Trace& t, const std::string& path) {
  std::ofstream out(path);
  DPML_CHECK_MSG(out.good(), "cannot write mc trace to '" + path + "'");
  out << trace_json(t);
  DPML_CHECK_MSG(out.good(), "failed writing mc trace to '" + path + "'");
}

Trace parse_trace(const std::string& json) {
  const JsonValue root = JsonParser(json).parse();
  if (root.type != JsonValue::Type::object ||
      root.find("mc_trace") == nullptr) {
    bad_trace("not an mc trace (missing \"mc_trace\" marker)");
  }
  Trace t;
  const JsonValue& cfg = require(root, "config");
  t.config.cluster = as_str(require(cfg, "cluster"), "cluster");
  try {
    (void)net::cluster_by_name(t.config.cluster);
  } catch (const util::InvariantError&) {
    bad_trace("field 'cluster' names no cluster preset: '" +
              t.config.cluster + "'");
  }
  t.config.nodes = as_int(require(cfg, "nodes"), "nodes", 1);
  t.config.ppn = as_int(require(cfg, "ppn"), "ppn", 1);
  const std::string kind = as_str(require(cfg, "kind"), "kind");
  if (!coll::is_coll_kind_name(kind)) {
    bad_trace("field 'kind' names no collective kind: '" + kind + "'");
  }
  t.config.kind = coll::coll_kind_by_name(kind);
  t.config.algo = as_str(require(cfg, "algo"), "algo");
  t.config.count = static_cast<std::size_t>(
      as_int(require(cfg, "count"), "count", 0));
  t.config.dt = dtype_by_name(as_str(require(cfg, "dtype"), "dtype"));
  t.config.leaders = as_int(require(cfg, "leaders"), "leaders", 1);
  t.config.root = as_int(require(cfg, "root"), "root", 0);
  const long long np = static_cast<long long>(t.config.nodes) * t.config.ppn;
  if (t.config.root >= np) {
    bad_trace("field 'root' must be below nodes * ppn = " +
              std::to_string(np) + ", got " + std::to_string(t.config.root));
  }
  for (const JsonValue& c : as_array(require(root, "choices"), "choices")) {
    t.choices.push_back(as_int(c, "choices[]", 0));
  }
  for (const JsonValue& w : as_array(require(root, "wild"), "wild")) {
    if (w.type != JsonValue::Type::array || w.arr.size() != 2) {
      bad_trace("field 'wild' holds [rank, ctx] pairs");
    }
    t.wild.emplace_back(as_int(w.arr[0], "wild[][0]", 0),
                        as_int(w.arr[1], "wild[][1]", 0));
  }
  if (const JsonValue* f = root.find("failure")) {
    if (const JsonValue* ty = f->find("type")) t.failure_type = ty->str;
    if (const JsonValue* rp = f->find("report")) t.failure_report = rp->str;
  }
  return t;
}

Trace load_trace(const std::string& path) {
  std::ifstream in(path);
  if (!in.good()) bad_trace("cannot read '" + path + "'");
  std::ostringstream buf;
  buf << in.rdbuf();
  return parse_trace(buf.str());
}

}  // namespace dpml::mc
