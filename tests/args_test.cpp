#include <gtest/gtest.h>

#include <functional>

#include "util/args.hpp"
#include "util/error.hpp"

namespace dpml::util {
namespace {

Args make(std::initializer_list<const char*> argv_list) {
  static std::vector<std::string> storage;
  storage.assign(argv_list.begin(), argv_list.end());
  static std::vector<char*> ptrs;
  ptrs.clear();
  for (auto& s : storage) ptrs.push_back(s.data());
  return Args(static_cast<int>(ptrs.size()), ptrs.data());
}

TEST(Args, ParsesFlagsAndPositionals) {
  // Note: a bare word after "--verbose" would be consumed as its value, so
  // positionals come first (the documented convention).
  auto a = make({"prog", "run", "extra", "--nodes", "16", "--ppn=28",
                 "--verbose"});
  EXPECT_EQ(a.program(), "prog");
  ASSERT_EQ(a.positional().size(), 2u);
  EXPECT_EQ(a.positional()[0], "run");
  EXPECT_EQ(a.positional()[1], "extra");
  EXPECT_EQ(a.get_int("nodes", 0), 16);
  EXPECT_EQ(a.get_int("ppn", 0), 28);
  EXPECT_TRUE(a.get_bool("verbose"));
  EXPECT_FALSE(a.has("missing"));
  EXPECT_EQ(a.get("missing", "dflt"), "dflt");
}

TEST(Args, BooleanBeforeAnotherFlag) {
  auto a = make({"prog", "--flag", "--other", "3"});
  EXPECT_TRUE(a.get_bool("flag"));
  EXPECT_EQ(a.get_int("other", 0), 3);
}

TEST(Args, FileFlagsNeedAFile) {
  auto a = make({"prog", "--out", "table.txt", "--trace=t.txt", "--table",
                 "--perf-json", "--adapt-table=", "--trace-json", "true"});
  EXPECT_EQ(a.get_path("out"), "table.txt");
  EXPECT_EQ(a.get_path("trace"), "t.txt");
  // Absent: no file, no error.
  EXPECT_EQ(a.get_path("missing"), "");
  // An explicit value is a path even when it spells a boolean.
  EXPECT_EQ(a.get_path("trace-json"), "true");
  // Bare flags and an empty value name no file: one line naming the flag.
  for (const char* flag : {"table", "perf-json", "adapt-table"}) {
    try {
      (void)a.get_path(flag);
      ADD_FAILURE() << "--" << flag << " without a file was accepted";
    } catch (const InvariantError& e) {
      EXPECT_EQ(std::string(e.what()),
                std::string("--") + flag + " needs a file path");
    }
  }
  // Read as a boolean, the bare flag is still true.
  EXPECT_TRUE(a.get_bool("table"));
}

TEST(Args, DirectoryFlagsNeedADirectory) {
  auto a = make({"prog", "--trace-dir", "out/traces", "--bare-dir",
                 "--empty-dir=", "--true-dir", "true"});
  EXPECT_EQ(a.get_dir("trace-dir", "."), "out/traces");
  // Absent: the default.
  EXPECT_EQ(a.get_dir("missing", "."), ".");
  // An explicit value is a directory even when it spells a boolean.
  EXPECT_EQ(a.get_dir("true-dir", "."), "true");
  // A bare flag or an empty value names no directory: one line naming it.
  for (const char* flag : {"bare-dir", "empty-dir"}) {
    try {
      (void)a.get_dir(flag, ".");
      ADD_FAILURE() << "--" << flag << " without a directory was accepted";
    } catch (const InvariantError& e) {
      EXPECT_EQ(std::string(e.what()),
                std::string("--") + flag + " needs a directory");
    }
  }
}

TEST(Args, TypedGetters) {
  auto a = make({"prog", "--x", "2.5", "--b", "yes", "--n", "-7"});
  EXPECT_DOUBLE_EQ(a.get_double("x", 0), 2.5);
  EXPECT_TRUE(a.get_bool("b"));
  EXPECT_EQ(a.get_int("n", 0), -7);
  EXPECT_DOUBLE_EQ(a.get_double("absent", 1.25), 1.25);

  // Integers: the whole text, with an optional sign.
  auto i = make({"prog", "--nodes", "2x", "--reps", "1.5", "--plus", "+3",
                 "--sign2", "+-3", "--space", " 4", "--big",
                 "99999999999999999999"});
  EXPECT_THROW(i.get_int("nodes", 0), InvariantError);
  EXPECT_THROW(i.get_int("reps", 0), InvariantError);
  EXPECT_EQ(i.get_int("plus", 0), 3);
  EXPECT_THROW(i.get_int("sign2", 0), InvariantError);
  EXPECT_THROW(i.get_int("space", 0), InvariantError);
  EXPECT_THROW(i.get_int("big", 0), InvariantError);
  try {
    make({"prog", "--nodes", "abc"}).get_int("nodes", 0);
    ADD_FAILURE() << "--nodes abc parsed";
  } catch (const InvariantError& e) {
    EXPECT_NE(std::string(e.what()).find("'abc' for --nodes"),
              std::string::npos)
        << e.what();
  }

  // Integers must fit in an int: 2^32 + 2 is an error, not a silent 2.
  auto w = make({"prog", "--nodes", "4294967298", "--ppn", "-2147483649",
                 "--max", "2147483647", "--min", "-2147483648"});
  EXPECT_THROW(w.get_int("nodes", 0), InvariantError);
  EXPECT_THROW(w.get_int("ppn", 0), InvariantError);
  EXPECT_EQ(w.get_int("max", 0), 2147483647);
  EXPECT_EQ(w.get_int("min", 0), -2147483647 - 1);
  try {
    w.get_int("nodes", 0);
    ADD_FAILURE() << "--nodes 4294967298 parsed";
  } catch (const InvariantError& e) {
    EXPECT_NE(std::string(e.what()).find("'4294967298' for --nodes"),
              std::string::npos)
        << e.what();
  }

  // Doubles: the whole text, finite only.
  auto d = make({"prog", "--stagger-us", "5us", "--inf", "inf", "--nan",
                 "nan", "--huge", "1e400", "--neg", "-0.5", "--pos", "+2e1"});
  EXPECT_THROW(d.get_double("stagger-us", 0), InvariantError);
  EXPECT_THROW(d.get_double("inf", 0), InvariantError);
  EXPECT_THROW(d.get_double("nan", 0), InvariantError);
  EXPECT_THROW(d.get_double("huge", 0), InvariantError);
  EXPECT_DOUBLE_EQ(d.get_double("neg", 0), -0.5);
  EXPECT_DOUBLE_EQ(d.get_double("pos", 0), 20.0);
  try {
    d.get_double("stagger-us", 0);
  } catch (const InvariantError& e) {
    EXPECT_NE(std::string(e.what()).find("'5us' for --stagger-us"),
              std::string::npos)
        << e.what();
  }

  // Booleans: true/false, 1/0, yes/no, on/off; a bare flag reads true.
  auto b = make({"prog", "--overlap", "maybe", "--off", "off", "--no", "no",
                 "--zero", "0", "--on", "on", "--bare"});
  EXPECT_THROW(b.get_bool("overlap", true), InvariantError);
  EXPECT_FALSE(b.get_bool("off", true));
  EXPECT_FALSE(b.get_bool("no", true));
  EXPECT_FALSE(b.get_bool("zero", true));
  EXPECT_TRUE(b.get_bool("on"));
  EXPECT_TRUE(b.get_bool("bare"));
  try {
    b.get_bool("overlap", true);
  } catch (const InvariantError& e) {
    EXPECT_NE(std::string(e.what()).find("'maybe' for --overlap"),
              std::string::npos)
        << e.what();
  }
}

TEST(Args, ParseBytes) {
  EXPECT_EQ(Args::parse_bytes("--bytes", "17"), 17u);
  EXPECT_EQ(Args::parse_bytes("--bytes", "4K"), 4096u);
  EXPECT_EQ(Args::parse_bytes("--bytes", "4k"), 4096u);
  EXPECT_EQ(Args::parse_bytes("--bytes", "2M"), 2u << 20);
  EXPECT_EQ(Args::parse_bytes("--bytes", "1G"), 1u << 30);
  EXPECT_THROW(Args::parse_bytes("--bytes", ""), InvariantError);
  EXPECT_THROW(Args::parse_bytes("--bytes", "K"), InvariantError);
  // Only digits with an optional suffix: no unit tails, fractions, signs or
  // wrap-around.
  EXPECT_THROW(Args::parse_bytes("--bytes", "16KB"), InvariantError);
  EXPECT_THROW(Args::parse_bytes("--bytes", "1.5K"), InvariantError);
  EXPECT_THROW(Args::parse_bytes("--bytes", "-8"), InvariantError);
  EXPECT_THROW(Args::parse_bytes("--bytes", "+8"), InvariantError);
  EXPECT_THROW(Args::parse_bytes("--bytes", " 8"), InvariantError);
  EXPECT_THROW(Args::parse_bytes("--bytes", "18446744073709551616"),
               InvariantError);
  EXPECT_THROW(Args::parse_bytes("--bytes", "17179869184G"), InvariantError);
  EXPECT_EQ(Args::parse_bytes("--bytes", "18446744073709551615"),
            18446744073709551615ull);
  try {
    Args::parse_bytes("--bytes", "16KB");
  } catch (const InvariantError& e) {
    EXPECT_NE(std::string(e.what()).find("size '16KB'"), std::string::npos)
        << e.what();
  }
}

TEST(Args, ParseSizeRange) {
  const auto r = Args::parse_size_range("--sizes", "4:1K");
  ASSERT_EQ(r.size(), 5u);  // 4, 16, 64, 256, 1024
  EXPECT_EQ(r.front(), 4u);
  EXPECT_EQ(r.back(), 1024u);
  const auto r2 = Args::parse_size_range("--sizes", "8:64:2");
  ASSERT_EQ(r2.size(), 4u);  // 8, 16, 32, 64
  EXPECT_THROW(Args::parse_size_range("--sizes", "bad"), std::exception);
  EXPECT_THROW(Args::parse_size_range("--sizes", "16:4"), InvariantError);
  // The factor is digits only and at least 2.
  EXPECT_THROW(Args::parse_size_range("--sizes", "4:16:-2"), InvariantError);
  EXPECT_THROW(Args::parse_size_range("--sizes", "4:16:2.5"), InvariantError);
  EXPECT_THROW(Args::parse_size_range("--sizes", "4:16:1"), InvariantError);
  EXPECT_THROW(Args::parse_size_range("--sizes", "4:16KB"), InvariantError);
  const auto r3 = Args::parse_size_range("--sizes", "4:16:2");
  EXPECT_EQ(r3, (std::vector<std::size_t>{4, 8, 16}));
}

TEST(Args, ByteSizesNameTheirFlag) {
  // A bad byte size names its text and its field, with no source path, in
  // a size, in either end of a size range and in a --flag read as bytes.
  struct Probe {
    std::function<void()> parse;
    const char* says;
  };
  const auto a = make({"prog", "--bucket", "12x"});
  const Probe probes[] = {
      {[] { Args::parse_bytes("--bg-traffic bytes", "12x"); },
       "bad size '12x' for --bg-traffic bytes: expected digits with an "
       "optional K/M/G suffix"},
      {[&] { a.get_bytes("bucket", 1); }, "bad size '12x' for --bucket"},
      {[] { Args::parse_size_range("--sizes", "4:12x"); },
       "bad size '12x' for --sizes"},
      {[] { Args::parse_size_range("--sizes", "12x:4K"); },
       "bad size '12x' for --sizes"},
      {[] { Args::parse_size_range("--sizes", "4:16:2.5"); },
       "bad size range factor '2.5' for --sizes"},
      {[] { Args::parse_size_range("--sizes", "16:4"); },
       "bad size range '16:4' for --sizes"},
      {[] { Args::parse_size_range("--sizes", "4"); },
       "bad size range '4' for --sizes: expected lo:hi[:factor]"},
      {[] { Args::parse_bytes("--bytes", "18446744073709551616"); },
       "for --bytes: does not fit in 64 bits"},
  };
  for (const Probe& p : probes) {
    try {
      p.parse();
      ADD_FAILURE() << p.says << ": accepted";
    } catch (const InvariantError& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find(p.says), std::string::npos) << msg;
      EXPECT_EQ(msg.find("check failed"), std::string::npos) << msg;
      EXPECT_EQ(msg.find(".cpp"), std::string::npos) << msg;
    }
  }
}

TEST(Args, UnusedDetection) {
  auto a = make({"prog", "--used", "1", "--typo", "2"});
  (void)a.get_int("used", 0);
  const auto u = a.unused();
  ASSERT_EQ(u.size(), 1u);
  EXPECT_EQ(u[0], "typo");
}

}  // namespace
}  // namespace dpml::util
