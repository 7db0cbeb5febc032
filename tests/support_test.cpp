#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "serve/wire.hpp"
#include "support/diagnostics.hpp"
#include "support/flags.hpp"
#include "support/json.hpp"
#include "support/rng.hpp"
#include "support/stats.hpp"
#include "support/string_utils.hpp"
#include "support/table.hpp"

namespace cudanp {
namespace {

TEST(StringUtils, SplitBasic) {
  auto parts = split("a,b,c", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "c");
}

TEST(StringUtils, SplitKeepsEmptyPieces) {
  auto parts = split(",x,", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "");
  EXPECT_EQ(parts[1], "x");
  EXPECT_EQ(parts[2], "");
}

TEST(StringUtils, SplitNoSeparator) {
  auto parts = split("abc", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "abc");
}

TEST(StringUtils, Trim) {
  EXPECT_EQ(trim("  hello \t\n"), "hello");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(trim("x"), "x");
}

TEST(StringUtils, StartsEndsWith) {
  EXPECT_TRUE(starts_with("pragma np", "pragma"));
  EXPECT_FALSE(starts_with("np", "pragma"));
  EXPECT_TRUE(ends_with("kernel.cu", ".cu"));
  EXPECT_FALSE(ends_with("cu", "kernel.cu"));
}

TEST(StringUtils, Join) {
  EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(join({}, ","), "");
  EXPECT_EQ(join({"only"}, ","), "only");
}

TEST(StringUtils, IsIdentifier) {
  EXPECT_TRUE(is_identifier("_np_var1"));
  EXPECT_TRUE(is_identifier("x"));
  EXPECT_FALSE(is_identifier("1x"));
  EXPECT_FALSE(is_identifier(""));
  EXPECT_FALSE(is_identifier("a-b"));
}

TEST(StringUtils, ReplaceAll) {
  EXPECT_EQ(replace_all("aXbXc", "X", "yy"), "ayybyyc");
  EXPECT_EQ(replace_all("abc", "z", "q"), "abc");
}

TEST(StringUtils, FormatDouble) {
  EXPECT_EQ(format_double(2.5, 3), "2.5");
  EXPECT_EQ(format_double(1234.0, 2), "1.2e+03");
}

TEST(ParseI64, AcceptsWholeIntegers) {
  EXPECT_EQ(parse_i64("0"), 0);
  EXPECT_EQ(parse_i64("42"), 42);
  EXPECT_EQ(parse_i64("-7"), -7);
  EXPECT_EQ(parse_i64("+13"), 13);
  EXPECT_EQ(parse_i64("  99 "), 99);  // surrounding whitespace is trimmed
}

TEST(ParseI64, RejectsPartialParses) {
  // The atoi failure modes this parser exists to kill: "8x" silently
  // became 8, "x8" and "" silently became 0.
  EXPECT_FALSE(parse_i64("8x").has_value());
  EXPECT_FALSE(parse_i64("x8").has_value());
  EXPECT_FALSE(parse_i64("").has_value());
  EXPECT_FALSE(parse_i64("   ").has_value());
  EXPECT_FALSE(parse_i64("-").has_value());
  EXPECT_FALSE(parse_i64("+").has_value());
  EXPECT_FALSE(parse_i64("1.5").has_value());
  EXPECT_FALSE(parse_i64("1 2").has_value());
  EXPECT_FALSE(parse_i64("0x10").has_value());
}

TEST(ParseF64, AcceptsWholeNumbersOnly) {
  EXPECT_EQ(parse_f64("0.25"), 0.25);
  EXPECT_EQ(parse_f64(" 1e-3 "), 1e-3);
  EXPECT_EQ(parse_f64("-2"), -2.0);
  EXPECT_FALSE(parse_f64("0.5x").has_value());
  EXPECT_FALSE(parse_f64("x").has_value());
  EXPECT_FALSE(parse_f64("").has_value());
  EXPECT_FALSE(parse_f64("1 2").has_value());
  EXPECT_FALSE(parse_f64("inf").has_value());
  EXPECT_FALSE(parse_f64("nan").has_value());
  EXPECT_FALSE(parse_f64("1e999").has_value());  // overflows to inf
}

TEST(ParseI64, RangeChecked) {
  EXPECT_EQ(parse_i64("5", 1, 10), 5);
  EXPECT_FALSE(parse_i64("0", 1, 10).has_value());
  EXPECT_FALSE(parse_i64("11", 1, 10).has_value());
  EXPECT_EQ(parse_i64("10", 1, 10), 10);  // bounds are inclusive
}

TEST(ParseI64, ExtremesAndOverflow) {
  EXPECT_EQ(parse_i64("9223372036854775807"),
            std::numeric_limits<std::int64_t>::max());
  EXPECT_EQ(parse_i64("-9223372036854775808"),
            std::numeric_limits<std::int64_t>::min());
  EXPECT_FALSE(parse_i64("9223372036854775808").has_value());
  EXPECT_FALSE(parse_i64("-9223372036854775809").has_value());
  EXPECT_FALSE(parse_i64("99999999999999999999999").has_value());
}

TEST(ParseInt, NarrowsWithRange) {
  EXPECT_EQ(parse_int("1024", 1, 1024), 1024);
  EXPECT_FALSE(parse_int("1025", 1, 1024).has_value());
  EXPECT_FALSE(parse_int("abc", 1, 1024).has_value());
  EXPECT_EQ(parse_int("-3"), -3);
  // Values outside int's own range never narrow, whatever the caller's
  // bounds.
  EXPECT_FALSE(parse_int("4294967296").has_value());
}

TEST(Stats, GeometricMean) {
  double xs[] = {1.0, 4.0};
  EXPECT_NEAR(geometric_mean(xs), 2.0, 1e-12);
  EXPECT_EQ(geometric_mean({}), 0.0);
}

TEST(Stats, GeometricMeanMatchesPaperStyle) {
  // GM of identical speedups is the speedup itself.
  double xs[] = {2.18, 2.18, 2.18};
  EXPECT_NEAR(geometric_mean(xs), 2.18, 1e-9);
}

TEST(Stats, Summary) {
  double xs[] = {1.0, 2.0, 3.0};
  Summary s = summarize(xs);
  EXPECT_EQ(s.min, 1.0);
  EXPECT_EQ(s.max, 3.0);
  EXPECT_NEAR(s.mean, 2.0, 1e-12);
  EXPECT_NEAR(s.geomean, std::cbrt(6.0), 1e-12);
}

TEST(Rng, Deterministic) {
  SplitMix64 a(7), b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, UniformRange) {
  SplitMix64 rng(1234);
  for (int i = 0; i < 1000; ++i) {
    float v = rng.next_float(-2.0f, 3.0f);
    EXPECT_GE(v, -2.0f);
    EXPECT_LT(v, 3.0f);
  }
}

TEST(Rng, NextBelow) {
  SplitMix64 rng(9);
  for (int i = 0; i < 100; ++i) EXPECT_LT(rng.next_below(17), 17u);
  EXPECT_EQ(rng.next_below(0), 0u);
}

TEST(Table, RendersAlignedColumns) {
  Table t({"name", "value"});
  t.add_row({"x", "1"});
  t.add_row({"longer", "22"});
  std::string s = t.str();
  EXPECT_NE(s.find("| name   | value |"), std::string::npos);
  EXPECT_NE(s.find("| longer | 22    |"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
}

TEST(Table, PadsMissingCells) {
  Table t({"a", "b", "c"});
  t.add_row({"1"});
  EXPECT_NE(t.str().find("| 1 |   |   |"), std::string::npos);
}

TEST(Diagnostics, CountsErrors) {
  DiagnosticEngine d;
  d.note({1, 1}, "n");
  d.warning({1, 2}, "w");
  EXPECT_FALSE(d.has_errors());
  d.error({2, 3}, "e");
  EXPECT_TRUE(d.has_errors());
  EXPECT_EQ(d.error_count(), 1u);
  EXPECT_EQ(d.all().size(), 3u);
  EXPECT_NE(d.summary().find("2:3: error: e"), std::string::npos);
  d.clear();
  EXPECT_FALSE(d.has_errors());
}

TEST(Diagnostics, CompileErrorCarriesLocation) {
  CompileError e(SourceLoc{4, 7}, "bad");
  EXPECT_NE(std::string(e.what()).find("4:7"), std::string::npos);
  EXPECT_EQ(e.loc().line, 4u);
}

TEST(SourceLoc, Validity) {
  EXPECT_FALSE(SourceLoc{}.valid());
  EXPECT_TRUE((SourceLoc{1, 1}).valid());
  EXPECT_EQ(SourceLoc{}.str(), "<synthesized>");
}

TEST(Json, EscapeUnescapeRoundTrip) {
  const std::string raw = "a\"b\\c\nd\te\rf\x01g";
  auto back = json::unescape(json::escape(raw));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, raw);
  EXPECT_FALSE(json::unescape("trailing\\").has_value());
  EXPECT_FALSE(json::unescape("\\q").has_value());
}

TEST(Json, ParsesTheShapesTheReportsEmit) {
  auto v = json::parse(
      R"({"name":"tmv","ok":true,"n":42,"none":null,)"
      R"("xs":[1,2,3],"inner":{"deep":-7}})");
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->find("name")->as_str(), "tmv");
  EXPECT_TRUE(v->find("ok")->as_bool());
  EXPECT_EQ(v->get_i64("n"), 42);
  ASSERT_NE(v->find("none"), nullptr);
  EXPECT_TRUE(v->find("none")->is_null());
  ASSERT_EQ(v->find("xs")->arr().size(), 3u);
  EXPECT_EQ(v->find("xs")->arr()[1].as_i64(), 2);
  EXPECT_EQ(v->find("inner")->get_i64("deep"), -7);
  // Missing keys fall back to the caller's default, never throw.
  EXPECT_EQ(v->get_i64("absent", 99), 99);
  EXPECT_EQ(v->find("absent"), nullptr);
}

TEST(Json, GetDoubleParsesDecimalsAndExponents) {
  auto v = json::parse(
      R"({"tol":0.001,"exp":1.5e-3,"big":2E2,"whole":3,"neg":-0.25})");
  ASSERT_TRUE(v.has_value());
  auto get = [&v](const char* key) { return v->find(key)->as_double(); };
  EXPECT_DOUBLE_EQ(get("tol"), 0.001);
  EXPECT_DOUBLE_EQ(get("exp"), 1.5e-3);
  EXPECT_DOUBLE_EQ(get("big"), 200.0);
  // Integers are visible through both numeric views.
  EXPECT_DOUBLE_EQ(get("whole"), 3.0);
  EXPECT_EQ(v->get_i64("whole"), 3);
  EXPECT_DOUBLE_EQ(get("neg"), -0.25);
  // A non-number reads as the caller's default.
  EXPECT_DOUBLE_EQ(json::Value().as_double(1e-3), 1e-3);
}

// ---------------------------------------------------------------------
// FlagTable: the one flag parser every tool uses.

FlagTable::Result parse_flags(const FlagTable& table,
                              std::vector<const char*> args,
                              std::size_t max_positional = 0) {
  args.insert(args.begin(), "tool");
  return table.try_parse(static_cast<int>(args.size()), args.data(),
                         max_positional);
}

TEST(FlagTable, IntRangeLimits) {
  int tb = 32;
  FlagTable t("tool", "usage: tool\n");
  t.integer("--tb", "block size", 1, 1024, &tb);
  EXPECT_TRUE(parse_flags(t, {"--tb=1"}).error.empty());
  EXPECT_EQ(tb, 1);
  EXPECT_TRUE(parse_flags(t, {"--tb=1024"}).error.empty());
  EXPECT_EQ(tb, 1024);
  EXPECT_EQ(parse_flags(t, {"--tb=0"}).error,
            "bad value for --tb: '0' (expected integer in [1, 1024])");
  for (const char* bad : {"--tb=1025", "--tb=8x", "--tb=-1", "--tb=1e3"})
    EXPECT_FALSE(parse_flags(t, {bad}).error.empty()) << bad;
  EXPECT_EQ(tb, 1024);  // rejected values leave the field alone
}

TEST(FlagTable, I64RangeLimits) {
  constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  long long steps = 0;
  FlagTable t("tool", "usage: tool\n");
  t.integer("--steps", "budget", kMin, kMax, &steps)
      .integer("--deadline", "ms", 1, kMax / 2, &steps);
  EXPECT_TRUE(parse_flags(t, {"--steps=-9223372036854775808"}).error.empty());
  EXPECT_EQ(steps, kMin);
  EXPECT_TRUE(parse_flags(t, {"--steps=9223372036854775807"}).error.empty());
  EXPECT_EQ(steps, kMax);
  EXPECT_FALSE(parse_flags(t, {"--steps=9223372036854775808"}).error.empty());
  EXPECT_TRUE(parse_flags(t, {"--deadline=4611686018427387903"}).error.empty());
  EXPECT_FALSE(
      parse_flags(t, {"--deadline=4611686018427387904"}).error.empty());
}

TEST(FlagTable, PositiveF64RangeLimits) {
  double scale = 0.02;
  double any = 1.0;
  FlagTable t("tool", "usage: tool\n");
  t.positive("--scale", "scale", &scale, 1.0).positive("--any", "any", &any);
  EXPECT_TRUE(parse_flags(t, {"--scale=1"}).error.empty());
  EXPECT_EQ(scale, 1.0);
  EXPECT_TRUE(parse_flags(t, {"--scale=0.25"}).error.empty());
  EXPECT_EQ(scale, 0.25);
  EXPECT_EQ(parse_flags(t, {"--scale=1.5"}).error,
            "bad value for --scale: '1.5' (expected a number in (0, 1])");
  for (const char* bad : {"--scale=0", "--scale=-0.5", "--scale=abc",
                          "--scale=nan", "--scale=0.5x"})
    EXPECT_FALSE(parse_flags(t, {bad}).error.empty()) << bad;
  EXPECT_TRUE(parse_flags(t, {"--any=1e6"}).error.empty());
  EXPECT_EQ(any, 1e6);
  EXPECT_EQ(parse_flags(t, {"--any=abc"}).error,
            "bad value for --any: 'abc' (expected a positive number)");
}

TEST(FlagTable, EmptyValues) {
  int n = 3;
  double f = 1.0;
  std::string path = "keep";
  std::string name = "keep";
  FlagTable t("tool", "usage: tool\n");
  t.integer("--n", "n", 0, 9, &n)
      .positive("--f", "f", &f)
      .text("--path", "<file>", "path", &path)
      .text("--name", "<name>", "name", &name, /*allow_empty=*/true);
  EXPECT_EQ(parse_flags(t, {"--n="}).error,
            "bad value for --n: '' (expected integer in [0, 9])");
  EXPECT_FALSE(parse_flags(t, {"--f="}).error.empty());
  EXPECT_EQ(parse_flags(t, {"--path="}).error,
            "bad value for --path: '' (expected a non-empty value)");
  EXPECT_EQ(path, "keep");
  EXPECT_TRUE(parse_flags(t, {"--name="}).error.empty());
  EXPECT_EQ(name, "");
  // A valued flag without '=' is an error too, never a silent default.
  EXPECT_EQ(parse_flags(t, {"--n"}).error, "--n needs a value: --n=<n>");
}

TEST(FlagTable, UnknownFlagsAndPositionals) {
  bool pad = false;
  FlagTable t("tool", "usage: tool\n");
  t.set("--pad", "pad", true, &pad);
  EXPECT_EQ(parse_flags(t, {"--bogus"}).error, "unknown option: --bogus");
  EXPECT_EQ(parse_flags(t, {"--pa"}).error, "unknown option: --pa");
  EXPECT_EQ(parse_flags(t, {"--scael=0.01"}).error,
            "unknown option: --scael=0.01");
  EXPECT_EQ(parse_flags(t, {"--pad=1"}).error, "--pad takes no value");
  EXPECT_EQ(parse_flags(t, {"in.cu"}).error, "unexpected argument: in.cu");
  auto r = parse_flags(t, {"in.cu", "--pad"}, 1);
  EXPECT_TRUE(r.error.empty());
  EXPECT_EQ(r.positional, std::vector<std::string>{"in.cu"});
  EXPECT_EQ(parse_flags(t, {"a.cu", "b.cu"}, 1).error,
            "unexpected argument: b.cu");
  EXPECT_TRUE(parse_flags(t, {"--help"}).help);
  EXPECT_TRUE(parse_flags(t, {"-h"}).help);
}

TEST(FlagTable, EnumChoices) {
  enum class Mode { kNone, kProcess };
  Mode mode = Mode::kNone;
  bool fallback = false;
  FlagTable t("tool", "usage: tool\n");
  t.choice("--isolate", "isolation",
           {{"none", Mode::kNone}, {"process", Mode::kProcess}}, &mode)
      .choice("--fallback", "fallback", {{"baseline", true}}, &fallback);
  EXPECT_TRUE(parse_flags(t, {"--isolate=process"}).error.empty());
  EXPECT_EQ(mode, Mode::kProcess);
  EXPECT_EQ(parse_flags(t, {"--isolate=vm"}).error,
            "bad value for --isolate: 'vm' (expected none|process)");
  EXPECT_EQ(parse_flags(t, {"--isolate=Process"}).error,
            "bad value for --isolate: 'Process' (expected none|process)");
  EXPECT_EQ(mode, Mode::kProcess);
  EXPECT_TRUE(parse_flags(t, {"--fallback=baseline"}).error.empty());
  EXPECT_TRUE(fallback);
}

TEST(FlagTable, SwitchSetsEveryBoundField) {
  bool certify = false, fast_path = false, svc_certify = false;
  enum class Race { kLockstep, kPortable };
  Race a = Race::kLockstep, b = Race::kLockstep;
  FlagTable t("tool", "usage: tool\n");
  t.set("--certified-fast-path", "fast path", true, &certify, &fast_path,
        &svc_certify)
      .set("--portable-races", "races", Race::kPortable, &a, &b);
  EXPECT_TRUE(parse_flags(t, {"--certified-fast-path"}).error.empty());
  EXPECT_TRUE(certify && fast_path && svc_certify);
  EXPECT_TRUE(parse_flags(t, {"--portable-races"}).error.empty());
  EXPECT_EQ(a, Race::kPortable);
  EXPECT_EQ(b, Race::kPortable);
  // Value rows bind several fields the same way.
  int x = 0;
  long long y = 0;
  std::size_t z = 0;
  t.integer("--limit", "limit", 0, 100, &x, &y, &z);
  EXPECT_TRUE(parse_flags(t, {"--limit=42"}).error.empty());
  EXPECT_EQ(x, 42);
  EXPECT_EQ(y, 42);
  EXPECT_EQ(z, 42u);
}

TEST(FlagTable, SeparateArgument) {
  std::string out;
  FlagTable t("tool", "usage: tool\n");
  t.separate("-o", "<file>", "output", &out);
  EXPECT_TRUE(parse_flags(t, {"-o", "x.cu"}).error.empty());
  EXPECT_EQ(out, "x.cu");
  EXPECT_EQ(parse_flags(t, {"-o"}).error, "-o needs a value: -o <file>");
  EXPECT_EQ(parse_flags(t, {"-o=y"}).error, "-o needs a value: -o <file>");
  EXPECT_EQ(out, "x.cu");
}

TEST(FlagTable, LastOneWins) {
  int tb = 32;
  double scale = 1.0;
  std::vector<std::string> names;
  FlagTable t("tool", "usage: tool\n");
  t.integer("--tb", "tb", 1, 1024, &tb)
      .positive("--scale", "scale", &scale)
      .set("--quick", "quick", 0.25, &scale)
      .list("--benchmarks", "A,B", "names", &names);
  EXPECT_TRUE(parse_flags(t, {"--tb=4", "--tb=8"}).error.empty());
  EXPECT_EQ(tb, 8);
  EXPECT_TRUE(parse_flags(t, {"--scale=0.5", "--quick"}).error.empty());
  EXPECT_EQ(scale, 0.25);
  EXPECT_TRUE(parse_flags(t, {"--quick", "--scale=0.5"}).error.empty());
  EXPECT_EQ(scale, 0.5);
  // A comma list accumulates across repeats and skips empty pieces.
  EXPECT_TRUE(
      parse_flags(t, {"--benchmarks=TMV,,CFD", "--benchmarks=MV"}).error
          .empty());
  EXPECT_EQ(names, (std::vector<std::string>{"TMV", "CFD", "MV"}));
}

TEST(FlagTable, KeyValueFields) {
  // The manifest shape: the same rows, named without dashes.
  int tb = 32;
  std::int64_t step = 0;
  bool wedge = false;
  bool armed = false;
  std::string file = "keep";
  FlagTable t("manifest", "");
  t.section("Keys")
      .integer("tb", "tb", 1, 1024, &tb)
      .integer("step", "step", 0, 9, &step)
      .marks(&armed)
      .set("wedge", "wedge", true, &wedge)
      .text("file", "<path>", "file", &file, /*allow_empty=*/true);
  using F = std::vector<std::string>;
  EXPECT_EQ(t.try_parse_fields(F{"tb=4", "tb=8", "file=a.cu"}), "");
  EXPECT_EQ(tb, 8);
  EXPECT_EQ(file, "a.cu");
  EXPECT_FALSE(armed);
  EXPECT_EQ(t.try_parse_fields(F{"tb=0"}),
            "bad value for tb: '0' (expected integer in [1, 1024])");
  EXPECT_EQ(t.try_parse_fields(F{"tb"}),
            "bad value for tb: '' (expected integer in [1, 1024])");
  EXPECT_EQ(t.try_parse_fields(F{"step=10"}),
            "bad value for step: '10' (expected integer in [0, 9])");
  EXPECT_FALSE(armed);  // a rejected value marks nothing
  EXPECT_EQ(t.try_parse_fields(F{"step=0"}), "");
  EXPECT_TRUE(armed);  // any stored value marks, zero included
  // A bare key is `key=`; a switch ignores its value.
  EXPECT_EQ(t.try_parse_fields(F{"file"}), "");
  EXPECT_EQ(file, "");
  EXPECT_EQ(t.try_parse_fields(F{"wedge=1"}), "");
  EXPECT_TRUE(wedge);
  // Never a positional, help, a section title or a dashed flag.
  for (const char* f : {"bogus", "--tb=4", "--help", "=1", "Keys"})
    EXPECT_EQ(t.try_parse_fields(F{f}),
              std::string("unknown field '") + f + "'");
}

TEST(FlagTable, HelpShowsDefaultsAndDefaultsToStoresOnce) {
  int tb = 32;
  int elems = 32;
  bool pad = false;
  FlagTable t("tool", "usage: tool [options]\n");
  t.section("Transform")
      .integer("--tb", "block size", 1, 1024, &tb)
      .integer("--elems", "problem size", 1, 1 << 20, &elems)
      .defaults_to("64")
      .set("--pad", "pad loops", true, &pad);
  EXPECT_EQ(elems, 64);
  std::ostringstream os;
  t.print_help(os);
  const std::string help = os.str();
  EXPECT_EQ(help.rfind("usage: tool [options]\n", 0), 0u) << help;
  EXPECT_NE(help.find("Transform:"), std::string::npos) << help;
  EXPECT_NE(help.find("--tb=<n>"), std::string::npos) << help;
  EXPECT_NE(help.find("block size (default 32)"), std::string::npos) << help;
  EXPECT_NE(help.find("problem size (default 64)"), std::string::npos)
      << help;
  EXPECT_NE(help.find("--pad"), std::string::npos) << help;
}

TEST(Json, DoubleRoundTripAtFullPrecision) {
  // The wire layer serializes f32_rel_tol with precision 17, which is
  // enough to reproduce any double exactly. Mimic that path.
  for (double d : {1e-3, 0.1, 1.0 / 3.0, 2.5e-7, 123456.789}) {
    std::ostringstream os;
    os.precision(17);
    os << "{\"x\":" << d << "}";
    auto v = json::parse(os.str());
    ASSERT_TRUE(v.has_value()) << os.str();
    EXPECT_EQ(v->find("x")->as_double(), d) << os.str();
  }
}

TEST(Json, OutOfRangeNumbersSaturate) {
  // Casting an out-of-range double to int64_t is undefined behaviour, so
  // the integer view saturates; the double view keeps the parsed value.
  // Daemon clients reach this with any numeric key in a submit payload.
  constexpr auto kMax = std::numeric_limits<std::int64_t>::max();
  constexpr auto kMin = std::numeric_limits<std::int64_t>::min();
  const std::pair<const char*, std::int64_t> cases[] = {
      {"1e300", kMax},
      {"-1e300", kMin},
      {"99999999999999999999", kMax},
      {"-99999999999999999999", kMin},
      {"9223372036854775807", kMax},
      {"-9223372036854775808", kMin},
  };
  for (const auto& [text, want] : cases) {
    auto v = json::parse(text);
    ASSERT_TRUE(v.has_value()) << text;
    EXPECT_EQ(v->as_i64(), want) << text;
  }
  EXPECT_EQ(json::parse("1e300")->as_double(), 1e300);
  auto req = serve::SubmitRequest::from_json(R"({"tenant":"t","x":1e300})");
  ASSERT_TRUE(req.has_value());
  EXPECT_EQ(req->tenant, "t");
}

TEST(Json, RejectsMalformedAndTornInput) {
  std::string err;
  EXPECT_FALSE(json::parse("", &err).has_value());
  EXPECT_FALSE(json::parse("{\"a\":1", &err).has_value());
  EXPECT_FALSE(json::parse("{\"a\":1} trailing", &err).has_value());
  EXPECT_FALSE(json::parse("{'a':1}", &err).has_value());
  // A torn journal line — cut mid-record by SIGKILL — must fail to
  // parse, not yield a half-filled value.
  const std::string whole = R"({"k":3,"outcome":{"ran":true,"n":12}})";
  for (std::size_t cut = 1; cut < whole.size(); ++cut) {
    EXPECT_FALSE(json::parse(whole.substr(0, cut)).has_value())
        << whole.substr(0, cut);
  }
}

}  // namespace
}  // namespace cudanp
