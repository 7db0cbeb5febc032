#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <sstream>

#include "support/diagnostics.hpp"
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
  EXPECT_EQ(v->get_str("name"), "tmv");
  EXPECT_TRUE(v->get_bool("ok"));
  EXPECT_EQ(v->get_i64("n"), 42);
  ASSERT_NE(v->find("none"), nullptr);
  EXPECT_TRUE(v->find("none")->is_null());
  ASSERT_EQ(v->find("xs")->arr().size(), 3u);
  EXPECT_EQ(v->find("xs")->arr()[1].as_i64(), 2);
  EXPECT_EQ(v->find("inner")->get_i64("deep"), -7);
  // Missing keys fall back to the caller's default, never throw.
  EXPECT_EQ(v->get_i64("absent", 99), 99);
  EXPECT_EQ(v->get_str("absent", "d"), "d");
}

TEST(Json, GetDoubleParsesDecimalsAndExponents) {
  auto v = json::parse(
      R"({"tol":0.001,"exp":1.5e-3,"big":2E2,"whole":3,"neg":-0.25})");
  ASSERT_TRUE(v.has_value());
  EXPECT_DOUBLE_EQ(v->get_double("tol"), 0.001);
  EXPECT_DOUBLE_EQ(v->get_double("exp"), 1.5e-3);
  EXPECT_DOUBLE_EQ(v->get_double("big"), 200.0);
  // Integers are visible through both numeric views.
  EXPECT_DOUBLE_EQ(v->get_double("whole"), 3.0);
  EXPECT_EQ(v->get_i64("whole"), 3);
  EXPECT_DOUBLE_EQ(v->get_double("neg"), -0.25);
  EXPECT_DOUBLE_EQ(v->get_double("absent", 1e-3), 1e-3);
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
    EXPECT_EQ(v->get_double("x"), d) << os.str();
  }
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
