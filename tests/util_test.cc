#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "src/util/chrome_trace.h"
#include "src/util/flags.h"
#include "src/util/json.h"
#include "src/util/json_parse.h"
#include "src/util/rng.h"
#include "src/util/stats.h"
#include "src/util/table.h"
#include "src/util/time.h"
#include "tests/json_checker.h"

namespace deepplan {
namespace {

// ---------------------------------------------------------------- time

TEST(TimeTest, ConversionsRoundTrip) {
  EXPECT_EQ(Millis(1.5), 1'500'000);
  EXPECT_EQ(Micros(2.0), 2'000);
  EXPECT_EQ(Seconds(0.001), Millis(1.0));
  EXPECT_DOUBLE_EQ(ToMillis(Millis(42.0)), 42.0);
  EXPECT_DOUBLE_EQ(ToSeconds(Seconds(3.0)), 3.0);
}

TEST(TimeTest, FormatDurationPicksUnits) {
  EXPECT_EQ(FormatDuration(500), "500ns");
  EXPECT_EQ(FormatDuration(Micros(12.34)), "12.34us");
  EXPECT_EQ(FormatDuration(Millis(9.35)), "9.35ms");
  EXPECT_EQ(FormatDuration(Seconds(2.5)), "2.50s");
  EXPECT_EQ(FormatDuration(-Millis(1.0)), "-1.00ms");
}

TEST(TimeTest, FormatBytesBinaryUnits) {
  EXPECT_EQ(FormatBytes(512), "512B");
  EXPECT_EQ(FormatBytes(2048), "2.00KiB");
  // The paper's "89.42MB" embedding is 30522*768*4 bytes = 89.42 MiB.
  EXPECT_EQ(FormatBytes(30522LL * 768 * 4), "89.42MiB");
  EXPECT_EQ(FormatBytes(3LL * 1024 * 1024 * 1024), "3.00GiB");
}

// ---------------------------------------------------------------- rng

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next() == b.Next()) {
      ++equal;
    }
  }
  EXPECT_LT(equal, 2);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, NextBoundedCoversRangeUniformly) {
  Rng rng(11);
  std::vector<int> counts(10, 0);
  const int kSamples = 100000;
  for (int i = 0; i < kSamples; ++i) {
    ++counts[rng.NextBounded(10)];
  }
  for (int c : counts) {
    EXPECT_NEAR(c, kSamples / 10, kSamples / 100);  // within 10% relative
  }
}

TEST(RngTest, ExponentialMeanMatchesRate) {
  Rng rng(5);
  const double rate = 4.0;
  double sum = 0.0;
  const int kSamples = 200000;
  for (int i = 0; i < kSamples; ++i) {
    const double x = rng.NextExponential(rate);
    EXPECT_GE(x, 0.0);
    sum += x;
  }
  EXPECT_NEAR(sum / kSamples, 1.0 / rate, 0.01);
}

TEST(RngTest, GaussianMoments) {
  Rng rng(9);
  StreamingStats stats;
  for (int i = 0; i < 200000; ++i) {
    stats.Add(rng.NextGaussian(10.0, 3.0));
  }
  EXPECT_NEAR(stats.mean(), 10.0, 0.05);
  EXPECT_NEAR(stats.stddev(), 3.0, 0.05);
}

TEST(RngTest, PoissonMeanSmallAndLarge) {
  Rng rng(13);
  for (const double mean : {0.5, 5.0, 200.0}) {
    double sum = 0.0;
    const int kSamples = 50000;
    for (int i = 0; i < kSamples; ++i) {
      sum += static_cast<double>(rng.NextPoisson(mean));
    }
    EXPECT_NEAR(sum / kSamples, mean, mean * 0.05 + 0.05);
  }
}

TEST(RngTest, ZipfIsSkewedAndInRange) {
  Rng rng(17);
  std::vector<int> counts(100, 0);
  for (int i = 0; i < 100000; ++i) {
    const auto v = rng.NextZipf(100, 1.0);
    ASSERT_LT(v, 100u);
    ++counts[v];
  }
  // Rank 0 should dominate rank 50 heavily.
  EXPECT_GT(counts[0], counts[50] * 5);
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng parent(21);
  Rng child = parent.Fork();
  // Child continues to work and differs from parent's continuation.
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (parent.Next() == child.Next()) {
      ++equal;
    }
  }
  EXPECT_LT(equal, 2);
}

// ---------------------------------------------------------------- stats

TEST(StreamingStatsTest, BasicMoments) {
  StreamingStats s;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) {
    s.Add(x);
  }
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
}

TEST(StreamingStatsTest, EmptyIsZero) {
  StreamingStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(PercentilesTest, ExactQuartiles) {
  Percentiles p;
  for (int i = 1; i <= 101; ++i) {
    p.Add(static_cast<double>(i));
  }
  EXPECT_DOUBLE_EQ(p.Percentile(0), 1.0);
  EXPECT_DOUBLE_EQ(p.Percentile(50), 51.0);
  EXPECT_DOUBLE_EQ(p.Percentile(100), 101.0);
  EXPECT_DOUBLE_EQ(p.Percentile(99), 100.0);
}

TEST(PercentilesTest, InterpolatesBetweenSamples) {
  Percentiles p;
  p.Add(10.0);
  p.Add(20.0);
  EXPECT_DOUBLE_EQ(p.Percentile(50), 15.0);
}

TEST(PercentilesTest, SingleSample) {
  Percentiles p;
  p.Add(3.5);
  EXPECT_DOUBLE_EQ(p.Percentile(0), 3.5);
  EXPECT_DOUBLE_EQ(p.Percentile(99), 3.5);
  EXPECT_DOUBLE_EQ(p.Percentile(100), 3.5);
  EXPECT_DOUBLE_EQ(p.Min(), 3.5);
  EXPECT_DOUBLE_EQ(p.Max(), 3.5);
  EXPECT_DOUBLE_EQ(p.Mean(), 3.5);
}

// Zero-request windows summarize as all-zero rather than crashing: every
// order statistic on an empty sample is pinned to 0.0, matching Mean().
TEST(PercentilesTest, EmptySampleIsDefinedZero) {
  Percentiles p;
  EXPECT_TRUE(p.empty());
  EXPECT_DOUBLE_EQ(p.Percentile(0), 0.0);
  EXPECT_DOUBLE_EQ(p.Percentile(50), 0.0);
  EXPECT_DOUBLE_EQ(p.Percentile(99), 0.0);
  EXPECT_DOUBLE_EQ(p.Percentile(100), 0.0);
  EXPECT_DOUBLE_EQ(p.Min(), 0.0);
  EXPECT_DOUBLE_EQ(p.Max(), 0.0);
  EXPECT_DOUBLE_EQ(p.Mean(), 0.0);
  // Still usable after the empty queries.
  p.Add(7.0);
  EXPECT_DOUBLE_EQ(p.Percentile(50), 7.0);
}

// ---------------------------------------------------------------- table

TEST(TableTest, PrintsAlignedColumns) {
  Table t({"name", "value"});
  t.AddRow({"a", "1"});
  t.AddRow({"long-name", "2"});
  std::ostringstream os;
  t.Print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("long-name"), std::string::npos);
  EXPECT_NE(out.find("---"), std::string::npos);
}

TEST(TableTest, NumAndPctFormat) {
  EXPECT_EQ(Table::Num(3.14159, 2), "3.14");
  EXPECT_EQ(Table::Pct(0.425, 1), "42.5%");
}

// ---------------------------------------------------------------- flags

TEST(FlagsTest, ParsesTypedValues) {
  Flags flags;
  flags.DefineInt("n", 5, "count").DefineDouble("rate", 1.5, "rate");
  flags.DefineString("name", "x", "name").DefineBool("fast", false, "fast");
  const char* argv[] = {"prog", "--n=7", "--rate=2.5", "--name=abc", "--fast"};
  ASSERT_TRUE(flags.Parse(5, const_cast<char**>(argv)));
  EXPECT_EQ(flags.GetInt("n"), 7);
  EXPECT_DOUBLE_EQ(flags.GetDouble("rate"), 2.5);
  EXPECT_EQ(flags.GetString("name"), "abc");
  EXPECT_TRUE(flags.GetBool("fast"));
}

TEST(FlagsTest, DefaultsSurviveWhenUnset) {
  Flags flags;
  flags.DefineInt("n", 5, "count");
  const char* argv[] = {"prog"};
  ASSERT_TRUE(flags.Parse(1, const_cast<char**>(argv)));
  EXPECT_EQ(flags.GetInt("n"), 5);
}

TEST(FlagsTest, UnknownFlagFails) {
  Flags flags;
  flags.DefineInt("n", 5, "count");
  const char* argv[] = {"prog", "--bogus=1"};
  EXPECT_FALSE(flags.Parse(2, const_cast<char**>(argv)));
}

// Parses one `--<name>=<value>` argument against a fresh set of typed flags.
bool ParseOne(const std::string& arg) {
  Flags flags;
  flags.DefineInt("n", 5, "count").DefineDouble("rate", 1.5, "rate");
  flags.DefineBool("fast", false, "fast");
  const char* argv[] = {"prog", arg.c_str()};
  return flags.Parse(2, const_cast<char**>(argv));
}

TEST(FlagsTest, IntFlagRejectsAnythingButAWholeInteger) {
  EXPECT_TRUE(ParseOne("--n=-12"));
  for (const char* arg : {"--n=abc", "--n=2x", "--n=", "--n=1.5", "--n= 3",
                          "--n=99999999999999999999"}) {
    EXPECT_FALSE(ParseOne(arg)) << arg;
  }
}

TEST(FlagsTest, DoubleFlagRejectsAnythingButAWholeFiniteNumber) {
  EXPECT_TRUE(ParseOne("--rate=2.5e-3"));
  for (const char* arg : {"--rate=abc", "--rate=0.5x", "--rate=", "--rate=inf",
                          "--rate=nan", "--rate=1e999"}) {
    EXPECT_FALSE(ParseOne(arg)) << arg;
  }
}

TEST(FlagsTest, BoolFlagRejectsAnythingButTrueFalseOneZero) {
  for (const char* arg : {"--fast=true", "--fast=false", "--fast=1",
                          "--fast=0"}) {
    EXPECT_TRUE(ParseOne(arg)) << arg;
  }
  for (const char* arg : {"--fast=yes", "--fast=", "--fast=TRUE", "--fast=2"}) {
    EXPECT_FALSE(ParseOne(arg)) << arg;
  }
}

// A count, rate or duration at or below zero is refused by name, so a bench
// exits 1 instead of aborting in the workload generator.
TEST(FlagsTest, PositiveFlagsRefuseZeroAndBelow) {
  const auto parse = [](const std::string& arg) {
    Flags flags;
    flags.DefinePositiveInt("requests", 5, "count");
    flags.DefinePositiveDouble("rate", 1.5, "rate");
    const char* argv[] = {"prog", arg.c_str()};
    return flags.Parse(2, const_cast<char**>(argv));
  };
  for (const char* arg : {"--requests=1", "--rate=0.001", "--rate=2"}) {
    EXPECT_TRUE(parse(arg)) << arg;
  }
  const std::pair<const char*, const char*> refused[] = {
      {"--requests=0", "bad value for --requests: \"0\" (expected a value "
                       "above zero)"},
      {"--requests=-3", "bad value for --requests: \"-3\""},
      {"--rate=0", "bad value for --rate: \"0\" (expected a value above zero)"},
      {"--rate=-0.5", "bad value for --rate: \"-0.5\""},
      {"--rate=-0", "bad value for --rate: \"-0\""},
  };
  for (const auto& [arg, message] : refused) {
    testing::internal::CaptureStderr();
    EXPECT_FALSE(parse(arg)) << arg;
    const std::string err = testing::internal::GetCapturedStderr();
    EXPECT_NE(err.find(message), std::string::npos) << arg << ": " << err;
  }
  // Declared positive, a flag still refuses what does not parse.
  EXPECT_FALSE(parse("--requests=2x"));
}

TEST(FlagsTest, PositionalArgumentsCollected) {
  Flags flags;
  const char* argv[] = {"prog", "alpha", "beta"};
  ASSERT_TRUE(flags.Parse(3, const_cast<char**>(argv)));
  ASSERT_EQ(flags.positional().size(), 2u);
  EXPECT_EQ(flags.positional()[0], "alpha");
}

// ---------------------------------------------------------------- json

TEST(JsonTest, EscapesStringsAndFormatsScalars) {
  EXPECT_EQ(Json::Str("pcie/gpu0"), "\"pcie/gpu0\"");
  EXPECT_EQ(Json::Str("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
  EXPECT_EQ(Json::Int(-42), "-42");
  EXPECT_EQ(Json::Num(1.5), "1.5");
  EXPECT_EQ(Json::Num(std::nan("")), "null");
  EXPECT_EQ(Json::Bool(true), "true");
}

TEST(JsonTest, ObjectsKeepInsertionOrderAndNest) {
  JsonArray inner;
  inner.Add(1).Add(2.5).Add("three");
  JsonObject obj;
  obj.Set("b", 2).Set("a", "x").SetRaw("list", inner.Render()).Set("ok", true);
  EXPECT_EQ(obj.Render(), "{\"b\":2,\"a\":\"x\",\"list\":[1,2.5,\"three\"],\"ok\":true}");
  EXPECT_EQ(JsonObject().Render(), "{}");
  EXPECT_EQ(JsonArray().Render(), "[]");
}

// The parser recurses once per nesting level: a document nested past
// kMaxJsonDepth is refused with the offset where the bound was crossed,
// however deep it goes, instead of overflowing the stack.
TEST(JsonTest, ParserRefusesNestingPastTheDepthBound) {
  const JsonParseResult deep = ParseJson(std::string(100'000, '['));
  EXPECT_FALSE(deep.ok);
  EXPECT_EQ(deep.error, "arrays and objects nested deeper than " +
                            std::to_string(kMaxJsonDepth) + " levels at byte " +
                            std::to_string(kMaxJsonDepth));
  // At the bound itself a well-formed document parses, objects and arrays
  // alike.
  std::string at_bound;
  for (int i = 0; i < kMaxJsonDepth; ++i) {
    at_bound += i % 2 == 0 ? "[" : "{\"k\":";
  }
  at_bound += "0";
  for (int i = kMaxJsonDepth - 1; i >= 0; --i) {
    at_bound += i % 2 == 0 ? "]" : "}";
  }
  EXPECT_TRUE(ParseJson(at_bound).ok) << ParseJson(at_bound).error;
  EXPECT_FALSE(ParseJson("[" + at_bound + "]").ok);
}

// ---------------------------------------------------------------- chrome trace

using testutil::JsonChecker;

TraceDocument SampleTimeline() {
  TraceDocument doc;
  doc.events = {
      {TracePhase::kSpan, 0, "pcie/gpu0", "embedding", Micros(1500), Millis(2)},
      // 1.5 us / 2.5 us: sub-us precision
      {TracePhase::kSpan, 0, "exec", "layer \"0\"", 1500, 2500},
      {TracePhase::kSpan, 0, "nvlink", "fwd\\path", Millis(1), Micros(250)},
  };
  return doc;
}

TEST(ChromeTraceTest, EmittedJsonParses) {
  const std::string json = ChromeTraceWriter::ToJson(SampleTimeline());
  EXPECT_TRUE(JsonChecker(json).Valid()) << json;
  // Also parses for an empty timeline.
  const std::string empty = ChromeTraceWriter::ToJson(TraceDocument{});
  EXPECT_TRUE(JsonChecker(empty).Valid()) << empty;
  EXPECT_NE(empty.find("\"traceEvents\""), std::string::npos);
}

TEST(ChromeTraceTest, UsesMicrosecondTimestamps) {
  const std::string json = ChromeTraceWriter::ToJson(SampleTimeline());
  // Micros(1500) start / Millis(2) duration render as 1500 us / 2000 us.
  EXPECT_NE(json.find("\"ts\":1500,\"dur\":2000"), std::string::npos) << json;
  // 1500 ns / 2500 ns keep sub-microsecond precision as fractional us.
  EXPECT_NE(json.find("\"ts\":1.5,\"dur\":2.5"), std::string::npos) << json;
}

TEST(ChromeTraceTest, RoundTripsTrackAndNameFields) {
  const std::string json = ChromeTraceWriter::ToJson(SampleTimeline());
  // Event names round-trip, with quotes and backslashes escaped.
  EXPECT_NE(json.find("\"name\":\"embedding\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"layer \\\"0\\\"\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"fwd\\\\path\""), std::string::npos);
  // Every track appears as thread_name metadata naming its lane.
  for (const char* track : {"pcie/gpu0", "exec", "nvlink"}) {
    const std::string meta = std::string("\"args\":{\"name\":\"") + track + "\"}";
    EXPECT_NE(json.find(meta), std::string::npos) << track;
  }
}

TEST(ChromeTraceTest, WriteToRoundTripsAndReportsIoFailure) {
  const TraceDocument events = SampleTimeline();
  const std::string path = ::testing::TempDir() + "/chrome_trace_test.json";
  ASSERT_TRUE(ChromeTraceWriter::WriteTo(path, events));
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buffer;
  buffer << in.rdbuf();
  in.close();
  std::remove(path.c_str());
  EXPECT_EQ(buffer.str(), ChromeTraceWriter::ToJson(events) + "\n");
  EXPECT_FALSE(
      ChromeTraceWriter::WriteTo("/nonexistent-dir/trace.json", events));
}

}  // namespace
}  // namespace deepplan
