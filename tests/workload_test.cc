#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <string>
#include <utility>

#include "src/workload/azure_trace.h"
#include "src/workload/poisson.h"
#include "src/workload/trace.h"

namespace deepplan {
namespace {

// ---------------------------------------------------------------- trace

TEST(TraceTest, SortsArrivalsByTime) {
  Trace t({{Seconds(3), 0}, {Seconds(1), 1}, {Seconds(2), 2}});
  ASSERT_EQ(t.size(), 3u);
  EXPECT_EQ(t.arrivals()[0].instance, 1);
  EXPECT_EQ(t.arrivals()[2].instance, 0);
  EXPECT_EQ(t.duration(), Seconds(3));
}

TEST(TraceTest, MeanRate) {
  std::vector<Arrival> a;
  for (int i = 1; i <= 100; ++i) {
    a.push_back({Seconds(0.1) * i, 0});
  }
  const Trace t(std::move(a));
  EXPECT_NEAR(t.MeanRate(), 10.0, 0.2);
}

TEST(TraceTest, ScaledToRateChangesIntensityNotPattern) {
  std::vector<Arrival> a;
  for (int i = 1; i <= 100; ++i) {
    a.push_back({Seconds(0.1) * i, i % 7});
  }
  const Trace t(std::move(a));
  const Trace scaled = t.ScaledToRate(20.0);
  EXPECT_NEAR(scaled.MeanRate(), 20.0, 0.5);
  EXPECT_EQ(scaled.size(), t.size());
  EXPECT_EQ(scaled.arrivals()[5].instance, t.arrivals()[5].instance);
}

TEST(TraceTest, CsvRoundTrip) {
  Trace t({{123, 4}, {456, 7}});
  const auto parsed = Trace::FromCsv(t.ToCsv());
  ASSERT_TRUE(parsed.has_value());
  ASSERT_EQ(parsed->size(), 2u);
  EXPECT_EQ(parsed->arrivals()[0].time, 123);
  EXPECT_EQ(parsed->arrivals()[1].instance, 7);
}

TEST(TraceTest, FileRoundTrip) {
  Trace t({{Millis(5), 1}, {Millis(9), 2}});
  const std::string path = ::testing::TempDir() + "/trace_test.csv";
  ASSERT_TRUE(t.SaveTo(path));
  std::string error;
  const auto loaded = Trace::LoadFrom(path, /*num_instances=*/3, &error);
  ASSERT_TRUE(loaded.has_value()) << error;
  EXPECT_EQ(loaded->size(), 2u);
  std::remove(path.c_str());
}

TEST(TraceTest, LoadFromMissingFileFails) {
  std::string error;
  EXPECT_FALSE(Trace::LoadFrom("/nonexistent/definitely/missing.csv", 1, &error)
                   .has_value());
}

// The streaming line-at-a-time loader fails fast with the file, the line
// number, and the offending text — a mangled multi-GB Azure CSV must not
// load short or silently zero-fill, and a row naming an instance the
// replaying server lacks must not reach the server.
TEST(TraceTest, MalformedRowReportsFileLineAndReason) {
  const std::string path = ::testing::TempDir() + "/trace_malformed.csv";
  for (const auto& [rows, needle] :
       {std::pair{"time_ns,instance\n100,1\n200,banana\n300,0\n", "banana"},
        std::pair{"time_ns,instance\n1000,0\n2000,500\n",
                  "instance 500 is not below the 2 instances"}}) {
    {
      std::ofstream out(path);
      out << rows;
    }
    std::string error;
    const auto loaded = Trace::LoadFrom(path, /*num_instances=*/2, &error);
    EXPECT_FALSE(loaded.has_value());
    EXPECT_NE(error.find(path), std::string::npos) << error;
    EXPECT_NE(error.find(":3:"), std::string::npos) << error;  // header is line 1
    EXPECT_NE(error.find(needle), std::string::npos) << error;
  }
  std::remove(path.c_str());
}

TEST(TraceTest, TruncatedRowWithoutCommaIsDiagnosed) {
  const std::string path = ::testing::TempDir() + "/trace_truncated.csv";
  {
    std::ofstream out(path);
    out << "100,1\n200,2\n30";  // file cut mid-row
  }
  std::string error;
  EXPECT_FALSE(Trace::LoadFrom(path, /*num_instances=*/3, &error).has_value());
  EXPECT_NE(error.find("no comma"), std::string::npos) << error;
  EXPECT_NE(error.find(":3:"), std::string::npos) << error;
  std::remove(path.c_str());
}

TEST(TraceTest, RejectsNegativeAndOverflowingFields) {
  std::string error;
  EXPECT_FALSE(Trace::LoadFrom("/nonexistent/x.csv", 1, &error).has_value());
  EXPECT_NE(error.find("cannot open"), std::string::npos) << error;
  EXPECT_FALSE(Trace::FromCsv("-5,0\n").has_value());
  EXPECT_FALSE(Trace::FromCsv("100,-1\n").has_value());
  EXPECT_FALSE(Trace::FromCsv("999999999999999999999999,0\n").has_value());
  EXPECT_FALSE(Trace::FromCsv("100,999999999999\n").has_value());
  // Windows line endings and a trailing blank line stay acceptable.
  const auto ok = Trace::FromCsv("time_ns,instance\r\n100,1\r\n\r\n");
  ASSERT_TRUE(ok.has_value());
  EXPECT_EQ(ok->size(), 1u);
}

TEST(TraceTest, PerMinuteCounts) {
  Trace t({{Seconds(10), 0}, {Seconds(61), 0}, {Seconds(62), 1}, {Seconds(130), 0}});
  const auto counts = t.PerMinuteCounts();
  ASSERT_EQ(counts.size(), 3u);
  EXPECT_EQ(counts[0], 1u);
  EXPECT_EQ(counts[1], 2u);
  EXPECT_EQ(counts[2], 1u);
}

// ---------------------------------------------------------------- poisson

TEST(PoissonTest, RateAndDurationRespected) {
  PoissonOptions opts;
  opts.rate_per_sec = 100.0;
  opts.duration = Seconds(50);
  opts.num_instances = 10;
  const Trace t = GeneratePoissonTrace(opts);
  EXPECT_NEAR(static_cast<double>(t.size()), 5000.0, 300.0);  // ~3 sigma
  EXPECT_LE(t.duration(), opts.duration);
}

TEST(PoissonTest, InstancesUniform) {
  PoissonOptions opts;
  opts.rate_per_sec = 200.0;
  opts.duration = Seconds(100);
  opts.num_instances = 4;
  const Trace t = GeneratePoissonTrace(opts);
  const auto counts = t.PerInstanceCounts(4);
  const double expected = static_cast<double>(t.size()) / 4.0;
  for (const auto c : counts) {
    EXPECT_NEAR(static_cast<double>(c), expected, expected * 0.15);
  }
}

TEST(PoissonTest, DeterministicPerSeed) {
  PoissonOptions opts;
  opts.seed = 5;
  const Trace a = GeneratePoissonTrace(opts);
  const Trace b = GeneratePoissonTrace(opts);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.arrivals()[i].time, b.arrivals()[i].time);
    EXPECT_EQ(a.arrivals()[i].instance, b.arrivals()[i].instance);
  }
  opts.seed = 6;
  const Trace c = GeneratePoissonTrace(opts);
  EXPECT_NE(a.size(), c.size());
}

TEST(PoissonTest, InterArrivalTimesAreExponential) {
  PoissonOptions opts;
  opts.rate_per_sec = 1000.0;
  opts.duration = Seconds(100);
  const Trace t = GeneratePoissonTrace(opts);
  // CV (stddev/mean) of exponential gaps is 1.
  double prev = 0.0;
  double sum = 0.0;
  double sum_sq = 0.0;
  std::size_t n = 0;
  for (const Arrival& a : t.arrivals()) {
    const double gap = ToSeconds(a.time) - prev;
    prev = ToSeconds(a.time);
    sum += gap;
    sum_sq += gap * gap;
    ++n;
  }
  const double mean = sum / n;
  const double var = sum_sq / n - mean * mean;
  EXPECT_NEAR(std::sqrt(var) / mean, 1.0, 0.05);
}

// ---------------------------------------------------------------- azure

TEST(AzureTest, HitsTargetRate) {
  AzureTraceOptions opts;
  opts.target_rate_per_sec = 150.0;
  opts.duration = Seconds(120);
  const Trace t = GenerateAzureTrace(opts);
  EXPECT_NEAR(t.MeanRate(), 150.0, 7.5);
}

TEST(AzureTest, PopularityIsSkewed) {
  AzureTraceOptions opts;
  opts.num_instances = 50;
  opts.duration = Seconds(120);
  opts.target_rate_per_sec = 300.0;
  const Trace t = GenerateAzureTrace(opts);
  auto counts = t.PerInstanceCounts(50);
  std::sort(counts.begin(), counts.end(), std::greater<>());
  // Top 10 instances should carry several times the bottom 10's load.
  std::size_t top = 0;
  std::size_t bottom = 0;
  for (int i = 0; i < 10; ++i) {
    top += counts[i];
    bottom += counts[40 + i];
  }
  EXPECT_GT(top, bottom * 3);
}

TEST(AzureTest, RateFluctuatesOverTime) {
  AzureTraceOptions opts;
  opts.duration = Seconds(240);
  opts.target_rate_per_sec = 200.0;
  opts.diurnal_depth = 0.4;
  const Trace t = GenerateAzureTrace(opts);
  const auto per_min = t.PerMinuteCounts();
  ASSERT_GE(per_min.size(), 4u);
  std::size_t min_c = per_min[0];
  std::size_t max_c = per_min[0];
  for (const auto c : per_min) {
    min_c = std::min(min_c, c);
    max_c = std::max(max_c, c);
  }
  // Diurnal swing + spikes: min and max minutes differ visibly.
  EXPECT_GT(static_cast<double>(max_c), static_cast<double>(min_c) * 1.2);
}

TEST(AzureTest, DeterministicPerSeed) {
  AzureTraceOptions opts;
  opts.duration = Seconds(60);
  const Trace a = GenerateAzureTrace(opts);
  const Trace b = GenerateAzureTrace(opts);
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(a.arrivals()[10].time, b.arrivals()[10].time);
}

TEST(AzureTest, CsvLoaderStreamsAndReportsErrors) {
  const std::string path = ::testing::TempDir() + "/azure_maf.csv";
  {
    std::ofstream out(path);
    out << "time_ns,instance\n1000,3\n2000,1\n";
  }
  std::string error;
  const auto loaded = Trace::LoadFrom(path, /*num_instances=*/4, &error);
  ASSERT_TRUE(loaded.has_value()) << error;
  EXPECT_EQ(loaded->size(), 2u);
  {
    std::ofstream out(path);
    out << "1000,3\nbroken line\n";
  }
  EXPECT_FALSE(Trace::LoadFrom(path, /*num_instances=*/4, &error).has_value());
  EXPECT_NE(error.find(":2:"), std::string::npos) << error;
  std::remove(path.c_str());
}

TEST(AzureTest, AllInstancesInRange) {
  AzureTraceOptions opts;
  opts.num_instances = 9;
  opts.duration = Seconds(60);
  const Trace t = GenerateAzureTrace(opts);
  for (const Arrival& a : t.arrivals()) {
    EXPECT_GE(a.instance, 0);
    EXPECT_LT(a.instance, 9);
  }
}

}  // namespace
}  // namespace deepplan
