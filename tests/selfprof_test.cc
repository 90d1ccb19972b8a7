// Host self-profiler (src/obs/selfprof.h), its report lint (trace_lint
// --selfprof), the bench wall-clock trajectory gate (src/check/
// bench_history.h), and the DEEPPLAN_PROGRESS heartbeat. Pins the subsystem's
// three contracts:
//   - zero cost disabled: with no lane installed, scopes and counters never
//     touch the heap (tests/counting_new.h counts global operator new);
//   - exactness: counts are exact, sampled entries only run under timed
//     ancestors, so exclusive_ns arithmetic balances exactly (lint-checked);
//   - determinism: the deterministic projection is byte-identical across
//     SweepRunner jobs 1/2/8 for the same simulated run.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include "bench/scaling_common.h"
#include "src/check/bench_history.h"
#include "src/check/trace_lint.h"
#include "src/obs/selfprof.h"
#include "src/sim/simulator.h"
#include "src/util/json_parse.h"
#include "src/util/sweep.h"
#include "tests/counting_new.h"

namespace deepplan {
namespace {

using selfprof::Counter;
using selfprof::InstallLane;
using selfprof::LaneView;
using selfprof::Phase;
using selfprof::ScopedPhase;
using selfprof::SelfProfiler;

// Finds the child node of `parent` with `phase`, or nullptr.
const SelfProfiler::Node* Child(const SelfProfiler& lane,
                                const SelfProfiler::Node& parent, Phase phase) {
  const std::int32_t index =
      parent.child[static_cast<std::size_t>(phase)];
  return index >= 0 ? &lane.nodes()[static_cast<std::size_t>(index)] : nullptr;
}

// ------------------------------------------------------------ zero cost off

TEST(SelfProfTest, DisabledScopesAllocateNothing) {
  ASSERT_EQ(selfprof::CurrentLane(), nullptr);
  const std::size_t before = g_allocations;
  for (int i = 0; i < 100; ++i) {
    DP_SELFPROF_SCOPE(kSimDispatch);
    DP_SELFPROF_SCOPE(kExecStream);
    selfprof::AddCount(Counter::kEventsDispatched, 1);
  }
  {
    InstallLane off(nullptr);  // disabled install is a no-op too
    DP_SELFPROF_SCOPE(kFairShare);
  }
  const std::size_t after = g_allocations;
  EXPECT_EQ(after, before);
}

// --------------------------------------------------------- tree + sampling

TEST(SelfProfTest, NestedScopesBuildOnePathPerPhaseChain) {
  SelfProfiler lane;
  {
    InstallLane install(&lane);
    for (int i = 0; i < 3; ++i) {
      DP_SELFPROF_SCOPE(kSimDispatch);
      DP_SELFPROF_SCOPE(kColdStart);
    }
  }
  ASSERT_TRUE(lane.closed());
  EXPECT_EQ(lane.root().count, 1u);
  const SelfProfiler::Node* dispatch =
      Child(lane, lane.root(), Phase::kSimDispatch);
  ASSERT_NE(dispatch, nullptr);
  EXPECT_EQ(dispatch->count, 3u);
  EXPECT_EQ(dispatch->sampled, 3u);  // period-1 phase: every entry timed
  const SelfProfiler::Node* cold = Child(lane, *dispatch, Phase::kColdStart);
  ASSERT_NE(cold, nullptr);
  EXPECT_EQ(cold->count, 3u);
  // Same phase chain reuses one path: root + dispatch + cold.
  EXPECT_EQ(lane.nodes().size(), 3u);
  // Measured child time nests inside measured parent time — exactly.
  EXPECT_GE(dispatch->inclusive_ns, cold->inclusive_ns);
  EXPECT_GE(lane.root().inclusive_ns, dispatch->inclusive_ns);
}

TEST(SelfProfTest, SampledPhaseCountsAlwaysTimesEveryPeriodth) {
  SelfProfiler lane;
  constexpr int kEntries = 130;  // 3 gate hits at period 64: entries 1, 65, 129
  {
    InstallLane install(&lane);
    for (int i = 0; i < kEntries; ++i) {
      ScopedPhase fair(Phase::kFairShare);
      // Nested under the sampled phase: timed only when the parent entry is
      // (untimed parents suppress everything below; timing parents force
      // nested sampled phases on so they cannot starve).
      ScopedPhase setup(Phase::kSetup);
      ScopedPhase exec(Phase::kExecStream);
    }
  }
  const SelfProfiler::Node* fair = Child(lane, lane.root(), Phase::kFairShare);
  ASSERT_NE(fair, nullptr);
  EXPECT_EQ(fair->count, static_cast<std::uint64_t>(kEntries));
  EXPECT_EQ(fair->sampled, 3u);
  const SelfProfiler::Node* setup = Child(lane, *fair, Phase::kSetup);
  ASSERT_NE(setup, nullptr);
  EXPECT_EQ(setup->count, static_cast<std::uint64_t>(kEntries));
  EXPECT_EQ(setup->sampled, 3u);  // period 1, but suppressed with the parent
  const SelfProfiler::Node* exec = Child(lane, *setup, Phase::kExecStream);
  ASSERT_NE(exec, nullptr);
  EXPECT_EQ(exec->count, static_cast<std::uint64_t>(kEntries));
  EXPECT_EQ(exec->sampled, 3u);  // nested sampled phase rides the parent
}

TEST(SelfProfTest, ReenteringInnermostPhaseCollapsesToCountBump) {
  SelfProfiler lane;
  {
    InstallLane install(&lane);
    ScopedPhase outer(Phase::kExecStream);
    ScopedPhase inner(Phase::kExecStream);  // Stream::Pump re-entry
    ScopedPhase innermost(Phase::kExecStream);
  }
  const SelfProfiler::Node* exec = Child(lane, lane.root(), Phase::kExecStream);
  ASSERT_NE(exec, nullptr);
  EXPECT_EQ(exec->count, 3u);
  EXPECT_EQ(Child(lane, *exec, Phase::kExecStream), nullptr);
  EXPECT_EQ(lane.nodes().size(), 2u);  // root + one exec node
}

TEST(SelfProfTest, InstallLaneShadowsAndRestores) {
  SelfProfiler outer_lane;
  SelfProfiler inner_lane;
  {
    InstallLane outer(&outer_lane);
    { DP_SELFPROF_SCOPE(kWarmup); }
    {
      InstallLane inner(&inner_lane);  // jobs=1: sweep task on a lane-holding
      { DP_SELFPROF_SCOPE(kSetup); }   // thread shadows, not clobbers
      EXPECT_EQ(selfprof::CurrentLane(), &inner_lane);
    }
    EXPECT_EQ(selfprof::CurrentLane(), &outer_lane);
    { DP_SELFPROF_SCOPE(kWarmup); }
  }
  const SelfProfiler::Node* warmup =
      Child(outer_lane, outer_lane.root(), Phase::kWarmup);
  ASSERT_NE(warmup, nullptr);
  EXPECT_EQ(warmup->count, 2u);
  EXPECT_EQ(Child(outer_lane, outer_lane.root(), Phase::kSetup), nullptr);
  const SelfProfiler::Node* setup =
      Child(inner_lane, inner_lane.root(), Phase::kSetup);
  ASSERT_NE(setup, nullptr);
  EXPECT_EQ(setup->count, 1u);
}

TEST(SelfProfTest, CountersAttributeToInstalledLaneOnly) {
  selfprof::AddCount(Counter::kValidatorChecks, 5);  // no lane: dropped
  SelfProfiler lane;
  {
    InstallLane install(&lane);
    selfprof::AddCount(Counter::kValidatorChecks, 2);
    selfprof::AddCount(Counter::kEventsDispatched, 7);
  }
  EXPECT_EQ(lane.counter(Counter::kValidatorChecks), 2u);
  EXPECT_EQ(lane.counter(Counter::kEventsDispatched), 7u);
  EXPECT_EQ(lane.counter(Counter::kHeartbeats), 0u);
}

// ------------------------------------------------------------------ report

// The deterministic projection of a rendered report.
std::string Projection(const std::string& report_json) {
  const JsonParseResult parsed = ParseJson(report_json);
  EXPECT_TRUE(parsed.ok) << parsed.error;
  return selfprof::DeterministicProjection(parsed.value);
}

// A small two-lane report exercising nesting, sampling, and counters.
std::string TwoLaneReport(SelfProfiler* a, SelfProfiler* b,
                          bool deterministic = false) {
  {
    InstallLane install(a);
    DP_SELFPROF_SCOPE(kSimDispatch);
    for (int i = 0; i < 70; ++i) {
      ScopedPhase exec(Phase::kExecStream);
    }
    selfprof::AddCount(Counter::kEventsDispatched, 70);
    selfprof::AddCount(Counter::kHeartbeats, 1);
  }
  {
    InstallLane install(b);
    DP_SELFPROF_SCOPE(kWorkloadGen);
  }
  const std::vector<LaneView> lanes = {{"a", a}, {"b", b}};
  const std::string json = selfprof::ReportJson("test", lanes);
  return deterministic ? Projection(json) : json;
}

TEST(SelfProfReportTest, ReportPassesLintAndCarriesBothSurfaces) {
  SelfProfiler a;
  SelfProfiler b;
  const std::string json = TwoLaneReport(&a, &b);
  const check::TraceLintResult lint = check::LintSelfprofReport(json);
  EXPECT_TRUE(lint.ok()) << (lint.errors.empty() ? "" : lint.errors[0]);
  EXPECT_EQ(lint.num_tracks, 2u);

  const JsonParseResult parsed = ParseJson(json);
  ASSERT_TRUE(parsed.ok);
  const JsonValue* report = parsed.value.Find("selfprof_report");
  ASSERT_NE(report, nullptr);
  EXPECT_NE(report->Find("host"), nullptr);
  // Aggregate carries the wall-dependent heartbeat counter in the full
  // report.
  const JsonValue* aggregate = report->Find("aggregate");
  ASSERT_NE(aggregate, nullptr);
  const JsonValue* counters = aggregate->Find("counters");
  ASSERT_NE(counters, nullptr);
  const JsonValue* heartbeats = counters->Find("heartbeats");
  ASSERT_NE(heartbeats, nullptr);
  EXPECT_EQ(heartbeats->AsNumber(), 1.0);
}

TEST(SelfProfReportTest, DeterministicProjectionStripsWallDependentFields) {
  SelfProfiler a;
  SelfProfiler b;
  const std::string json = TwoLaneReport(&a, &b, /*deterministic=*/true);
  EXPECT_EQ(json.find("_ns"), std::string::npos);
  EXPECT_EQ(json.find("host"), std::string::npos);
  EXPECT_EQ(json.find("heartbeats"), std::string::npos);
  EXPECT_NE(json.find("events_dispatched"), std::string::npos);
  // The projection is itself a valid report for the lint.
  const check::TraceLintResult lint = check::LintSelfprofReport(json);
  EXPECT_TRUE(lint.ok()) << (lint.errors.empty() ? "" : lint.errors[0]);
}

TEST(SelfProfReportDeathTest, ReportingAnOpenLaneDies) {
  SelfProfiler lane;
  lane.Enter(Phase::kTotal);  // opened, never closed
  const std::vector<LaneView> lanes = {{"open", &lane}};
  EXPECT_DEATH(selfprof::ReportJson("test", lanes), "closed");
}

// -------------------------------------------------------------------- lint

TEST(SelfProfLintTest, RejectsMalformedReports) {
  SelfProfiler a;
  SelfProfiler b;
  const std::string good = TwoLaneReport(&a, &b);
  ASSERT_TRUE(check::LintSelfprofReport(good).ok());

  const auto expect_errors = [](const std::string& json) {
    const check::TraceLintResult lint = check::LintSelfprofReport(json);
    EXPECT_FALSE(lint.ok());
    return lint;
  };
  expect_errors("not json at all");
  expect_errors("{\"wrong_top\":{}}");
  // Duplicate lane names.
  std::string dup = good;
  const auto b_pos = dup.find("\"name\":\"b\"");
  ASSERT_NE(b_pos, std::string::npos);
  dup.replace(b_pos, 10, "\"name\":\"a\"");
  expect_errors(dup);
  // Root phase must be "total".
  std::string bad_root = good;
  const auto total_pos = bad_root.find("\"phase\":\"total\"");
  ASSERT_NE(total_pos, std::string::npos);
  bad_root.replace(total_pos, 15, "\"phase\":\"wrong\"");
  expect_errors(bad_root);
  // sampled > count.
  std::string oversampled = good;
  const auto sampled_pos = oversampled.find("\"count\":70,\"sampled\":2");
  ASSERT_NE(sampled_pos, std::string::npos);
  oversampled.replace(sampled_pos, 22, "\"count\":70,\"sampled\":71");
  expect_errors(oversampled);
}

// --------------------------------------------------------------- heartbeat

TEST(HeartbeatTest, DisabledByDefaultPeriodEmitsNothing) {
  Simulator sim;
  sim.set_progress_period_for_testing(0);
  std::function<void()> tick;
  std::uint64_t fired = 0;
  tick = [&] {
    if (++fired < 5000) {
      sim.ScheduleAfter(1, tick);
    }
  };
  sim.ScheduleAfter(1, tick);
  testing::internal::CaptureStderr();
  sim.Run();
  EXPECT_EQ(testing::internal::GetCapturedStderr(), "");
  EXPECT_EQ(sim.events_dispatched(), 5000u);
}

TEST(HeartbeatTest, TinyPeriodEmitsProgressLinesWithoutSteeringTheSim) {
  const auto run = [](Nanos period, std::string* err) {
    Simulator sim;
    sim.set_progress_period_for_testing(period);
    std::uint64_t retired = 41;
    sim.AddProgressCounter(&retired);
    std::function<void()> tick;
    std::uint64_t fired = 0;
    tick = [&] {
      ++retired;
      if (++fired < 5000) {
        sim.ScheduleAfter(1, tick);
      }
    };
    sim.ScheduleAfter(1, tick);
    testing::internal::CaptureStderr();
    const Nanos end = sim.Run();
    *err = testing::internal::GetCapturedStderr();
    sim.RemoveProgressCounter(&retired);
    EXPECT_EQ(sim.events_dispatched(), 5000u);
    return end;
  };
  std::string with_heartbeat;
  std::string without_heartbeat;
  const Nanos end_on = run(/*period=*/1, &with_heartbeat);
  const Nanos end_off = run(/*period=*/0, &without_heartbeat);
  // 1 ns period: the cadence check (every 1024 dispatches) emits from its
  // second visit on.
  EXPECT_NE(with_heartbeat.find("deepplan-progress:"), std::string::npos);
  EXPECT_NE(with_heartbeat.find("retired="), std::string::npos);
  EXPECT_EQ(without_heartbeat, "");
  EXPECT_EQ(end_on, end_off);  // observation only, no steering
}

TEST(HeartbeatTest, HeartbeatsCountIntoTheInstalledLane) {
  SelfProfiler lane;
  {
    InstallLane install(&lane);
    Simulator sim;
    sim.set_progress_period_for_testing(1);
    std::function<void()> tick;
    std::uint64_t fired = 0;
    tick = [&] {
      if (++fired < 5000) {
        sim.ScheduleAfter(1, tick);
      }
    };
    sim.ScheduleAfter(1, tick);
    testing::internal::CaptureStderr();
    sim.Run();
    testing::internal::GetCapturedStderr();
    EXPECT_EQ(lane.counter(Counter::kEventsDispatched), 5000u);
  }
  EXPECT_GT(lane.counter(Counter::kHeartbeats), 0u);
}

// ------------------------------------------------- cross-thread stitching

// The deterministic projection of a profiled sweep must be byte-identical
// for any DEEPPLAN_JOBS: lanes travel in result slots and merge in task
// order, and phase counts are a pure function of the simulated run.
TEST(SelfProfSweepTest, DeterministicReportIdenticalAcrossJobs) {
  const auto run = [](int jobs) {
    const SweepRunner runner(jobs);
    const std::vector<bench::ScalingPointResult> results =
        runner.Map(3, [](int i) {
          bench::ScalingPointOptions options;
          options.num_requests = 2000 + 1000 * static_cast<std::size_t>(i);
          options.selfprof = true;
          return bench::RunScalingPoint(options);
        });
    std::vector<LaneView> lanes;
    for (const bench::ScalingPointResult& r : results) {
      lanes.push_back(
          {std::to_string(r.requests) + " requests", &r.selfprof});
    }
    return Projection(selfprof::ReportJson("sweep", lanes));
  };
  const std::string jobs1 = run(1);
  const std::string jobs2 = run(2);
  const std::string jobs8 = run(8);
  EXPECT_EQ(jobs1, jobs2);
  EXPECT_EQ(jobs1, jobs8);
  EXPECT_TRUE(check::LintSelfprofReport(jobs1).ok());
  // The lanes did record real work: dispatch shows up with nested phases.
  EXPECT_NE(jobs1.find("sim.dispatch"), std::string::npos);
  EXPECT_NE(jobs1.find("exec.stream"), std::string::npos);
}

TEST(SelfProfSweepTest, EventsDispatchedCounterMatchesSimulator) {
  bench::ScalingPointOptions options;
  options.num_requests = 2000;
  options.selfprof = true;
  const bench::ScalingPointResult r = bench::RunScalingPoint(options);
  ASSERT_TRUE(r.selfprof.closed());
  // Every event the point's simulator dispatched was counted into the lane.
  EXPECT_GT(r.selfprof.counter(Counter::kEventsDispatched), 0u);
  EXPECT_LE(r.selfprof.counter(Counter::kEventsDispatched),
            r.events_scheduled);
}

// ----------------------------------------------------------- bench history

// Writes a minimal BENCH document; returns its path.
std::string WriteBench(const std::string& dir, const std::string& bench,
                       double wall_ms, int points = 1) {
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/BENCH_" + bench + ".json";
  std::ofstream out(path);
  out << "{\"bench\":\"" << bench << "\",\"jobs\":4,\"config\":{},\"points\":[";
  for (int i = 0; i < points; ++i) {
    out << (i != 0 ? "," : "") << "{\"i\":" << i << "}";
  }
  out << "],\"wall_clock_ms\":" << wall_ms << "}\n";
  return path;
}

TEST(BenchHistoryTest, ScansSortedAndSkipsMalformed) {
  const std::string dir = testing::TempDir() + "/selfprof_bh_scan";
  WriteBench(dir, "zeta", 10.0);
  WriteBench(dir, "alpha", 20.0, /*points=*/3);
  {
    std::ofstream bad(dir + "/BENCH_broken.json");
    bad << "{\"bench\":\"broken\"}\n";  // missing points/wall_clock_ms
  }
  {
    std::ofstream other(dir + "/notes.txt");
    other << "not a bench\n";  // ignored: name does not match BENCH_*.json
  }
  std::vector<std::string> errors;
  const std::vector<check::BenchRun> runs =
      check::ScanBenchDir(dir, &errors);
  ASSERT_EQ(runs.size(), 2u);
  EXPECT_EQ(runs[0].bench, "alpha");  // sorted by filename
  EXPECT_EQ(runs[0].num_points, 3u);
  EXPECT_EQ(runs[0].jobs, 4);
  EXPECT_EQ(runs[1].bench, "zeta");
  EXPECT_EQ(runs[1].wall_clock_ms, 10.0);
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_NE(errors[0].find("BENCH_broken.json"), std::string::npos);
}

TEST(BenchHistoryTest, CompareTakesBestOfEachSideAndGates) {
  std::vector<check::BenchRun> baseline(3);
  baseline[0].bench = "scaling";
  baseline[0].wall_clock_ms = 110.0;
  baseline[1].bench = "scaling";
  baseline[1].wall_clock_ms = 100.0;  // best
  baseline[2].bench = "fig13";
  baseline[2].wall_clock_ms = 50.0;
  std::vector<check::BenchRun> candidate(3);
  candidate[0].bench = "scaling";
  candidate[0].wall_clock_ms = 109.0;
  candidate[1].bench = "scaling";
  candidate[1].wall_clock_ms = 102.0;  // best: 2% slower than baseline best
  candidate[2].bench = "fig15";
  candidate[2].wall_clock_ms = 75.0;

  const std::vector<check::BenchComparison> gated =
      check::CompareBenchRuns(baseline, candidate, /*max_slowdown=*/1.03);
  ASSERT_EQ(gated.size(), 3u);  // alphabetical: fig13, fig15, scaling
  EXPECT_EQ(gated[0].bench, "fig13");
  EXPECT_EQ(gated[0].candidate_best_ms, -1.0);  // one-sided: never regresses
  EXPECT_FALSE(gated[0].regressed);
  EXPECT_EQ(gated[1].bench, "fig15");
  EXPECT_EQ(gated[1].baseline_best_ms, -1.0);
  EXPECT_FALSE(gated[1].regressed);
  EXPECT_EQ(gated[2].bench, "scaling");
  EXPECT_EQ(gated[2].baseline_best_ms, 100.0);
  EXPECT_EQ(gated[2].candidate_best_ms, 102.0);
  EXPECT_NEAR(gated[2].slowdown, 1.02, 1e-12);
  EXPECT_FALSE(gated[2].regressed);  // 2% < 3%

  const std::vector<check::BenchComparison> tight =
      check::CompareBenchRuns(baseline, candidate, /*max_slowdown=*/1.01);
  EXPECT_TRUE(tight[2].regressed);  // 2% > 1%

  // max_slowdown <= 0: report-only, nothing regresses.
  const std::vector<check::BenchComparison> report =
      check::CompareBenchRuns(baseline, candidate, /*max_slowdown=*/0.0);
  EXPECT_NEAR(report[2].slowdown, 1.02, 1e-12);
  EXPECT_FALSE(report[2].regressed);
}

}  // namespace
}  // namespace deepplan
