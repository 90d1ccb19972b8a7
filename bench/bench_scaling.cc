// Sim-core scaling curve: simulated requests/second versus trace size for
// the million-request core (DESIGN.md §12). Each point replays a count-exact
// synthetic BERT-Base workload (44k / 200k / 1M requests by default) on its
// own server+simulator and reports serving metrics plus event-queue
// introspection; points fan out over DEEPPLAN_JOBS threads and aggregate in
// point order, so BENCH_scaling.json is byte-identical for any thread count
// (wall-clock fields excepted — tools/bench_diff ignores "wall_clock_ms" at
// any depth, which is how the checked-in bench/golden baseline gates the
// deterministic surface while throughput varies by host).
//
// The headline column is simulated requests per wall-second: the old
// heap-backed queue and per-run allocation churn degraded superlinearly with
// trace length (id-indexed bookkeeping never shrank), so this curve is where
// the event queue + arena work shows up — and the 1M point completing in
// bounded memory is itself part of the claim (tests/scaling_test.cc).
#include <iostream>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "bench/scaling_common.h"

int main(int argc, char** argv) {
  using namespace deepplan;
  Flags flags;
  flags.DefinePositiveInt("max_requests", 1000000,
                  "drop curve points larger than this (CI legs trim the 1M "
                  "point; the golden gate only sees the default full curve)");
  flags.DefinePositiveDouble("rate", 120.0, "offered load (requests/second)");
  flags.DefinePositiveInt("instances", 135, "BERT-Base instances on the 4-GPU server");
  flags.DefineString(
      "journal_out", "",
      "stream a binary causal journal per point to <journal_out>.<requests> "
      "(bounded-memory recording; adds a \"journal\" block to each point)");
  bench::DefineOutputFlag(&flags, bench::kSelfprofOut);
  if (!flags.Parse(argc, argv)) {
    return 1;
  }
  const auto max_requests =
      static_cast<std::size_t>(flags.GetInt("max_requests"));
  const double rate = flags.GetDouble("rate");
  const int instances = static_cast<int>(flags.GetInt("instances"));
  const std::string journal_out = flags.GetString("journal_out");
  const std::string selfprof_out = flags.GetString(bench::kSelfprofOut.name);

  std::vector<std::size_t> sizes;
  for (const std::size_t n : {std::size_t{44000}, std::size_t{200000},
                              std::size_t{1000000}}) {
    if (n <= max_requests) {
      sizes.push_back(n);
    }
  }

  const SweepRunner runner;
  bench::BenchReport report("scaling", runner.jobs());
  report.config()
      .Set("model", "bert_base")
      .Set("strategy", "DeepPlan (PT+DHA)")
      .Set("rate_per_sec", rate)
      .Set("instances", instances)
      .Set("zipf_exponent", 0.9)
      .Set("slo_ms", 100.0)
      .Set("seed", std::int64_t{42});

  const std::vector<bench::ScalingPointResult> results =
      runner.Map(static_cast<int>(sizes.size()), [&](int i) {
        bench::ScalingPointOptions options;
        options.num_requests = sizes[static_cast<std::size_t>(i)];
        options.rate_per_sec = rate;
        options.num_instances = instances;
        if (!journal_out.empty()) {
          options.journal_out =
              journal_out + "." + std::to_string(options.num_requests);
        }
        options.selfprof = !selfprof_out.empty();
        return bench::RunScalingPoint(options);
      });

  // The main thread gets its own lane so report rendering shows up in the
  // selfprof output alongside the per-point lanes.
  selfprof::SelfProfiler main_lane;
  {
    selfprof::InstallLane profile(!selfprof_out.empty() ? &main_lane : nullptr);
    std::cout << "Sim-core scaling: BERT-Base serving, " << rate
              << " rps synthetic zipf(0.9) trace, 4x V100, " << instances
              << " instances\n\n";
    Table table({"requests", "sim time (s)", "cold", "goodput", "p99 (ms)",
                 "events", "event slots"});
    for (const bench::ScalingPointResult& r : results) {
      table.AddRow({std::to_string(r.requests), Table::Num(r.sim_seconds, 0),
                    std::to_string(r.cold_starts), Table::Pct(r.goodput),
                    Table::Num(r.p99_ms, 1), std::to_string(r.events_scheduled),
                    std::to_string(r.event_slot_peak)});
      JsonObject& point = report.AddPoint();
      bench::FillScalingPoint(point, r);
    }
    table.Print(std::cout);

    // Throughput is wall-dependent: stderr only, so stdout and the JSON's
    // deterministic surface stay byte-identical across hosts and thread
    // counts.
    for (const bench::ScalingPointResult& r : results) {
      std::cerr << r.requests << " requests: " << r.wall_ms << " ms wall, "
                << static_cast<std::uint64_t>(
                       static_cast<double>(r.requests) / (r.wall_ms / 1000.0))
                << " simulated requests/sec\n";
    }
    report.Write(&std::cerr);
  }

  if (!selfprof_out.empty()) {
    // Lanes in point order (the sweep aggregates results in task-index
    // order), then the main thread's render lane.
    std::vector<selfprof::LaneView> lanes;
    for (std::size_t i = 0; i < results.size(); ++i) {
      lanes.push_back({std::to_string(results[i].requests) + " requests",
                       &results[i].selfprof});
    }
    lanes.push_back({"main", &main_lane});
    if (!bench::WriteSelfprof("scaling", lanes, selfprof_out)) {
      return 1;
    }
  }
  return 0;
}
