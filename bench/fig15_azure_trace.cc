// Figure 15: replaying a Microsoft-Azure-Functions-like trace (scaled to the
// 4-GPU server, 150 rps) against BERT-Base : RoBERTa-Base : GPT-2 instances
// at a 4:4:1 ratio; per-minute offered load, 99% latency, goodput (SLO
// 100 ms), and cold starts, for PipeSwitch, DeepPlan (DHA), and (PT+DHA).
//
// Paper shape: DeepPlan variants sustain 98-99% goodput where PipeSwitch dips
// to ~81-98%; DeepPlan p99 stays near/below 100 ms vs PipeSwitch >150 ms.
// (The paper replays 3 hours; the default here replays a scaled-down slice —
// raise --minutes to lengthen it.)
//
// The three strategies replay the same (immutable) trace on independent
// servers, so they fan out over DEEPPLAN_JOBS threads; output renders in
// strategy order and is byte-identical for any thread count. Each replay
// keeps only the figures it prints, not its per-request metrics, so the
// three strategies' columns are never held at once. With
// --profile_out=<path> (default: $DEEPPLAN_PROFILE) each replay records a
// causal journal, one process per strategy; the stitched journal is written
// to <path> in the binary DPJL format (src/obs/journal_stream.h) and the
// critical-path attribution report prints after the tables. Its Chrome trace
// is `journal_convert --to-chrome <path> <trace.json>`. With
// --whatif_out=<path> (default: $DEEPPLAN_WHATIF) the
// stitched journal is replayed under the default virtual-hardware
// experiments (src/obs/whatif) and the {"whatif_report":...} JSON lands at
// <path> — byte-identical to tools/whatif_report on the --profile_out
// journal; journaling turns on even without --profile_out. With
// --selfprof_out=<path> (default: $DEEPPLAN_SELFPROF) each replay carries a
// host self-profiling lane (src/obs/selfprof.h) and the per-strategy
// wall-clock attribution report lands at <path> (inspect with
// tools/selfprof_report).
#include <iostream>
#include <utility>

#include "bench/bench_util.h"
#include "src/util/logging.h"

namespace {

using namespace deepplan;

// What main prints of one strategy's replay.
struct Outcome {
  double p99_ms = 0.0;
  double goodput = 0.0;
  std::size_t cold_starts = 0;
  std::size_t evictions = 0;
  LatencyBreakdown breakdown;
  MinuteSeries series;
  CausalGraph causal{false};
  // Host wall-clock attribution for this strategy's replay; merged into the
  // --selfprof_out report in strategy order (never feeds the BENCH point).
  selfprof::SelfProfiler selfprof;
};

Outcome Replay(Strategy strategy, const Trace& trace, int instances,
               bool journaling, bool profiling_host) {
  Outcome out;
  {
    // Scope: the lane's root "total" closes when this block exits, before
    // the outcome is returned (reports require closed lanes).
    selfprof::InstallLane profile(profiling_host ? &out.selfprof : nullptr);
    const Topology topology = Topology::P3_8xlarge();
    const PerfModel perf(topology.gpu(), topology.pcie());
    ServerOptions options;
    options.strategy = strategy;
    options.slo = Millis(100);
    Server server(topology, perf, options);
    const int bert = server.RegisterModelType(ModelZoo::BertBase());
    const int roberta = server.RegisterModelType(ModelZoo::RobertaBase());
    const int gpt2 = server.RegisterModelType(ModelZoo::Gpt2());
    // 4:4:1 instance mix (Section 5.3.2).
    const int unit = instances / 9;
    server.AddInstances(bert, 4 * unit);
    server.AddInstances(roberta, 4 * unit);
    server.AddInstances(gpt2, instances - 8 * unit);
    if (journaling) {
      out.causal = CausalGraph(/*enabled=*/true);
      server.set_causal(&out.causal,
                        out.causal.RegisterProcess(StrategyName(strategy)));
    }
    const ServingMetrics metrics = server.Run(trace);
    out.p99_ms = metrics.LatencyPercentileMs(99);
    out.goodput = metrics.Goodput(Millis(100));
    out.cold_starts = metrics.ColdStartCount();
    out.evictions = metrics.EvictionCount();
    out.breakdown = metrics.Breakdown();
    out.series = metrics.PerMinute(Millis(100));
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  flags.DefinePositiveInt("minutes", 6, "trace length to replay (paper: 180)");
  // The paper stresses its server at 150 rps; this simulation's model mix has
  // a slightly heavier mean warm latency (GPT-2 at seq 1024), so 120 rps is
  // the equivalent stress point. Pass --rate=150 for the paper's raw number.
  flags.DefinePositiveDouble("rate", 120.0, "offered load (requests/second)");
  // 135 instances exceed the 4-GPU capacity (PipeSwitch holds ~93, DeepPlan
  // ~115 of this mix), so the replay exercises eviction and cold starts as in
  // the paper's over-committed deployment.
  flags.DefinePositiveInt("instances", 135, "total model instances (4:4:1 mix)");
  flags.DefineString("trace", "", "optional MAF-derived CSV to replay instead");
  bench::DefineOutputFlag(&flags, bench::kProfileOut);
  bench::DefineOutputFlag(&flags, bench::kWhatIfOut);
  bench::DefineOutputFlag(&flags, bench::kSelfprofOut);
  if (!flags.Parse(argc, argv)) {
    return 1;
  }
  const int instances = static_cast<int>(flags.GetInt("instances"));
  const std::string profile_out = flags.GetString(bench::kProfileOut.name);
  const bool profiling = !profile_out.empty();
  const std::string whatif_out = flags.GetString(bench::kWhatIfOut.name);
  const bool journaling = profiling || !whatif_out.empty();
  const std::string selfprof_out = flags.GetString(bench::kSelfprofOut.name);

  Trace trace;
  if (!flags.GetString("trace").empty()) {
    // Line-at-a-time ingest: MAF CSVs are large, and a malformed or
    // truncated file should fail with the offending line, not load short.
    std::string trace_error;
    auto loaded = Trace::LoadFrom(flags.GetString("trace"), instances, &trace_error);
    if (!loaded.has_value()) {
      std::cerr << "cannot load trace: " << trace_error << "\n";
      return 1;
    }
    trace = loaded->ScaledToRate(flags.GetDouble("rate"));
  } else {
    AzureTraceOptions w;
    w.num_instances = instances;
    w.duration = Seconds(60.0 * static_cast<double>(flags.GetInt("minutes")));
    w.target_rate_per_sec = flags.GetDouble("rate");
    trace = GenerateAzureTrace(w);
  }

  std::cout << "Figure 15: MAF-like trace replay (" << trace.size() << " requests, "
            << Table::Num(ToSeconds(trace.duration()) / 60.0, 1) << " min, mean "
            << Table::Num(trace.MeanRate(), 1) << " rps), "
            << "BERT:RoBERTa:GPT-2 = 4:4:1, SLO 100 ms\n\n";

  // Offered load per minute (top panel).
  {
    Table table({"minute", "offered load (req)"});
    const auto counts = trace.PerMinuteCounts();
    for (std::size_t minute = 0; minute < counts.size(); ++minute) {
      table.AddRow({std::to_string(minute), std::to_string(counts[minute])});
    }
    table.Print(std::cout);
    std::cout << "\n";
  }

  const std::vector<Strategy> strategies = {
      Strategy::kPipeSwitch, Strategy::kDeepPlanDha, Strategy::kDeepPlanPtDha};
  const SweepRunner runner;
  bench::BenchReport report("fig15_azure_trace", runner.jobs());
  report.config()
      .Set("minutes", static_cast<std::int64_t>(flags.GetInt("minutes")))
      .Set("rate_per_sec", flags.GetDouble("rate"))
      .Set("instances", instances)
      .Set("requests", static_cast<std::int64_t>(trace.size()))
      .Set("slo_ms", 100.0);

  std::vector<Outcome> outcomes =
      runner.Map(static_cast<int>(strategies.size()), [&](int i) {
        return Replay(strategies[static_cast<std::size_t>(i)], trace, instances,
                      journaling, !selfprof_out.empty());
      });

  for (std::size_t s = 0; s < strategies.size(); ++s) {
    const Strategy strategy = strategies[s];
    const Outcome& out = outcomes[s];
    std::cout << StrategyName(strategy) << ": overall p99 "
              << Table::Num(out.p99_ms, 1) << " ms, goodput "
              << Table::Pct(out.goodput) << ", cold-starts " << out.cold_starts
              << " (evictions " << out.evictions << ")\n";
    // Where the latency goes (mean / p99 per component; the components tile
    // each request exactly: queue + cold-start + exec == total).
    {
      const LatencyBreakdown& b = out.breakdown;
      Table breakdown({"component", "mean (ms)", "p99 (ms)"});
      breakdown.AddRow({"queue", Table::Num(b.mean_queue_ms, 2),
                        Table::Num(b.p99_queue_ms, 2)});
      breakdown.AddRow({"cold-start", Table::Num(b.mean_cold_ms, 2),
                        Table::Num(b.p99_cold_ms, 2)});
      breakdown.AddRow({"exec", Table::Num(b.mean_exec_ms, 2),
                        Table::Num(b.p99_exec_ms, 2)});
      breakdown.AddRow({"total", Table::Num(b.mean_total_ms, 2),
                        Table::Num(b.p99_total_ms, 2)});
      breakdown.Print(std::cout);
      std::cout << "\n";
    }
    Table table({"minute", "p99 (ms)", "goodput", "cold starts"});
    JsonArray minutes;
    for (std::size_t minute = 0; minute < out.series.requests.size(); ++minute) {
      table.AddRow({std::to_string(minute), Table::Num(out.series.p99_ms[minute], 1),
                    Table::Pct(out.series.goodput[minute]),
                    std::to_string(out.series.cold_starts[minute])});
      minutes.AddRaw(JsonObject()
                         .Set("minute", static_cast<std::int64_t>(minute))
                         .Set("p99_ms", out.series.p99_ms[minute])
                         .Set("goodput", out.series.goodput[minute])
                         .Set("cold_starts", static_cast<std::int64_t>(
                                                 out.series.cold_starts[minute]))
                         .Render());
    }
    table.Print(std::cout);
    std::cout << "\n";
    JsonObject& point = report.AddPoint();
    point.Set("strategy", StrategyName(strategy))
        .Set("p99_ms", out.p99_ms)
        .Set("goodput", out.goodput)
        .Set("cold_starts", static_cast<std::int64_t>(out.cold_starts))
        .SetRaw("minutes", minutes.Render());
  }
  std::cout << "Paper reference: DeepPlan variants hold 98-99% goodput; "
               "PipeSwitch drops to ~81% in loaded minutes.\n";
  if (journaling) {
    // Stitch the per-strategy graphs in strategy order (deterministic for
    // any DEEPPLAN_JOBS).
    CausalGraph merged(/*enabled=*/true);
    for (Outcome& out : outcomes) {
      merged.Adopt(std::move(out.causal));
    }
    if (profiling) {
      std::cout << "\n";
      PrintProfileReport(BuildProfileReport(merged), std::cout);
      if (!bench::WriteJournal(merged, profile_out)) {
        return 1;
      }
    }
    if (!whatif_out.empty()) {
      const WhatIfReport whatif =
          BuildWhatIfReport(merged, DefaultWhatIfExperiments());
      // Identity self-check: replay must reproduce the recorded latencies
      // before the perturbed predictions mean anything.
      DP_CHECK(whatif.baseline_matches_journal);
      std::cout << "\n";
      PrintWhatIfReport(whatif, std::cout);
      if (!bench::WriteWhatIf(whatif, whatif_out)) {
        return 1;
      }
    }
  }
  report.Write(&std::cerr);
  if (!selfprof_out.empty()) {
    // Lanes in strategy order (the sweep aggregates in task-index order).
    std::vector<selfprof::LaneView> lanes;
    for (std::size_t s = 0; s < strategies.size(); ++s) {
      lanes.push_back({StrategyName(strategies[s]), &outcomes[s].selfprof});
    }
    if (!bench::WriteSelfprof("fig15_azure_trace", lanes, selfprof_out)) {
      return 1;
    }
  }
  return 0;
}
