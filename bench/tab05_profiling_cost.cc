// Table 5: simulated wall-clock time spent profiling models (10 iterations):
// the DHA pass, the in-memory pass, and the layer-load pass.
//
// Paper shape: the DHA pass dominates; totals range seconds to ~a minute and
// grow with model size.
//
// A second section measures the cost of *our* profiler — the causal
// recorder behind --profile_out. Recording must be timing-neutral: the same
// cold start is run with attribution off and on, the BENCH point rendered
// from each must be byte-identical (DP_CHECK), and the only cost reported is
// the journal bookkeeping (node/edge counts, journal bytes) plus a
// wall-clock overhead estimate on stderr (the one non-deterministic number).
//
// Third and fourth sections apply the same discipline to the host-side
// observability added for --selfprof_out and DEEPPLAN_PROGRESS: a scaling
// point replayed with the self-profiler off and on must produce a
// byte-identical deterministic surface (DP_CHECK), and a dispatch-loop
// micro-bench with the heartbeat check off and armed must dispatch the same
// events; wall-clock deltas for both go to stderr.
#include <chrono>
#include <functional>
#include <iostream>
#include <string>

#include "bench/bench_util.h"
#include "bench/scaling_common.h"
#include "src/util/logging.h"

namespace {

using namespace deepplan;

// The deterministic simulated outcome of a cold start, rendered the way a
// BENCH point would be.
std::string PointJson(const InferenceResult& r) {
  return JsonObject()
      .Set("latency_ns", r.latency)
      .Set("exec_busy_ns", r.exec_busy)
      .Set("stall_ns", r.stall)
      .Render();
}

}  // namespace

int main() {
  using namespace deepplan::bench;
  const PerfModel perf(GpuSpec::V100(), PcieSpec::Gen3());
  ProfilerOptions opts;
  opts.iterations = 10;
  Profiler profiler(&perf, opts);

  std::cout << "Table 5: time spent profiling models (10 iterations)\n\n";
  Table table({"model", "DHA", "In-memory", "Layer load", "Total"});
  for (const char* name :
       {"resnet50", "bert_base", "roberta_large", "gpt2_medium"}) {
    const Model model = ModelZoo::ByName(name);
    const ProfilingCost cost = profiler.Cost(model);
    table.AddRow({PrettyModelName(name),
                  Table::Num(ToSeconds(cost.dha_pass), 2) + "s",
                  Table::Num(ToSeconds(cost.in_memory_pass), 2) + "s",
                  Table::Num(ToSeconds(cost.layer_load_pass), 2) + "s",
                  Table::Num(ToSeconds(cost.Total()), 2) + "s"});
  }
  table.Print(std::cout);
  std::cout << "\nPaper reference: ResNet-50 3.92s, BERT-Base 12.40s, "
               "RoBERTa-Large 75.87s, GPT-2 Medium 40.81s (DHA pass "
               "dominates).\n";

  // Causal-recorder overhead: attribution may not perturb the simulation.
  const Topology topology = Topology::P3_8xlarge();
  const PerfModel tperf(topology.gpu(), topology.pcie());
  BenchReport report("tab05_profiling_cost");
  std::cout << "\nCausal recorder overhead (one cold start, batch 1):\n";
  Table overhead({"model", "strategy", "latency", "nodes", "edges",
                  "journal bytes"});
  for (const char* name : {"bert_base", "gpt2"}) {
    const Model model = ModelZoo::ByName(name);
    const ModelProfile profile = ExactProfile(tperf, model);
    for (const Strategy strategy :
         {Strategy::kPipeSwitch, Strategy::kDeepPlanPtDha}) {
      const ColdMeasurement plain =
          RunColdWithProfile(topology, tperf, model, strategy, profile);
      CausalGraph graph(/*enabled=*/true);
      const int process = graph.RegisterProcess(StrategyName(strategy));
      const ColdMeasurement recorded = RunColdWithProfile(
          topology, tperf, model, strategy, profile, /*batch=*/1, &graph,
          process);
      // Byte-identical BENCH output with attribution on vs off — recording
      // observes the run, it never steers it.
      DP_CHECK(PointJson(plain.result) == PointJson(recorded.result));
      const std::string journal = graph.ToJson();
      const JournalTotals totals = ForEachGraphChunk(graph, [](JournalChunk&) {});
      overhead.AddRow({PrettyModelName(name), StrategyName(strategy),
                       FormatDuration(plain.result.latency),
                       std::to_string(totals.nodes), std::to_string(totals.edges),
                       std::to_string(journal.size())});
      JsonObject& point = report.AddPoint();
      point.Set("model", name)
          .Set("strategy", StrategyName(strategy))
          .SetRaw("result", PointJson(plain.result))
          .Set("causal_nodes", static_cast<std::int64_t>(totals.nodes))
          .Set("causal_edges", static_cast<std::int64_t>(totals.edges))
          .Set("journal_bytes", static_cast<std::int64_t>(journal.size()));
    }
  }
  overhead.Print(std::cout);
  std::cout << "\nRecording is timing-neutral: every simulated result above "
               "is byte-identical with attribution on or off (checked).\n";

  // Wall-clock overhead of recording (host-dependent -> stderr only).
  {
    const Model model = ModelZoo::BertBase();
    const ModelProfile profile = ExactProfile(tperf, model);
    constexpr int kReps = 20;
    // deepplan-lint: allow(raw-entropy, recorder-overhead measurement is wall-clock by definition; reported text only, no golden)
    const auto t0 = std::chrono::steady_clock::now();
    for (int r = 0; r < kReps; ++r) {
      RunColdWithProfile(topology, tperf, model, Strategy::kDeepPlanPtDha,
                         profile);
    }
    // deepplan-lint: allow(raw-entropy, recorder-overhead measurement is wall-clock by definition; reported text only, no golden)
    const auto t1 = std::chrono::steady_clock::now();
    for (int r = 0; r < kReps; ++r) {
      CausalGraph graph(/*enabled=*/true);
      const int process = graph.RegisterProcess("overhead");
      RunColdWithProfile(topology, tperf, model, Strategy::kDeepPlanPtDha,
                         profile, /*batch=*/1, &graph, process);
    }
    // deepplan-lint: allow(raw-entropy, recorder-overhead measurement is wall-clock by definition; reported text only, no golden)
    const auto t2 = std::chrono::steady_clock::now();
    const double off_ms =
        std::chrono::duration<double, std::milli>(t1 - t0).count();
    const double on_ms =
        std::chrono::duration<double, std::milli>(t2 - t1).count();
    std::cerr << "recorder wall-clock overhead: " << Table::Num(off_ms, 1)
              << " ms off vs " << Table::Num(on_ms, 1) << " ms on over "
              << kReps << " BERT-Base PT+DHA cold starts ("
              << Table::Pct(off_ms > 0.0 ? (on_ms - off_ms) / off_ms : 0.0)
              << " overhead)\n";
  }

  // Self-profiler overhead: host wall-clock attribution (--selfprof_out) may
  // not perturb the simulation either — same scaling point with the lane off
  // and on, byte-identical deterministic surface.
  {
    bench::ScalingPointOptions options;
    options.num_requests = 20000;
    const bench::ScalingPointResult plain = bench::RunScalingPoint(options);
    options.selfprof = true;
    const bench::ScalingPointResult profiled = bench::RunScalingPoint(options);
    DP_CHECK(bench::DeterministicPointsJson({plain}) ==
             bench::DeterministicPointsJson({profiled}));

    std::cout << "\nSelf-profiler cost (20k-request scaling point):\n";
    Table phases({"phase", "entries", "timed samples"});
    const auto& nodes = profiled.selfprof.nodes();
    for (std::size_t i = 1; i < nodes.size(); ++i) {  // skip the root "total"
      int depth = 0;  // indent by nesting depth below the root
      for (std::int32_t p = nodes[i].parent; p > 0;
           p = nodes[static_cast<std::size_t>(p)].parent) {
        ++depth;
      }
      phases.AddRow({std::string(static_cast<std::size_t>(depth) * 2, ' ') +
                         selfprof::PhaseName(nodes[i].phase),
                     std::to_string(nodes[i].count),
                     std::to_string(nodes[i].sampled)});
    }
    phases.Print(std::cout);
    std::cout << "\nSelf-profiling is timing-neutral: the point's "
                 "deterministic surface is byte-identical with the lane off "
                 "or on (checked); sampled phases pay one clock pair per "
                 << selfprof::kSampledPhasePeriod << " entries.\n";

    JsonObject& point = report.AddPoint();
    point.Set("section", "selfprof_overhead")
        .Set("requests", static_cast<std::int64_t>(options.num_requests))
        .Set("events_dispatched",
             static_cast<std::int64_t>(profiled.selfprof.counter(
                 selfprof::Counter::kEventsDispatched)))
        .Set("deterministic_surface_identical", true);

    // Wall-clock overhead of the lane (host-dependent -> stderr only).
    std::cerr << "selfprof wall-clock: " << Table::Num(plain.wall_ms, 1)
              << " ms off vs " << Table::Num(profiled.wall_ms, 1)
              << " ms on for the 20k point ("
              << Table::Pct(plain.wall_ms > 0.0
                                ? (profiled.wall_ms - plain.wall_ms) /
                                      plain.wall_ms
                                : 0.0)
              << " overhead, single run — run_all.sh gates best-of-N)\n";
  }

  // Heartbeat overhead: the DEEPPLAN_PROGRESS check rides the hot dispatch
  // loop, so measure it where it lives — a chain of empty events.
  {
    constexpr std::uint64_t kEvents = 1000000;
    const auto run_chain = [](Nanos period) {
      Simulator sim;
      sim.set_progress_period_for_testing(period);
      std::uint64_t fired = 0;
      std::function<void()> tick;
      tick = [&] {
        if (++fired < kEvents) {
          sim.ScheduleAfter(1, tick);
        }
      };
      sim.ScheduleAfter(1, tick);
      sim.Run();
      return sim.events_dispatched();
    };
    // deepplan-lint: allow(raw-entropy, heartbeat-overhead measurement is wall-clock by definition; reported text only, no golden)
    const auto t0 = std::chrono::steady_clock::now();
    const std::uint64_t off_dispatched = run_chain(0);
    // deepplan-lint: allow(raw-entropy, heartbeat-overhead measurement is wall-clock by definition; reported text only, no golden)
    const auto t1 = std::chrono::steady_clock::now();
    // Armed with an hour-long period: the cadence check runs every 1024
    // dispatches but never emits, isolating the check's cost.
    const std::uint64_t on_dispatched = run_chain(Seconds(3600));
    // deepplan-lint: allow(raw-entropy, heartbeat-overhead measurement is wall-clock by definition; reported text only, no golden)
    const auto t2 = std::chrono::steady_clock::now();
    DP_CHECK(off_dispatched == on_dispatched);  // observation only, no steering
    const double off_ms =
        std::chrono::duration<double, std::milli>(t1 - t0).count();
    const double on_ms =
        std::chrono::duration<double, std::milli>(t2 - t1).count();
    std::cerr << "heartbeat wall-clock: " << Table::Num(off_ms, 1)
              << " ms off vs " << Table::Num(on_ms, 1) << " ms armed over "
              << kEvents << " empty dispatches ("
              << Table::Pct(off_ms > 0.0 ? (on_ms - off_ms) / off_ms : 0.0)
              << " overhead)\n";
    JsonObject& point = report.AddPoint();
    point.Set("section", "heartbeat_overhead")
        .Set("events", static_cast<std::int64_t>(kEvents))
        .Set("dispatch_identical", true);
  }
  report.Write(&std::cerr);
  return 0;
}
