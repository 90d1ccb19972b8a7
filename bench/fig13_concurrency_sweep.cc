// Figure 13: serving BERT-Base on 4x V100 at 100 requests/s (Poisson) while
// increasing the number of model instances (concurrency) beyond GPU memory:
// 99% latency (top), goodput at SLO 100 ms (middle), cold-start rate
// (bottom), for PipeSwitch, DeepPlan (DHA) and DeepPlan (PT+DHA).
//
// Paper shape: PipeSwitch p99 blows past the SLO at ~120 instances; DHA is
// stable to ~160; PT+DHA serves ~180. Capacity: 100 resident instances for
// PipeSwitch, 124 for DeepPlan.
//
// Every (concurrency, strategy) point replays its own server, so the sweep
// fans out over DEEPPLAN_JOBS threads; tables aggregate in point order and
// are byte-identical for any thread count. With --profile_out=<path>
// (default: $DEEPPLAN_PROFILE) the three loose-SLO points at concurrency 140
// — the knee of the figure — record causal journals, one process per point
// named "<strategy> c140"; the stitched journal is written to <path> in the
// binary DPJL format and the critical-path attribution report prints after
// the tables. Their Chrome trace is `journal_convert --to-chrome <path>
// <trace.json>`. With --selfprof_out=<path> (default: $DEEPPLAN_SELFPROF) every
// point carries a host self-profiling lane (src/obs/selfprof.h) and the
// per-point wall-clock attribution report lands at <path> (inspect with
// tools/selfprof_report).
#include <iostream>
#include <utility>

#include "bench/bench_util.h"

namespace {

using namespace deepplan;

struct Point {
  double p99_ms = 0.0;
  double goodput = 0.0;
  double goodput_tight = 0.0;  // against a 50 ms SLO
  double cold_rate = 0.0;
  int capacity = 0;
  CausalGraph causal{false};
  // Host wall-clock attribution for this point; merged into the
  // --selfprof_out report in spec order (never feeds the BENCH point).
  selfprof::SelfProfiler selfprof;
};

Point RunPoint(Strategy strategy, int concurrency, int requests, double rate,
               std::uint64_t seed, bool profiling, bool profiling_host) {
  Point p;
  {
    // Scope: the lane's root "total" closes when this block exits, before
    // the point is returned (reports require closed lanes).
    selfprof::InstallLane profile(profiling_host ? &p.selfprof : nullptr);
    const Topology topology = Topology::P3_8xlarge();
    const PerfModel perf(topology.gpu(), topology.pcie());
    ServerOptions options;
    options.strategy = strategy;
    options.slo = Millis(100);
    Server server(topology, perf, options);
    const int type = server.RegisterModelType(ModelZoo::BertBase());
    server.AddInstances(type, concurrency);

    if (profiling) {
      p.causal = CausalGraph(/*enabled=*/true);
      server.set_causal(&p.causal, p.causal.RegisterProcess(
                                       std::string(StrategyName(strategy)) +
                                       " c" + std::to_string(concurrency)));
    }

    PoissonOptions w;
    w.rate_per_sec = rate;
    w.num_instances = concurrency;
    w.duration = Seconds(static_cast<double>(requests) / rate);
    w.seed = seed;
    const ServingMetrics m = server.Run(GeneratePoissonTrace(w));
    p.p99_ms = m.LatencyPercentileMs(99);
    p.goodput = m.Goodput(Millis(100));
    p.goodput_tight = m.Goodput(Millis(50));
    p.cold_rate = m.ColdStartRate();
    p.capacity = server.WarmCapacity();
  }
  return p;
}

struct PointSpec {
  int concurrency;
  Strategy strategy;
  bool tight;  // belongs to the tight-SLO table

  // Keep journals bounded: only the loose-SLO knee of the sweep records.
  bool Recorded() const { return !tight && concurrency == 140; }
};

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  flags.DefinePositiveInt("requests", 1000, "requests per concurrency point");
  flags.DefinePositiveDouble("rate", 100.0, "offered load (requests/second)");
  bench::DefineOutputFlag(&flags, bench::kProfileOut);
  bench::DefineOutputFlag(&flags, bench::kSelfprofOut);
  if (!flags.Parse(argc, argv)) {
    return 1;
  }
  const int requests = static_cast<int>(flags.GetInt("requests"));
  const double rate = flags.GetDouble("rate");
  const std::string profile_out = flags.GetString(bench::kProfileOut.name);
  const bool profiling = !profile_out.empty();
  const std::string selfprof_out = flags.GetString(bench::kSelfprofOut.name);

  // Enumerate every independent point up front, then sweep them in parallel.
  std::vector<PointSpec> specs;
  for (int concurrency = 20; concurrency <= 200; concurrency += 20) {
    for (const Strategy strategy :
         {Strategy::kPipeSwitch, Strategy::kDeepPlanDha, Strategy::kDeepPlanPtDha}) {
      specs.push_back({concurrency, strategy, /*tight=*/false});
    }
  }
  for (const int concurrency : {120, 140}) {
    for (const Strategy strategy :
         {Strategy::kPipeSwitch, Strategy::kDeepPlanPtDha}) {
      specs.push_back({concurrency, strategy, /*tight=*/true});
    }
  }

  const SweepRunner runner;
  bench::BenchReport report("fig13_concurrency_sweep", runner.jobs());
  report.config()
      .Set("model", "bert_base")
      .Set("requests", requests)
      .Set("rate_per_sec", rate)
      .Set("seed", std::int64_t{42})
      .Set("slo_ms", 100.0);

  std::vector<Point> points =
      runner.Map(static_cast<int>(specs.size()), [&](int i) {
        const PointSpec& s = specs[static_cast<std::size_t>(i)];
        return RunPoint(s.strategy, s.concurrency, requests, rate, 42,
                        profiling && s.Recorded(), !selfprof_out.empty());
      });

  std::cout << "Figure 13: BERT-Base serving, " << rate
            << " rps Poisson, SLO 100 ms, 4x V100 (" << requests
            << " requests per point)\n\n";
  Table table({"instances", "strategy", "p99 (ms)", "goodput", "cold-start rate",
               "resident"});
  Table tight({"instances", "strategy", "p99 (ms)", "goodput @50ms"});
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const PointSpec& s = specs[i];
    const Point& p = points[i];
    if (s.tight) {
      tight.AddRow({std::to_string(s.concurrency), StrategyName(s.strategy),
                    Table::Num(p.p99_ms, 1), Table::Pct(p.goodput_tight)});
    } else {
      table.AddRow({std::to_string(s.concurrency), StrategyName(s.strategy),
                    Table::Num(p.p99_ms, 1), Table::Pct(p.goodput),
                    Table::Pct(p.cold_rate), std::to_string(p.capacity)});
    }
    JsonObject& point = report.AddPoint();
    point.Set("instances", s.concurrency)
        .Set("strategy", StrategyName(s.strategy))
        .Set("tight_slo", s.tight)
        .Set("p99_ms", p.p99_ms)
        .Set("goodput", p.goodput)
        .Set("goodput_50ms", p.goodput_tight)
        .Set("cold_start_rate", p.cold_rate)
        .Set("resident", p.capacity);
  }
  table.Print(std::cout);
  std::cout << "\nPaper reference: PipeSwitch keeps 100 instances resident "
               "(DeepPlan 124); p99 knees at ~120 (PipeSwitch), ~160 (DHA), "
               "~180 (PT+DHA); PT+DHA goodput 1.84x PipeSwitch at 180.\n";

  // The paper's tight-SLO observation: "When having a relatively tight
  // target SLO such as 50ms, at concurrency 120, PipeSwitch starts violating
  // the SLO... DeepPlan (PT+DHA) shows that it can handle requests within
  // 35ms even at concurrency 140."
  std::cout << "\nTight SLO (50 ms):\n";
  tight.Print(std::cout);
  std::cout << "\nPaper reference: PipeSwitch p99 ~94 ms at 120; PT+DHA "
               "within ~35 ms even at 140.\n";
  if (profiling) {
    // Stitch the recorded points' graphs in spec order (deterministic for
    // any DEEPPLAN_JOBS) and print the critical-path attribution report.
    CausalGraph merged(/*enabled=*/true);
    for (std::size_t i = 0; i < specs.size(); ++i) {
      if (specs[i].Recorded()) {
        merged.Adopt(std::move(points[i].causal));
      }
    }
    std::cout << "\n";
    PrintProfileReport(BuildProfileReport(merged), std::cout);
    if (!bench::WriteJournal(merged, profile_out)) {
      return 1;
    }
  }
  report.Write(&std::cerr);
  if (!selfprof_out.empty()) {
    // Lanes in spec order (the sweep aggregates in task-index order).
    std::vector<selfprof::LaneView> lanes;
    for (std::size_t i = 0; i < specs.size(); ++i) {
      lanes.push_back({std::string(StrategyName(specs[i].strategy)) + " c" +
                           std::to_string(specs[i].concurrency) +
                           (specs[i].tight ? " tight" : ""),
                       &points[i].selfprof});
    }
    if (!bench::WriteSelfprof("fig13_concurrency_sweep", lanes,
                              selfprof_out)) {
      return 1;
    }
  }
  return 0;
}
