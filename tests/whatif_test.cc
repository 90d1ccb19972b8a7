// Tests for the what-if replay engine: experiment-spec parsing, bit-exact
// identity replay on engine- and server-recorded journals, closed-form
// scaling on hand-built journals, re-derived contention against the real
// fabric, prediction-vs-re-simulation validation (the fig16 acceptance bar),
// report determinism across sweep thread counts, and the whatif-report
// schema linter.
#include <gtest/gtest.h>

#include <cstddef>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/check/trace_lint.h"
#include "src/obs/causal_graph.h"
#include "src/obs/whatif/whatif.h"
#include "src/obs/whatif/whatif_report.h"
#include "src/sim/fabric.h"
#include "src/sim/simulator.h"
#include "tests/causal_node.h"

namespace deepplan {
namespace {

using check::LintWhatIfReport;
using check::TraceLintResult;

WhatIfExperiment Parse(const std::string& spec) {
  WhatIfExperiment exp;
  std::string error;
  EXPECT_TRUE(ParseWhatIfExperiment(spec, &exp, &error)) << spec << ": " << error;
  return exp;
}

// ------------------------------------------------ spec parsing

TEST(WhatIfParseTest, AcceptsSingleClauses) {
  const WhatIfExperiment pcie = Parse("pcie=2");
  EXPECT_DOUBLE_EQ(pcie.pcie_scale, 2.0);
  EXPECT_DOUBLE_EQ(pcie.nvlink_scale, 1.0);
  EXPECT_DOUBLE_EQ(pcie.exec_scale, 1.0);
  EXPECT_FALSE(pcie.zero_contention);
  EXPECT_FALSE(pcie.remove_evictions);
  EXPECT_EQ(pcie.name, "pcie=2");

  EXPECT_DOUBLE_EQ(Parse("nvlink=1.5").nvlink_scale, 1.5);
  EXPECT_DOUBLE_EQ(Parse("exec=4").exec_scale, 4.0);
  EXPECT_TRUE(Parse("nocontention").zero_contention);
  EXPECT_TRUE(Parse("noevict").remove_evictions);
  EXPECT_TRUE(Parse("baseline").IsIdentity());
  EXPECT_EQ(Parse("baseline").name, "baseline");
}

TEST(WhatIfParseTest, CanonicalizesClauseOrderAndDuplicates) {
  // Clauses in any order canonicalize to the fixed order; the last duplicate
  // wins.
  const WhatIfExperiment exp = Parse("noevict,exec=3,pcie=2,nocontention");
  EXPECT_EQ(exp.name, "pcie=2,exec=3,nocontention,noevict");
  EXPECT_DOUBLE_EQ(Parse("pcie=2,pcie=3").pcie_scale, 3.0);
  EXPECT_EQ(Parse("pcie=2,pcie=3").name, "pcie=3");
  EXPECT_DOUBLE_EQ(Parse("pcie=0.5").pcie_scale, 0.5);  // slowdowns allowed
}

TEST(WhatIfParseTest, RejectsMalformedSpecs) {
  WhatIfExperiment exp;
  std::string error;
  for (const char* bad : {"", "pcie=0", "pcie=-1", "pcie=abc", "pcie=2x",
                          "pcie=", "warp=2", "pcie=2,,noevict", "pcie=inf",
                          "pcie=nan", "nocontention=1", "pcie=1e-300",
                          "pcie=1e300", "exec=1e-300"}) {
    error.clear();
    EXPECT_FALSE(ParseWhatIfExperiment(bad, &exp, &error)) << bad;
    EXPECT_FALSE(error.empty()) << bad;
  }
}

TEST(WhatIfParseTest, DefaultSweepCoversEveryKnob) {
  const std::vector<WhatIfExperiment> defaults = DefaultWhatIfExperiments();
  ASSERT_GE(defaults.size(), 5u);
  bool pcie = false, nvlink = false, exec = false, contention = false,
       evict = false;
  for (const WhatIfExperiment& exp : defaults) {
    pcie |= exp.pcie_scale != 1.0;
    nvlink |= exp.nvlink_scale != 1.0;
    exec |= exp.exec_scale != 1.0;
    contention |= exp.zero_contention;
    evict |= exp.remove_evictions;
  }
  EXPECT_TRUE(pcie && nvlink && exec && contention && evict);
}

// ------------------------------------------------ closed-form hand journals

// One request, one PCIe transfer: 1 MB over a 1 GB/s lane (1 ms solo, no
// contention recorded), then a 100 ns exec.
CausalGraph SingleTransferGraph() {
  CausalGraph graph(/*enabled=*/true);
  const int process = graph.RegisterProcess("fixture");
  const int req = graph.BeginRequest(process, 0, /*arrival=*/0);
  graph.MarkCold(req);
  CpNode load = MakeNode(graph, CpKind::kPcie, "load", "pcie/gpu0", 0, 1'000'000,
                         /*bytes=*/1'000'000, /*solo=*/1'000'000);
  load.path = {{graph.Intern("pcie/gpu0"), 1e9}};
  const CpNodeId load_node = graph.AddNode(req, load, {graph.last_node(req)});
  graph.AddNode(req,
                MakeNode(graph, CpKind::kExec, "exec", "exec/gpu0", 1'000'000,
                         1'000'100),
                {load_node});
  graph.EndRequest(req, 1'000'100);
  return graph;
}

TEST(WhatIfReplayTest, PcieScaleHasClosedFormOnSingleTransfer) {
  const CausalGraph graph = SingleTransferGraph();
  WhatIfExperiment identity;
  identity.name = "baseline";
  EXPECT_EQ(ReplayWhatIf(graph, identity).latency[0], 1'000'100);
  // Twice the lane speed halves the transfer, leaves the exec alone.
  EXPECT_EQ(ReplayWhatIf(graph, Parse("pcie=2")).latency[0], 500'100);
  // Half the lane speed doubles it.
  EXPECT_EQ(ReplayWhatIf(graph, Parse("pcie=0.5")).latency[0], 2'000'100);
  // The other knobs must not touch a PCIe transfer.
  EXPECT_EQ(ReplayWhatIf(graph, Parse("nvlink=2")).latency[0], 1'000'100);
  EXPECT_EQ(ReplayWhatIf(graph, Parse("noevict")).latency[0], 1'000'100);
  // exec=2 halves only the 100 ns exec node.
  EXPECT_EQ(ReplayWhatIf(graph, Parse("exec=2")).latency[0], 1'000'050);
}

TEST(WhatIfReplayTest, NvlinkKnobTargetsOnlyNvlinkLinks) {
  CausalGraph graph(/*enabled=*/true);
  const int process = graph.RegisterProcess("fixture");
  const int req = graph.BeginRequest(process, 0, 0);
  CpNode migrate = MakeNode(graph, CpKind::kNvlink, "migrate", "nvlink/0-1", 0,
                            400'000, /*bytes=*/1'000'000, /*solo=*/400'000);
  migrate.path = {{graph.Intern("nvlink/0-1"), 2.5e9}};
  graph.AddNode(req, migrate, {graph.last_node(req)});
  graph.EndRequest(req, 400'000);

  EXPECT_EQ(ReplayWhatIf(graph, Parse("baseline")).latency[0], 400'000);
  EXPECT_EQ(ReplayWhatIf(graph, Parse("nvlink=2")).latency[0], 200'000);
  EXPECT_EQ(ReplayWhatIf(graph, Parse("pcie=2")).latency[0], 400'000);
}

TEST(WhatIfReplayTest, NoEvictDropsEvictionTimeFromTheChain) {
  CausalGraph graph(/*enabled=*/true);
  const int process = graph.RegisterProcess("fixture");
  const int req = graph.BeginRequest(process, 0, 0);
  const CpNodeId evict = graph.AddNode(
      req, MakeNode(graph, CpKind::kEvict, "evict", "gpu0", 0, 200'000),
      {graph.last_node(req)});
  CpNode load = MakeNode(graph, CpKind::kPcie, "load", "pcie/gpu0", 200'000,
                         1'200'000, /*bytes=*/1'000'000, /*solo=*/1'000'000);
  load.path = {{graph.Intern("pcie/gpu0"), 1e9}};
  graph.AddNode(req, load, {evict});
  graph.EndRequest(req, 1'200'000);

  EXPECT_EQ(ReplayWhatIf(graph, Parse("baseline")).latency[0], 1'200'000);
  EXPECT_EQ(ReplayWhatIf(graph, Parse("noevict")).latency[0], 1'000'000);
  EXPECT_EQ(ReplayWhatIf(graph, Parse("noevict,pcie=2")).latency[0], 500'000);
}

TEST(WhatIfReplayTest, DhaShareOfExecScalesWithPcie) {
  // A 1 ms exec node that spent 600 us streaming parameters over PCIe
  // (direct-host-access): pcie=2 halves only that slice, exec=2 halves the
  // whole node (the DHA slice's stream rides the faster SMs too).
  CausalGraph graph(/*enabled=*/true);
  const int process = graph.RegisterProcess("fixture");
  const int req = graph.BeginRequest(process, 0, 0);
  CpNode exec =
      MakeNode(graph, CpKind::kExec, "exec(DHA)", "exec/gpu0", 0, 1'000'000);
  exec.dha_pcie = 600'000;
  graph.AddNode(req, exec, {graph.last_node(req)});
  graph.EndRequest(req, 1'000'000);

  EXPECT_EQ(ReplayWhatIf(graph, Parse("baseline")).latency[0], 1'000'000);
  EXPECT_EQ(ReplayWhatIf(graph, Parse("pcie=2")).latency[0], 700'000);
  EXPECT_EQ(ReplayWhatIf(graph, Parse("exec=2")).latency[0], 500'000);
  EXPECT_EQ(ReplayWhatIf(graph, Parse("pcie=2,exec=2")).latency[0], 350'000);
  // The DHA slice charges the pcie knob's time account.
  const WhatIfReplay identity = ReplayWhatIf(graph, Parse("baseline"));
  EXPECT_EQ(identity.pcie_time[0], 600'000);
  EXPECT_EQ(identity.exec_time[0], 1'000'000);
}

// ------------------------------------------------ contention vs the fabric

// Two equal transfers share one link under max-min fair sharing; the journal
// records the *real* fabric's contended timings. The identity replay rebuilds
// the fabric from the recorded hops and must land both requests exactly;
// nocontention restores solo speed; pcie=2 halves the contended duration
// (same overlap, twice the capacity).
TEST(WhatIfReplayTest, RederivesContentionExactlyFromRebuiltFabric) {
  Simulator sim;
  Fabric fabric(&sim);
  const LinkId link = fabric.AddLink("uplink/sw0", 1e9);
  const std::int64_t bytes = 1'000'000;
  Nanos elapsed_a = -1, elapsed_b = -1;
  fabric.Start({link}, bytes, 0, [&elapsed_a](Nanos e) { elapsed_a = e; });
  fabric.Start({link}, bytes, 0, [&elapsed_b](Nanos e) { elapsed_b = e; });
  sim.Run();
  const Nanos solo = fabric.SoloDuration({link}, bytes, 0);
  ASSERT_EQ(solo, 1'000'000);
  ASSERT_GE(elapsed_a, 2 * solo - 2);  // genuinely contended

  CausalGraph graph(/*enabled=*/true);
  const int process = graph.RegisterProcess("contention");
  const std::vector<Nanos> elapsed = {elapsed_a, elapsed_b};
  for (int i = 0; i < 2; ++i) {
    const int req = graph.BeginRequest(process, i, 0);
    const Nanos end = elapsed[static_cast<std::size_t>(i)];
    CpNode load =
        MakeNode(graph, CpKind::kPcie, "load", "uplink/sw0", 0, end, bytes, solo);
    load.path = {{graph.Intern("uplink/sw0"), 1e9}};
    const CpNodeId load_node = graph.AddNode(req, load, {graph.last_node(req)});
    // Distinct terminal resources so the two requests replay concurrently
    // (same GPU would serialize them under the FIFO dispatch rule).
    graph.AddNode(req,
                  MakeNode(graph, CpKind::kExec, "exec",
                           i == 0 ? "exec/gpu0" : "exec/gpu1", end, end + 100),
                  {load_node});
    graph.EndRequest(req, end + 100);
  }

  const WhatIfReport report =
      BuildWhatIfReport(graph, {Parse("nocontention"), Parse("pcie=2")});
  EXPECT_TRUE(report.baseline_matches_journal);
  ASSERT_EQ(report.outcomes.size(), 2u);
  for (const WhatIfPerRequest& row : report.outcomes[0].per_request) {
    EXPECT_EQ(row.predicted_ns, solo + 100);  // contention-free
  }
  for (std::size_t i = 0; i < 2; ++i) {
    // Twice the capacity with the same overlap pattern: half the duration
    // (the fabric rounds completions up to whole nanoseconds, so allow 1 ns).
    const WhatIfPerRequest& row = report.outcomes[1].per_request[i];
    EXPECT_NEAR(static_cast<double>(row.predicted_ns - 100),
                static_cast<double>(elapsed[i]) / 2, 1.0);
  }
}

// ------------------------------------------------ engine-recorded journals

TEST(WhatIfReplayTest, IdentityReplayIsBitExactForEveryStrategy) {
  const Topology topology = Topology::P3_8xlarge();
  const PerfModel perf(topology.gpu(), topology.pcie());
  const Model model = ModelZoo::BertBase();
  for (const Strategy strategy :
       {Strategy::kBaseline, Strategy::kPipeSwitch, Strategy::kDeepPlanDha,
        Strategy::kDeepPlanPtDha}) {
    CausalGraph graph(/*enabled=*/true);
    const int process = graph.RegisterProcess(StrategyName(strategy));
    const bench::ColdMeasurement m = bench::RunColdWithProfile(
        topology, perf, model, strategy, bench::ExactProfile(perf, model),
        /*batch=*/1, &graph, process);
    WhatIfExperiment identity;
    identity.name = "baseline";
    const WhatIfReplay replay = ReplayWhatIf(graph, identity);
    ASSERT_EQ(replay.latency.size(), 1u) << StrategyName(strategy);
    EXPECT_EQ(replay.latency[0], m.result.latency) << StrategyName(strategy);
  }
}

// The fig16 acceptance bar, as a unit test: journal cold starts at PCIe 3.0
// bandwidth, predict PCIe 4.0 from the journal alone, re-simulate on the
// real PCIe 4.0 hardware, and demand every per-request prediction within 1%.
TEST(WhatIfReplayTest, PcieUpgradePredictionMatchesResimulationWithinOnePercent) {
  const Topology gen4 = Topology::A5000Box();
  const PerfModel perf4(gen4.gpu(), gen4.pcie());
  const Topology gen3 =
      gen4.WithPcieBandwidth(PcieSpec::Gen3().effective_bw_bytes_per_sec);
  const PerfModel perf3(gen3.gpu(), gen3.pcie());
  const double speedup = gen4.pcie().effective_bw_bytes_per_sec /
                         gen3.pcie().effective_bw_bytes_per_sec;

  CausalGraph graph(/*enabled=*/true);
  std::vector<Nanos> truth;
  for (const Model& model : {ModelZoo::ResNet50(), ModelZoo::BertBase()}) {
    // Same plan in both runs: the question is "same deployment, faster
    // links", so the plan stays derived from the PCIe 3.0 profile.
    const ModelProfile profile3 = bench::ExactProfile(perf3, model);
    for (const Strategy s :
         {Strategy::kBaseline, Strategy::kPipeSwitch, Strategy::kDeepPlanDha,
          Strategy::kDeepPlanPtDha}) {
      const int process =
          graph.RegisterProcess(model.name() + "/" + StrategyName(s));
      bench::RunColdWithProfile(gen3, perf3, model, s, profile3, 1, &graph,
                                process);
      truth.push_back(
          bench::RunColdWithProfile(gen4, perf4, model, s, profile3)
              .result.latency);
    }
  }

  WhatIfExperiment exp;
  exp.pcie_scale = speedup;
  exp.name = "pcie=" + Json::Num(speedup);
  const WhatIfReport report = BuildWhatIfReport(graph, {exp});
  EXPECT_TRUE(report.baseline_matches_journal);
  ASSERT_EQ(report.outcomes.size(), 1u);
  ASSERT_EQ(report.outcomes[0].per_request.size(), truth.size());
  for (std::size_t i = 0; i < truth.size(); ++i) {
    const WhatIfPerRequest& row = report.outcomes[0].per_request[i];
    const double err =
        std::abs(static_cast<double>(row.predicted_ns - truth[i])) /
        static_cast<double>(truth[i]);
    EXPECT_LE(err, 0.01) << "request " << i;
  }
}

// ------------------------------------------------ served workload journal

TEST(WhatIfReplayTest, ServedWorkloadIdentityReplayIsExact) {
  const Topology topology = Topology::P3_8xlarge();
  const PerfModel perf(topology.gpu(), topology.pcie());
  ServerOptions options;
  options.strategy = Strategy::kDeepPlanDha;  // exercises warm DHA + evictions
  Server server(topology, perf, options);
  const int type = server.RegisterModelType(ModelZoo::BertBase());
  server.AddInstances(type, 120);  // past capacity: forces cold starts

  CausalGraph graph(/*enabled=*/true);
  server.set_causal(&graph, graph.RegisterProcess("serve"));

  PoissonOptions w;
  w.rate_per_sec = 150.0;
  w.num_instances = 120;
  w.duration = Seconds(2.0);
  w.seed = 7;
  const ServingMetrics metrics = server.Run(GeneratePoissonTrace(w));
  ASSERT_GT(metrics.count(), 0u);

  const WhatIfReport report =
      BuildWhatIfReport(graph, DefaultWhatIfExperiments());
  // Queueing, evictions, warm DHA, shared links: the identity replay must
  // still land every request on its recorded completion.
  EXPECT_TRUE(report.baseline_matches_journal);
  EXPECT_EQ(static_cast<std::size_t>(report.requests), metrics.count());
  EXPECT_EQ(report.skipped_requests, 0);
  for (const WhatIfOutcome& outcome : report.outcomes) {
    EXPECT_EQ(outcome.per_request.size(), metrics.count()) << outcome.experiment.name;
  }
  ASSERT_FALSE(report.sensitivity.empty());
  const TraceLintResult lint = LintWhatIfReport(WhatIfReportJson(report));
  EXPECT_TRUE(lint.ok()) << (lint.errors.empty() ? "" : lint.errors[0]);
}

// ------------------------------------------------ determinism across jobs

TEST(WhatIfReplayTest, ReportJsonIsByteIdenticalAcrossSweepJobs) {
  const Topology topology = Topology::P3_8xlarge();
  const PerfModel perf(topology.gpu(), topology.pcie());
  const std::vector<Model> models = {ModelZoo::BertBase(), ModelZoo::Gpt2(),
                                     ModelZoo::ResNet50(),
                                     ModelZoo::RobertaBase()};
  auto run = [&](int jobs) {
    const SweepRunner runner(jobs);
    std::vector<CausalGraph> graphs =
        runner.Map(static_cast<int>(models.size()), [&](int i) {
          CausalGraph graph(/*enabled=*/true);
          const Model& model = models[static_cast<std::size_t>(i)];
          const int process = graph.RegisterProcess(model.name());
          bench::RunColdWithProfile(topology, perf, model,
                                    Strategy::kPipeSwitch,
                                    bench::ExactProfile(perf, model),
                                    /*batch=*/1, &graph, process);
          return graph;
        });
    CausalGraph merged(/*enabled=*/true);
    for (CausalGraph& graph : graphs) {
      merged.Adopt(std::move(graph));
    }
    return WhatIfReportJson(BuildWhatIfReport(merged, DefaultWhatIfExperiments()));
  };
  const std::string serial = run(1);
  const std::string parallel = run(8);
  EXPECT_EQ(serial, parallel);
}

// ------------------------------------------------ schema linter

TEST(WhatIfLintTest, AcceptsGeneratedReports) {
  const WhatIfReport report =
      BuildWhatIfReport(SingleTransferGraph(), DefaultWhatIfExperiments());
  EXPECT_TRUE(report.baseline_matches_journal);
  const std::string json = WhatIfReportJson(report);
  const TraceLintResult lint = LintWhatIfReport(json);
  EXPECT_TRUE(lint.ok()) << (lint.errors.empty() ? "" : lint.errors[0]);
}

TEST(WhatIfLintTest, RejectsNonReportDocuments) {
  EXPECT_FALSE(LintWhatIfReport("{}").ok());
  EXPECT_FALSE(LintWhatIfReport("[1,2,3]").ok());
  EXPECT_FALSE(LintWhatIfReport("garbage").ok());
  EXPECT_FALSE(LintWhatIfReport("{\"whatif_report\":[]}").ok());
}

TEST(WhatIfLintTest, FlagsBaselineMismatchAndBogusKnobs) {
  const std::string json = WhatIfReportJson(
      BuildWhatIfReport(SingleTransferGraph(), DefaultWhatIfExperiments()));
  // A report whose identity replay failed must never lint clean: its
  // predictions are untrustworthy by the engine's own admission.
  std::string mismatched = json;
  const std::size_t flag = mismatched.find("\"baseline_matches_journal\":true");
  ASSERT_NE(flag, std::string::npos);
  mismatched.replace(flag, 32, "\"baseline_matches_journal\":false");
  EXPECT_FALSE(LintWhatIfReport(mismatched).ok());

  // Sensitivity rows must name a real knob.
  std::string bogus = json;
  const std::size_t knob = bogus.find("\"knob\":\"pcie\"");
  ASSERT_NE(knob, std::string::npos);
  bogus.replace(knob, 13, "\"knob\":\"warp\"");
  EXPECT_FALSE(LintWhatIfReport(bogus).ok());
}

}  // namespace
}  // namespace deepplan
