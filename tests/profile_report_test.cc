// Tests for the causal critical-path profiler: hand-built DAGs with known
// critical paths, exact attribution sums, contention accounting against the
// real fabric, sweep journals byte-identical across thread counts, the
// profile-report schema linter, and the bench_diff regression gate.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "src/check/bench_diff.h"
#include "src/check/trace_lint.h"
#include "src/obs/causal_graph.h"
#include "src/obs/critical_path.h"
#include "src/obs/journal_stream.h"
#include "src/obs/profile_report.h"
#include "src/obs/utilization.h"
#include "src/sim/fabric.h"
#include "src/sim/simulator.h"
#include "tests/causal_node.h"

namespace deepplan {
namespace {

using check::BenchDiffOptions;
using check::BenchDiffResult;
using check::DiffBenchReports;
using check::LintProfileReport;
using check::TraceLintResult;

// The chunks of `graph`'s own journal, decoded.
std::vector<JournalChunk> Chunks(const CausalGraph& graph) {
  std::vector<JournalChunk> chunks;
  ForEachGraphChunk(graph, [&chunks](JournalChunk& chunk) {
    chunks.push_back(std::move(chunk));
  });
  return chunks;
}

// ------------------------------------------------ hand-built DAG fixtures

// One cold request whose critical path and per-component charges are known
// in closed form: arrival(1000) -> evict[1000,1200] -> pcie[1200,2200]
// (solo 800 => 200 contention) -> 100ns gap (sync) -> exec[2300,3000],
// plus one off-path exec[1500,1600] that must count toward exec_busy only.
CausalGraph KnownPathGraph() {
  CausalGraph graph(/*enabled=*/true);
  const int process = graph.RegisterProcess("fixture");
  const int req = graph.BeginRequest(process, /*instance=*/7, /*arrival=*/1000);
  graph.MarkCold(req);
  const CpNodeId arrival = graph.last_node(req);
  const CpNodeId evict = graph.AddNode(
      req, MakeNode(graph, CpKind::kEvict, "evict", "gpu0", 1000, 1200),
      {arrival});
  const CpNodeId pcie = graph.AddNode(
      req,
      MakeNode(graph, CpKind::kPcie, "load", "pcie/gpu0", 1200, 2200,
               /*bytes=*/1000, /*solo=*/800),
      {evict});
  const CpNodeId exec = graph.AddNode(
      req, MakeNode(graph, CpKind::kExec, "exec", "exec/gpu0", 2300, 3000),
      {pcie});
  graph.AddNode(
      req, MakeNode(graph, CpKind::kExec, "warmup", "exec/gpu0", 1500, 1600),
      {arrival});
  graph.EndRequest(req, 3000, exec);
  return graph;
}

TEST(CriticalPathTest, KnownPathAttributesEveryComponent) {
  const CausalGraph graph = KnownPathGraph();
  const ProfileSummary summary = BuildProfileReport(graph).summary;
  ASSERT_EQ(summary.requests.size(), 1u);
  const RequestProfile& p = summary.requests[0];
  EXPECT_EQ(p.latency, 2000);
  EXPECT_EQ(p.attribution.queue, 0);
  EXPECT_EQ(p.attribution.evict, 200);
  EXPECT_EQ(p.attribution.pcie, 800);
  EXPECT_EQ(p.attribution.pcie_contention, 200);
  EXPECT_EQ(p.attribution.nvlink, 0);
  EXPECT_EQ(p.attribution.exec, 700);
  EXPECT_EQ(p.attribution.sync, 100);
  EXPECT_EQ(p.attribution.Total(), p.latency);
  EXPECT_EQ(p.exec_busy, 700 + 100);  // the off-path node counts here only
  EXPECT_TRUE(p.cold);
  EXPECT_EQ(p.instance, 7);
  // The path runs arrival -> evict -> pcie -> exec; the off-path node (id 4)
  // must not appear.
  ASSERT_EQ(p.path.size(), 4u);
  const std::vector<JournalChunk> chunks = Chunks(graph);
  ASSERT_EQ(chunks.size(), 1u);
  const JournalChunk& chunk = chunks[0];
  EXPECT_EQ(p.path.front(), chunk.requests[0].request.arrival_node);
  EXPECT_EQ(p.path.back(), chunk.requests[0].request.terminal_node);
  for (const CpNodeId id : p.path) {
    EXPECT_NE(chunk.str(chunk.nodes[static_cast<std::size_t>(id)].label),
              "warmup");
  }
}

TEST(CriticalPathTest, GapAfterArrivalChargesQueue) {
  CausalGraph graph(/*enabled=*/true);
  const int process = graph.RegisterProcess("queued");
  const int req = graph.BeginRequest(process, 0, /*arrival=*/0);
  graph.AddNode(req,
                MakeNode(graph, CpKind::kExec, "warm", "exec/gpu1", 500, 1500),
                {graph.last_node(req)});
  graph.EndRequest(req, 1500);

  const ProfileSummary summary = BuildProfileReport(graph).summary;
  ASSERT_EQ(summary.requests.size(), 1u);
  const RequestProfile& p = summary.requests[0];
  EXPECT_EQ(p.attribution.queue, 500);
  EXPECT_EQ(p.attribution.exec, 1000);
  EXPECT_EQ(p.attribution.sync, 0);
  EXPECT_EQ(p.attribution.Total(), p.latency);
  EXPECT_FALSE(p.cold);
}

TEST(CriticalPathTest, RequestsWithoutCompletionAreSkipped) {
  CausalGraph graph(/*enabled=*/true);
  const int process = graph.RegisterProcess("open");
  graph.BeginRequest(process, 0, 0);  // never ended
  const ProfileSummary summary = BuildProfileReport(graph).summary;
  EXPECT_TRUE(summary.requests.empty());
  EXPECT_EQ(summary.total_latency, 0);
}

// ------------------------------------------------ contention vs the fabric

// Two equal transfers sharing one link: max-min fair sharing halves each
// transfer's bandwidth, so each sees actual ~= 2x solo and the excess must
// land in pcie_contention, exactly.
TEST(CriticalPathTest, SharedLinkContentionMatchesFabric) {
  Simulator sim;
  Fabric fabric(&sim);
  const LinkId link = fabric.AddLink("uplink", 1e9);  // 1 GB/s
  const std::int64_t bytes = 1'000'000;

  Nanos elapsed_a = -1;
  Nanos elapsed_b = -1;
  fabric.Start({link}, bytes, /*latency=*/0,
               [&elapsed_a](Nanos e) { elapsed_a = e; });
  fabric.Start({link}, bytes, /*latency=*/0,
               [&elapsed_b](Nanos e) { elapsed_b = e; });
  sim.Run();
  ASSERT_GT(elapsed_a, 0);
  ASSERT_GT(elapsed_b, 0);

  const Nanos solo = fabric.SoloDuration({link}, bytes, 0);
  EXPECT_EQ(solo, 1'000'000);       // 1 MB at 1 GB/s
  EXPECT_GE(elapsed_a, 2 * solo - 2);  // fair share: ~half bandwidth

  CausalGraph graph(/*enabled=*/true);
  const int process = graph.RegisterProcess("contention");
  const std::vector<Nanos> elapsed = {elapsed_a, elapsed_b};
  for (int i = 0; i < 2; ++i) {
    const int req = graph.BeginRequest(process, i, 0);
    graph.AddNode(req,
                  MakeNode(graph, CpKind::kPcie, "load", "pcie/uplink", 0,
                           elapsed[static_cast<std::size_t>(i)], bytes, solo),
                  {graph.last_node(req)});
    graph.EndRequest(req, elapsed[static_cast<std::size_t>(i)]);
  }

  const ProfileSummary summary = BuildProfileReport(graph).summary;
  ASSERT_EQ(summary.requests.size(), 2u);
  for (const RequestProfile& p : summary.requests) {
    EXPECT_EQ(p.attribution.pcie, solo);
    EXPECT_EQ(p.attribution.pcie_contention, p.latency - solo);
    EXPECT_GT(p.attribution.pcie_contention, 0);
    EXPECT_EQ(p.attribution.Total(), p.latency);
  }

  // The utilization module sees one merged interval on the shared lane with
  // the contended share pro-rated in.
  const UtilizationReport util = BuildProfileReport(graph).utilization;
  ASSERT_EQ(util.resources.size(), 1u);
  EXPECT_EQ(util.resources[0].resource, "pcie/uplink");
  EXPECT_GT(util.resources[0].contended, 0);
  EXPECT_LE(util.resources[0].contended, util.resources[0].busy);
}

// ------------------------------------------------ utilization merging

// Partial overlap, touching, and disjoint intervals on one resource, with a
// second resource and a second process active over the same wall-clock time:
// merging must stay within each (process, resource) timeline.
TEST(UtilizationTest, MergesPartialOverlapPerResourceOnly) {
  CausalGraph graph(/*enabled=*/true);
  const int p0 = graph.RegisterProcess("first");
  const int p1 = graph.RegisterProcess("second");

  const int req0 = graph.BeginRequest(p0, 0, /*arrival=*/0);
  // pcie/gpu0: [0,100] (solo 60 => 40 contended) partially overlaps [50,150]
  // (solo 100 => 0 contended); [160,250] (solo 60 => 30 contended) is
  // disjoint. Merged: [0,150] + [160,250].
  graph.AddNode(
      req0, MakeNode(graph, CpKind::kPcie, "a", "pcie/gpu0", 0, 100, 100, 60), {});
  graph.AddNode(
      req0, MakeNode(graph, CpKind::kPcie, "b", "pcie/gpu0", 50, 150, 100, 100),
      {});
  graph.AddNode(
      req0, MakeNode(graph, CpKind::kPcie, "c", "pcie/gpu0", 160, 250, 90, 60),
      {});
  // exec/gpu0 overlaps [120,220] in wall-clock time but is its own resource.
  graph.AddNode(req0, MakeNode(graph, CpKind::kExec, "e", "exec/gpu0", 120, 220),
                {});
  graph.EndRequest(req0, 250);

  // A second process busy on a resource with the *same name* stays separate.
  const int req1 = graph.BeginRequest(p1, 0, /*arrival=*/0);
  graph.AddNode(
      req1, MakeNode(graph, CpKind::kPcie, "x", "pcie/gpu0", 0, 50, 50, 50), {});
  graph.EndRequest(req1, 50);

  const UtilizationReport util = BuildProfileReport(graph).utilization;
  ASSERT_EQ(util.resources.size(), 3u);

  // Output order is (process, resource name).
  const ResourceTimeline& exec_tl = util.resources[0];
  EXPECT_EQ(exec_tl.process, p0);
  EXPECT_EQ(exec_tl.resource, "exec/gpu0");
  EXPECT_EQ(exec_tl.kind, "exec");
  ASSERT_EQ(exec_tl.intervals.size(), 1u);
  EXPECT_EQ(exec_tl.busy, 100);
  EXPECT_EQ(exec_tl.contended, 0);
  EXPECT_EQ(exec_tl.span, 250);

  const ResourceTimeline& pcie_tl = util.resources[1];
  EXPECT_EQ(pcie_tl.process, p0);
  EXPECT_EQ(pcie_tl.resource, "pcie/gpu0");
  EXPECT_EQ(pcie_tl.kind, "pcie");
  ASSERT_EQ(pcie_tl.intervals.size(), 2u);
  EXPECT_EQ(pcie_tl.intervals[0].start, 0);
  EXPECT_EQ(pcie_tl.intervals[0].end, 150);
  EXPECT_EQ(pcie_tl.intervals[0].contended, 40);
  EXPECT_EQ(pcie_tl.intervals[1].start, 160);
  EXPECT_EQ(pcie_tl.intervals[1].end, 250);
  EXPECT_EQ(pcie_tl.intervals[1].contended, 30);
  EXPECT_EQ(pcie_tl.busy, 150 + 90);
  EXPECT_EQ(pcie_tl.contended, 70);
  EXPECT_DOUBLE_EQ(pcie_tl.utilization, 240.0 / 250.0);

  const ResourceTimeline& other_tl = util.resources[2];
  EXPECT_EQ(other_tl.process, p1);
  EXPECT_EQ(other_tl.resource, "pcie/gpu0");
  EXPECT_EQ(other_tl.busy, 50);
  EXPECT_EQ(other_tl.span, 50);
  EXPECT_DOUBLE_EQ(other_tl.utilization, 1.0);
}

// Two fully-overlapped heavily-contended transfers: the merged interval's
// contended time is capped at the interval's length (contention can never
// exceed wall-clock busy time).
TEST(UtilizationTest, ContendedTimeIsCappedAtBusyTime) {
  CausalGraph graph(/*enabled=*/true);
  const int process = graph.RegisterProcess("capped");
  const int req = graph.BeginRequest(process, 0, 0);
  graph.AddNode(
      req, MakeNode(graph, CpKind::kPcie, "a", "pcie/gpu0", 0, 100, 100, 10), {});
  graph.AddNode(
      req, MakeNode(graph, CpKind::kPcie, "b", "pcie/gpu0", 0, 100, 100, 10), {});
  graph.EndRequest(req, 100);

  const UtilizationReport util = BuildProfileReport(graph).utilization;
  ASSERT_EQ(util.resources.size(), 1u);
  EXPECT_EQ(util.resources[0].busy, 100);
  EXPECT_EQ(util.resources[0].contended, 100);  // 90 + 90, capped
}

// Touching intervals (end == next start) coalesce; zero-length and
// resource-less nodes are ignored entirely.
TEST(UtilizationTest, TouchingIntervalsCoalesceAndDegenerateNodesAreIgnored) {
  CausalGraph graph(/*enabled=*/true);
  const int process = graph.RegisterProcess("touch");
  const int req = graph.BeginRequest(process, 0, 0);
  graph.AddNode(req, MakeNode(graph, CpKind::kExec, "a", "gpu0", 0, 100), {});
  graph.AddNode(req, MakeNode(graph, CpKind::kExec, "b", "gpu0", 100, 200), {});
  graph.AddNode(req, MakeNode(graph, CpKind::kExec, "zero", "gpu0", 150, 150),
                {});  // zero-length
  graph.AddNode(req, MakeNode(graph, CpKind::kExec, "anon", "", 0, 500), {});
  graph.EndRequest(req, 200);

  const UtilizationReport util = BuildProfileReport(graph).utilization;
  ASSERT_EQ(util.resources.size(), 1u);
  EXPECT_EQ(util.resources[0].resource, "gpu0");
  ASSERT_EQ(util.resources[0].intervals.size(), 1u);
  EXPECT_EQ(util.resources[0].intervals[0].start, 0);
  EXPECT_EQ(util.resources[0].intervals[0].end, 200);
  EXPECT_EQ(util.resources[0].busy, 200);
}

// Chunks arrive in retirement order, so a later chunk's intervals can reach
// back into, or bridge, a resource's timeline so far. One request per chunk
// here: request 1's interval starts before request 0's and request 2's
// bridges the gap between them. Streamed chunk by chunk, the timeline must
// equal the one-chunk one: a single interval [0, 300].
TEST(UtilizationTest, MergesAcrossChunksInAnyOrder) {
  const auto record = [](CausalGraph* graph) {
    const int process = graph->RegisterProcess("chunks");
    for (const auto& [start, end] :
         {std::pair<Nanos, Nanos>{100, 150}, {0, 60}, {60, 100}, {150, 300}}) {
      const int req = graph->BeginRequest(process, 0, 0);
      graph->AddNode(req, MakeNode(*graph, CpKind::kExec, "x", "gpu0", start, end),
                     {graph->last_node(req)});
      graph->EndRequest(req, end);
    }
  };
  CausalGraph graph(/*enabled=*/true);
  record(&graph);
  const std::string path = ::testing::TempDir() + "/utilization_chunks.dpj";
  {
    JournalWriter writer;
    JournalWriterOptions one_per_chunk;
    one_per_chunk.chunk_requests = 1;
    ASSERT_TRUE(writer.Open(path, one_per_chunk));
    CausalGraph chunked(/*enabled=*/true);
    chunked.AttachSink(&writer);
    record(&chunked);
    ASSERT_TRUE(writer.Finish());
  }
  std::string error;
  ProfileReportBuilder streamed;
  ASSERT_TRUE(ForEachJournalChunk(
      path, [&streamed](JournalChunk& chunk) { streamed.Add(chunk); }, &error))
      << error;
  std::remove(path.c_str());
  const ProfileReport report = streamed.Finish();
  const UtilizationReport& util = report.utilization;
  ASSERT_EQ(util.resources.size(), 1u);
  ASSERT_EQ(util.resources[0].intervals.size(), 1u);
  EXPECT_EQ(util.resources[0].intervals[0].start, 0);
  EXPECT_EQ(util.resources[0].intervals[0].end, 300);
  EXPECT_EQ(util.resources[0].busy, 300);
  EXPECT_EQ(ProfileReportJson(report),
            ProfileReportJson(BuildProfileReport(graph)));
}

// ------------------------------------------------ engine-recorded journals

TEST(CriticalPathTest, EngineColdRunAttributionSumsExactly) {
  const Topology topology = Topology::P3_8xlarge();
  const PerfModel perf(topology.gpu(), topology.pcie());
  for (const Strategy strategy :
       {Strategy::kBaseline, Strategy::kPipeSwitch, Strategy::kDeepPlanDha,
        Strategy::kDeepPlanPtDha}) {
    CausalGraph graph(/*enabled=*/true);
    const int process = graph.RegisterProcess(StrategyName(strategy));
    const Model model = ModelZoo::BertBase();
    const bench::ColdMeasurement m = bench::RunColdWithProfile(
        topology, perf, model, strategy, bench::ExactProfile(perf, model),
        /*batch=*/1, &graph, process);
    const ProfileSummary summary = BuildProfileReport(graph).summary;
    ASSERT_EQ(summary.requests.size(), 1u) << StrategyName(strategy);
    const RequestProfile& p = summary.requests[0];
    EXPECT_EQ(p.attribution.Total(), p.latency) << StrategyName(strategy);
    EXPECT_EQ(p.latency, m.result.latency) << StrategyName(strategy);
    // latency - exec_busy is the engine's own hand-computed stall (Fig. 2).
    EXPECT_EQ(p.latency - p.exec_busy, m.result.stall)
        << StrategyName(strategy);
    EXPECT_TRUE(p.cold);
  }
}

TEST(CriticalPathTest, RecordingIsTimingNeutral) {
  const Topology topology = Topology::P3_8xlarge();
  const PerfModel perf(topology.gpu(), topology.pcie());
  const Model model = ModelZoo::Gpt2();
  const ModelProfile profile = bench::ExactProfile(perf, model);
  const bench::ColdMeasurement plain = bench::RunColdWithProfile(
      topology, perf, model, Strategy::kDeepPlanPtDha, profile);
  CausalGraph graph(/*enabled=*/true);
  const bench::ColdMeasurement recorded = bench::RunColdWithProfile(
      topology, perf, model, Strategy::kDeepPlanPtDha, profile, /*batch=*/1,
      &graph, graph.RegisterProcess("on"));
  EXPECT_EQ(plain.result.latency, recorded.result.latency);
  EXPECT_EQ(plain.result.stall, recorded.result.stall);
  EXPECT_EQ(plain.result.exec_busy, recorded.result.exec_busy);
  EXPECT_GT(ForEachGraphChunk(graph, [](JournalChunk&) {}).nodes, 1u);
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << path;
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

// The stitched journal (and therefore the whole report) must be
// byte-identical whether the sweep ran on 1 thread or 8.
TEST(CriticalPathTest, SweepJournalDeterministicAcrossJobs) {
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
    return merged;
  };
  const CausalGraph serial = run(1);
  const std::string serial_path = ::testing::TempDir() + "/sweep_jobs1.dpj";
  const std::string parallel_path = ::testing::TempDir() + "/sweep_jobs8.dpj";
  std::string error;
  ASSERT_TRUE(WriteGraphToJournal(serial, serial_path, &error)) << error;
  ASSERT_TRUE(WriteGraphToJournal(run(8), parallel_path, &error)) << error;
  EXPECT_EQ(ReadFileBytes(serial_path), ReadFileBytes(parallel_path));

  // The report streamed from the journal equals the in-process one.
  ProfileReportBuilder streamed;
  ASSERT_TRUE(ForEachJournalChunk(
      serial_path,
      [&streamed](JournalChunk& chunk) { streamed.Add(chunk); },
      &error))
      << error;
  const ProfileReport parsed = streamed.Finish();
  EXPECT_EQ(parsed.summary.requests.size(), models.size());
  EXPECT_EQ(ProfileReportJson(parsed),
            ProfileReportJson(BuildProfileReport(serial)));
  std::remove(serial_path.c_str());
  std::remove(parallel_path.c_str());
}

// ------------------------------------------------ graph recording

TEST(CausalGraphTest, DisabledGraphRecordsNothing) {
  CausalGraph graph(/*enabled=*/false);
  EXPECT_EQ(graph.RegisterProcess("p"), 0);
  const int req = graph.BeginRequest(0, 0, 0);
  EXPECT_EQ(req, -1);
  EXPECT_EQ(graph.last_node(req), -1);
  EXPECT_EQ(graph.AddNode(req, MakeNode(graph, CpKind::kExec, "x", "gpu0", 0, 1),
                          {graph.last_node(req)}),
            -1);
  graph.EndRequest(req, 1);
  // Its journal is the empty one.
  EXPECT_EQ(ForEachGraphChunk(graph, [](JournalChunk&) {}), JournalTotals{});
}

TEST(CausalGraphTest, AdoptRemapsInternedStrings) {
  // Each task's graph numbers its strings in its own order; after Adopt
  // every node still names its own label, resource and links, and a name
  // both tasks use is one string of the merged table.
  const auto task = [](std::string_view label, std::string_view lane) {
    CausalGraph graph(/*enabled=*/true);
    const int req = graph.BeginRequest(graph.RegisterProcess(label), 0, 0);
    CpNode node = MakeNode(graph, CpKind::kPcie, label, lane, 0, 10, 10, 10);
    node.path = {{graph.Intern("uplink/sw0"), 2e9}, {graph.Intern(lane), 1e9}};
    graph.AddNode(req, node, {graph.last_node(req)});
    graph.EndRequest(req, 10);
    return graph;
  };
  CausalGraph merged(/*enabled=*/true);
  merged.Adopt(task("load a", "pcie/gpu0"));
  merged.Adopt(task("load b", "pcie/gpu1"));
  const std::vector<JournalChunk> chunks = Chunks(merged);
  ASSERT_EQ(chunks.size(), 1u);
  const JournalChunk& chunk = chunks[0];
  ASSERT_EQ(chunk.nodes.size(), 4u);
  const CpNode& a = chunk.nodes[1];
  const CpNode& b = chunk.nodes[3];
  EXPECT_EQ(chunk.str(a.label), "load a");
  EXPECT_EQ(chunk.str(b.label), "load b");
  EXPECT_EQ(chunk.str(b.resource), "pcie/gpu1");
  ASSERT_EQ(b.path.size(), 2u);
  EXPECT_EQ(chunk.str(b.path.begin()[0].link), "uplink/sw0");
  EXPECT_EQ(chunk.str(b.path.begin()[1].link), "pcie/gpu1");
  EXPECT_EQ(b.path.begin()[0].link, a.path.begin()[0].link);
}

// ------------------------------------------------ report + schema linter

TEST(ProfileReportTest, ReportJsonPassesSchemaLint) {
  const CausalGraph graph = KnownPathGraph();
  const ProfileReport report = BuildProfileReport(graph);
  EXPECT_EQ(report.bottleneck, "pcie");
  const std::string json = ProfileReportJson(report);
  const TraceLintResult lint = LintProfileReport(json);
  EXPECT_TRUE(lint.ok()) << (lint.errors.empty() ? "" : lint.errors[0]);
}

TEST(ProfileReportTest, SchemaLintCatchesBrokenAttributionSum) {
  // latency_ns says 100 but the components sum to 90.
  const std::string bad =
      "{\"profile_report\":{\"requests\":1,\"cold_requests\":0,"
      "\"bottleneck\":\"exec\",\"total_latency_ns\":100,"
      "\"totals\":{\"queue_ns\":0,\"evict_ns\":0,\"pcie_ns\":0,"
      "\"pcie_contention_ns\":0,\"nvlink_ns\":0,\"exec_ns\":90,"
      "\"sync_ns\":0},\"processes\":[],\"per_request\":[],"
      "\"utilization\":[]}}";
  const TraceLintResult lint = LintProfileReport(bad);
  EXPECT_FALSE(lint.ok());
}

TEST(ProfileReportTest, SchemaLintRejectsNonReportDocuments) {
  EXPECT_FALSE(LintProfileReport("{}").ok());
  EXPECT_FALSE(LintProfileReport("[1,2,3]").ok());
  EXPECT_FALSE(LintProfileReport("garbage").ok());
}

// ------------------------------------------------ bench_diff gate

std::string BenchDoc(double latency_ms, double wall_ms) {
  JsonObject point;
  point.Set("strategy", "PipeSwitch").Set("mean_latency_ms", latency_ms);
  JsonArray points;
  points.AddRaw(point.Render());
  JsonObject doc;
  doc.Set("bench", "fixture")
      .Set("jobs", 4)
      .SetRaw("points", points.Render())
      .Set("wall_clock_ms", wall_ms);
  return doc.Render();
}

TEST(BenchDiffTest, IdenticalDocumentsPass) {
  const BenchDiffResult result =
      DiffBenchReports(BenchDoc(12.5, 100.0), BenchDoc(12.5, 100.0), {});
  EXPECT_TRUE(result.ok());
}

TEST(BenchDiffTest, MachineDependentKeysAreIgnored) {
  // Different wall clock and jobs: never a regression.
  std::string a = BenchDoc(12.5, 100.0);
  std::string b = BenchDoc(12.5, 987.0);
  const std::size_t jobs_pos = b.find("\"jobs\":4");
  ASSERT_NE(jobs_pos, std::string::npos);
  b.replace(jobs_pos, 8, "\"jobs\":9");
  EXPECT_TRUE(DiffBenchReports(a, b, {}).ok());
}

TEST(BenchDiffTest, TenPercentLatencyPerturbationIsFlagged) {
  const std::string golden = BenchDoc(100.0, 50.0);
  const std::string inflated = BenchDoc(110.0, 50.0);   // +10%
  const std::string deflated = BenchDoc(90.0, 50.0);    // -10%
  // Exact gate (default): both directions are regressions.
  EXPECT_FALSE(DiffBenchReports(golden, inflated, {}).ok());
  EXPECT_FALSE(DiffBenchReports(golden, deflated, {}).ok());
  // A 5% tolerance still flags them ...
  BenchDiffOptions tight;
  tight.rel_tol = 0.05;
  EXPECT_FALSE(DiffBenchReports(golden, inflated, tight).ok());
  EXPECT_FALSE(DiffBenchReports(golden, deflated, tight).ok());
  // ... and a 15% tolerance accepts them.
  BenchDiffOptions loose;
  loose.rel_tol = 0.15;
  EXPECT_TRUE(DiffBenchReports(golden, inflated, loose).ok());
  EXPECT_TRUE(DiffBenchReports(golden, deflated, loose).ok());
}

TEST(BenchDiffTest, StructuralDivergenceIsReportedWithPath) {
  const std::string golden = BenchDoc(100.0, 50.0);
  std::string renamed = golden;
  const std::size_t pos = renamed.find("mean_latency_ms");
  ASSERT_NE(pos, std::string::npos);
  renamed.replace(pos, 15, "mean_latency_xx");
  const BenchDiffResult result = DiffBenchReports(golden, renamed, {});
  ASSERT_FALSE(result.ok());
  bool mentions_point = false;
  for (const check::BenchDiffEntry& diff : result.diffs) {
    if (diff.path.find("points[0]") != std::string::npos) {
      mentions_point = true;
    }
  }
  EXPECT_TRUE(mentions_point);
}

TEST(BenchDiffTest, MalformedInputReportsParseError) {
  const BenchDiffResult result = DiffBenchReports("{", BenchDoc(1.0, 1.0), {});
  EXPECT_FALSE(result.parsed);
  EXPECT_FALSE(result.parse_error.empty());
  EXPECT_FALSE(result.ok());
}

// ------------------------------------------------ served workload journal

TEST(CriticalPathTest, ServedWorkloadAttributionIsExactForEveryRequest) {
  const Topology topology = Topology::P3_8xlarge();
  const PerfModel perf(topology.gpu(), topology.pcie());
  ServerOptions options;
  options.strategy = Strategy::kPipeSwitch;
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

  const ProfileSummary summary = BuildProfileReport(graph).summary;
  EXPECT_EQ(summary.requests.size(), metrics.count());
  EXPECT_EQ(static_cast<std::size_t>(summary.cold_requests),
            metrics.ColdStartCount());
  // exec_busy counts a request's own exec nodes, on-path or not.
  std::map<int, Nanos> exec_busy;
  ForEachGraphChunk(graph, [&exec_busy](JournalChunk& chunk) {
    for (const CpNode& node : chunk.nodes) {
      if (node.kind == CpKind::kExec) {
        exec_busy[node.request] += node.end - node.start;
      }
    }
  });
  for (const RequestProfile& p : summary.requests) {
    EXPECT_EQ(p.attribution.Total(), p.latency);
    const Nanos busy = exec_busy[p.request];
    EXPECT_GT(busy, 0) << "request " << p.request;
    EXPECT_EQ(p.exec_busy, busy) << "request " << p.request;
  }
  const ProfileReport report = BuildProfileReport(graph);
  EXPECT_TRUE(LintProfileReport(ProfileReportJson(report)).ok());
}

}  // namespace
}  // namespace deepplan
