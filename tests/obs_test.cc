#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "src/core/profiler.h"
#include "src/core/transmission.h"
#include "src/engine/engine.h"
#include "src/engine/strategies.h"
#include "src/check/trace_lint.h"
#include "src/model/zoo.h"
#include "src/obs/causal_graph.h"
#include "src/obs/journal_stream.h"
#include "src/obs/metrics_registry.h"
#include "src/obs/trace_export.h"
#include "src/obs/trace_recorder.h"
#include "src/util/chrome_trace.h"
#include "tests/causal_node.h"
#include "tests/counting_new.h"
#include "tests/json_checker.h"

namespace deepplan {
namespace {

using testutil::JsonChecker;

// ---------------------------------------------------------------- recorder

TEST(TraceRecorderTest, DisabledRecorderAllocatesNothing) {
  TraceRecorder off(/*enabled=*/false);
  EXPECT_FALSE(off.enabled());
  const std::size_t before = g_allocations;
  const int pid = off.RegisterProcess("server0");
  off.Span(pid, "exec/gpu0", "warm i3", Micros(10), Micros(5));
  off.Counter(pid, "bw/pcie", "gbps", Micros(10), 12.5);
  const std::size_t after = g_allocations;
  EXPECT_EQ(pid, 0);
  EXPECT_EQ(after, before);
  EXPECT_TRUE(off.empty());
  EXPECT_EQ(off.size(), 0u);
}

TEST(TraceRecorderTest, RecordsSpansAndCounters) {
  TraceRecorder rec(/*enabled=*/true);
  const int pid = rec.RegisterProcess("engine");
  rec.Span(pid, "exec/gpu0", "layer0", Micros(1), Micros(2));
  rec.Counter(pid, "bw/pcie", "gbps", Micros(4), 10.0);
  ASSERT_EQ(rec.size(), 2u);
  const std::string json = rec.ToJson();
  EXPECT_TRUE(JsonChecker(json).Valid()) << json;
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  // Counter events carry the sample in args under the series key, and the
  // counter's name is the track (one Perfetto counter track per link).
  EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"bw/pcie\""), std::string::npos);
  EXPECT_NE(json.find("\"args\":{\"gbps\":10}"), std::string::npos) << json;
}

TEST(TraceRecorderTest, EmitsProcessAndThreadMetadata) {
  TraceRecorder rec(/*enabled=*/true);
  const int pid = rec.RegisterProcess("PT+DHA");
  rec.Span(pid, "exec/gpu0", "warm", 0, Micros(1));
  const std::string json = rec.ToJson();
  EXPECT_TRUE(JsonChecker(json).Valid()) << json;
  EXPECT_NE(json.find("\"ph\":\"M\""), std::string::npos);
  EXPECT_NE(json.find("\"process_name\""), std::string::npos);
  EXPECT_NE(json.find("\"PT+DHA\""), std::string::npos);
  EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(json.find("\"exec/gpu0\""), std::string::npos);
}

TEST(TraceRecorderTest, ParentSpanSortsBeforeEnclosedChildAtEqualStart) {
  TraceRecorder rec(/*enabled=*/true);
  const int pid = rec.RegisterProcess("p");
  // Appended child-first; the writer must still order the enclosing span
  // first so nesting renders correctly.
  rec.Span(pid, "t", "child", Micros(5), Micros(1));
  rec.Span(pid, "t", "parent", Micros(5), Micros(10));
  const std::string json = rec.ToJson();
  const std::size_t parent = json.find("\"name\":\"parent\"");
  const std::size_t child = json.find("\"name\":\"child\"");
  ASSERT_NE(parent, std::string::npos);
  ASSERT_NE(child, std::string::npos);
  EXPECT_LT(parent, child) << json;
}

TEST(TraceRecorderTest, ExportIsByteStable) {
  const auto fill = [] {
    TraceRecorder rec(/*enabled=*/true);
    const int a = rec.RegisterProcess("a");
    const int b = rec.RegisterProcess("b");
    rec.Span(b, "exec/gpu1", "x", Micros(2), Micros(2));
    rec.Span(a, "exec/gpu0", "x", Micros(2), Micros(2));
    rec.Counter(a, "bw/pcie", "gbps", Micros(1), 3.5);
    return rec.ToJson();
  };
  EXPECT_EQ(fill(), fill());
}

TEST(TraceRecorderTest, EscapesControlCharactersInNames) {
  TraceRecorder rec(/*enabled=*/true);
  const int pid = rec.RegisterProcess("p");
  rec.Span(pid, "t", std::string("bad\x01name\tquote\""), 0, Micros(1));
  const std::string json = rec.ToJson();
  EXPECT_TRUE(JsonChecker(json).Valid()) << json;
  EXPECT_NE(json.find("\\u0001"), std::string::npos) << json;
  EXPECT_NE(json.find("\\t"), std::string::npos) << json;
  EXPECT_NE(json.find("\\\""), std::string::npos) << json;
  // The raw control byte must not leak into the document.
  EXPECT_EQ(json.find('\x01'), std::string::npos);
}

// ------------------------------------------------------- journal counters

// The streaming journal writer's progress, exactly: its totals per chunk
// flushed, and every byte it wrote.
TEST(MetricsRegistryTest, JournalCountersTrackTheWriterExactly) {
  const std::string path = ::testing::TempDir() + "/obs_journal.dpj";
  CausalGraph graph(/*enabled=*/true);
  JournalWriter writer;
  JournalWriterOptions small;
  small.chunk_requests = 2;
  ASSERT_TRUE(writer.Open(path, small));
  graph.AttachSink(&writer);
  const int process = graph.RegisterProcess("p");
  for (int i = 0; i < 5; ++i) {
    const int req = graph.BeginRequest(process, i, i * 10);
    graph.AddNode(req,
                  MakeNode(graph, CpKind::kExec, "exec", "exec/gpu0", i * 10,
                           i * 10 + 5),
                  {graph.last_node(req)});
    if (i != 4) {
      graph.EndRequest(req, i * 10 + 5);
    }
  }
  graph.FlushOpenRequests();  // retires request 4 with completion -1
  ASSERT_TRUE(writer.Finish());

  const JournalTotals totals = writer.totals();
  EXPECT_EQ(totals.requests, 5u);
  EXPECT_EQ(totals.incomplete_requests, 1u);
  EXPECT_EQ(totals.nodes, 10u);  // arrival + exec per request
  EXPECT_EQ(totals.edges, 5u);
  EXPECT_EQ(totals.chunks, 3u);  // 2 + 2 + 1
  EXPECT_EQ(writer.bytes_written(), std::filesystem::file_size(path));
  std::remove(path.c_str());
}

TEST(CausalGraphTest, DisabledGraphAllocatesNothing) {
  // The disabled hot path mirrors the TraceRecorder contract: every recorder
  // call drops without touching the heap, so journaling costs nothing when
  // off. (Short labels stay in SSO buffers; the graph must not copy them.)
  CausalGraph off(/*enabled=*/false);
  EXPECT_FALSE(off.enabled());
  const std::size_t before = g_allocations;
  const int process = off.RegisterProcess("serve");
  const int req = off.BeginRequest(process, 3, 100);
  const CpNodeId node = off.AddNode(
      req, MakeNode(off, CpKind::kPcie, "load", "pcie/gpu0", 100, 200, 64, 50),
      {off.last_node(req)});
  off.MarkCold(req);
  off.EndRequest(req, 200, node);
  const std::size_t after = g_allocations;
  EXPECT_EQ(process, 0);
  EXPECT_EQ(req, -1);
  EXPECT_EQ(node, -1);
  EXPECT_EQ(after, before);
  EXPECT_EQ(ForEachGraphChunk(off, [](JournalChunk&) {}), JournalTotals{});
}

// ---------------------------------------------------------------- end to end

// One PT+DHA cold start on the 2-GPU A5000 box, journaled, and the Chrome
// trace exported from its journal: the golden path of the observability
// stack. The exported document must be valid, Perfetto-loadable (metadata +
// spans + counters), lint clean and byte-stable.
class ColdStartTraceTest : public ::testing::Test {
 protected:
  static TraceRecorder RunOnce(MetricsRegistry* registry = nullptr,
                               CausalGraph* out_graph = nullptr) {
    const Topology topology = Topology::A5000Box();
    const PerfModel perf(topology.gpu(), topology.pcie());
    Simulator sim;
    ServerFabric fabric(&sim, &topology);
    Engine engine(&sim, &fabric, &perf);
    fabric.fabric().set_telemetry(nullptr, registry);
    CausalGraph local(/*enabled=*/true);
    CausalGraph* graph = out_graph != nullptr ? out_graph : &local;
    engine.set_causal(graph);

    const Model model = ModelZoo::BertBase();
    ProfilerOptions popts;
    popts.noise_stddev = 0.0;
    const ModelProfile profile = Profiler(&perf, popts).Profile(model);
    const Strategy strategy = Strategy::kDeepPlanPtDha;
    const int degree = StrategyDegree(strategy, topology, /*primary=*/0);
    PipelineOptions pipeline;
    pipeline.nvlink = topology.nvlink();
    const ExecutionPlan plan = MakeStrategyPlan(strategy, profile, degree, pipeline);
    ColdRunOptions options = MakeColdRunOptions(strategy);
    options.causal_request =
        graph->BeginRequest(graph->RegisterProcess("PT+DHA cold start"), 0, 0);
    InferenceResult result;
    engine.RunCold(model, plan, /*primary=*/0,
                   TransmissionPlanner::ChooseSecondaries(topology, 0, degree),
                   options, [&](const InferenceResult& r) {
                     result = r;
                     graph->EndRequest(options.causal_request, sim.now());
                   });
    sim.Run();
    EXPECT_GT(result.latency, 0);
    return GraphChromeTrace(*graph);
  }
};

TEST_F(ColdStartTraceTest, GoldenTwoGpuTraceIsPerfettoLoadable) {
  MetricsRegistry registry;
  const TraceRecorder trace = RunOnce(&registry);
  EXPECT_FALSE(trace.empty());
  const std::string json = trace.ToJson();
  EXPECT_TRUE(JsonChecker(json).Valid()) << json;
  const check::TraceLintResult lint = check::LintChromeTrace(json);
  EXPECT_TRUE(lint.ok()) << (lint.errors.empty() ? "" : lint.errors[0]);
  // Per-GPU PCIe load tracks (PT splits the model over both GPUs), the
  // primary's exec track, NVLink migration, and per-link in-flight counters.
  EXPECT_NE(json.find("\"pcie/gpu0\""), std::string::npos);
  EXPECT_NE(json.find("\"pcie/gpu1\""), std::string::npos);
  EXPECT_NE(json.find("\"exec/gpu0\""), std::string::npos);
  EXPECT_NE(json.find("nvlink/"), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);
  EXPECT_NE(json.find("\"inflight/pcie/gpu1\""), std::string::npos);
  EXPECT_NE(json.find("\"process_name\""), std::string::npos);
  // The fabric counted the PT transfers.
  EXPECT_GT(registry.counter("fabric.transfers"), 0);
  EXPECT_GT(registry.counter("fabric.bytes"), 0);
}

TEST_F(ColdStartTraceTest, IdenticalRunsExportIdenticalBytes) {
  EXPECT_EQ(RunOnce().ToJson(), RunOnce().ToJson());
}

TEST_F(ColdStartTraceTest, ExportHasOneIntervalPerWorkNode) {
  // Exec operations export as complete slices; load/migrate intervals as
  // async begin/end pairs (they may overlap across concurrent runs).
  CausalGraph causal(/*enabled=*/true);
  const TraceRecorder trace = RunOnce(nullptr, &causal);
  std::size_t intervals = 0;
  std::size_t async_begins = 0;
  std::size_t async_ends = 0;
  for (const TraceEvent& e : trace.document().events) {
    if (e.phase == TracePhase::kSpan || e.phase == TracePhase::kAsyncBegin) {
      ++intervals;
    }
    if (e.phase == TracePhase::kAsyncBegin) {
      ++async_begins;
    }
    if (e.phase == TracePhase::kAsyncEnd) {
      ++async_ends;
    }
  }
  EXPECT_GT(async_begins, 0u);  // the PT plan always streams some layers
  EXPECT_EQ(async_begins, async_ends);
  std::size_t work_nodes = 0;
  ForEachGraphChunk(causal, [&work_nodes](JournalChunk& chunk) {
    for (const CpNode& node : chunk.nodes) {
      work_nodes += node.kind != CpKind::kArrival ? 1 : 0;
    }
  });
  // The request never queued, so it has no queue-wait interval.
  EXPECT_EQ(intervals, work_nodes);
}

TEST(FabricTelemetryTest, ContendedLinkShareFollowsContention) {
  Simulator sim;
  Fabric fabric(&sim);
  // Uplink X carries both transfers; Y is B's private downstream link. A
  // link's allocation is the total over its transfers, so the saturated
  // uplink holds steady at capacity while Y shows B's fair share moving as
  // the contention on X comes and goes: 6 (sharing, from B's start at 10 ms)
  // -> 12 (A done at 40 ms) -> 0 (B done at 75 ms). Each is probed at the
  // instant it changes.
  const LinkId x = fabric.AddLink("pcie/uplink", 12.0e9);
  const LinkId y = fabric.AddLink("pcie/gpu1", 20.0e9);
  MetricsRegistry registry;
  fabric.set_telemetry(nullptr, &registry);
  std::vector<std::pair<Nanos, double>> y_share;  // (time, GB/s)
  const auto probe = [&] {
    y_share.emplace_back(sim.now(), fabric.AllocatedOn(y) * 1e-9);
  };
  fabric.Start({x}, 300'000'000, 0, [&probe](Nanos) { probe(); });
  sim.ScheduleAt(Millis(10), [&] {
    fabric.Start({x, y}, 600'000'000, 0, [&probe](Nanos) { probe(); });
    probe();
  });
  sim.Run();
  EXPECT_EQ(registry.counter("fabric.transfers"), 2);
  EXPECT_EQ(registry.counter("fabric.bytes"), 900'000'000);
  ASSERT_EQ(y_share.size(), 3u);
  EXPECT_EQ(y_share[0].first, Millis(10));
  EXPECT_DOUBLE_EQ(y_share[0].second, 6.0);   // fair half of the shared uplink
  EXPECT_EQ(y_share[1].first, Millis(40));
  EXPECT_DOUBLE_EQ(y_share[1].second, 12.0);  // A finished, B gets the full uplink
  EXPECT_EQ(y_share[2].first, Millis(75));
  EXPECT_DOUBLE_EQ(y_share[2].second, 0.0);
}

}  // namespace
}  // namespace deepplan
