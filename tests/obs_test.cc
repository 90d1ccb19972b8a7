#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "src/core/profiler.h"
#include "src/core/transmission.h"
#include "src/engine/engine.h"
#include "src/engine/strategies.h"
#include "src/model/zoo.h"
#include "src/obs/causal_graph.h"
#include "src/obs/journal_stream.h"
#include "src/obs/metrics_registry.h"
#include "src/obs/trace_recorder.h"
#include "src/util/chrome_trace.h"
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
  off.Instant(pid, "router", "i3->s1", Micros(10));
  off.Counter(pid, "bw/pcie", "gbps", Micros(10), 12.5);
  const std::size_t after = g_allocations;
  EXPECT_EQ(pid, 0);
  EXPECT_EQ(after, before);
  EXPECT_TRUE(off.empty());
  EXPECT_EQ(off.size(), 0u);
}

TEST(TraceRecorderTest, RecordsSpansInstantsAndCounters) {
  TraceRecorder rec(/*enabled=*/true);
  const int pid = rec.RegisterProcess("engine");
  rec.Span(pid, "exec/gpu0", "layer0", Micros(1), Micros(2));
  rec.Instant(pid, "router", "decision", Micros(3));
  rec.Counter(pid, "bw/pcie", "gbps", Micros(4), 10.0);
  ASSERT_EQ(rec.size(), 3u);
  const std::string json = rec.ToJson();
  EXPECT_TRUE(JsonChecker(json).Valid()) << json;
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
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
    rec.Instant(b, "router", "d", Micros(2));
    return rec.ToJson();
  };
  EXPECT_EQ(fill(), fill());
}

TEST(TraceRecorderTest, AdoptRemapsProcessIds) {
  TraceRecorder master(/*enabled=*/true);
  const int a = master.RegisterProcess("strategyA");
  master.Span(a, "exec/gpu0", "warm", 0, Micros(1));

  TraceRecorder task(/*enabled=*/true);
  const int b = task.RegisterProcess("strategyB");
  EXPECT_EQ(b, 0);  // task recorders number their own processes from zero
  task.Span(b, "exec/gpu0", "warm", 0, Micros(1));

  master.Adopt(std::move(task));
  ASSERT_EQ(master.document().process_names.size(), 2u);
  EXPECT_EQ(master.document().process_names[1], "strategyB");
  ASSERT_EQ(master.size(), 2u);
  // The adopted event moved past the processes already registered here.
  EXPECT_EQ(master.document().events[1].pid, 1);
  const std::string json = master.ToJson();
  EXPECT_TRUE(JsonChecker(json).Valid()) << json;
  EXPECT_NE(json.find("\"strategyA\""), std::string::npos);
  EXPECT_NE(json.find("\"strategyB\""), std::string::npos);
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

// ---------------------------------------------------------------- registry

TEST(MetricsRegistryTest, CountersGaugesHistograms) {
  MetricsRegistry reg;
  EXPECT_TRUE(reg.empty());
  EXPECT_EQ(reg.counter("server.requests"), 0);
  reg.AddCounter("server.requests");
  reg.AddCounter("server.requests", 4);
  EXPECT_EQ(reg.counter("server.requests"), 5);

  reg.SetGauge("server.queue_depth.gpu0", 3.0);
  reg.SetGauge("server.queue_depth.gpu0", 1.0);
  EXPECT_DOUBLE_EQ(reg.gauge("server.queue_depth.gpu0"), 1.0);

  for (int i = 1; i <= 100; ++i) {
    reg.Observe("server.latency_ms", static_cast<double>(i));
  }
  const HistogramSummary h = reg.histogram("server.latency_ms");
  EXPECT_EQ(h.count, 100u);
  EXPECT_DOUBLE_EQ(h.mean, 50.5);
  EXPECT_DOUBLE_EQ(h.min, 1.0);
  EXPECT_DOUBLE_EQ(h.max, 100.0);
  EXPECT_NEAR(h.p50, 50.0, 1.1);
  EXPECT_NEAR(h.p99, 99.0, 1.1);
  EXPECT_FALSE(reg.empty());
}

// Degenerate histogram summaries are pinned: a never-observed histogram is
// all zeros, and a single observation puts that value in every field.
TEST(MetricsRegistryTest, ZeroAndOneSampleHistogramSummaries) {
  MetricsRegistry reg;
  const HistogramSummary none = reg.histogram("server.latency_ms");
  EXPECT_EQ(none.count, 0u);
  EXPECT_DOUBLE_EQ(none.mean, 0.0);
  EXPECT_DOUBLE_EQ(none.min, 0.0);
  EXPECT_DOUBLE_EQ(none.max, 0.0);
  EXPECT_DOUBLE_EQ(none.p50, 0.0);
  EXPECT_DOUBLE_EQ(none.p95, 0.0);
  EXPECT_DOUBLE_EQ(none.p99, 0.0);

  reg.Observe("server.latency_ms", 42.0);
  const HistogramSummary one = reg.histogram("server.latency_ms");
  EXPECT_EQ(one.count, 1u);
  EXPECT_DOUBLE_EQ(one.mean, 42.0);
  EXPECT_DOUBLE_EQ(one.min, 42.0);
  EXPECT_DOUBLE_EQ(one.max, 42.0);
  EXPECT_DOUBLE_EQ(one.p50, 42.0);
  EXPECT_DOUBLE_EQ(one.p95, 42.0);
  EXPECT_DOUBLE_EQ(one.p99, 42.0);
  // Both shapes export as valid JSON.
  EXPECT_TRUE(JsonChecker(reg.ToJson()).Valid()) << reg.ToJson();
}

TEST(MetricsRegistryTest, JsonExportIsSortedAndValid) {
  MetricsRegistry reg;
  EXPECT_EQ(MetricsRegistry().ToJson(), "{}");  // empty sections are omitted
  reg.AddCounter("b.second");
  reg.AddCounter("a.first");
  reg.SetGauge("g.depth", 2.0);
  reg.Observe("h.latency", 7.0);
  const std::string json = reg.ToJson();
  EXPECT_TRUE(JsonChecker(json).Valid()) << json;
  // Keys render in sorted order regardless of first-touch order.
  EXPECT_LT(json.find("a.first"), json.find("b.second"));
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_EQ(reg.ToJson(), json);  // export does not perturb the registry
}

// ------------------------------------------------------- journal counters

// The streaming journal writer threads its progress through the registry:
// exact counter values, stable sorted-key snapshots, and nothing at all when
// no registry is attached.
TEST(MetricsRegistryTest, JournalCountersTrackTheWriterExactly) {
  const std::string path = ::testing::TempDir() + "/obs_journal.dpj";
  MetricsRegistry reg;
  CausalGraph graph(/*enabled=*/true);
  JournalWriter writer;
  JournalWriterOptions small;
  small.chunk_requests = 2;
  ASSERT_TRUE(writer.Open(path, small, &reg));
  graph.AttachSink(&writer);
  const int process = graph.RegisterProcess("p");
  for (int i = 0; i < 5; ++i) {
    const int req = graph.BeginRequest(process, i, i * 10);
    const CpNodeId exec = graph.AddNode(req, CpKind::kExec, "exec",
                                        "exec/gpu0", i * 10, i * 10 + 5);
    graph.AddEdge(graph.arrival_node(req), exec);
    if (i != 4) {
      graph.EndRequest(req, i * 10 + 5, exec);
    }
  }
  graph.FlushOpenRequests();  // retires request 4 with completion -1
  ASSERT_TRUE(writer.Finish());

  EXPECT_EQ(reg.counter("journal.requests"), 5);
  EXPECT_EQ(reg.counter("journal.incomplete_requests"), 1);
  EXPECT_EQ(reg.counter("journal.nodes"), 10);  // arrival + exec per request
  EXPECT_EQ(reg.counter("journal.edges"), 5);
  EXPECT_EQ(reg.counter("journal.chunks"), 3);  // 2 + 2 + 1
  EXPECT_EQ(reg.counter("journal.bytes"),
            static_cast<std::int64_t>(writer.bytes_written()));
  EXPECT_EQ(writer.totals().chunks, 3u);

  // The snapshot renders journal.* in sorted key order, byte-stable.
  const std::string json = reg.ToJson();
  EXPECT_TRUE(JsonChecker(json).Valid()) << json;
  EXPECT_LT(json.find("journal.bytes"), json.find("journal.chunks"));
  EXPECT_LT(json.find("journal.chunks"), json.find("journal.edges"));
  EXPECT_LT(json.find("journal.edges"), json.find("journal.incomplete"));
  EXPECT_LT(json.find("journal.incomplete"), json.find("journal.nodes"));
  EXPECT_LT(json.find("journal.nodes"), json.find("journal.requests"));
  EXPECT_EQ(reg.ToJson(), json);
  std::remove(path.c_str());
}

TEST(MetricsRegistryTest, WriterWithoutRegistryTouchesNoMetrics) {
  const std::string path = ::testing::TempDir() + "/obs_journal_noreg.dpj";
  CausalGraph graph(/*enabled=*/true);
  JournalWriter writer;
  ASSERT_TRUE(writer.Open(path));  // no registry attached
  graph.AttachSink(&writer);
  const int process = graph.RegisterProcess("p");
  const int req = graph.BeginRequest(process, 0, 0);
  graph.EndRequest(req, 1, graph.arrival_node(req));
  ASSERT_TRUE(writer.Finish());
  EXPECT_EQ(writer.totals().requests, 1u);
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
  const CpNodeId node =
      off.AddNode(req, CpKind::kPcie, "load", "pcie/gpu0", 100, 200, 64, 50);
  off.SetNodeDhaPcie(node, 0);
  off.AddEdge(off.arrival_node(req), node);
  off.MarkCold(req);
  off.EndRequest(req, 200, node);
  const std::size_t after = g_allocations;
  EXPECT_EQ(process, 0);
  EXPECT_EQ(req, -1);
  EXPECT_EQ(node, -1);
  EXPECT_EQ(after, before);
  EXPECT_TRUE(off.empty());
}

// ---------------------------------------------------------------- end to end

// One PT+DHA cold start on the 2-GPU A5000 box with telemetry attached: the
// golden path of the observability stack. The exported document must be
// valid, Perfetto-loadable (metadata + spans + counters) and byte-stable.
class ColdStartTraceTest : public ::testing::Test {
 protected:
  static std::string RunOnce(TraceRecorder* out_recorder,
                             MetricsRegistry* out_registry,
                             CausalGraph* causal = nullptr) {
    const Topology topology = Topology::A5000Box();
    const PerfModel perf(topology.gpu(), topology.pcie());
    Simulator sim;
    ServerFabric fabric(&sim, &topology);
    Engine engine(&sim, &fabric, &perf);

    TraceRecorder local(/*enabled=*/true);
    TraceRecorder* recorder = out_recorder != nullptr ? out_recorder : &local;
    const int pid = recorder->RegisterProcess("PT+DHA cold start");
    engine.set_telemetry(recorder, pid);
    fabric.fabric().set_telemetry(recorder, out_registry, pid);

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
    if (causal != nullptr) {
      engine.set_causal(causal);
      options.causal_request =
          causal->BeginRequest(causal->RegisterProcess("PT+DHA cold start"), 0, 0);
    }
    InferenceResult result;
    engine.RunCold(model, plan, /*primary=*/0,
                   TransmissionPlanner::ChooseSecondaries(topology, 0, degree),
                   options, [&](const InferenceResult& r) { result = r; });
    sim.Run();
    EXPECT_GT(result.latency, 0);
    return recorder->ToJson();
  }
};

TEST_F(ColdStartTraceTest, GoldenTwoGpuTraceIsPerfettoLoadable) {
  TraceRecorder recorder(/*enabled=*/true);
  MetricsRegistry registry;
  const std::string json = RunOnce(&recorder, &registry);
  EXPECT_FALSE(recorder.empty());
  EXPECT_TRUE(JsonChecker(json).Valid()) << json;
  // Per-GPU PCIe load tracks (PT splits the model over both GPUs), the
  // primary's exec track, NVLink migration, and per-link bandwidth counters.
  EXPECT_NE(json.find("\"pcie/gpu0\""), std::string::npos);
  EXPECT_NE(json.find("\"pcie/gpu1\""), std::string::npos);
  EXPECT_NE(json.find("\"exec/gpu0\""), std::string::npos);
  EXPECT_NE(json.find("nvlink/"), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);
  EXPECT_NE(json.find("bw/"), std::string::npos);
  EXPECT_NE(json.find("\"process_name\""), std::string::npos);
  // The fabric counted the PT transfers.
  EXPECT_GT(registry.counter("fabric.transfers"), 0);
  EXPECT_GT(registry.counter("fabric.bytes"), 0);
}

TEST_F(ColdStartTraceTest, IdenticalRunsExportIdenticalBytes) {
  const std::string a = RunOnce(nullptr, nullptr);
  const std::string b = RunOnce(nullptr, nullptr);
  EXPECT_EQ(a, b);
}

TEST_F(ColdStartTraceTest, RecorderAndCausalGraphSeeTheSameOps) {
  // Both observers are written from one place per finished op, so the trace
  // holds one interval per causal work node. Exec operations export as
  // complete slices; load/migrate intervals export as async begin/end pairs
  // (they may overlap across concurrent runs).
  TraceRecorder recorder(/*enabled=*/true);
  CausalGraph causal(/*enabled=*/true);
  RunOnce(&recorder, nullptr, &causal);
  std::size_t intervals = 0;
  std::size_t async_begins = 0;
  std::size_t async_ends = 0;
  for (const TraceEvent& e : recorder.document().events) {
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
  for (const CpNode& node : causal.nodes()) {
    work_nodes += node.kind != CpKind::kArrival ? 1 : 0;
  }
  EXPECT_EQ(intervals, work_nodes);
}

TEST(FabricTelemetryTest, ContendedLinkEmitsChangingCounterSamples) {
  Simulator sim;
  Fabric fabric(&sim);
  // Uplink X carries both transfers; Y is B's private downstream link. The
  // per-link counter records total allocation, so the saturated uplink holds
  // steady at capacity while Y's track shows B's fair share moving as the
  // contention on X comes and goes: 6 (sharing) -> 12 (A done) -> 0 (B done).
  const LinkId x = fabric.AddLink("pcie/uplink", 12.0e9);
  const LinkId y = fabric.AddLink("pcie/gpu1", 20.0e9);
  TraceRecorder recorder(/*enabled=*/true);
  MetricsRegistry registry;
  fabric.set_telemetry(&recorder, &registry, recorder.RegisterProcess("fabric"));
  fabric.Start({x}, 300'000'000, 0, [](Nanos) {});
  sim.ScheduleAt(Millis(10), [&] {
    fabric.Start({x, y}, 600'000'000, 0, [](Nanos) {});
  });
  sim.Run();
  std::vector<double> y_samples;
  for (const TraceEvent& e : recorder.document().events) {
    if (e.phase == TracePhase::kCounter && e.track == "bw/pcie/gpu1") {
      y_samples.push_back(e.value);
    }
  }
  EXPECT_EQ(registry.counter("fabric.transfers"), 2);
  EXPECT_EQ(registry.counter("fabric.bytes"), 900'000'000);
  ASSERT_GE(y_samples.size(), 3u);
  EXPECT_DOUBLE_EQ(y_samples[0], 6.0);   // fair half of the shared uplink
  EXPECT_DOUBLE_EQ(y_samples[1], 12.0);  // A finished, B gets the full uplink
  EXPECT_DOUBLE_EQ(y_samples.back(), 0.0);
}

}  // namespace
}  // namespace deepplan
