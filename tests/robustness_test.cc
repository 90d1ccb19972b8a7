// Robustness and failure-injection tests: malformed inputs must fail loudly
// (parsers) or be absorbed gracefully (degenerate models, empty traces,
// pathological workloads), and the simulation core must stay consistent
// under randomized stress.
#include <gtest/gtest.h>

#include "src/deepplan.h"
#include "src/util/rng.h"

namespace deepplan {
namespace {

// ---------------------------------------------------------------- parsers

TEST(ParserFuzzTest, PlanParserNeverCrashesOnMutations) {
  // Mutate a valid serialized plan and confirm Parse either round-trips or
  // cleanly returns nullopt — never crashes or accepts corrupt layouts.
  const Model model = ModelZoo::ResNet50();
  ExecutionPlan plan(model.name(), model.num_layers());
  const std::string good = plan.Serialize();
  Rng rng(123);
  int accepted = 0;
  for (int trial = 0; trial < 300; ++trial) {
    std::string mutated = good;
    const int edits = 1 + static_cast<int>(rng.NextBounded(4));
    for (int e = 0; e < edits; ++e) {
      const auto pos = rng.NextBounded(mutated.size());
      mutated[pos] = static_cast<char>(32 + rng.NextBounded(95));
    }
    const auto parsed = ExecutionPlan::Parse(mutated);
    if (parsed.has_value()) {
      ++accepted;
      // Anything accepted must be structurally sane.
      EXPECT_GE(parsed->num_partitions(), 1);
    }
  }
  // Most single-character corruptions must be rejected.
  EXPECT_LT(accepted, 150);
}

TEST(ParserFuzzTest, TraceCsvWithWeirdLines) {
  EXPECT_TRUE(Trace::FromCsv("time_ns,instance\n\n\n").has_value());
  // Strict row parsing: junk fields are a hard error, not silently zero —
  // a mangled multi-GB Azure CSV should fail loudly at the offending line.
  EXPECT_FALSE(Trace::FromCsv("100,1\nnot-a-number,2\n300,0\n").has_value());
  EXPECT_TRUE(Trace::FromCsv("100,1\n300,0\n").has_value());
  EXPECT_FALSE(Trace::FromCsv("justonecolumn\n").has_value());
}

// ---------------------------------------------------------------- degenerate models

TEST(DegenerateModelTest, SingleLayerModelWorksEndToEnd) {
  const Model tiny("one", {Layer::Linear("only", 64, 64, 1)}, 1);
  const Topology topology = Topology::P3_8xlarge();
  const PerfModel perf(topology.gpu(), topology.pcie());
  ProfilerOptions opts;
  opts.noise_stddev = 0.0;
  const ModelProfile profile = Profiler(&perf, opts).Profile(tiny);
  const ExecutionPlan plan = Planner(&profile).GeneratePlan();
  EXPECT_FALSE(plan.Validate(profile).has_value());
  Simulator sim;
  ServerFabric fabric(&sim, &topology);
  Engine engine(&sim, &fabric, &perf);
  InferenceResult result;
  engine.RunCold(tiny, plan, 0, {}, ColdRunOptions{},
                 [&](const InferenceResult& r) { result = r; });
  sim.Run();
  EXPECT_GT(result.latency, 0);
}

TEST(DegenerateModelTest, AllParameterFreeModelColdStartsInstantly) {
  const Model airy("airy",
                   {Layer::Activation("a", 100), Layer::Pooling("p", 100),
                    Layer::Residual("r", 100)},
                   1);
  const Topology topology = Topology::P3_8xlarge();
  const PerfModel perf(topology.gpu(), topology.pcie());
  ProfilerOptions opts;
  opts.noise_stddev = 0.0;
  const ModelProfile profile = Profiler(&perf, opts).Profile(airy);
  const ExecutionPlan plan = Planner(&profile).GeneratePlan();
  EXPECT_EQ(plan.CountDha(), 0u);  // nothing to decide
  Simulator sim;
  ServerFabric fabric(&sim, &topology);
  Engine engine(&sim, &fabric, &perf);
  InferenceResult result;
  engine.RunCold(airy, plan, 0, {}, ColdRunOptions{},
                 [&](const InferenceResult& r) { result = r; });
  sim.Run();
  EXPECT_EQ(result.load_done, 0);
  EXPECT_EQ(result.latency, perf.WarmLatency(airy, 1));
}

TEST(DegenerateModelTest, PartitioningOneGiantLayer) {
  // One layer holds nearly all bytes: equal-bytes partitioning cannot split
  // it, but the plan must stay valid and executable with 2 partitions.
  std::vector<Layer> layers;
  layers.push_back(Layer::Linear("tiny", 16, 16, 1));
  layers.push_back(Layer::Linear("giant", 8192, 8192, 1));
  layers.push_back(Layer::Linear("tail", 16, 16, 1));
  const Model model("lopsided", std::move(layers), 1);
  const PerfModel perf(GpuSpec::V100(), PcieSpec::Gen3());
  ProfilerOptions opts;
  opts.noise_stddev = 0.0;
  const ModelProfile profile = Profiler(&perf, opts).Profile(model);
  ExecutionPlan plan(model.name(), model.num_layers());
  TransmissionPlanner::AssignPartitions(profile, 2, &plan);
  EXPECT_FALSE(plan.Validate(profile).has_value());
}

// ---------------------------------------------------------------- workloads

TEST(WorkloadEdgeTest, EmptyTraceYieldsEmptyMetrics) {
  const Topology topology = Topology::P3_8xlarge();
  const PerfModel perf(topology.gpu(), topology.pcie());
  ServerOptions options;
  Server server(topology, perf, options);
  const int type = server.RegisterModelType(ModelZoo::BertBase());
  server.AddInstances(type, 4);
  const ServingMetrics m = server.Run(Trace(std::vector<Arrival>{}));
  EXPECT_EQ(m.count(), 0u);
  EXPECT_EQ(m.ColdStartCount(), 0u);
}

TEST(WorkloadEdgeTest, BurstOfSimultaneousArrivals) {
  // 64 requests at the exact same instant on one instance: all must be
  // served FIFO on that instance's GPU with monotone completions.
  const Topology topology = Topology::P3_8xlarge();
  const PerfModel perf(topology.gpu(), topology.pcie());
  ServerOptions options;
  options.strategy = Strategy::kDeepPlanDha;
  Server server(topology, perf, options);
  const int type = server.RegisterModelType(ModelZoo::ResNet50());
  server.AddInstances(type, 1);
  std::vector<Arrival> burst;
  for (int i = 0; i < 64; ++i) {
    burst.push_back({Seconds(1), 0});
  }
  const ServingMetrics m = server.Run(Trace(std::move(burst)));
  ASSERT_EQ(m.count(), 64u);
  Nanos prev = 0;
  for (const RequestRecord& r : m.records()) {
    EXPECT_GE(r.completion, prev);
    prev = r.completion;
  }
}

// ---------------------------------------------------------------- sim stress

TEST(SimStressTest, ManyInterleavedTransfersConserveBytes) {
  Simulator sim;
  Fabric fabric(&sim);
  const LinkId uplink = fabric.AddLink("uplink", 10e9);
  std::vector<LinkId> leaves;
  for (int i = 0; i < 8; ++i) {
    leaves.push_back(fabric.AddLink("leaf" + std::to_string(i), 4e9));
  }
  Rng rng(9);
  int completed = 0;
  const int kTransfers = 200;
  for (int t = 0; t < kTransfers; ++t) {
    const auto bytes = static_cast<std::int64_t>(1 + rng.NextBounded(5'000'000));
    const LinkId leaf = leaves[rng.NextBounded(leaves.size())];
    sim.ScheduleAfter(static_cast<Nanos>(rng.NextBounded(Millis(5))), [&, bytes,
                                                                       leaf]() {
      fabric.Start({uplink, leaf}, bytes, Micros(5), [&](Nanos elapsed) {
        EXPECT_GT(elapsed, 0);
        ++completed;
      });
    });
  }
  sim.Run();
  EXPECT_EQ(completed, kTransfers);
  EXPECT_EQ(fabric.active_transfers(), 0);
}

TEST(SimStressTest, DeepStreamChainCompletesInOrder) {
  Simulator sim;
  Stream stream(&sim, "deep");
  int counter = 0;
  for (int i = 0; i < 10'000; ++i) {
    stream.EnqueueMarker([&counter, i]() {
      EXPECT_EQ(counter, i);
      ++counter;
    });
  }
  sim.Run();
  EXPECT_EQ(counter, 10'000);
  EXPECT_TRUE(stream.idle());
}

TEST(SimStressTest, CancelStormLeavesQueueConsistent) {
  Simulator sim;
  Rng rng(31);
  std::vector<EventQueue::EventId> ids;
  int fired = 0;
  for (int i = 0; i < 2000; ++i) {
    ids.push_back(
        sim.ScheduleAfter(static_cast<Nanos>(rng.NextBounded(1'000'000)),
                          [&fired]() { ++fired; }));
  }
  int cancelled = 0;
  for (std::size_t i = 0; i < ids.size(); i += 2) {
    cancelled += sim.Cancel(ids[i]) ? 1 : 0;
  }
  sim.Run();
  EXPECT_EQ(fired + cancelled, 2000);
  EXPECT_EQ(cancelled, 1000);
}

}  // namespace
}  // namespace deepplan
