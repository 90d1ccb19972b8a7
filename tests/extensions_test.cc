// Tests for the extension modules: distributed execution (the Section 2.3
// road-not-taken), eviction policies, Algorithm 1 ordering ablation, plan
// repository persistence, Chrome-trace timeline recording, and the DGX-1
// topology.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>

#include "src/core/plan_repository.h"
#include "src/deepplan.h"
#include "src/engine/distributed.h"

namespace deepplan {
namespace {

ModelProfile ExactProfile(const PerfModel& perf, const Model& model) {
  ProfilerOptions opts;
  opts.noise_stddev = 0.0;
  return Profiler(&perf, opts).Profile(model);
}

// ---------------------------------------------------------------- distributed

class DistributedTest : public ::testing::Test {
 protected:
  DistributedTest()
      : topology_(Topology::P3_8xlarge()),
        perf_(topology_.gpu(), topology_.pcie()) {}
  Topology topology_;
  PerfModel perf_;
};

TEST_F(DistributedTest, WarmPaysBoundaryCostEveryInference) {
  // The paper's core argument against distributed execution: even in-memory
  // inferences pay GPU-to-GPU transfers.
  const Model model = ModelZoo::BertBase();
  const ModelProfile profile = ExactProfile(perf_, model);
  ExecutionPlan plan(model.name(), model.num_layers());
  TransmissionPlanner::AssignPartitions(profile, 2, &plan);
  Simulator sim;
  ServerFabric fabric(&sim, &topology_);
  DistributedEngine dist(&sim, &fabric, &perf_);
  const Nanos merged = perf_.WarmLatency(model, 1);
  const Nanos distributed = dist.WarmDuration(model, plan, {0, 2}, {});
  EXPECT_GT(distributed, merged);
}

TEST_F(DistributedTest, MorePartitionsMoreBoundaries) {
  const Model model = ModelZoo::Gpt2Medium();
  const ModelProfile profile = ExactProfile(perf_, model);
  Simulator sim;
  ServerFabric fabric(&sim, &topology_);
  DistributedEngine dist(&sim, &fabric, &perf_);
  ExecutionPlan p2(model.name(), model.num_layers());
  TransmissionPlanner::AssignPartitions(profile, 2, &p2);
  ExecutionPlan p4(model.name(), model.num_layers());
  TransmissionPlanner::AssignPartitions(profile, 4, &p4);
  EXPECT_GT(dist.WarmDuration(model, p4, {0, 1, 2, 3}, {}),
            dist.WarmDuration(model, p2, {0, 2}, {}));
}

TEST_F(DistributedTest, ColdRunCompletesAndConserves) {
  const Model model = ModelZoo::BertLarge();
  const ModelProfile profile = ExactProfile(perf_, model);
  ExecutionPlan plan(model.name(), model.num_layers());
  TransmissionPlanner::AssignPartitions(profile, 2, &plan);
  Simulator sim;
  ServerFabric fabric(&sim, &topology_);
  DistributedEngine dist(&sim, &fabric, &perf_);
  InferenceResult result;
  bool done = false;
  dist.RunCold(model, plan, {0, 2}, DistributedRunOptions{},
               [&](const InferenceResult& r) {
                 result = r;
                 done = true;
               });
  sim.Run();
  ASSERT_TRUE(done);
  std::int64_t shipped = 0;
  for (const auto& p : result.partitions) {
    shipped += p.bytes;
  }
  EXPECT_EQ(shipped, model.total_param_bytes());
  EXPECT_GT(result.latency, 0);
}

// ---------------------------------------------------------------- eviction

TEST(EvictionPolicyTest, FifoEvictsOldestResident) {
  InstanceManager mgr(1, 1000, EvictionPolicy::kFifo);
  const int a = mgr.AddInstance(0, 0, 400);
  const int b = mgr.AddInstance(0, 0, 400);
  const int c = mgr.AddInstance(0, 0, 400);
  std::vector<int> evicted;
  ASSERT_TRUE(mgr.MakeResident(a, 1, &evicted));
  ASSERT_TRUE(mgr.MakeResident(b, 2, &evicted));
  mgr.MarkUsed(a, 10);  // FIFO ignores recency: a is still oldest-resident
  ASSERT_TRUE(mgr.MakeResident(c, 11, &evicted));
  ASSERT_EQ(evicted.size(), 1u);
  EXPECT_EQ(evicted[0], a);
}

TEST(EvictionPolicyTest, RandomIsDeterministicPerSeed) {
  auto run = [](std::uint64_t seed) {
    InstanceManager mgr(1, 2000, EvictionPolicy::kRandom, seed);
    std::vector<int> ids;
    for (int i = 0; i < 5; ++i) {
      ids.push_back(mgr.AddInstance(0, 0, 400));
    }
    std::vector<int> evicted;
    for (int i = 0; i < 5; ++i) {
      EXPECT_TRUE(mgr.MakeResident(ids[i], i, &evicted));
    }
    const int extra = mgr.AddInstance(0, 0, 400);
    EXPECT_TRUE(mgr.MakeResident(extra, 99, &evicted));
    return evicted;
  };
  EXPECT_EQ(run(7), run(7));
}

TEST(EvictionPolicyTest, NamesAreStable) {
  EXPECT_STREQ(EvictionPolicyName(EvictionPolicy::kLru), "LRU");
  EXPECT_STREQ(EvictionPolicyName(EvictionPolicy::kFifo), "FIFO");
  EXPECT_STREQ(EvictionPolicyName(EvictionPolicy::kRandom), "Random");
}

TEST(EvictionPolicyTest, LruNeverWorseThanRandomUnderLocality) {
  // With Poisson traffic (uniform popularity) the gap is small, but LRU must
  // not lose: both policies serve the same workload.
  auto run = [](EvictionPolicy policy) {
    const Topology topology = Topology::P3_8xlarge();
    const PerfModel perf(topology.gpu(), topology.pcie());
    ServerOptions options;
    options.strategy = Strategy::kDeepPlanPtDha;
    options.eviction_policy = policy;
    Server server(topology, perf, options);
    const int type = server.RegisterModelType(ModelZoo::BertBase());
    server.AddInstances(type, 160);
    PoissonOptions w;
    w.rate_per_sec = 80;
    w.num_instances = 160;
    w.duration = Seconds(8);
    w.seed = 5;
    return server.Run(GeneratePoissonTrace(w)).ColdStartRate();
  };
  EXPECT_LE(run(EvictionPolicy::kLru), run(EvictionPolicy::kRandom) * 1.15);
}

// ---------------------------------------------------------------- ordering

TEST(CandidateOrderTest, PaperOrderingNeverLosesOnColdLatency) {
  const PerfModel perf(GpuSpec::V100(), PcieSpec::Gen3());
  for (const Model& model : ModelZoo::PaperModels()) {
    const ModelProfile profile = ExactProfile(perf, model);
    Planner planner(&profile);
    Nanos best_alt = std::numeric_limits<Nanos>::max();
    Nanos paper = 0;
    for (const CandidateOrder order :
         {CandidateOrder::kPerfDiffAscending, CandidateOrder::kLoadDescending,
          CandidateOrder::kLayerOrder}) {
      PlannerOptions options;
      options.candidate_order = order;
      const Nanos total =
          SimulatePipeline(profile, planner.GeneratePlan(options), options.pipeline)
              .total;
      if (order == CandidateOrder::kPerfDiffAscending) {
        paper = total;
      } else {
        best_alt = std::min(best_alt, total);
      }
    }
    // The paper's ordering is within 2% of the best alternative (and usually
    // strictly best).
    EXPECT_LE(static_cast<double>(paper), static_cast<double>(best_alt) * 1.02)
        << model.name();
  }
}

TEST(CandidateOrderTest, NamesAreStable) {
  EXPECT_STREQ(CandidateOrderName(CandidateOrder::kPerfDiffAscending),
               "PerfDiff-ascending (paper)");
  EXPECT_STREQ(CandidateOrderName(CandidateOrder::kLoadDescending),
               "Load-descending");
  EXPECT_STREQ(CandidateOrderName(CandidateOrder::kLayerOrder), "Layer-order");
}

// ---------------------------------------------------------------- repository

TEST(PlanRepositoryTest, MemoryRoundTrip) {
  PlanRepository repo("");
  const PerfModel perf(GpuSpec::V100(), PcieSpec::Gen3());
  const Model model = ModelZoo::BertBase();
  const ModelProfile profile = ExactProfile(perf, model);
  const ExecutionPlan plan = Planner(&profile).GeneratePlan();
  const std::string key = PlanRepository::Key("bert_base", "p3.8xlarge", "pt_dha", 1);
  EXPECT_FALSE(repo.Contains(key));
  EXPECT_TRUE(repo.Store(key, plan));
  ASSERT_TRUE(repo.Contains(key));
  const auto loaded = repo.Load(key);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->CountDha(), plan.CountDha());
}

TEST(PlanRepositoryTest, DiskPersistsAcrossInstances) {
  const std::string dir = ::testing::TempDir() + "/plan_repo_test";
  std::filesystem::create_directories(dir);
  const PerfModel perf(GpuSpec::V100(), PcieSpec::Gen3());
  const Model model = ModelZoo::ResNet50();
  const ModelProfile profile = ExactProfile(perf, model);
  const ExecutionPlan plan = Planner(&profile).GeneratePlan();
  const std::string key = PlanRepository::Key("resnet50", "p3.8xlarge", "dha", 1);
  {
    PlanRepository writer(dir);
    EXPECT_TRUE(writer.Store(key, plan));
  }
  PlanRepository reader(dir);
  EXPECT_EQ(reader.MemoryCacheSize(), 0u);
  const auto loaded = reader.Load(key);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->num_layers(), plan.num_layers());
  for (std::size_t i = 0; i < plan.num_layers(); ++i) {
    EXPECT_EQ(loaded->method(i), plan.method(i));
  }
  std::filesystem::remove_all(dir);
}

TEST(PlanRepositoryTest, KeySanitizesUnsafeCharacters) {
  const std::string key = PlanRepository::Key("a/b", "p3 8xlarge", "pt+dha", 4);
  EXPECT_EQ(key.find('/'), std::string::npos);
  EXPECT_EQ(key.find(' '), std::string::npos);
  EXPECT_EQ(key.find('+'), std::string::npos);
  EXPECT_NE(key.find("b4"), std::string::npos);
}

TEST(PlanRepositoryTest, MissingKeyAndCorruptFile) {
  const std::string dir = ::testing::TempDir() + "/plan_repo_corrupt";
  std::filesystem::create_directories(dir);
  PlanRepository repo(dir);
  EXPECT_FALSE(repo.Load("nope").has_value());
  {
    std::FILE* f = std::fopen((dir + "/bad.plan").c_str(), "w");
    std::fputs("garbage", f);
    std::fclose(f);
  }
  EXPECT_FALSE(repo.Load("bad").has_value());
  std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------- timeline

TEST(TimelineTest, RecordingCapturesLoadsMigrationsAndExecs) {
  const Topology topology = Topology::P3_8xlarge();
  const PerfModel perf(topology.gpu(), topology.pcie());
  const Model model = ModelZoo::BertBase();
  const ModelProfile profile = ExactProfile(perf, model);
  const ExecutionPlan plan = MakeStrategyPlan(Strategy::kDeepPlanPtDha, profile, 2);
  Simulator sim;
  ServerFabric fabric(&sim, &topology);
  Engine engine(&sim, &fabric, &perf);
  TraceRecorder recorder;
  engine.set_telemetry(&recorder);
  InferenceResult result;
  engine.RunCold(model, plan, 0, {2}, ColdRunOptions{},
                 [&](const InferenceResult& r) { result = r; });
  sim.Run();
  ASSERT_FALSE(recorder.empty());
  bool saw_load = false;
  bool saw_migrate = false;
  bool saw_exec = false;
  std::size_t execs = 0;
  for (const TraceEvent& e : recorder.document().events) {
    EXPECT_GE(e.ts, 0);
    EXPECT_GE(e.duration, 0);
    EXPECT_LE(e.ts + e.duration, result.latency);
    saw_load |= e.track.rfind("pcie/", 0) == 0;
    saw_migrate |= e.track.rfind("nvlink/", 0) == 0;
    saw_exec |= e.track.rfind("exec/", 0) == 0;
    execs += e.phase == TracePhase::kSpan && e.track.rfind("exec/", 0) == 0 ? 1 : 0;
  }
  EXPECT_TRUE(saw_load);
  EXPECT_TRUE(saw_migrate);
  EXPECT_TRUE(saw_exec);
  // Exactly one exec slice per layer.
  EXPECT_EQ(execs, model.num_layers());
}

TEST(TimelineTest, RecordingDoesNotChangeLatency) {
  const Topology topology = Topology::P3_8xlarge();
  const PerfModel perf(topology.gpu(), topology.pcie());
  const Model model = ModelZoo::ResNet50();
  const ModelProfile profile = ExactProfile(perf, model);
  const ExecutionPlan plan = MakeStrategyPlan(Strategy::kDeepPlanDha, profile, 1);
  Nanos latency[2];
  for (int recording = 0; recording < 2; ++recording) {
    Simulator sim;
    ServerFabric fabric(&sim, &topology);
    Engine engine(&sim, &fabric, &perf);
    TraceRecorder recorder;
    if (recording == 1) {
      engine.set_telemetry(&recorder);
    }
    InferenceResult result;
    engine.RunCold(model, plan, 0, {}, ColdRunOptions{},
                   [&](const InferenceResult& r) { result = r; });
    sim.Run();
    latency[recording] = result.latency;
  }
  EXPECT_EQ(latency[0], latency[1]);
}

TEST(ChromeTraceTest, JsonIsWellFormedAndEscaped) {
  TraceDocument doc;
  doc.events = {
      {TracePhase::kSpan, 0, "pcie/gpu0", "load \"emb\"", Micros(1), Micros(10)},
      {TracePhase::kSpan, 0, "exec/gpu0", "exec emb", Micros(11), Micros(5)},
  };
  const std::string json = ChromeTraceWriter::ToJson(doc);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("load \\\"emb\\\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
}

TEST(ChromeTraceTest, WriteToFile) {
  const std::string path = ::testing::TempDir() + "/trace_test.json";
  TraceDocument doc;
  doc.events = {{TracePhase::kSpan, 0, "t", "a", 0, 10}};
  EXPECT_TRUE(ChromeTraceWriter::WriteTo(path, doc));
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::remove(path.c_str());
}

// ---------------------------------------------------------------- dgx1

TEST(Dgx1Test, TopologyShape) {
  const Topology t = Topology::Dgx1();
  EXPECT_EQ(t.num_gpus(), 8);
  EXPECT_EQ(t.num_switches(), 4);
  EXPECT_EQ(t.MaxParallelDegree(0), 4);
  const auto secondaries = TransmissionPlanner::ChooseSecondaries(t, 0, 4);
  ASSERT_EQ(secondaries.size(), 3u);
  // One secondary per other switch, none sharing the primary's switch.
  std::vector<bool> seen(4, false);
  seen[t.switch_of(0)] = true;
  for (const GpuId g : secondaries) {
    EXPECT_FALSE(seen[t.switch_of(g)]);
    seen[t.switch_of(g)] = true;
  }
}

TEST(Dgx1Test, HigherDegreeLoadsFasterForBigModels) {
  const Topology t = Topology::Dgx1();
  const PerfModel perf(t.gpu(), t.pcie());
  const Model model = ModelZoo::RobertaLarge();
  const ModelProfile profile = ExactProfile(perf, model);
  Nanos prev = std::numeric_limits<Nanos>::max();
  for (const int degree : {1, 2, 4}) {
    PlannerOptions options;
    options.enable_dha = false;
    options.num_partitions = degree;
    const ExecutionPlan plan = Planner(&profile).GeneratePlan(options);
    Simulator sim;
    ServerFabric fabric(&sim, &t);
    Engine engine(&sim, &fabric, &perf);
    InferenceResult result;
    engine.RunCold(model, plan, 0,
                   TransmissionPlanner::ChooseSecondaries(t, 0, degree),
                   ColdRunOptions{}, [&](const InferenceResult& r) { result = r; });
    sim.Run();
    EXPECT_LT(result.load_done, prev) << "degree " << degree;
    prev = result.load_done;
  }
}

}  // namespace
}  // namespace deepplan
