#include <gtest/gtest.h>

#include "src/core/profiler.h"
#include "src/engine/engine.h"
#include "src/engine/strategies.h"
#include "src/model/zoo.h"

namespace deepplan {
namespace {

class EngineTest : public ::testing::Test {
 protected:
  EngineTest()
      : topology_(Topology::P3_8xlarge()),
        perf_(topology_.gpu(), topology_.pcie()),
        fabric_(&sim_, &topology_),
        engine_(&sim_, &fabric_, &perf_) {}

  ModelProfile ExactProfile(const Model& model) {
    ProfilerOptions opts;
    opts.noise_stddev = 0.0;
    return Profiler(&perf_, opts).Profile(model);
  }

  InferenceResult RunColdSync(const Model& model, const ExecutionPlan& plan,
                              GpuId primary, std::vector<GpuId> secondaries,
                              const ColdRunOptions& options) {
    InferenceResult result;
    bool finished = false;
    engine_.RunCold(model, plan, primary, std::move(secondaries), options,
                    [&](const InferenceResult& r) {
                      result = r;
                      finished = true;
                    });
    sim_.Run();
    EXPECT_TRUE(finished);
    return result;
  }

  Topology topology_;
  PerfModel perf_;
  Simulator sim_;
  ServerFabric fabric_;
  Engine engine_;
};

TEST_F(EngineTest, WarmDurationMatchesPerfModel) {
  const Model model = ModelZoo::BertBase();
  const ExecutionPlan all_load(model.name(), model.num_layers());
  EXPECT_EQ(engine_.WarmDuration(model, all_load, 1), perf_.WarmLatency(model, 1));
}

TEST_F(EngineTest, WarmWithDhaPlanIsSlowerThanAllInMemory) {
  const Model model = ModelZoo::BertBase();
  const ModelProfile profile = ExactProfile(model);
  const ExecutionPlan dha_plan = Planner(&profile).GeneratePlan();
  const ExecutionPlan all_load(model.name(), model.num_layers());
  EXPECT_GT(engine_.WarmDuration(model, dha_plan, 1),
            engine_.WarmDuration(model, all_load, 1));
}

TEST_F(EngineTest, BaselineColdIsLoadPlusExec) {
  const Model model = ModelZoo::BertBase();
  const ExecutionPlan plan(model.name(), model.num_layers());
  ColdRunOptions options;
  options.pipelined = false;
  const InferenceResult r = RunColdSync(model, plan, 0, {}, options);
  // Latency ~= total load + warm exec (within 3%: fabric rounding).
  const double expected = static_cast<double>(perf_.TotalLoadTime(model)) +
                          static_cast<double>(perf_.WarmLatency(model, 1));
  EXPECT_NEAR(static_cast<double>(r.latency), expected, expected * 0.03);
  EXPECT_TRUE(r.cold);
}

TEST_F(EngineTest, PipelinedColdBeatsBaseline) {
  const Model model = ModelZoo::BertBase();
  const ExecutionPlan plan(model.name(), model.num_layers());
  ColdRunOptions baseline;
  baseline.pipelined = false;
  const InferenceResult rb = RunColdSync(model, plan, 0, {}, baseline);

  Simulator sim2;
  ServerFabric fabric2(&sim2, &topology_);
  Engine engine2(&sim2, &fabric2, &perf_);
  InferenceResult rp;
  engine2.RunCold(model, plan, 0, {}, ColdRunOptions{},
                  [&](const InferenceResult& r) { rp = r; });
  sim2.Run();

  EXPECT_LT(rp.latency, rb.latency);
  EXPECT_GT(rp.stall, 0);
}

TEST_F(EngineTest, EngineAgreesWithAnalyticPipelineUncontended) {
  // The analytic model (used by the planner) and the event-driven engine must
  // agree in the uncontended single-run case: same plan, same timeline.
  for (const char* name : {"bert_base", "resnet50", "gpt2"}) {
    const Model model = ModelZoo::ByName(name);
    const ModelProfile profile = ExactProfile(model);
    const ExecutionPlan plan = Planner(&profile).GeneratePlan();

    Simulator sim;
    ServerFabric fabric(&sim, &topology_);
    Engine engine(&sim, &fabric, &perf_);
    InferenceResult engine_result;
    engine.RunCold(model, plan, 0, {}, ColdRunOptions{},
                   [&](const InferenceResult& r) { engine_result = r; });
    sim.Run();

    const PipelineResult analytic = SimulatePipeline(profile, plan);
    EXPECT_NEAR(static_cast<double>(engine_result.latency),
                static_cast<double>(analytic.total),
                static_cast<double>(analytic.total) * 0.02)
        << name;
  }
}

TEST_F(EngineTest, ParallelTransmissionUsesTwoLanes) {
  const Model model = ModelZoo::BertLarge();
  const ModelProfile profile = ExactProfile(model);
  PlannerOptions options;
  options.enable_dha = false;
  options.num_partitions = 2;
  const ExecutionPlan plan = Planner(&profile).GeneratePlan(options);
  const InferenceResult r = RunColdSync(model, plan, 0, {2}, ColdRunOptions{});
  ASSERT_EQ(r.partitions.size(), 2u);
  EXPECT_GT(r.partitions[0].bytes, 0);
  EXPECT_GT(r.partitions[1].bytes, 0);
  // Both lanes pull roughly half the model; PCIe completion of each lane is
  // well under the serial load time.
  EXPECT_LT(r.partitions[0].pcie_done, perf_.TotalLoadTime(model) * 3 / 4);
  EXPECT_LT(r.partitions[1].pcie_done, perf_.TotalLoadTime(model) * 3 / 4);
}

TEST_F(EngineTest, PtColdBeatsSingleLanePipelineForBert) {
  const Model model = ModelZoo::BertLarge();
  const ModelProfile profile = ExactProfile(model);
  const ExecutionPlan pipe(model.name(), model.num_layers());
  PlannerOptions pt_opts;
  pt_opts.enable_dha = false;
  pt_opts.num_partitions = 2;
  const ExecutionPlan pt = Planner(&profile).GeneratePlan(pt_opts);

  Simulator sim_a;
  ServerFabric fab_a(&sim_a, &topology_);
  Engine eng_a(&sim_a, &fab_a, &perf_);
  InferenceResult ra;
  eng_a.RunCold(model, pipe, 0, {}, ColdRunOptions{},
                [&](const InferenceResult& r) { ra = r; });
  sim_a.Run();

  Simulator sim_b;
  ServerFabric fab_b(&sim_b, &topology_);
  Engine eng_b(&sim_b, &fab_b, &perf_);
  InferenceResult rb;
  eng_b.RunCold(model, pt, 0, {2}, ColdRunOptions{},
                [&](const InferenceResult& r) { rb = r; });
  sim_b.Run();

  EXPECT_LT(static_cast<double>(rb.latency), static_cast<double>(ra.latency) * 0.8);
}

TEST_F(EngineTest, BulkMigrationSlowerThanPipelined) {
  // Figure 6: parallel-pipeline beats plain parallel (bulk forwarding).
  const Model model = ModelZoo::BertBase();
  const ModelProfile profile = ExactProfile(model);
  PlannerOptions opts;
  opts.enable_dha = false;
  opts.num_partitions = 2;
  const ExecutionPlan plan = Planner(&profile).GeneratePlan(opts);

  Nanos load_done[2];
  int idx = 0;
  for (const MigrationMode mode : {MigrationMode::kPipelined, MigrationMode::kBulk}) {
    Simulator sim;
    ServerFabric fabric(&sim, &topology_);
    Engine engine(&sim, &fabric, &perf_);
    ColdRunOptions options;
    options.migration = mode;
    InferenceResult result;
    engine.RunCold(model, plan, 0, {2}, options,
                   [&](const InferenceResult& r) { result = r; });
    sim.Run();
    load_done[idx++] = result.load_done;
  }
  EXPECT_LT(load_done[0], load_done[1]);
}

TEST_F(EngineTest, SameSwitchSecondaryContendsOnUplink) {
  // Loading via GPUs 0 and 1 (same switch) shares the uplink; via 0 and 2
  // (different switches) does not. Load completion must be later when paired
  // on one switch.
  const Model model = ModelZoo::BertLarge();
  const ModelProfile profile = ExactProfile(model);
  PlannerOptions opts;
  opts.enable_dha = false;
  opts.num_partitions = 2;
  const ExecutionPlan plan = Planner(&profile).GeneratePlan(opts);

  Nanos done_same = 0;
  Nanos done_other = 0;
  for (const GpuId secondary : {1, 2}) {
    Simulator sim;
    ServerFabric fabric(&sim, &topology_);
    Engine engine(&sim, &fabric, &perf_);
    InferenceResult result;
    engine.RunCold(model, plan, 0, {secondary}, ColdRunOptions{},
                   [&](const InferenceResult& r) { result = r; });
    sim.Run();
    (secondary == 1 ? done_same : done_other) = result.load_done;
  }
  EXPECT_GT(static_cast<double>(done_same), static_cast<double>(done_other) * 1.3);
}

TEST_F(EngineTest, ConcurrentColdStartsInterfere) {
  // Table 4: two simultaneous PT cold-starts are slower than one, but still
  // complete. GPUs 0 and 2 both run PT with each other as secondary.
  const Model model = ModelZoo::BertBase();
  const ModelProfile profile = ExactProfile(model);
  PlannerOptions opts;
  opts.enable_dha = false;
  opts.num_partitions = 2;
  const ExecutionPlan plan = Planner(&profile).GeneratePlan(opts);

  InferenceResult solo;
  {
    Simulator sim;
    ServerFabric fabric(&sim, &topology_);
    Engine engine(&sim, &fabric, &perf_);
    engine.RunCold(model, plan, 0, {2}, ColdRunOptions{},
                   [&](const InferenceResult& r) { solo = r; });
    sim.Run();
  }
  InferenceResult dual_a;
  InferenceResult dual_b;
  {
    Simulator sim;
    ServerFabric fabric(&sim, &topology_);
    Engine engine(&sim, &fabric, &perf_);
    engine.RunCold(model, plan, 0, {2}, ColdRunOptions{},
                   [&](const InferenceResult& r) { dual_a = r; });
    engine.RunCold(model, plan, 2, {0}, ColdRunOptions{},
                   [&](const InferenceResult& r) { dual_b = r; });
    sim.Run();
  }
  EXPECT_GT(dual_a.latency, solo.latency);
  EXPECT_GT(dual_b.latency, solo.latency);
  // but far from a 2x collapse (NVLink lanes are independent):
  EXPECT_LT(dual_a.latency, solo.latency * 2);
}

TEST_F(EngineTest, DhaPlanSkipsLoadingHostResidentLayers) {
  const Model model = ModelZoo::BertBase();
  const ModelProfile profile = ExactProfile(model);
  const ExecutionPlan plan = Planner(&profile).GeneratePlan();
  ASSERT_GT(plan.CountDha(), 0u);
  const InferenceResult r = RunColdSync(model, plan, 0, {}, ColdRunOptions{});
  std::int64_t loaded = 0;
  for (const auto& p : r.partitions) {
    loaded += p.bytes;
  }
  EXPECT_EQ(loaded, plan.GpuResidentBytes(profile));
  EXPECT_LT(loaded, model.total_param_bytes());
}

// ---------------------------------------------------------------- strategies

TEST(StrategiesTest, NamesAndDegrees) {
  const Topology p3 = Topology::P3_8xlarge();
  EXPECT_STREQ(StrategyName(Strategy::kPipeSwitch), "PipeSwitch");
  EXPECT_EQ(AllStrategies().size(), 5u);
  EXPECT_EQ(StrategyDegree(Strategy::kBaseline, p3, 0), 1);
  EXPECT_EQ(StrategyDegree(Strategy::kDeepPlanDha, p3, 0), 1);
  EXPECT_EQ(StrategyDegree(Strategy::kDeepPlanPt, p3, 0), 2);
  EXPECT_EQ(StrategyDegree(Strategy::kDeepPlanPtDha, p3, 0), 2);
}

TEST(StrategiesTest, PlanShapesPerStrategy) {
  PerfModel perf(GpuSpec::V100(), PcieSpec::Gen3());
  ProfilerOptions opts;
  opts.noise_stddev = 0.0;
  const ModelProfile profile =
      Profiler(&perf, opts).Profile(ModelZoo::BertBase());
  const auto plan_for = [&](Strategy s, int degree) {
    return MakeStrategyPlan(s, profile, degree);
  };
  EXPECT_EQ(plan_for(Strategy::kBaseline, 1).CountDha(), 0u);
  EXPECT_EQ(plan_for(Strategy::kPipeSwitch, 1).CountDha(), 0u);
  EXPECT_GT(plan_for(Strategy::kDeepPlanDha, 1).CountDha(), 0u);
  EXPECT_EQ(plan_for(Strategy::kDeepPlanPt, 2).num_partitions(), 2);
  EXPECT_EQ(plan_for(Strategy::kDeepPlanPt, 2).CountDha(), 0u);
  const ExecutionPlan ptdha = plan_for(Strategy::kDeepPlanPtDha, 2);
  EXPECT_EQ(ptdha.num_partitions(), 2);
  EXPECT_GT(ptdha.CountDha(), 0u);
}

TEST(StrategiesTest, OnlyBaselineIsUnpipelined) {
  for (const Strategy s : AllStrategies()) {
    EXPECT_EQ(MakeColdRunOptions(s).pipelined, s != Strategy::kBaseline);
  }
}

}  // namespace
}  // namespace deepplan
