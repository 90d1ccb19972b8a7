// Tests for grouped transmission: coalescing consecutive layers into one copy.
#include <gtest/gtest.h>

#include "src/deepplan.h"

namespace deepplan {
namespace {

ModelProfile ExactProfile(const PerfModel& perf, const Model& model) {
  ProfilerOptions opts;
  opts.noise_stddev = 0.0;
  return Profiler(&perf, opts).Profile(model);
}

// ---------------------------------------------------------------- grouping

class GroupedTransmissionTest : public ::testing::Test {
 protected:
  GroupedTransmissionTest()
      : topology_(Topology::P3_8xlarge()),
        perf_(topology_.gpu(), topology_.pcie()) {}

  InferenceResult Run(const Model& model, int group, int partitions = 1) {
    const ModelProfile profile = ExactProfile(perf_, model);
    ExecutionPlan plan(model.name(), model.num_layers());
    if (partitions > 1) {
      TransmissionPlanner::AssignPartitions(profile, partitions, &plan);
    }
    Simulator sim;
    ServerFabric fabric(&sim, &topology_);
    Engine engine(&sim, &fabric, &perf_);
    ColdRunOptions options;
    options.transfer_group_layers = group;
    InferenceResult result;
    std::vector<GpuId> secondaries;
    if (partitions > 1) {
      secondaries = TransmissionPlanner::ChooseSecondaries(topology_, 0, partitions);
    }
    engine.RunCold(model, plan, 0, secondaries, options,
                   [&](const InferenceResult& r) { result = r; });
    sim.Run();
    return result;
  }

  Topology topology_;
  PerfModel perf_;
};

TEST_F(GroupedTransmissionTest, GroupingPreservesByteConservation) {
  const Model model = ModelZoo::ResNet50();
  for (const int group : {1, 3, 8, 1000}) {
    const InferenceResult r = Run(model, group);
    std::int64_t shipped = 0;
    for (const auto& p : r.partitions) {
      shipped += p.bytes;
    }
    EXPECT_EQ(shipped, model.total_param_bytes()) << "group " << group;
  }
}

TEST_F(GroupedTransmissionTest, GroupingHelpsSmallLayerModels) {
  // ResNet has ~110 parameterized layers averaging <1 MiB: coalescing saves
  // most of the per-copy overhead.
  const Model model = ModelZoo::ResNet50();
  EXPECT_LT(Run(model, 8).latency, Run(model, 1).latency);
}

TEST_F(GroupedTransmissionTest, WholeModelGroupApproachesBaselineLoad) {
  // One giant group = no pipelining benefit: execution waits for everything.
  const Model model = ModelZoo::BertBase();
  const InferenceResult grouped = Run(model, 1 << 20);
  const double expected = static_cast<double>(perf_.WarmLatency(model, 1)) +
                          static_cast<double>(model.total_param_bytes()) /
                              topology_.pcie().effective_bw_bytes_per_sec * 1e9;
  EXPECT_NEAR(static_cast<double>(grouped.latency), expected, expected * 0.05);
}

TEST_F(GroupedTransmissionTest, GroupingWorksWithPartitions) {
  const Model model = ModelZoo::BertLarge();
  const InferenceResult r = Run(model, 4, /*partitions=*/2);
  ASSERT_EQ(r.partitions.size(), 2u);
  EXPECT_GT(r.partitions[1].bytes, 0);
  EXPECT_GT(r.latency, 0);
}

}  // namespace
}  // namespace deepplan
