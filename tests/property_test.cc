// Property-style invariants swept over the full model x strategy x batch x
// topology space with parameterized gtest. These catch regressions the
// calibration tests cannot: orderings and conservation laws that must hold
// for *any* consistent provisioning simulator.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <tuple>
#include <vector>

#include "src/check/validator.h"
#include "src/core/profiler.h"
#include "src/core/transmission.h"
#include "src/engine/strategies.h"
#include "src/model/zoo.h"
#include "src/sim/event_queue.h"
#include "src/util/rng.h"
#include "tests/eventqueue_schedules.h"

namespace deepplan {
namespace {

struct RunOutput {
  InferenceResult result;
  ExecutionPlan plan;
  ModelProfile profile;
};

RunOutput RunOnce(const std::string& model_name, Strategy strategy, int batch,
                  const Topology& topology) {
  const Model model = ModelZoo::ByName(model_name);
  const PerfModel perf(topology.gpu(), topology.pcie());
  ProfilerOptions opts;
  opts.noise_stddev = 0.0;
  opts.batch = batch;
  RunOutput out;
  out.profile = Profiler(&perf, opts).Profile(model);
  const int degree = StrategyDegree(strategy, topology, 0);
  PipelineOptions pipeline;
  pipeline.nvlink = topology.nvlink();
  out.plan = MakeStrategyPlan(strategy, out.profile, degree, pipeline);
  Simulator sim;
  ServerFabric fabric(&sim, &topology);
  Engine engine(&sim, &fabric, &perf);
  bool done = false;
  engine.RunCold(model, out.plan, 0,
                 TransmissionPlanner::ChooseSecondaries(topology, 0, degree),
                 MakeColdRunOptions(strategy, batch), [&](const InferenceResult& r) {
                   out.result = r;
                   done = true;
                 });
  sim.Run();
  EXPECT_TRUE(done) << model_name;
  return out;
}

using SweepParam = std::tuple<std::string, Strategy, int>;

class ColdRunSweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(ColdRunSweep, InvariantsHold) {
  const auto& [model_name, strategy, batch] = GetParam();
  const Topology topology = Topology::P3_8xlarge();
  const Model model = ModelZoo::ByName(model_name);
  const RunOutput out = RunOnce(model_name, strategy, batch, topology);

  // (1) Plan validates against its profile.
  EXPECT_FALSE(out.plan.Validate(out.profile).has_value());

  // (2) Latency decomposes: exec time + stalls == total (within rounding).
  EXPECT_NEAR(static_cast<double>(out.result.latency),
              static_cast<double>(out.result.exec_busy + out.result.stall),
              static_cast<double>(out.result.latency) * 0.001);

  // (3) Conservation: bytes shipped over PCIe equal the plan's GPU-resident
  // bytes; DHA layers never cross as loads.
  std::int64_t shipped = 0;
  for (const auto& p : out.result.partitions) {
    shipped += p.bytes;
  }
  EXPECT_EQ(shipped, out.plan.GpuResidentBytes(out.profile));
  EXPECT_EQ(shipped + out.plan.HostResidentBytes(out.profile),
            model.total_param_bytes());

  // (4) Execution cannot finish before all loaded layers arrive... the last
  // layer's execution ends at `latency` >= load_done only if the last layers
  // load; in general load_done <= latency for pipelined runs of these plans.
  EXPECT_LE(out.result.load_done, out.result.latency);

  // (5) Latency at least the warm execution floor and at most baseline's
  // load-everything-then-execute ceiling.
  const PerfModel perf(topology.gpu(), topology.pcie());
  EXPECT_GE(out.result.latency, perf.WarmLatency(model, batch));
}

INSTANTIATE_TEST_SUITE_P(
    AllModelsStrategiesBatches, ColdRunSweep,
    ::testing::Combine(::testing::Values("resnet50", "bert_base", "gpt2",
                                         "roberta_large"),
                       ::testing::Values(Strategy::kBaseline, Strategy::kPipeSwitch,
                                         Strategy::kDeepPlanDha, Strategy::kDeepPlanPt,
                                         Strategy::kDeepPlanPtDha),
                       ::testing::Values(1, 4)),
    [](const ::testing::TestParamInfo<SweepParam>& info) {
      std::string s = StrategyName(std::get<1>(info.param));
      for (char& c : s) {
        if (!std::isalnum(static_cast<unsigned char>(c))) {
          c = '_';
        }
      }
      return std::get<0>(info.param) + "_" + s + "_b" +
             std::to_string(std::get<2>(info.param));
    });

class StrategyOrdering : public ::testing::TestWithParam<std::string> {};

TEST_P(StrategyOrdering, PipelinedStrategiesBeatBaseline) {
  const Topology topology = Topology::P3_8xlarge();
  const Nanos baseline =
      RunOnce(GetParam(), Strategy::kBaseline, 1, topology).result.latency;
  for (const Strategy s : {Strategy::kPipeSwitch, Strategy::kDeepPlanDha,
                           Strategy::kDeepPlanPt, Strategy::kDeepPlanPtDha}) {
    EXPECT_LE(RunOnce(GetParam(), s, 1, topology).result.latency, baseline)
        << StrategyName(s);
  }
}

TEST_P(StrategyOrdering, DeepPlanVariantsBeatPipeSwitch) {
  const Topology topology = Topology::P3_8xlarge();
  const Nanos pipeswitch =
      RunOnce(GetParam(), Strategy::kPipeSwitch, 1, topology).result.latency;
  for (const Strategy s :
       {Strategy::kDeepPlanDha, Strategy::kDeepPlanPtDha}) {
    EXPECT_LE(RunOnce(GetParam(), s, 1, topology).result.latency, pipeswitch)
        << StrategyName(s);
  }
}

TEST_P(StrategyOrdering, BiggerBatchNeverFaster) {
  const Topology topology = Topology::P3_8xlarge();
  Nanos prev = 0;
  for (const int batch : {1, 2, 4, 8}) {
    const Nanos latency =
        RunOnce(GetParam(), Strategy::kDeepPlanPtDha, batch, topology).result.latency;
    EXPECT_GE(latency, prev) << "batch " << batch;
    prev = latency;
  }
}

TEST_P(StrategyOrdering, Pcie4NoSlowerThanPcie3) {
  // Figure 16's premise: the A5000/PCIe 4.0 box loads faster; cold latency
  // must not regress relative to the same strategy's stall structure.
  const RunOutput v100 =
      RunOnce(GetParam(), Strategy::kPipeSwitch, 1, Topology::P3_8xlarge());
  const RunOutput a5000 =
      RunOnce(GetParam(), Strategy::kPipeSwitch, 1, Topology::A5000Box());
  EXPECT_LT(a5000.result.load_done, v100.result.load_done);
}

INSTANTIATE_TEST_SUITE_P(Models, StrategyOrdering,
                         ::testing::Values("resnet50", "resnet101", "bert_base",
                                           "bert_large", "roberta_base",
                                           "roberta_large", "gpt2", "gpt2_medium"),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                           return info.param;
                         });

// ------------------------------------------------------------- EventQueue
//
// Randomized schedule/cancel/pop interleavings checked against a brute-force
// reference model: pops must follow the time-then-insertion-order tiebreak
// documented in src/sim/event_queue.h, and Cancel of fired/unknown ids must
// stay a no-op.

struct RefEvent {
  Nanos when;
  EventQueue::EventId id;
  int tag;  // test-side label recorded by the callback when it fires
};

TEST(EventQueuePropertyTest, RandomizedInterleavingsMatchReferenceModel) {
  check::SetValidationForTesting(0);  // raw-queue fuzz pops non-monotonically
  for (const std::uint64_t seed : {11ull, 22ull, 33ull, 44ull, 55ull}) {
    Rng rng(seed);
    EventQueue q;
    std::vector<RefEvent> live;                       // reference model
    std::vector<EventQueue::EventId> retired;         // fired or cancelled
    std::vector<int> fired_tags;
    int next_tag = 0;
    for (int step = 0; step < 2000; ++step) {
      const std::uint64_t op = rng.NextBounded(10);
      if (op < 5 || q.empty()) {
        // Schedule with a tiny time domain so equal-time ties are common.
        const Nanos when = static_cast<Nanos>(rng.NextBounded(50));
        const int tag = next_tag++;
        const EventQueue::EventId id =
            q.Schedule(when, [&fired_tags, tag] { fired_tags.push_back(tag); });
        live.push_back({when, id, tag});
      } else if (op < 7 && !retired.empty() && rng.NextBounded(2) == 0) {
        // Cancel of an already-fired/cancelled id: no-op, returns false.
        const EventQueue::EventId id =
            retired[rng.NextBounded(retired.size())];
        ASSERT_FALSE(q.Cancel(id));
      } else if (op < 7) {
        // Cancel a random live id: succeeds exactly once.
        const std::size_t pick = rng.NextBounded(live.size());
        ASSERT_TRUE(q.Cancel(live[pick].id));
        retired.push_back(live[pick].id);
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
      } else {
        // Pop: must return the live event minimal in (when, insertion
        // order). `tag` counts schedules, so it is the insertion order;
        // EventId values are opaque handles (slot+generation) and carry no
        // ordering.
        const auto expected = std::min_element(
            live.begin(), live.end(), [](const RefEvent& a, const RefEvent& b) {
              return a.when != b.when ? a.when < b.when : a.tag < b.tag;
            });
        ASSERT_EQ(q.NextTime(), expected->when);
        auto [when, cb] = q.PopNext();
        ASSERT_EQ(when, expected->when);
        cb();
        ASSERT_FALSE(fired_tags.empty());
        ASSERT_EQ(fired_tags.back(), expected->tag);
        retired.push_back(expected->id);
        live.erase(expected);
      }
      ASSERT_EQ(q.size(), live.size());
      ASSERT_EQ(q.empty(), live.empty());
    }
    // Drain: remaining events come out sorted by (when, insertion order).
    std::sort(live.begin(), live.end(), [](const RefEvent& a, const RefEvent& b) {
      return a.when != b.when ? a.when < b.when : a.tag < b.tag;
    });
    for (const RefEvent& e : live) {
      auto [when, cb] = q.PopNext();
      ASSERT_EQ(when, e.when);
      cb();
      ASSERT_EQ(fired_tags.back(), e.tag);
    }
    EXPECT_TRUE(q.empty());
  }
  check::SetValidationForTesting(-1);
}

TEST(EventQueuePropertyTest, EqualTimesFireInScheduleOrder) {
  EventQueue q;
  std::vector<int> fired;
  for (int i = 0; i < 100; ++i) {
    q.Schedule(Millis(5), [&fired, i] { fired.push_back(i); });
  }
  while (!q.empty()) {
    q.PopNext().second();
  }
  ASSERT_EQ(fired.size(), 100u);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(fired[static_cast<std::size_t>(i)], i);
  }
}

// Reuses the shared randomized-schedule driver (tests/eventqueue_schedules.h,
// the same generator eventqueue_diff_test.cc runs differentially) to check a
// pure FIFO property on the calendar queue alone: among all pops that share a
// timestamp, tags — which count insertion order — must appear in increasing
// order, no matter how schedules, cancels, and pops interleave.
TEST(EventQueuePropertyTest, SharedDriverEqualTimePopsRespectInsertionOrder) {
  check::SetValidationForTesting(0);  // raw-queue fuzz pops non-monotonically
  for (const std::uint64_t seed : {7ull, 77ull, 777ull}) {
    EventQueue q;
    testing_schedules::ScheduleRegime regime;
    regime.ops = 20000;
    regime.domain = 12;
    regime.burst_every = 4;
    regime.burst_size = 6;
    const testing_schedules::ScheduleLog log =
        testing_schedules::RunRandomSchedule(q, seed, regime);
    std::map<Nanos, int> last_tag_at;  // per timestamp, last tag popped
    for (const auto& [when, tag] : log.pops) {
      const auto it = last_tag_at.find(when);
      if (it != last_tag_at.end()) {
        ASSERT_LT(it->second, tag) << "seed " << seed << " time " << when;
        it->second = tag;
      } else {
        last_tag_at.emplace(when, tag);
      }
    }
    EXPECT_EQ(log.scheduled, log.pops.size() + log.cancel_results.size() -
                                 static_cast<std::uint64_t>(std::count(
                                     log.cancel_results.begin(),
                                     log.cancel_results.end(), 0)));
  }
  check::SetValidationForTesting(-1);
}

TEST(EventQueuePropertyTest, CancelOfFiredOrUnknownIdIsNoop) {
  EventQueue q;
  bool ran = false;
  const EventQueue::EventId id = q.Schedule(1, [&ran] { ran = true; });
  EXPECT_FALSE(q.Cancel(id + 1000));  // never scheduled
  q.PopNext().second();
  EXPECT_TRUE(ran);
  EXPECT_FALSE(q.Cancel(id));  // already fired
  EXPECT_TRUE(q.empty());
  // Double-cancel: first succeeds, second is a no-op.
  const EventQueue::EventId id2 = q.Schedule(2, [] {});
  EXPECT_TRUE(q.Cancel(id2));
  EXPECT_FALSE(q.Cancel(id2));
  EXPECT_TRUE(q.empty());
}

TEST(DeterminismTest, IdenticalRunsProduceIdenticalResults) {
  const Topology topology = Topology::P3_8xlarge();
  const RunOutput a = RunOnce("bert_base", Strategy::kDeepPlanPtDha, 1, topology);
  const RunOutput b = RunOnce("bert_base", Strategy::kDeepPlanPtDha, 1, topology);
  EXPECT_EQ(a.result.latency, b.result.latency);
  EXPECT_EQ(a.result.stall, b.result.stall);
  EXPECT_EQ(a.result.load_done, b.result.load_done);
}

}  // namespace
}  // namespace deepplan
