// Byte-for-byte golden of the cold-start engine's observable output. A fixed
// set of BERT-Base cold runs (all five strategies on two topologies, bulk
// migration, grouped transfers, and two cold starts contending for one PCIe
// uplink) each record their InferenceResult fields, the causal-graph journal,
// and the Chrome trace exported from that journal; one DistributedEngine run
// adds its timing fields. Any change to event order, timing, trace content
// or causal structure is a diff against tests/golden/engine_golden.txt.
//
// On a mismatch the test writes the actual output to a file and prints its
// path; re-blessing an intended change is copying that file over the golden.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "src/core/profiler.h"
#include "src/core/transmission.h"
#include "src/engine/distributed.h"
#include "src/engine/engine.h"
#include "src/engine/strategies.h"
#include "src/model/zoo.h"
#include "src/obs/journal_stream.h"
#include "src/obs/trace_export.h"

#ifndef DP_GOLDEN_DIR
#error "DP_GOLDEN_DIR must name the tests/golden directory"
#endif

namespace deepplan {
namespace {

// One element of a JSON array per line, so a golden diff points at the event
// or node that moved.
std::string OnePerLine(std::string json) {
  std::string out;
  out.reserve(json.size() + json.size() / 32);
  for (std::size_t i = 0; i < json.size(); ++i) {
    out += json[i];
    if (json[i] == ',' && i > 0 && i + 1 < json.size() &&
        (json[i - 1] == '}' || json[i - 1] == ']') &&
        (json[i + 1] == '{' || json[i + 1] == '[')) {
      out += '\n';
    }
  }
  return out;
}

void AppendPartitions(std::ostringstream& os, const InferenceResult& r) {
  for (std::size_t p = 0; p < r.partitions.size(); ++p) {
    const PartitionStats& s = r.partitions[p];
    os << "  partition " << p << " bytes=" << s.bytes << " pcie_start=" << s.pcie_start
       << " pcie_done=" << s.pcie_done << " arrival_done=" << s.arrival_done << "\n";
  }
}

ModelProfile ExactProfile(const PerfModel& perf, const Model& model) {
  ProfilerOptions popts;
  popts.noise_stddev = 0.0;
  return Profiler(&perf, popts).Profile(model);
}

// One cold start of the case, launched at `start` on `primary`.
struct Launch {
  GpuId primary = 0;
  Nanos start = 0;
};

struct ColdCase {
  std::string label;
  Topology topology;
  Strategy strategy;
  MigrationMode migration = MigrationMode::kPipelined;
  int transfer_group_layers = 1;
  std::vector<Launch> launches = {Launch{}};
};

// A causal node with its interned names resolved.
struct NamedNode {
  CpNode node;
  std::string label;
  std::string resource;
};

struct ColdOutput {
  std::string text;
  TraceDocument trace;
  std::vector<NamedNode> nodes;
};

ColdOutput RunCase(const ColdCase& c) {
  const PerfModel perf(c.topology.gpu(), c.topology.pcie());
  const Model model = ModelZoo::BertBase();
  const ModelProfile profile = ExactProfile(perf, model);
  Simulator sim;
  ServerFabric fabric(&sim, &c.topology);
  Engine engine(&sim, &fabric, &perf);
  CausalGraph causal(/*enabled=*/true);
  const int process = causal.RegisterProcess(c.label);
  engine.set_causal(&causal);

  std::vector<InferenceResult> results(c.launches.size());
  std::vector<CpNodeId> terminals(c.launches.size(), -1);
  for (std::size_t i = 0; i < c.launches.size(); ++i) {
    const Launch launch = c.launches[i];
    sim.ScheduleAt(launch.start, [&, i, launch]() {
      const int degree = StrategyDegree(c.strategy, c.topology, launch.primary);
      PipelineOptions pipeline;
      pipeline.nvlink = c.topology.nvlink();
      const ExecutionPlan plan = MakeStrategyPlan(c.strategy, profile, degree, pipeline);
      ColdRunOptions options = MakeColdRunOptions(c.strategy);
      options.migration = c.migration;
      options.transfer_group_layers = c.transfer_group_layers;
      const int request =
          causal.BeginRequest(process, launch.primary, sim.now());
      causal.MarkCold(request);
      options.causal_request = request;
      engine.RunCold(model, plan, launch.primary,
                     TransmissionPlanner::ChooseSecondaries(c.topology, launch.primary,
                                                            degree),
                     options, [&, i, request](const InferenceResult& r) {
                       results[i] = r;
                       terminals[i] = causal.last_node(request);
                       causal.EndRequest(request, sim.now());
                     });
    });
  }
  sim.Run();

  std::ostringstream os;
  os << "== cold " << c.label << "\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const InferenceResult& r = results[i];
    os << "run " << i << " latency=" << r.latency << " exec_busy=" << r.exec_busy
       << " stall=" << r.stall << " load_done=" << r.load_done << " cold=" << r.cold
       << " causal_terminal=" << terminals[i] << "\n";
    AppendPartitions(os, r);
  }
  const TraceRecorder trace = GraphChromeTrace(causal);
  os << "trace\n" << OnePerLine(trace.ToJson()) << "\n";
  os << "causal\n" << OnePerLine(causal.ToJson()) << "\n";
  ColdOutput out{os.str(), trace.document(), {}};
  ForEachGraphChunk(causal, [&out](JournalChunk& chunk) {
    for (const CpNode& node : chunk.nodes) {
      out.nodes.push_back({node, std::string(chunk.str(node.label)),
                           std::string(chunk.str(node.resource))});
    }
  });
  return out;
}

std::vector<ColdCase> Cases() {
  std::vector<ColdCase> cases;
  for (const Topology& topology : {Topology::P3_8xlarge(), Topology::A5000Box()}) {
    for (const Strategy strategy : AllStrategies()) {
      cases.push_back(ColdCase{topology.name() + " " + StrategyName(strategy), topology,
                               strategy});
    }
  }
  ColdCase bulk{"bulk migration", Topology::P3_8xlarge(), Strategy::kDeepPlanPtDha};
  bulk.migration = MigrationMode::kBulk;
  cases.push_back(bulk);
  ColdCase grouped{"transfer groups of 2", Topology::P3_8xlarge(),
                   Strategy::kDeepPlanPtDha};
  grouped.transfer_group_layers = 2;
  cases.push_back(grouped);
  // GPUs 0 and 1 share PCIe switch 0, so the second cold start halves the
  // first one's uplink share while both load.
  ColdCase contended{"contended uplink", Topology::P3_8xlarge(), Strategy::kPipeSwitch};
  contended.launches = {Launch{0, 0}, Launch{1, Micros(300)}};
  cases.push_back(contended);
  return cases;
}

std::string DistributedOutput() {
  const Topology topology = Topology::P3_8xlarge();
  const PerfModel perf(topology.gpu(), topology.pcie());
  const Model model = ModelZoo::BertBase();
  const ExecutionPlan plan =
      MakeStrategyPlan(Strategy::kDeepPlanPt, ExactProfile(perf, model), 2);
  Simulator sim;
  ServerFabric fabric(&sim, &topology);
  DistributedEngine engine(&sim, &fabric, &perf);
  InferenceResult r;
  engine.RunCold(model, plan, {0, 2}, DistributedRunOptions{},
                 [&](const InferenceResult& result) { r = result; });
  sim.Run();
  std::ostringstream os;
  os << "== distributed p3.8xlarge PT over gpus 0,2\n"
     << "run 0 latency=" << r.latency << " exec_busy=" << r.exec_busy
     << " stall=" << r.stall << " load_done=" << r.load_done << "\n";
  AppendPartitions(os, r);
  return os.str();
}

// Whether `trace` holds an async interval on the node's track, with its
// label, spanning exactly [start, end].
bool HasAsyncInterval(const TraceDocument& trace, const NamedNode& named) {
  const CpNode& node = named.node;
  for (const TraceEvent& begin : trace.events) {
    if (begin.phase != TracePhase::kAsyncBegin || begin.track != named.resource ||
        begin.name != named.label || begin.ts != node.start) {
      continue;
    }
    for (const TraceEvent& end : trace.events) {
      if (end.phase == TracePhase::kAsyncEnd && end.id == begin.id &&
          end.track == named.resource && end.ts == node.end) {
        return true;
      }
    }
  }
  return false;
}

TEST(EngineGoldenTest, EveryTransferNodeHasATraceInterval) {
  for (const ColdCase& c : Cases()) {
    const ColdOutput out = RunCase(c);
    for (const NamedNode& named : out.nodes) {
      if (named.node.kind == CpKind::kPcie || named.node.kind == CpKind::kNvlink) {
        EXPECT_TRUE(HasAsyncInterval(out.trace, named))
            << c.label << ": no trace interval for " << named.label << " on "
            << named.resource;
      }
    }
  }
}

TEST(EngineGoldenTest, ObservableOutputMatchesGolden) {
  std::string actual;
  for (const ColdCase& c : Cases()) {
    actual += RunCase(c).text;
  }
  actual += DistributedOutput();

  const std::string golden_path = std::string(DP_GOLDEN_DIR) + "/engine_golden.txt";
  std::ifstream in(golden_path);
  std::stringstream golden;
  golden << in.rdbuf();
  if (golden.str() != actual) {
    const std::string actual_path = ::testing::TempDir() + "engine_golden.actual.txt";
    std::ofstream(actual_path) << actual;
    FAIL() << "engine output differs from " << golden_path << "\nactual output: "
           << actual_path << "\nre-bless an intended change with: cp " << actual_path
           << " " << golden_path;
  }
}

}  // namespace
}  // namespace deepplan
