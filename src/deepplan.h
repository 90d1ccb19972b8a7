// Umbrella header: the public API surface of DeepPlan-Sim.
//
// Typical usage (see examples/quickstart.cc):
//   Model model = ModelZoo::BertBase();
//   Topology topo = Topology::P3_8xlarge();
//   PerfModel perf(topo.gpu(), topo.pcie());
//   Profiler profiler(&perf);
//   ModelProfile profile = profiler.Profile(model);       // one-time pre-run
//   Planner planner(&profile);
//   ExecutionPlan plan = planner.GeneratePlan(...);       // Algorithm 1 (+PT)
//   ... run it through Engine or Server ...
#ifndef SRC_DEEPPLAN_H_
#define SRC_DEEPPLAN_H_

#include "src/core/pipeline.h"
#include "src/core/plan.h"
#include "src/core/planner.h"
#include "src/core/profile.h"
#include "src/core/profiler.h"
#include "src/core/transmission.h"
#include "src/engine/engine.h"
#include "src/engine/strategies.h"
#include "src/hw/gpu.h"
#include "src/hw/topology.h"
#include "src/model/layer.h"
#include "src/model/model.h"
#include "src/model/zoo.h"
#include "src/obs/causal_graph.h"
#include "src/obs/critical_path.h"
#include "src/obs/journal_stream.h"
#include "src/obs/metrics_registry.h"
#include "src/obs/profile_report.h"
#include "src/obs/selfprof.h"
#include "src/obs/trace_export.h"
#include "src/obs/trace_recorder.h"
#include "src/obs/utilization.h"
#include "src/obs/whatif/whatif.h"
#include "src/obs/whatif/whatif_report.h"
#include "src/perf/pcie_events.h"
#include "src/perf/perf_model.h"
#include "src/serving/instance.h"
#include "src/serving/metrics.h"
#include "src/serving/server.h"
#include "src/sim/fabric.h"
#include "src/sim/simulator.h"
#include "src/sim/stream.h"
#include "src/util/chrome_trace.h"
#include "src/util/flags.h"
#include "src/util/json.h"
#include "src/util/rng.h"
#include "src/util/stats.h"
#include "src/util/sweep.h"
#include "src/util/table.h"
#include "src/util/thread_pool.h"
#include "src/util/time.h"
#include "src/workload/azure_trace.h"
#include "src/workload/poisson.h"
#include "src/workload/synthetic.h"
#include "src/workload/trace.h"

#endif  // SRC_DEEPPLAN_H_
