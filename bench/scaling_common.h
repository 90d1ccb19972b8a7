// Shared core of the sim-core scaling measurement: one point = replay a
// count-exact synthetic trace (src/workload/synthetic.h) against a BERT-Base
// server on an *external* simulator, so the point can report event-queue
// introspection (total events scheduled, callback-slot peak) alongside the
// serving metrics. Used by bench/bench_scaling.cc (the 44k/200k/1M curve
// behind BENCH_scaling.json) and tests/scaling_test.cc (byte-identical
// output across DEEPPLAN_JOBS, bounded memory at 200k requests).
//
// Everything in ScalingPointResult except wall_ms is a pure function of the
// point's options — the deterministic surface the golden gate locks down.
// Wall-clock readings only ever appear under keys named "wall_clock_ms",
// which tools/bench_diff ignores at any depth.
#ifndef BENCH_SCALING_COMMON_H_
#define BENCH_SCALING_COMMON_H_

#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/deepplan.h"
#include "src/util/logging.h"

namespace deepplan {
namespace bench {

struct ScalingPointOptions {
  std::size_t num_requests = 44000;
  double rate_per_sec = 120.0;
  int num_instances = 135;
  double zipf_exponent = 0.9;
  std::uint64_t seed = 42;
  Strategy strategy = Strategy::kDeepPlanPtDha;
  Nanos slo = Millis(100);
  // Non-empty: stream a binary causal journal of the replay to this path.
  // Recording is bounded-memory (in-flight requests, not journal length), so
  // the 1M point stays within the same RSS pin as the unjournaled run.
  std::string journal_out;
  // Profile the point's own host wall-clock into result.selfprof (the lane is
  // installed for the duration of the replay; see src/obs/selfprof.h).
  bool selfprof = false;
};

struct ScalingPointResult {
  // Deterministic (golden-gated).
  std::size_t requests = 0;
  std::size_t completed = 0;
  std::size_t cold_starts = 0;
  double goodput = 0.0;
  double p99_ms = 0.0;
  double mean_ms = 0.0;
  double sim_seconds = 0.0;          // trace duration in simulated time
  std::uint64_t events_scheduled = 0;  // total events over the whole replay
  std::size_t event_slot_peak = 0;     // callback slots ever created
  // Journal recording (journal_out only; deterministic — the encoding holds
  // no timestamps, so the same point yields the same bytes on any host).
  bool journaled = false;
  JournalTotals journal;
  std::uint64_t journal_bytes = 0;
  // Self-profiling lane for this point (selfprof option only). Never feeds
  // FillScalingPoint — the BENCH point schema and its golden are untouched;
  // benches render it into a separate --selfprof_out report. Phase counts in
  // here are deterministic; durations are wall-dependent.
  selfprof::SelfProfiler selfprof;
  // Wall-dependent (reported only under "wall_clock_ms" keys / stdout).
  double wall_ms = 0.0;
};

// The point's count-exact synthetic trace.
inline Trace ScalingTrace(const ScalingPointOptions& options) {
  SyntheticScaleOptions w;
  w.num_requests = options.num_requests;
  w.rate_per_sec = options.rate_per_sec;
  w.num_instances = options.num_instances;
  w.zipf_exponent = options.zipf_exponent;
  w.seed = options.seed;
  return GenerateSyntheticScaleTrace(w);
}

// Feeds a trace's arrivals to a server one at a time: each Submit schedules
// the next arrival, so pending events track server activity, not trace
// length.
struct ChainedFeeder {
  const std::vector<Arrival>* arrivals;
  Simulator* sim;
  Server* server;
  std::size_t next = 0;
  void ScheduleNext() {
    if (next >= arrivals->size()) {
      return;
    }
    const Arrival& a = (*arrivals)[next++];
    sim->ScheduleAt(a.time, [this, instance = a.instance] {
      server->Submit(instance);
      ScheduleNext();
    });
  }
};

// Replays one scaling point. Arrivals are fed through a ChainedFeeder, so
// event_slot_peak stays O(outstanding work) even at 1M requests, which is
// the arena-reuse property the scaling test pins.
inline ScalingPointResult RunScalingPoint(const ScalingPointOptions& options) {
  // deepplan-lint: allow(raw-entropy, wall-clock measurement; only feeds wall_ms, which the golden gate ignores)
  const auto wall_start = std::chrono::steady_clock::now();

  ScalingPointResult r;
  {
    // Lane for this point's host-side wall-clock attribution; the scoped
    // phases inside the components (workload gen, dispatch, fair-share, ...)
    // accumulate here. No-op unless options.selfprof.
    selfprof::InstallLane profile(options.selfprof ? &r.selfprof : nullptr);

    const Trace trace = ScalingTrace(options);

    // Setup scope held in an optional: the objects it times must outlive it.
    std::optional<selfprof::ScopedPhase> setup(std::in_place,
                                               selfprof::Phase::kSetup);
    const Topology topology = Topology::P3_8xlarge();
    const PerfModel perf(topology.gpu(), topology.pcie());
    ServerOptions server_options;
    server_options.strategy = options.strategy;
    server_options.slo = options.slo;
    Simulator sim;
    Server server(&sim, topology, perf, server_options);
    const int type = server.RegisterModelType(ModelZoo::BertBase());
    server.AddInstances(type, options.num_instances);

    // Streaming journal: the graph retires each request into the chunked
    // binary writer as it completes, so resident recorder state tracks
    // in-flight requests while the journal itself goes to disk.
    const bool journal = !options.journal_out.empty();
    CausalGraph causal(journal);
    JournalWriter writer;
    if (journal) {
      const bool opened = writer.Open(options.journal_out);
      DP_CHECK(opened);
      causal.AttachSink(&writer);
      server.set_causal(&causal, causal.RegisterProcess("scaling"));
    }
    setup.reset();
    server.Warmup();

    ChainedFeeder feeder{&trace.arrivals(), &sim, &server};
    feeder.ScheduleNext();
    sim.Run();

    {
      DP_SELFPROF_SCOPE(kMetricsSnapshot);
      const ServingMetrics& m = server.metrics();
      r.requests = trace.size();
      r.completed = m.count();
      r.cold_starts = m.ColdStartCount();
      r.goodput = m.Goodput(options.slo);
      r.p99_ms = m.LatencyPercentileMs(99);
      r.mean_ms = m.MeanLatencyMs();
      r.sim_seconds = ToSeconds(trace.duration());
      r.events_scheduled = sim.event_queue().total_scheduled();
      r.event_slot_peak = sim.event_queue().slot_capacity();
    }
    if (journal) {
      causal.FlushOpenRequests();
      const bool finished = writer.Finish();
      DP_CHECK(finished);
      r.journaled = true;
      r.journal = writer.totals();
      r.journal_bytes = writer.bytes_written();
    }
  }
  r.wall_ms = std::chrono::duration<double, std::milli>(
                  // deepplan-lint: allow(raw-entropy, wall-clock measurement; only feeds wall_ms, which the golden gate ignores)
                  std::chrono::steady_clock::now() - wall_start)
                  .count();
  return r;
}

// Adds one point's deterministic fields (plus its wall reading under the
// ignored key) to a BenchReport point.
inline void FillScalingPoint(JsonObject& point, const ScalingPointResult& r) {
  point.Set("requests", static_cast<std::int64_t>(r.requests))
      .Set("completed", static_cast<std::int64_t>(r.completed))
      .Set("cold_starts", static_cast<std::int64_t>(r.cold_starts))
      .Set("goodput", r.goodput)
      .Set("p99_ms", r.p99_ms)
      .Set("mean_ms", r.mean_ms)
      .Set("sim_seconds", r.sim_seconds)
      .Set("events_scheduled", static_cast<std::int64_t>(r.events_scheduled))
      .Set("event_slot_peak", static_cast<std::int64_t>(r.event_slot_peak));
  // Only journaled runs get the sub-object, so the default curve's golden
  // bytes are untouched.
  if (r.journaled) {
    point.SetRaw(
        "journal",
        JsonObject()
            .Set("requests", static_cast<std::int64_t>(r.journal.requests))
            .Set("incomplete_requests",
                 static_cast<std::int64_t>(r.journal.incomplete_requests))
            .Set("nodes", static_cast<std::int64_t>(r.journal.nodes))
            .Set("edges", static_cast<std::int64_t>(r.journal.edges))
            .Set("chunks", static_cast<std::int64_t>(r.journal.chunks))
            .Set("bytes", static_cast<std::int64_t>(r.journal_bytes))
            .Render());
  }
  point.Set("wall_clock_ms", r.wall_ms);
}

// Deterministic serialization of a result list: every golden-gated field and
// nothing wall-dependent. scaling_test compares these strings byte-for-byte
// across DEEPPLAN_JOBS settings.
inline std::string DeterministicPointsJson(
    const std::vector<ScalingPointResult>& results) {
  JsonArray points;
  for (const ScalingPointResult& r : results) {
    JsonObject point;
    ScalingPointResult stripped = r;
    stripped.wall_ms = 0.0;
    FillScalingPoint(point, stripped);
    points.AddRaw(point.Render());
  }
  return points.Render();
}

}  // namespace bench
}  // namespace deepplan

#endif  // BENCH_SCALING_COMMON_H_
