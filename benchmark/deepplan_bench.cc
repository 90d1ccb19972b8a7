// Benchmark program for DeepPlan-Sim (see benchmark/README.md).
//
// One workload per process, on one thread, so that setup time and peak RSS
// belong to that workload alone. Every call into a layer goes through the
// public API and is timed from outside. A run repeats the workload until its
// timed phases have used --seconds: each repetition builds its inputs from
// --seed (set-up), then runs the timed phase, cut into slices that do the
// same work every time; the host metrics take each slice's fastest time.
// Every repetition's deterministic output must match the others, the
// committed file under benchmark/expected/ for the default and held-out
// seeds, and the bench/golden scaling point of the same seed and size where
// one exists.
//
// The host side is an offline batch job, so the end-to-end measure is ops
// completed per host second at a fixed input size. The modelled server is an
// open loop in simulated time: arrivals fire at their trace times whatever
// the backlog, and latency counts from the scheduled arrival.
//
// With --trace=1 the repetitions alternate untraced and traced. Traced
// repetitions record spans from this file around each layer call, per-call
// timings of Submit/Profile/MakeStrategyPlan/RunCold/Replay, a selfprof lane
// over the timed phase and a MetricsRegistry for the fabric counters; the
// per-layer metrics come from them, and the untraced ones price the tracing.
//
// The last line of stdout is one JSON object: {"correct", "attempted",
// "failed", "metrics"}, with the end-to-end metrics for --trace=0 and the
// per-layer metrics for --trace=1 (names and units as in BENCHMARK.json).
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <numeric>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "src/check/bench_diff.h"
#include "src/deepplan.h"
#include "src/util/json_parse.h"

namespace {

using namespace deepplan;

// Variables that change what a run costs; run.sh unsets them and deepplan_bench
// refuses to measure while any is set.
constexpr const char* kCostEnv[] = {
    "DEEPPLAN_VALIDATE", "DEEPPLAN_SELFPROF", "DEEPPLAN_PROGRESS",
    "DEEPPLAN_TRACE",    "DEEPPLAN_PROFILE",  "DEEPPLAN_WHATIF",
    "DEEPPLAN_JOBS"};

struct MetricDef {
  const char* name;
  const char* unit;
};

// Must equal BENCHMARK.json's "end_to_end" and "per_layer" lists, in order;
// deepplan_bench checks that before it measures.
constexpr MetricDef kEndToEnd[] = {
    {"ops_per_s", "ops/s"},
    {"us_per_op_p50", "us"},
    {"us_per_op_p90", "us"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
};
constexpr MetricDef kPerLayer[] = {
    {"workload.generate_s", "s"},
    {"core.profile_us_p50", "us"},
    {"core.plan_us_p50", "us"},
    {"engine.cold_run_us_p50", "us"},
    {"engine.cold_run_us_p90", "us"},
    {"engine.cold_start.share", "ratio"},
    {"sim.events_per_op", "events/op"},
    {"sim.ns_per_event", "ns"},
    {"sim.event_slot_peak", "count"},
    {"sim.exec_stream.calls_per_op", "calls/op"},
    {"sim.exec_stream.share", "ratio"},
    {"sim.dispatch_self.share", "ratio"},
    {"sim.fair_share.calls_per_op", "calls/op"},
    {"sim.fair_share.share", "ratio"},
    {"sim.fabric.transfers_per_op", "transfers/op"},
    {"sim.fabric.bytes_per_op", "B/op"},
    {"serving.submit_ns_p50", "ns"},
    {"serving.submit_ns_p99", "ns"},
    {"serving.register_s", "s"},
    {"serving.warmup_ms", "ms"},
    {"serving.cold_start_ratio", "ratio"},
    {"serving.evictions_per_op", "evictions/op"},
    {"serving.queue_ms_mean", "ms"},
    {"serving.cold_ms_mean", "ms"},
    {"serving.exec_ms_mean", "ms"},
    {"serving.pipeswitch.p99_ms", "ms"},
    {"serving.pipeswitch.goodput", "ratio"},
    {"serving.dha.p99_ms", "ms"},
    {"serving.dha.goodput", "ratio"},
    {"obs.journal.bytes_per_op", "B/op"},
    {"obs.journal.nodes_per_op", "nodes/op"},
    {"obs.journal.edges_per_op", "edges/op"},
    {"obs.journal.serialize.share", "ratio"},
    {"obs.journal.finish_ms", "ms"},
    {"obs.journal.open_s", "s"},
    {"whatif.replay_s_p50", "s"},
    {"whatif.max_resident_requests", "count"},
    {"bench.trace_overhead_pct", "%"},
    {"sim_p99_ms", "ms"},
    {"sim_goodput", "ratio"},
    {"paper_err_pct", "%"},
};
// Printed and written to results/ beside the end-to-end metrics, but not
// bounded: the ratio must be 0 and the simulated values are exact (the
// output check pins them).
constexpr MetricDef kUnbounded[] = {
    {"failed_ratio", "ratio"},  {"us_per_op_samples", "count"},
    {"reps", "count"},          {"sim_p99_ms", "ms"},
    {"sim_goodput", "ratio"},   {"paper_err_pct", "%"},
};

// Serving set-up shared by the three serving workloads and the journal the
// what-if workload replays (the bench_scaling and fig15 configuration).
constexpr double kRatePerSec = 120.0;
constexpr int kInstances = 135;
constexpr double kSloMs = 100.0;
// Equal simulated-time windows a serving replay is sliced into; each window
// with completions is one us_per_op sample.
constexpr int kWindows = 200;

// Paper Table 4 cold latencies (ms, batch 1) on a p3.8xlarge: PipeSwitch (1)
// and PT+DHA (1). paper_err_pct is the mean relative error of cold_plan's
// means against these 16 cells.
struct PaperCell {
  const char* model;
  double pipeswitch_ms;
  double ptdha_ms;
};
constexpr PaperCell kTable4[] = {
    {"resnet50", 12.03, 8.93},       {"resnet101", 19.85, 17.71},
    {"bert_base", 40.51, 20.88},     {"bert_large", 122.37, 70.56},
    {"roberta_base", 45.86, 20.83},  {"roberta_large", 129.58, 70.26},
    {"gpt2", 48.41, 33.38},          {"gpt2_medium", 134.10, 101.83},
};

std::int64_t NowNs() { return selfprof::MonotonicNowNs(); }

double Quantile(const std::vector<double>& samples, double p) {
  Percentiles pct;
  for (const double x : samples) {
    pct.Add(x);
  }
  return pct.Percentile(p);
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// Spans recorded from this file around each call into a layer, on the host
// clock from process start. They stay in memory in a TraceRecorder and are
// written as Chrome JSON when the run ends. A closed span's self time is its
// duration minus the durations of its child spans.
class SpanLog {
 public:
  SpanLog() : recorder_(true), pid_(recorder_.RegisterProcess("deepplan_bench")) {}

  // Toggled only between repetitions, never with spans open.
  void set_enabled(bool enabled) { enabled_ = enabled; }

  void Begin(const char* name) {
    if (enabled_) {
      open_.push_back({name, NowNs(), 0});
    }
  }
  void End() {
    if (!enabled_) {
      return;
    }
    const Open span = open_.back();
    open_.pop_back();
    const std::int64_t duration = NowNs() - span.start;
    recorder_.Span(pid_, "bench", span.name, span.start - origin_, duration);
    self_ns_[span.name].push_back(
        static_cast<double>(duration - span.children_ns));
    if (!open_.empty()) {
      open_.back().children_ns += duration;
    }
  }

  // Median self time over the closed spans named `name`; 0 if none.
  double MedianSelfNs(const std::string& name) const {
    const auto it = self_ns_.find(name);
    return it == self_ns_.end() ? 0.0 : Quantile(it->second, 50);
  }

  bool WriteTo(const std::string& path) const { return recorder_.WriteTo(path); }

 private:
  struct Open {
    const char* name;
    std::int64_t start;
    std::int64_t children_ns;
  };
  TraceRecorder recorder_;
  int pid_;
  std::int64_t origin_ = NowNs();
  bool enabled_ = false;
  std::vector<Open> open_;
  std::map<std::string, std::vector<double>> self_ns_;
};

class Span {
 public:
  Span(SpanLog& log, const char* name) : log_(log) { log_.Begin(name); }
  ~Span() { log_.End(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  SpanLog& log_;
};

struct Context {
  std::uint64_t seed = 0;
  std::int64_t size = 0;
  // A traced repetition: per-call timings and registries are collected.
  bool traced = false;
  SpanLog* spans = nullptr;
  // Installed over the timed phase only; nullptr when untraced.
  selfprof::SelfProfiler* lane = nullptr;
  std::string scratch_dir;  // journals are written and removed here
};

// One repetition of a workload.
//
// Its timed phase is cut into consecutive slices that do the same work in
// every repetition: the equal simulated-time windows of a serving replay,
// one cold_plan op, one what-if report. Each slice records its host time and
// the ops it completed (0 for slices such as scheduling the arrivals).
struct Rep {
  // Starts a timed segment: the next slice runs from now.
  void Mark() { mark_ = NowNs(); }
  // Closes the slice running since the last Mark() or EndSlice().
  void EndSlice(std::uint64_t slice_ops) {
    const std::int64_t now = NowNs();
    slice_ns.push_back(now - mark_);
    this->slice_ops.push_back(slice_ops);
    mark_ = now;
  }
  std::int64_t TimedNs() const {
    return std::accumulate(slice_ns.begin(), slice_ns.end(), std::int64_t{0});
  }

  std::int64_t setup_ns = 0;
  std::vector<std::int64_t> slice_ns;
  std::vector<std::uint64_t> slice_ops;
  std::uint64_t ops = 0;
  std::uint64_t failed_ops = 0;  // ops that did not complete
  bool output_ok = true;         // the workload's own output checks passed
  std::uint64_t events = 0;      // simulator events dispatched while timed
  std::uint64_t journal_nodes = 0;  // causal nodes recorded, when journaling
  std::string output;            // deterministic result document
  std::map<std::string, double> layer;  // per-layer values by metric name
  std::map<std::string, std::vector<double>> samples;  // per-call, traced only
  MetricsRegistry registry;                            // traced only

 private:
  std::int64_t mark_ = 0;
};

void TimedSubmit(Server* server, int instance, std::vector<double>* submit_ns) {
  if (submit_ns == nullptr) {
    server->Submit(instance);
    return;
  }
  const std::int64_t start = NowNs();
  server->Submit(instance);
  submit_ns->push_back(static_cast<double>(NowNs() - start));
}

// Runs `sim` through kWindows equal windows of simulated time up to
// `horizon`, then drains it: one slice per window, its ops the requests
// completed in it.
void RunSliced(Simulator& sim, Nanos horizon, const ServingMetrics& metrics,
               SpanLog& spans, Rep* rep) {
  std::size_t done = metrics.count();
  for (int w = 1; w <= kWindows + 1; ++w) {
    {
      Span span(spans, "sim.window");
      if (w <= kWindows) {
        sim.RunUntil(horizon / kWindows * w);
      } else {
        sim.Run();
      }
    }
    rep->EndSlice(metrics.count() - done);
    done = metrics.count();
  }
  rep->events += sim.events_dispatched();
}

void ServingLayerValues(const ServingMetrics& m, std::size_t requests,
                        Rep* rep) {
  const LatencyBreakdown b = m.Breakdown();
  const auto n = static_cast<double>(requests);
  rep->layer["serving.cold_start_ratio"] = m.ColdStartRate();
  rep->layer["serving.evictions_per_op"] =
      Ratio(static_cast<double>(m.EvictionCount()), n);
  rep->layer["serving.queue_ms_mean"] = b.mean_queue_ms;
  rep->layer["serving.cold_ms_mean"] = b.mean_cold_ms;
  rep->layer["serving.exec_ms_mean"] = b.mean_exec_ms;
  rep->layer["sim_p99_ms"] = m.LatencyPercentileMs(99);
  rep->layer["sim_goodput"] = m.Goodput(Millis(kSloMs));
}

// Arrivals fed one at a time: each Submit schedules the next, so pending
// events track server activity rather than trace length (bench_scaling's
// feeder, in the same order of calls).
struct Feeder {
  const std::vector<Arrival>* arrivals;
  Simulator* sim;
  Server* server;
  std::vector<double>* submit_ns;
  std::size_t next = 0;
  void ScheduleNext() {
    if (next >= arrivals->size()) {
      return;
    }
    const Arrival& a = (*arrivals)[next++];
    sim->ScheduleAt(a.time, [this, instance = a.instance] {
      TimedSubmit(server, instance, submit_ns);
      ScheduleNext();
    });
  }
};

// bench_scaling's point: `ctx.size` BERT-Base requests at 120 rps, zipf 0.9
// over 135 instances, PT+DHA. A non-empty `journal_path` records a streaming
// causal journal there during the timed phase.
Rep ReplaySynthetic(const Context& ctx, const std::string& journal_path) {
  Rep rep;
  SpanLog& spans = *ctx.spans;
  const std::int64_t setup_start = NowNs();
  SyntheticScaleOptions w;
  w.num_requests = static_cast<std::size_t>(ctx.size);
  w.rate_per_sec = kRatePerSec;
  w.num_instances = kInstances;
  w.zipf_exponent = 0.9;
  w.seed = ctx.seed;
  Trace trace;
  {
    Span span(spans, "workload.generate");
    trace = GenerateSyntheticScaleTrace(w);
  }
  const Topology topology = Topology::P3_8xlarge();
  const PerfModel perf(topology.gpu(), topology.pcie());
  ServerOptions options;
  options.strategy = Strategy::kDeepPlanPtDha;
  options.slo = Millis(kSloMs);
  Simulator sim;
  Server server(&sim, topology, perf, options);
  {
    Span span(spans, "serving.register");
    server.AddInstances(server.RegisterModelType(ModelZoo::BertBase()),
                        kInstances);
  }
  const bool journaling = !journal_path.empty();
  JournalWriter writer;  // outlives the graph that streams into it
  CausalGraph causal(journaling);
  if (journaling) {
    if (!writer.Open(journal_path)) {
      std::cerr << "cannot open journal " << journal_path << "\n";
      rep.output_ok = false;
      return rep;
    }
    causal.AttachSink(&writer);
    server.set_causal(&causal, causal.RegisterProcess("scaling"));
  }
  if (ctx.traced) {
    server.set_telemetry(nullptr, &rep.registry);
  }
  {
    Span span(spans, "serving.warmup");
    server.Warmup();
  }
  rep.Mark();
  rep.setup_ns = NowNs() - setup_start;
  {
    selfprof::InstallLane lane(ctx.lane);
    Feeder feeder{&trace.arrivals(), &sim, &server,
                  ctx.traced ? &rep.samples["serving.submit_ns"] : nullptr};
    feeder.ScheduleNext();
    RunSliced(sim, trace.duration(), server.metrics(), spans, &rep);
    if (journaling) {
      Span span(spans, "obs.journal.finish");
      causal.FlushOpenRequests();
      rep.output_ok = writer.Finish();
    }
  }
  if (journaling) {
    rep.EndSlice(0);
  }

  const ServingMetrics& m = server.metrics();
  rep.ops = m.count();
  rep.failed_ops = trace.size() - m.count();
  ServingLayerValues(m, trace.size(), &rep);
  rep.layer["sim.events_per_op"] =
      Ratio(static_cast<double>(sim.event_queue().total_scheduled()),
            static_cast<double>(trace.size()));
  rep.layer["sim.event_slot_peak"] =
      static_cast<double>(sim.event_queue().slot_capacity());
  // The fields and names of a bench_scaling point, so the golden compares.
  JsonObject point;
  point.Set("requests", static_cast<std::int64_t>(trace.size()))
      .Set("completed", static_cast<std::int64_t>(m.count()))
      .Set("cold_starts", static_cast<std::int64_t>(m.ColdStartCount()))
      .Set("goodput", m.Goodput(Millis(kSloMs)))
      .Set("p99_ms", m.LatencyPercentileMs(99))
      .Set("mean_ms", m.MeanLatencyMs())
      .Set("sim_seconds", ToSeconds(trace.duration()))
      .Set("events_scheduled",
           static_cast<std::int64_t>(sim.event_queue().total_scheduled()))
      .Set("event_slot_peak",
           static_cast<std::int64_t>(sim.event_queue().slot_capacity()));
  JsonObject doc;
  doc.SetRaw("point", point.Render());
  if (journaling) {
    const JournalTotals t = writer.totals();
    rep.journal_nodes = t.nodes;
    const double n = static_cast<double>(trace.size());
    rep.layer["obs.journal.bytes_per_op"] =
        static_cast<double>(writer.bytes_written()) / n;
    rep.layer["obs.journal.nodes_per_op"] = static_cast<double>(t.nodes) / n;
    rep.layer["obs.journal.edges_per_op"] = static_cast<double>(t.edges) / n;
    if (t.requests != trace.size() || t.incomplete_requests != 0) {
      rep.output_ok = false;
    }
    doc.SetRaw("journal",
               JsonObject()
                   .Set("requests", static_cast<std::int64_t>(t.requests))
                   .Set("incomplete_requests",
                        static_cast<std::int64_t>(t.incomplete_requests))
                   .Set("nodes", static_cast<std::int64_t>(t.nodes))
                   .Set("edges", static_cast<std::int64_t>(t.edges))
                   .Set("chunks", static_cast<std::int64_t>(t.chunks))
                   .Set("bytes",
                        static_cast<std::int64_t>(writer.bytes_written()))
                   .Render());
  }
  rep.output = doc.Render();
  return rep;
}

Rep RunSynthetic(const Context& ctx) { return ReplaySynthetic(ctx, ""); }

Rep RunJournalRecord(const Context& ctx) {
  const std::string path = ctx.scratch_dir + "/journal_record.dpjl";
  Rep rep = ReplaySynthetic(ctx, path);
  std::filesystem::remove(path);
  return rep;
}

// fig15: a MAF-like trace of ctx.size minutes at 120 rps over 135 instances
// in a 4:4:1 BERT-Base / RoBERTa-Base / GPT-2 mix, replayed by PipeSwitch,
// DHA and PT+DHA in turn. Arrivals are scheduled up front, as Server::Run
// does.
Rep RunAzureMix(const Context& ctx) {
  Rep rep;
  SpanLog& spans = *ctx.spans;
  std::int64_t setup_start = NowNs();
  AzureTraceOptions w;
  w.num_instances = kInstances;
  w.duration = Seconds(60.0 * static_cast<double>(ctx.size));
  w.target_rate_per_sec = kRatePerSec;
  w.seed = ctx.seed;
  Trace trace;
  {
    Span span(spans, "workload.generate");
    trace = GenerateAzureTrace(w);
  }
  JsonArray points;
  double scheduled = 0.0;
  for (const Strategy strategy :
       {Strategy::kPipeSwitch, Strategy::kDeepPlanDha,
        Strategy::kDeepPlanPtDha}) {
    const Topology topology = Topology::P3_8xlarge();
    const PerfModel perf(topology.gpu(), topology.pcie());
    ServerOptions options;
    options.strategy = strategy;
    options.slo = Millis(kSloMs);
    Simulator sim;
    Server server(&sim, topology, perf, options);
    {
      Span span(spans, "serving.register");
      const int bert = server.RegisterModelType(ModelZoo::BertBase());
      const int roberta = server.RegisterModelType(ModelZoo::RobertaBase());
      const int gpt2 = server.RegisterModelType(ModelZoo::Gpt2());
      const int unit = kInstances / 9;
      server.AddInstances(bert, 4 * unit);
      server.AddInstances(roberta, 4 * unit);
      server.AddInstances(gpt2, kInstances - 8 * unit);
    }
    if (ctx.traced) {
      server.set_telemetry(nullptr, &rep.registry);
    }
    {
      Span span(spans, "serving.warmup");
      server.Warmup();
    }
    rep.Mark();
    rep.setup_ns += NowNs() - setup_start;
    {
      selfprof::InstallLane lane(ctx.lane);
      std::vector<double>* submit_ns =
          ctx.traced ? &rep.samples["serving.submit_ns"] : nullptr;
      for (const Arrival& a : trace.arrivals()) {
        sim.ScheduleAt(a.time, [&server, instance = a.instance, submit_ns] {
          TimedSubmit(&server, instance, submit_ns);
        });
      }
      rep.EndSlice(0);
      RunSliced(sim, trace.duration(), server.metrics(), spans, &rep);
    }
    setup_start = NowNs();

    const ServingMetrics& m = server.metrics();
    rep.ops += m.count();
    rep.failed_ops += trace.size() - m.count();
    scheduled += static_cast<double>(sim.event_queue().total_scheduled());
    rep.layer["sim.event_slot_peak"] =
        std::max(rep.layer["sim.event_slot_peak"],
                 static_cast<double>(sim.event_queue().slot_capacity()));
    const double p99 = m.LatencyPercentileMs(99);
    const double goodput = m.Goodput(Millis(kSloMs));
    if (strategy == Strategy::kPipeSwitch) {
      rep.layer["serving.pipeswitch.p99_ms"] = p99;
      rep.layer["serving.pipeswitch.goodput"] = goodput;
    } else if (strategy == Strategy::kDeepPlanDha) {
      rep.layer["serving.dha.p99_ms"] = p99;
      rep.layer["serving.dha.goodput"] = goodput;
    } else {
      ServingLayerValues(m, trace.size(), &rep);
    }
    const LatencyBreakdown b = m.Breakdown();
    points.AddRaw(
        JsonObject()
            .Set("strategy", StrategyName(strategy))
            .Set("requests", static_cast<std::int64_t>(trace.size()))
            .Set("completed", static_cast<std::int64_t>(m.count()))
            .Set("p99_ms", p99)
            .Set("goodput", goodput)
            .Set("cold_starts", static_cast<std::int64_t>(m.ColdStartCount()))
            .Set("evictions", static_cast<std::int64_t>(m.EvictionCount()))
            .Set("mean_queue_ms", b.mean_queue_ms)
            .Set("mean_cold_ms", b.mean_cold_ms)
            .Set("mean_exec_ms", b.mean_exec_ms)
            .Set("events_scheduled", static_cast<std::int64_t>(
                                         sim.event_queue().total_scheduled()))
            .Render());
  }
  rep.layer["sim.events_per_op"] = Ratio(scheduled, static_cast<double>(rep.ops));
  rep.output = JsonObject().SetRaw("points", points.Render()).Render();
  return rep;
}

// Set-up records a ctx.size-request journal of the synthetic trace and opens
// it for windowed replay; the timed phase is one BuildWhatIfReportWindowed
// call with the default experiments.
Rep RunWhatIfReplay(const Context& ctx) {
  SpanLog& spans = *ctx.spans;
  const std::string path = ctx.scratch_dir + "/whatif_replay.dpjl";
  Context recording = ctx;
  recording.traced = false;
  recording.lane = nullptr;
  const Rep recorded = ReplaySynthetic(recording, path);
  Rep rep;
  rep.output_ok = recorded.output_ok;
  rep.layer["sim_p99_ms"] = recorded.layer.at("sim_p99_ms");
  rep.layer["sim_goodput"] = recorded.layer.at("sim_goodput");
  const std::int64_t open_start = NowNs();
  WindowedJournal journal;
  std::string error;
  bool opened = false;
  {
    Span span(spans, "obs.journal.open");
    opened = recorded.output_ok && journal.Open(path, &error);
  }
  rep.setup_ns =
      recorded.setup_ns + recorded.TimedNs() + (NowNs() - open_start);
  if (!opened) {
    std::cerr << "cannot open journal " << path << ": " << error << "\n";
    rep.output_ok = false;
    std::filesystem::remove(path);
    return rep;
  }
  const std::vector<WhatIfExperiment> experiments = DefaultWhatIfExperiments();
  WhatIfReport report;
  rep.Mark();
  {
    selfprof::InstallLane lane(ctx.lane);
    Span span(spans, "whatif.report");
    report = BuildWhatIfReportWindowed(journal, experiments);
  }
  // An op is one journal node replayed once: replay works node by node, and
  // a cold request carries about ten times a warm one's nodes, so counting
  // requests would make the cost per op depend on the seed's cold-start
  // share. The report replays the journal once per experiment, once more
  // for the identity self-check, and once per knob (pcie, nvlink, exec) for
  // the sensitivity table.
  const std::size_t replays = experiments.size() + 4;
  rep.ops = recorded.journal_nodes * replays;
  rep.EndSlice(rep.ops);
  // Skipped (journal-incomplete) requests fail the whole run below.
  if (!report.baseline_matches_journal || report.skipped_requests != 0 ||
      report.requests != static_cast<int>(ctx.size)) {
    rep.output_ok = false;
  }
  if (ctx.traced) {
    WhatIfExperiment identity;
    identity.name = "baseline";
    std::vector<WhatIfExperiment> timed = {identity};
    timed.insert(timed.end(), experiments.begin(), experiments.end());
    for (const WhatIfExperiment& exp : timed) {
      const std::int64_t start = NowNs();
      Span span(spans, "whatif.replay");
      journal.Replay(exp);
      rep.samples["whatif.replay_s"].push_back(
          static_cast<double>(NowNs() - start) / 1e9);
    }
  }
  rep.layer["whatif.max_resident_requests"] =
      static_cast<double>(journal.max_resident_requests());
  std::filesystem::remove(path);

  const auto quantiles = [](const WhatIfQuantiles& q) {
    return JsonObject()
        .Set("p50_ms", q.p50_ms)
        .Set("p95_ms", q.p95_ms)
        .Set("p99_ms", q.p99_ms)
        .Set("mean_ms", q.mean_ms)
        .Set("max_ms", q.max_ms)
        .Render();
  };
  JsonArray outcomes;
  for (const WhatIfOutcome& o : report.outcomes) {
    outcomes.AddRaw(JsonObject()
                        .Set("experiment", o.experiment.name)
                        .SetRaw("predicted", quantiles(o.predicted))
                        .Render());
  }
  JsonArray sensitivity;
  for (const WhatIfSensitivity& s : report.sensitivity) {
    sensitivity.AddRaw(JsonObject()
                           .Set("knob", s.knob)
                           .Set("delta_p99_ms", s.delta_p99_ms)
                           .Set("leverage_p99", s.leverage_p99)
                           .Render());
  }
  rep.output =
      JsonObject()
          .SetRaw("recording", recorded.output)
          .Set("requests", report.requests)
          .Set("skipped_requests", report.skipped_requests)
          .Set("baseline_matches_journal", report.baseline_matches_journal)
          .SetRaw("baseline", quantiles(report.baseline))
          .SetRaw("experiments", outcomes.Render())
          .SetRaw("sensitivity", sensitivity.Render())
          .Render();
  return rep;
}

// One cold inference of `plan` on a fresh simulator (fig11's RunCold call).
Nanos ColdLatency(const Topology& topology, const PerfModel& perf,
                  const Model& model, Strategy strategy,
                  const ExecutionPlan& plan,
                  const std::vector<GpuId>& secondaries,
                  MetricsRegistry* registry, Rep* rep) {
  Simulator sim;
  ServerFabric fabric(&sim, &topology);
  fabric.fabric().set_telemetry(nullptr, registry, 0);
  Engine engine(&sim, &fabric, &perf);
  InferenceResult result;
  engine.RunCold(model, plan, /*primary=*/0, secondaries,
                 MakeColdRunOptions(strategy, 1),
                 [&result](const InferenceResult& r) { result = r; });
  sim.Run();
  rep->events += sim.events_dispatched();
  rep->layer["sim.events_per_op"] +=
      static_cast<double>(sim.event_queue().total_scheduled());
  rep->layer["sim.event_slot_peak"] =
      std::max(rep->layer["sim.event_slot_peak"],
               static_cast<double>(sim.event_queue().slot_capacity()));
  return result.latency;
}

// fig11's protocol: 8 zoo models x 5 strategies x R=ctx.size cold
// inferences on a p3.8xlarge. Op r of a (model, strategy) cell is a noisy
// profile with seed seed+r, the strategy's plan, and one cold run, timed
// call by call. Set-up plans every cell from an exact (noise-free) profile:
// each cell's mean must stay within kNoiseTolerance of that reference.
Rep RunColdPlan(const Context& ctx) {
  // The profiler's 1% measurement noise moved no cell's mean at all over
  // seeds 0-9 and 1000 at R=300 (the plans do not flip); 5% flags a broken
  // profiler, planner or engine on seeds with no committed output.
  constexpr double kNoiseTolerance = 0.05;
  Rep rep;
  SpanLog& spans = *ctx.spans;
  const std::int64_t setup_start = NowNs();
  const Topology topology = Topology::P3_8xlarge();
  const PerfModel perf(topology.gpu(), topology.pcie());
  std::vector<Model> models;
  std::vector<double> reference_ms;
  PipelineOptions pipeline;
  pipeline.nvlink = topology.nvlink();
  {
    Span span(spans, "cold_plan.reference");
    models = ModelZoo::PaperModels();
    for (const Model& model : models) {
      ProfilerOptions exact;
      exact.noise_stddev = 0.0;
      const ModelProfile profile = Profiler(&perf, exact).Profile(model);
      for (const Strategy strategy : AllStrategies()) {
        const int degree = StrategyDegree(strategy, topology, /*primary=*/0);
        Rep unused;
        reference_ms.push_back(ToMillis(ColdLatency(
            topology, perf, model, strategy,
            MakeStrategyPlan(strategy, profile, degree, pipeline),
            TransmissionPlanner::ChooseSecondaries(topology, 0, degree),
            nullptr, &unused)));
      }
    }
  }
  const auto runs = static_cast<std::size_t>(ctx.size);
  rep.Mark();
  rep.setup_ns = NowNs() - setup_start;

  JsonArray points;
  double err_sum = 0.0;
  int err_cells = 0;
  std::size_t cell_index = 0;
  MetricsRegistry* registry = ctx.traced ? &rep.registry : nullptr;
  {
    selfprof::InstallLane lane(ctx.lane);
    for (const Model& model : models) {
      for (const Strategy strategy : AllStrategies()) {
        Span cell(spans, "cold_plan.cell");
        const int degree = StrategyDegree(strategy, topology, /*primary=*/0);
        const std::vector<GpuId> secondaries =
            TransmissionPlanner::ChooseSecondaries(topology, 0, degree);
        StreamingStats latency_ms;
        for (std::size_t r = 0; r < runs; ++r) {
          const std::int64_t start = NowNs();
          ProfilerOptions options;
          options.seed = ctx.seed + r;
          options.batch = 1;
          const ModelProfile profile = Profiler(&perf, options).Profile(model);
          const std::int64_t profiled = NowNs();
          const ExecutionPlan plan =
              MakeStrategyPlan(strategy, profile, degree, pipeline);
          const std::int64_t planned = NowNs();
          const Nanos latency = ColdLatency(topology, perf, model, strategy,
                                            plan, secondaries, registry, &rep);
          if (ctx.traced) {
            const std::int64_t end = NowNs();
            rep.samples["core.profile_us"].push_back(
                static_cast<double>(profiled - start) / 1e3);
            rep.samples["core.plan_us"].push_back(
                static_cast<double>(planned - profiled) / 1e3);
            rep.samples["engine.cold_run_us"].push_back(
                static_cast<double>(end - planned) / 1e3);
          }
          rep.EndSlice(1);
          if (latency <= 0) {
            ++rep.failed_ops;
          }
          latency_ms.Add(ToMillis(latency));
        }
        rep.ops += runs;
        const double reference = reference_ms[cell_index++];
        if (std::abs(latency_ms.mean() - reference) > kNoiseTolerance * reference) {
          std::cerr << model.name() << " " << StrategyName(strategy)
                    << ": mean " << latency_ms.mean() << " ms vs exact-profile "
                    << reference << " ms\n";
          rep.output_ok = false;
        }
        for (const PaperCell& paper : kTable4) {
          if (model.name() != paper.model) {
            continue;
          }
          if (strategy == Strategy::kPipeSwitch) {
            err_sum += std::abs(latency_ms.mean() - paper.pipeswitch_ms) /
                       paper.pipeswitch_ms;
            ++err_cells;
          } else if (strategy == Strategy::kDeepPlanPtDha) {
            err_sum += std::abs(latency_ms.mean() - paper.ptdha_ms) /
                       paper.ptdha_ms;
            ++err_cells;
          }
        }
        points.AddRaw(JsonObject()
                          .Set("model", model.name())
                          .Set("strategy", StrategyName(strategy))
                          .Set("mean_cold_ms", latency_ms.mean())
                          .Render());
      }
    }
  }
  if (err_cells != 16) {
    rep.output_ok = false;
  }
  const double paper_err_pct = 100.0 * Ratio(err_sum, err_cells);
  rep.layer["paper_err_pct"] = paper_err_pct;
  rep.layer["sim.events_per_op"] =
      Ratio(rep.layer["sim.events_per_op"], static_cast<double>(rep.ops));
  rep.output = JsonObject()
                   .SetRaw("points", points.Render())
                   .Set("paper_err_pct", paper_err_pct)
                   .Render();
  return rep;
}

struct Workload {
  const char* name;
  std::uint64_t default_seed;
  std::uint64_t held_out_seed;
  std::int64_t default_size;
  Rep (*run)(const Context&);
};

// Default seeds are those of the existing benches. benchmark/expected/ holds
// the output at the default size for the default and the held-out seed.
constexpr Workload kWorkloads[] = {
    {"synthetic_1m", 42, 43, 1000000, RunSynthetic},
    {"azure_mix", 7, 8, 20, RunAzureMix},
    {"journal_record", 42, 43, 200000, RunJournalRecord},
    {"whatif_replay", 42, 43, 30000, RunWhatIfReplay},
    {"cold_plan", 1000, 5000, 100, RunColdPlan},
};

// Untraced runs repeat the workload at least this often, so that a burst of
// interference from other tenants of the host that slows a slice in one
// repetition is unlikely to slow it in all of them.
constexpr std::size_t kMinReps = 3;

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return in ? ss.str() : std::string();
}

// Renders a parsed JSON value back to text, so that one point of a golden
// file can be handed to check::DiffBenchReports.
std::string Render(const JsonValue& v) {
  switch (v.kind()) {
    case JsonValue::Kind::kNull:
      return "null";
    case JsonValue::Kind::kBool:
      return Json::Bool(v.AsBool());
    case JsonValue::Kind::kNumber:
      return Json::Num(v.AsNumber());
    case JsonValue::Kind::kString:
      return Json::Str(v.AsString());
    case JsonValue::Kind::kArray: {
      JsonArray out;
      for (const JsonValue& item : v.items()) {
        out.AddRaw(Render(item));
      }
      return out.Render();
    }
    case JsonValue::Kind::kObject: {
      JsonObject out;
      for (const auto& [key, field] : v.fields()) {
        out.SetRaw(key, Render(field));
      }
      return out.Render();
    }
  }
  return "null";
}

// Exact comparison (no tolerance) through the bench regression gate.
bool SameOutput(const std::string& what, const std::string& expected,
                const std::string& actual) {
  check::BenchDiffOptions exact;
  exact.abs_tol = 0.0;
  const check::BenchDiffResult diff =
      check::DiffBenchReports(expected, actual, exact);
  if (!diff.parsed) {
    std::cerr << what << ": " << diff.parse_error << "\n";
    return false;
  }
  for (const check::BenchDiffEntry& d : diff.diffs) {
    std::cerr << what << ": " << d.path << ": " << d.detail << "\n";
  }
  return diff.diffs.empty();
}

// The committed bench_scaling golden has points at 44k, 200k and 1M for seed
// 42. A synthetic output of the same seed and size must equal that point.
bool MatchesScalingGolden(const std::string& root, std::uint64_t seed,
                          std::int64_t size, const std::string& output) {
  const JsonParseResult golden =
      ParseJson(ReadFile(root + "/bench/golden/BENCH_scaling.json"));
  const JsonParseResult actual = ParseJson(output);
  const JsonValue* point = actual.ok ? actual.value.Find("point") : nullptr;
  if (!golden.ok || point == nullptr) {
    return true;
  }
  const JsonValue* config = golden.value.Find("config");
  const JsonValue* golden_seed = config ? config->Find("seed") : nullptr;
  const JsonValue* points = golden.value.Find("points");
  if (golden_seed == nullptr || points == nullptr ||
      golden_seed->AsNumber() != static_cast<double>(seed)) {
    return true;
  }
  for (const JsonValue& p : points->items()) {
    const JsonValue* requests = p.Find("requests");
    if (requests != nullptr &&
        requests->AsNumber() == static_cast<double>(size)) {
      std::cerr << "checking against bench/golden/BENCH_scaling.json point "
                << size << "\n";
      return SameOutput("golden", Render(p), Render(*point));
    }
  }
  return true;
}

// BENCHMARK.json must list exactly the metrics this program prints.
bool ManifestMatches(const std::string& root) {
  const JsonParseResult manifest = ParseJson(ReadFile(root + "/BENCHMARK.json"));
  if (!manifest.ok) {
    std::cerr << "cannot read " << root << "/BENCHMARK.json\n";
    return false;
  }
  const auto same = [&](const char* key, const auto& defs) {
    const JsonValue* list = manifest.value.Find(key);
    if (list == nullptr || list->items().size() != std::size(defs)) {
      return false;
    }
    for (std::size_t i = 0; i < std::size(defs); ++i) {
      const JsonValue* name = list->items()[i].Find("name");
      const JsonValue* unit = list->items()[i].Find("unit");
      if (name == nullptr || unit == nullptr ||
          name->AsString() != defs[i].name || unit->AsString() != defs[i].unit) {
        return false;
      }
    }
    return true;
  };
  if (!same("end_to_end", kEndToEnd) || !same("per_layer", kPerLayer)) {
    std::cerr << "BENCHMARK.json metrics differ from deepplan_bench's lists\n";
    return false;
  }
  return true;
}

struct PhaseTotal {
  double count = 0.0;
  double ns = 0.0;  // estimated full-phase time (sampled phases scaled up)
};

double EstimatedNs(const selfprof::SelfProfiler::Node& node) {
  return node.sampled == 0
             ? 0.0
             : static_cast<double>(node.inclusive_ns) *
                   static_cast<double>(node.count) /
                   static_cast<double>(node.sampled);
}

// Sums `phase` over the lane's outermost nodes of that phase (a phase nested
// in itself would otherwise count twice). With `self`, each node's children
// are subtracted.
PhaseTotal SumPhase(const selfprof::SelfProfiler& lane, selfprof::Phase phase,
                    bool self = false) {
  PhaseTotal total;
  const auto& nodes = lane.nodes();
  for (const selfprof::SelfProfiler::Node& node : nodes) {
    if (node.phase != phase) {
      continue;
    }
    bool nested = false;
    for (std::int32_t p = node.parent; p >= 0;
         p = nodes[static_cast<std::size_t>(p)].parent) {
      nested = nested || nodes[static_cast<std::size_t>(p)].phase == phase;
    }
    if (nested) {
      continue;
    }
    total.count += static_cast<double>(node.count);
    total.ns += EstimatedNs(node);
    if (self) {
      for (const std::int32_t child : node.child) {
        if (child >= 0) {
          total.ns -= EstimatedNs(nodes[static_cast<std::size_t>(child)]);
        }
      }
    }
  }
  return total;
}

// Shortest text that reads back as the same double.
std::string Num(double v) {
  if (!std::isfinite(v)) {
    v = 0.0;
  }
  char buf[32];
  const auto result = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, result.ptr);
}

std::string MetricsJson(const std::vector<MetricDef>& defs,
                        const std::map<std::string, double>& values) {
  std::string out = "{";
  for (std::size_t i = 0; i < defs.size(); ++i) {
    const auto it = values.find(defs[i].name);
    out += (i == 0 ? "\"" : ", \"") + std::string(defs[i].name) +
           "\": {\"value\": " + Num(it == values.end() ? 0.0 : it->second) +
           ", \"unit\": \"" + defs[i].unit + "\"}";
  }
  return out + "}";
}

double Median(const std::vector<double>& v) { return Quantile(v, 50); }

// Per-layer values of a traced run: the workload's deterministic values,
// then host timings from the traced repetitions' spans, per-call samples,
// registries and selfprof lane, priced against the untraced repetitions.
std::map<std::string, double> PerLayerValues(
    const std::vector<Rep>& plain, const std::vector<Rep>& traced,
    const SpanLog& spans, const selfprof::SelfProfiler& lane) {
  std::map<std::string, double> values = traced.back().layer;
  double ops = 0.0;
  double events = 0.0;
  std::vector<double> traced_ns;
  std::vector<double> plain_ns;
  std::map<std::string, std::vector<double>> samples;
  std::int64_t transfers = 0;
  std::int64_t bytes = 0;
  for (const Rep& r : traced) {
    ops += static_cast<double>(r.ops);
    events += static_cast<double>(r.events);
    traced_ns.push_back(static_cast<double>(r.TimedNs()));
    for (const auto& [name, s] : r.samples) {
      samples[name].insert(samples[name].end(), s.begin(), s.end());
    }
    transfers += r.registry.counter("fabric.transfers");
    bytes += r.registry.counter("fabric.bytes");
  }
  for (const Rep& r : plain) {
    plain_ns.push_back(static_cast<double>(r.TimedNs()));
  }
  const auto p = [&samples](const char* name, double q) {
    const auto it = samples.find(name);
    return it == samples.end() || it->second.empty() ? 0.0
                                                     : Quantile(it->second, q);
  };
  values["workload.generate_s"] = spans.MedianSelfNs("workload.generate") / 1e9;
  values["serving.register_s"] = spans.MedianSelfNs("serving.register") / 1e9;
  values["serving.warmup_ms"] = spans.MedianSelfNs("serving.warmup") / 1e6;
  values["obs.journal.finish_ms"] =
      spans.MedianSelfNs("obs.journal.finish") / 1e6;
  values["obs.journal.open_s"] = spans.MedianSelfNs("obs.journal.open") / 1e9;
  values["core.profile_us_p50"] = p("core.profile_us", 50);
  values["core.plan_us_p50"] = p("core.plan_us", 50);
  values["engine.cold_run_us_p50"] = p("engine.cold_run_us", 50);
  values["engine.cold_run_us_p90"] = p("engine.cold_run_us", 90);
  values["serving.submit_ns_p50"] = p("serving.submit_ns", 50);
  values["serving.submit_ns_p99"] = p("serving.submit_ns", 99);
  values["whatif.replay_s_p50"] = p("whatif.replay_s", 50);
  values["sim.ns_per_event"] =
      Ratio(std::accumulate(traced_ns.begin(), traced_ns.end(), 0.0), events);
  values["sim.fabric.transfers_per_op"] =
      Ratio(static_cast<double>(transfers), ops);
  values["sim.fabric.bytes_per_op"] = Ratio(static_cast<double>(bytes), ops);
  const double lane_ns = static_cast<double>(lane.root().inclusive_ns);
  const PhaseTotal exec = SumPhase(lane, selfprof::Phase::kExecStream);
  const PhaseTotal fair = SumPhase(lane, selfprof::Phase::kFairShare);
  values["sim.exec_stream.calls_per_op"] = Ratio(exec.count, ops);
  values["sim.exec_stream.share"] = Ratio(exec.ns, lane_ns);
  values["sim.fair_share.calls_per_op"] = Ratio(fair.count, ops);
  values["sim.fair_share.share"] = Ratio(fair.ns, lane_ns);
  values["sim.dispatch_self.share"] = Ratio(
      SumPhase(lane, selfprof::Phase::kSimDispatch, /*self=*/true).ns, lane_ns);
  values["engine.cold_start.share"] =
      Ratio(SumPhase(lane, selfprof::Phase::kColdStart).ns, lane_ns);
  values["obs.journal.serialize.share"] =
      Ratio(SumPhase(lane, selfprof::Phase::kJournalSerialize).ns, lane_ns);
  values["bench.trace_overhead_pct"] =
      100.0 * (Median(traced_ns) / Median(plain_ns) - 1.0);
  return values;
}

// End-to-end values of an untraced run.
std::map<std::string, double> EndToEndValues(const std::vector<Rep>& plain,
                                             double peak_rss_mb) {
  std::map<std::string, double> values;
  // Interference from other tenants of the host only ever slows a slice,
  // so each slice's time is its fastest over the repetitions. The timed
  // phase is their sum; each slice that completed ops is one us_per_op
  // sample.
  double timed_ns = 0.0;
  std::vector<double> us_per_op;
  const std::vector<std::uint64_t>& slice_ops = plain[0].slice_ops;
  for (std::size_t i = 0; i < slice_ops.size(); ++i) {
    double fastest = static_cast<double>(plain[0].slice_ns[i]);
    for (const Rep& r : plain) {
      if (i < r.slice_ns.size()) {  // a mismatch already failed the run
        fastest = std::min(fastest, static_cast<double>(r.slice_ns[i]));
      }
    }
    timed_ns += fastest;
    if (slice_ops[i] > 0) {
      us_per_op.push_back(fastest / 1e3 / static_cast<double>(slice_ops[i]));
    }
  }
  // Set-up likewise: the fastest of the run's set-ups.
  std::int64_t setup_ns = plain[0].setup_ns;
  for (const Rep& r : plain) {
    setup_ns = std::min(setup_ns, r.setup_ns);
  }
  values["ops_per_s"] =
      Ratio(static_cast<double>(plain[0].ops), timed_ns / 1e9);
  values["us_per_op_p50"] = Quantile(us_per_op, 50);
  values["us_per_op_p90"] = Quantile(us_per_op, 90);
  values["setup_s"] = static_cast<double>(setup_ns) / 1e9;
  values["peak_rss_mb"] = peak_rss_mb;
  for (const char* name : {"sim_p99_ms", "sim_goodput", "paper_err_pct"}) {
    const auto it = plain.back().layer.find(name);
    if (it != plain.back().layer.end()) {
      values[name] = it->second;
    }
  }
  values["us_per_op_samples"] = static_cast<double>(us_per_op.size());
  values["reps"] = static_cast<double>(plain.size());
  return values;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  flags.DefineString("workload", "", "synthetic_1m, azure_mix, journal_record, "
                                     "whatif_replay or cold_plan");
  flags.DefineInt("seed", -1, "input seed (default: the workload's)");
  flags.DefineInt("size", 0,
                  "input size: requests (synthetic_1m, journal_record, "
                  "whatif_replay), trace minutes (azure_mix) or runs per "
                  "cell (cold_plan); default: the workload's");
  flags.DefineDouble("seconds", 10.0,
                     "repeat until the timed phases have used this long");
  flags.DefineInt("trace", 0, "1: alternate untraced and traced repetitions "
                              "and report the per-layer metrics");
  flags.DefineString("root", ".", "repository root");
  flags.DefineString("commit", "unknown", "provenance: source commit");
  flags.DefineString("dirty", "unknown", "provenance: uncommitted changes");
  if (!flags.Parse(argc, argv)) {
    return 2;
  }
  const std::string build_type = DEEPPLAN_BENCH_BUILD_TYPE;
  if (build_type == "Debug") {
    std::cerr << "refusing to measure a Debug build\n";
    return 2;
  }
  for (const char* var : kCostEnv) {
    if (std::getenv(var) != nullptr) {
      std::cerr << "refusing to measure with " << var
                << " set; benchmark/run.sh unsets it\n";
      return 2;
    }
  }
  const Workload* workload = nullptr;
  for (const Workload& w : kWorkloads) {
    if (flags.GetString("workload") == w.name) {
      workload = &w;
    }
  }
  if (workload == nullptr) {
    std::cerr << "unknown --workload '" << flags.GetString("workload") << "'\n";
    return 2;
  }
  const std::string root = flags.GetString("root");
  if (!ManifestMatches(root)) {
    return 2;
  }
  const std::uint64_t seed =
      flags.GetInt("seed") < 0 ? workload->default_seed
                               : static_cast<std::uint64_t>(flags.GetInt("seed"));
  const std::int64_t size =
      flags.GetInt("size") > 0 ? flags.GetInt("size") : workload->default_size;
  const double seconds = flags.GetDouble("seconds");
  const bool trace = flags.GetInt("trace") != 0;
  const std::string results = root + "/benchmark/results";
  std::filesystem::create_directories(results);

  SpanLog spans;
  selfprof::SelfProfiler lane;
  std::vector<Rep> plain;
  std::vector<Rep> traced;
  double timed_s = 0.0;
  double peak_rss_mb = 0.0;
  // Traced runs alternate untraced and traced repetitions and need one of
  // each; the untraced ones price the tracing.
  const std::size_t min_plain = trace || seconds <= 0 ? 1 : kMinReps;
  while (timed_s < seconds || plain.size() < min_plain ||
         (trace && traced.empty())) {
    const bool traced_rep = trace && plain.size() > traced.size();
    spans.set_enabled(traced_rep);
    Context ctx;
    ctx.seed = seed;
    ctx.size = size;
    ctx.traced = traced_rep;
    ctx.spans = &spans;
    ctx.lane = traced_rep ? &lane : nullptr;
    ctx.scratch_dir = results;
    Rep rep;
    {
      Span span(spans, workload->name);
      rep = workload->run(ctx);
    }
    timed_s += static_cast<double>(rep.TimedNs()) / 1e9;
    (traced_rep ? traced : plain).push_back(std::move(rep));
    if (plain.size() == 1 && traced.empty()) {
      // The workload's own peak, before later repetitions' results pile up.
      struct rusage usage {};
      getrusage(RUSAGE_SELF, &usage);
      peak_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;
    }
  }

  // Correctness: every repetition's output is identical, and equal to the
  // committed expected output and the golden anchor where those exist.
  bool outputs_ok = true;
  std::vector<const Rep*> reps;
  for (const std::vector<Rep>* kind : {&plain, &traced}) {
    for (const Rep& r : *kind) {
      reps.push_back(&r);
    }
  }
  for (const Rep* r : reps) {
    outputs_ok = outputs_ok && r->output_ok && r->output == reps[0]->output &&
                 r->slice_ops == reps[0]->slice_ops;
  }
  JsonObject doc;
  doc.Set("workload", workload->name)
      .Set("seed", static_cast<std::int64_t>(seed))
      .Set("size", size)
      .SetRaw("output", reps[0]->output.empty() ? "null" : reps[0]->output);
  const std::string output = doc.Render();
  {
    std::ofstream out(results + "/" + workload->name + ".output.json");
    out << output << "\n";
  }
  if (size == workload->default_size &&
      (seed == workload->default_seed || seed == workload->held_out_seed)) {
    const std::string expected_path = root + "/benchmark/expected/" +
                                      workload->name + ".seed" +
                                      std::to_string(seed) + ".json";
    const std::string expected = ReadFile(expected_path);
    if (expected.empty()) {
      std::cerr << "missing " << expected_path << "\n";
      outputs_ok = false;
    } else {
      outputs_ok = SameOutput(expected_path, expected, output) && outputs_ok;
    }
  }
  outputs_ok = MatchesScalingGolden(root, seed, size, reps[0]->output) && outputs_ok;

  std::map<std::string, double> values;
  if (trace) {
    const std::string trace_path =
        results + "/trace_" + workload->name + ".json";
    const std::string selfprof_path =
        results + "/selfprof_" + workload->name + ".json";
    const bool written =
        spans.WriteTo(trace_path) &&
        selfprof::WriteReport(selfprof_path,
                              selfprof::ReportJson(workload->name,
                                                   {{workload->name, &lane}}));
    const check::TraceLintResult trace_lint =
        check::LintChromeTraceFile(trace_path);
    const check::TraceLintResult selfprof_lint =
        check::LintSelfprofReportFile(selfprof_path);
    for (const std::string& e : trace_lint.errors) {
      std::cerr << trace_path << ": " << e << "\n";
    }
    for (const std::string& e : selfprof_lint.errors) {
      std::cerr << selfprof_path << ": " << e << "\n";
    }
    outputs_ok = outputs_ok && written && trace_lint.ok() && selfprof_lint.ok();

    values = PerLayerValues(plain, traced, spans, lane);
  } else {
    values = EndToEndValues(plain, peak_rss_mb);
  }

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  for (const Rep* r : reps) {
    attempted += r->ops;
    failed += r->failed_ops;
  }
  attempted = std::max<std::uint64_t>(attempted, 1);
  if (!outputs_ok) {
    failed = attempted;
  }
  values["failed_ratio"] =
      static_cast<double>(failed) / static_cast<double>(attempted);

  const std::vector<MetricDef> reported =
      trace ? std::vector<MetricDef>(std::begin(kPerLayer), std::end(kPerLayer))
            : std::vector<MetricDef>(std::begin(kEndToEnd), std::end(kEndToEnd));
  std::vector<MetricDef> printed = reported;
  if (!trace) {
    for (const MetricDef& m : kUnbounded) {
      if (values.count(m.name) != 0) {
        printed.push_back(m);
      }
    }
  }
  for (const MetricDef& m : printed) {
    std::cout << workload->name << " " << m.name << " " << Num(values[m.name])
              << " " << m.unit << "\n";
  }

  JsonObject provenance;
  provenance.Set("commit", flags.GetString("commit"))
      .Set("dirty", flags.GetString("dirty"))
      .Set("compiler",
#if defined(__clang__)
           "clang " __clang_version__
#elif defined(__GNUC__)
           "gcc " __VERSION__
#else
           "unknown"
#endif
           )
      .Set("build_type", build_type)
      .Set("nproc", static_cast<std::int64_t>(sysconf(_SC_NPROCESSORS_ONLN)))
      .Set("seed", static_cast<std::int64_t>(seed));
  {
    std::ofstream out(results + "/" + workload->name +
                      (trace ? ".traced.json" : ".json"));
    out << JsonObject()
               .Set("workload", workload->name)
               .Set("size", size)
               .Set("seconds", seconds)
               .Set("trace", trace)
               .SetRaw("provenance", provenance.Render())
               .Set("correct", failed == 0)
               .Set("attempted", static_cast<std::int64_t>(attempted))
               .Set("failed", static_cast<std::int64_t>(failed))
               .SetRaw("metrics", MetricsJson(printed, values))
               .Render()
        << "\n";
  }
  std::cout << "{\"correct\": " << (failed == 0 ? "true" : "false")
            << ", \"attempted\": " << attempted << ", \"failed\": " << failed
            << ", \"metrics\": " << MetricsJson(reported, values) << "}"
            << std::endl;
  return 0;
}
