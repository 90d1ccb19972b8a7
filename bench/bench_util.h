// Shared helpers for the figure/table reproduction benches: single-run and
// repeated cold-start measurement on a chosen topology, with exact or noisy
// profiling. Every bench prints the paper's rows through util::Table and can
// additionally emit a machine-readable BENCH_<name>.json via BenchReport and
// observation artifacts (causal journal, what-if and selfprof reports)
// through the output flags and writers at the end of this file. A run's
// Chrome trace is an export of its journal: `journal_convert --to-chrome`.
//
// Repetition loops run on SweepRunner: tasks fan out over DEEPPLAN_JOBS
// worker threads, results aggregate in task order, so bench output is
// byte-identical for any thread count (DEEPPLAN_JOBS=1 runs inline).
#ifndef BENCH_BENCH_UTIL_H_
#define BENCH_BENCH_UTIL_H_

#include <chrono>
#include <cstdlib>
#include <deque>
#include <fstream>
#include <iostream>
#include <ostream>
#include <string>
#include <vector>

#include "src/deepplan.h"

namespace deepplan {
namespace bench {

struct ColdMeasurement {
  InferenceResult result;
  ExecutionPlan plan;
};

// Profiles `model` on `perf` with measurement noise disabled (benches report
// the model's deterministic ground truth; the profiler's noise handling is
// exercised in tests and Table 5).
inline ModelProfile ExactProfile(const PerfModel& perf, const Model& model,
                                 int batch = 1) {
  ProfilerOptions opts;
  opts.noise_stddev = 0.0;
  opts.batch = batch;
  return Profiler(&perf, opts).Profile(model);
}

// Single source of the degree/pipeline/plan derivation every cold run needs.
// Returns the strategy's plan for `profile`; the transmission degree used is
// written to `degree_out` when non-null.
inline ExecutionPlan PlanFor(const Topology& topology, Strategy strategy,
                             const ModelProfile& profile, int* degree_out = nullptr) {
  const int degree = StrategyDegree(strategy, topology, /*primary=*/0);
  PipelineOptions pipeline;
  pipeline.nvlink = topology.nvlink();
  if (degree_out != nullptr) {
    *degree_out = degree;
  }
  return MakeStrategyPlan(strategy, profile, degree, pipeline);
}

// Runs one cold start of `strategy` for `model` using a pre-computed profile,
// on a fresh simulator/fabric. Self-contained and thread-safe: every call
// builds its own Simulator/ServerFabric/Engine, so SweepRunner tasks can call
// it concurrently. When `causal` points at an enabled graph the run records
// its happens-before DAG there as one cold request under `causal_process`
// (critical-path profiling, --profile_out).
inline ColdMeasurement RunColdWithProfile(const Topology& topology,
                                          const PerfModel& perf, const Model& model,
                                          Strategy strategy,
                                          const ModelProfile& profile,
                                          int batch = 1,
                                          CausalGraph* causal = nullptr,
                                          int causal_process = 0,
                                          int causal_instance = 0) {
  int degree = 0;
  ColdMeasurement m{{}, PlanFor(topology, strategy, profile, &degree)};
  Simulator sim;
  ServerFabric fabric(&sim, &topology);
  Engine engine(&sim, &fabric, &perf);
  ColdRunOptions options = MakeColdRunOptions(strategy, batch);
  int request = -1;
  if (causal != nullptr && causal->enabled()) {
    engine.set_causal(causal);
    request = causal->BeginRequest(causal_process, causal_instance, sim.now());
    causal->MarkCold(request);
    options.causal_request = request;
  }
  engine.RunCold(model, m.plan, /*primary=*/0,
                 TransmissionPlanner::ChooseSecondaries(topology, 0, degree),
                 options,
                 [&m, &sim, causal, request](const InferenceResult& r) {
                   m.result = r;
                   if (request >= 0) {
                     causal->EndRequest(request, sim.now());
                   }
                 });
  sim.Run();
  return m;
}

// Runs one cold start of `strategy` for `model` with an exact (noise-free)
// profile on a fresh simulator/fabric.
inline ColdMeasurement RunColdOnce(const Topology& topology, const PerfModel& perf,
                                   const Model& model, Strategy strategy,
                                   int batch = 1) {
  return RunColdWithProfile(topology, perf, model, strategy,
                            ExactProfile(perf, model, batch), batch);
}

// Mean cold latency over `runs` independent repetitions with profiling noise
// re-sampled per run (mirrors the paper's "averaged on 100 runs"). Run r is a
// pure function of its index (profiler seed 1000 + r), so the repetitions fan
// out over `runner`'s threads and the mean — accumulated in run order after
// the sweep — is byte-identical for any DEEPPLAN_JOBS.
inline double MeanColdLatencyMs(const Topology& topology, const PerfModel& perf,
                                const Model& model, Strategy strategy, int runs,
                                int batch = 1,
                                const SweepRunner& runner = SweepRunner()) {
  const std::vector<double> latencies_ms =
      runner.Map(runs, [&](int r) {
        ProfilerOptions opts;
        opts.seed = 1000 + static_cast<std::uint64_t>(r);
        opts.batch = batch;
        const ModelProfile profile = Profiler(&perf, opts).Profile(model);
        return ToMillis(
            RunColdWithProfile(topology, perf, model, strategy, profile, batch)
                .result.latency);
      });
  StreamingStats stats;
  for (const double ms : latencies_ms) {
    stats.Add(ms);
  }
  return stats.mean();
}

inline std::string PrettyModelName(const std::string& zoo_name) {
  if (zoo_name == "resnet50") return "ResNet-50";
  if (zoo_name == "resnet101") return "ResNet-101";
  if (zoo_name == "bert_base") return "BERT-Base";
  if (zoo_name == "bert_large") return "BERT-Large";
  if (zoo_name == "roberta_base") return "RoBERTa-Base";
  if (zoo_name == "roberta_large") return "RoBERTa-Large";
  if (zoo_name == "gpt2") return "GPT-2";
  if (zoo_name == "gpt2_medium") return "GPT-2 Medium";
  return zoo_name;
}

// Machine-readable bench output: config key/values, one JsonObject per data
// point, plus the worker count and wall-clock of the run. Write() renders
//   {"bench":<name>,"jobs":N,"config":{...},"points":[...],"wall_clock_ms":T}
// to BENCH_<name>.json in $DEEPPLAN_BENCH_DIR (default: current directory).
// Everything except wall_clock_ms is deterministic for a given config and
// independent of DEEPPLAN_JOBS; the wall clock is what records the sweep
// speedup across thread counts.
class BenchReport {
 public:
  explicit BenchReport(std::string name, int jobs = DefaultSweepJobs())
      : name_(std::move(name)),
        jobs_(jobs),
        // deepplan-lint: allow(raw-entropy, wall-clock bench timing; only feeds wall_clock_ms, which the golden gate ignores)
        start_(std::chrono::steady_clock::now()) {}

  JsonObject& config() { return config_; }

  // Adds a data point; references stay valid as points accumulate.
  JsonObject& AddPoint() {
    points_.emplace_back();
    return points_.back();
  }

  std::string ToJson() const {
    DP_SELFPROF_SCOPE(kReportRender);
    const double wall_ms =
        // deepplan-lint: allow(raw-entropy, wall-clock bench timing; only feeds wall_clock_ms, which the golden gate ignores)
        std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() -
                                                  start_)
            .count();
    JsonArray points;
    for (const JsonObject& p : points_) {
      points.AddRaw(p.Render());
    }
    JsonObject doc;
    doc.Set("bench", name_)
        .Set("jobs", jobs_)
        .SetRaw("config", config_.Render())
        .SetRaw("points", points.Render())
        .Set("wall_clock_ms", wall_ms);
    return doc.Render();
  }

  // Writes BENCH_<name>.json; returns the path, or "" on I/O failure. Notes
  // the destination on `log` (stderr by default) so table output on stdout
  // stays byte-identical across thread counts.
  std::string Write(std::ostream* log = nullptr) const {
    const char* dir = std::getenv("DEEPPLAN_BENCH_DIR");
    std::string path = (dir != nullptr && *dir != '\0') ? std::string(dir) : ".";
    path += "/BENCH_" + name_ + ".json";
    std::ofstream out(path);
    if (out) {
      out << ToJson() << "\n";
    }
    if (!out) {
      if (log != nullptr) {
        *log << "cannot write " << path << "\n";
      }
      return "";
    }
    if (log != nullptr) {
      *log << "wrote " << path << "\n";
    }
    return path;
  }

 private:
  std::string name_;
  int jobs_;
  // deepplan-lint: allow(raw-entropy, wall-clock bench timing; only feeds wall_clock_ms, which the golden gate ignores)
  std::chrono::steady_clock::time_point start_;
  JsonObject config_;
  std::deque<JsonObject> points_;  // deque: AddPoint() references stay valid
};

// Observation outputs: each is a `--<name>=<path>` flag whose default is read
// from a DEEPPLAN_* variable; an empty path turns the output off. The three
// flags are defined here once, and a bench offers the ones it supports with
// DefineOutputFlag.
struct OutputFlag {
  const char* name;  // flag name
  const char* env;   // variable the default is read from
  const char* what;  // the artifact, for --help
};
inline constexpr OutputFlag kProfileOut{"profile_out", "DEEPPLAN_PROFILE",
                                        "the causal journal (binary DPJL)"};
inline constexpr OutputFlag kWhatIfOut{"whatif_out", "DEEPPLAN_WHATIF",
                                       "the what-if report JSON"};
inline constexpr OutputFlag kSelfprofOut{"selfprof_out", "DEEPPLAN_SELFPROF",
                                         "a host self-profiling report"};

inline void DefineOutputFlag(Flags* flags, const OutputFlag& flag) {
  const char* env = std::getenv(flag.env);
  flags->DefineString(flag.name, env != nullptr ? env : "",
                      std::string("write ") + flag.what +
                          " here (default: $" + flag.env +
                          "; empty disables)");
}

// Notes an artifact on stderr, "wrote <what> <path>" or "cannot write <what>
// <path>[: <error>]", so stdout keeps only the bench's tables. Returns `ok`;
// a bench exits 1 when a write fails.
inline bool NoteWrite(bool ok, const char* what, const std::string& path,
                      const std::string& error = "") {
  std::cerr << (ok ? "wrote " : "cannot write ") << what << " " << path
            << (ok || error.empty() ? "" : ": " + error) << "\n";
  return ok;
}

inline bool WriteJournal(const CausalGraph& graph, const std::string& path) {
  std::string error;
  const bool ok = WriteGraphToJournal(graph, path, &error);
  return NoteWrite(ok, "profile journal", path, error);
}

inline bool WriteWhatIf(const WhatIfReport& report, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (out) {
    out << WhatIfReportJson(report) << "\n";
  }
  return NoteWrite(static_cast<bool>(out), "what-if report", path);
}

inline bool WriteSelfprof(const std::string& bench,
                          const std::vector<selfprof::LaneView>& lanes,
                          const std::string& path) {
  return NoteWrite(
      selfprof::WriteReport(path, selfprof::ReportJson(bench, lanes)),
      "selfprof report", path);
}

}  // namespace bench
}  // namespace deepplan

#endif  // BENCH_BENCH_UTIL_H_
