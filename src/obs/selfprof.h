// Host-side self-profiler: where does the *simulator process* spend its
// wall-clock? Hierarchical scoped phase timers (workload generation, event
// dispatch, fair-share solves, exec-stream modelling, validator hooks,
// journal/trace serialization, ...) accumulate into a thread-confined
// SelfProfiler "lane", stitched across SweepRunner workers in task order the
// same way CausalGraph::Adopt() stitches journals. The report answers
// ROADMAP item 1's open question ("where do the remaining seconds of the 1M
// request run go?") and is the partitioning data PDES (item 2) needs.
//
// Cost model (the part that makes this usable on the hot path):
//  - Disabled (no lane installed — the default): every scope is one
//    thread-local load and a branch. No allocation (pinned by
//    tests/selfprof_test.cc with a replaced global operator new).
//  - Enabled: most phases are fully timed (two monotonic clock reads per
//    entry). Phases that fire millions of times per run (exec.stream,
//    fabric.fair_share, check.validate) are *count-always, time-sampled*:
//    every entry bumps the node's count, but only every
//    kSampledPhasePeriod-th entry pays for clock reads. That keeps the
//    enabled overhead under the <3% gate run_all.sh enforces while counts
//    stay exact.
//
// Determinism contract: phase *counts* (and `sampled` counts) are a pure
// function of the simulated run, so they are byte-identical across
// DEEPPLAN_JOBS — DeterministicProjection() renders exactly that surface
// (counts + tree shape + deterministic counters, no *_ns fields, no host
// stats) and tests compare it across jobs 1/2/8. Durations are measured on
// the real clock and live only under *_ns keys / the "host" block, mirroring
// how bench wall readings live only under "wall_clock_ms".
//
// Exactness invariant: a sampled (timed) entry only ever runs inside timed
// ancestors — when an entry skips timing, every scope nested under it is
// suppressed to count-only. Hence for every node
//     inclusive_ns >= sum(child.inclusive_ns)
// holds *exactly* on measured values, and exclusive_ns = inclusive_ns -
// sum(child.inclusive_ns) is never negative. trace_lint --selfprof checks
// this. Estimated full-phase time (estimated_ns = inclusive_ns * count /
// sampled) is derived at render time and clearly marked as an estimate.
//
// Concurrency contract: like TraceRecorder, a SelfProfiler is deliberately
// NOT internally synchronized — it is thread-confined via a thread_local
// lane pointer (InstallLane). Each parallel sweep task profiles into its own
// lane carried in its result slot; the aggregator merges them in task-index
// order (ThreadPool::Wait is the happens-before edge). See DESIGN.md §15.
#ifndef SRC_OBS_SELFPROF_H_
#define SRC_OBS_SELFPROF_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "src/util/logging.h"

namespace deepplan {

class JsonValue;

namespace selfprof {

// Phase identity doubles as the child slot index inside a tree node, so the
// enum must stay dense. Names are dotted "<subsystem>.<what>" strings that
// appear verbatim in reports.
enum class Phase : std::uint8_t {
  kTotal = 0,         // lane root: lifetime of the InstallLane
  kSetup,             // point.setup: topology/server/instance construction
  kWorkloadGen,       // workload.generate: trace synthesis / CSV ingest
  kWarmup,            // server.warmup: initial residency placement
  kSimDispatch,       // sim.dispatch: the event loop (everything inside Run)
  kColdStart,         // engine.cold_start: cold-run DAG construction
  kFairShare,         // fabric.fair_share: max-min re-solve (sampled)
  kExecStream,        // exec.stream: stream op start + synchronous op body
                      //              (sampled)
  kValidate,          // check.validate: heavy SimValidator hooks (sampled)
  kJournalSerialize,  // journal.serialize: causal-journal encode/flush
  kTraceSerialize,    // trace.serialize: Chrome-trace JSON render
  kMetricsSnapshot,   // metrics.snapshot: serving-metric extraction
  kReportRender,      // report.render: BENCH json + stdout table render
};
inline constexpr int kNumPhases = 13;

const char* PhaseName(Phase phase);

// Sampling period (power of two) for the hot phases; 1 = every entry timed.
// constexpr so the per-entry gate in Enter() folds to enum compares — these
// run tens of millions of times per 1M-request point.
inline constexpr std::uint64_t kSampledPhasePeriod = 64;
constexpr std::uint64_t PhasePeriod(Phase phase) {
  return (phase == Phase::kFairShare || phase == Phase::kExecStream ||
          phase == Phase::kValidate)
             ? kSampledPhasePeriod
             : 1;
}

// Process-wide counters attributed to the installed lane. kHeartbeats is
// wall-dependent (how many progress lines fired depends on real time), so it
// is excluded from the deterministic projection.
enum class Counter : std::uint8_t {
  kEventsDispatched = 0,  // events popped by Simulator::RunUntil
  kValidatorChecks,       // SimValidator checks executed (validation on only)
  kHeartbeats,            // DEEPPLAN_PROGRESS lines emitted (wall-dependent)
};
inline constexpr int kNumCounters = 3;

const char* CounterName(Counter counter);
bool CounterDeterministic(Counter counter);

// The single place this codebase reads the host monotonic clock for
// profiling. Centralized so the determinism linter sees exactly one
// suppressed raw-entropy site for the whole subsystem.
std::int64_t MonotonicNowNs();

// Resident-set readings from /proc/self/status (kB); 0 where unavailable.
std::int64_t CurrentRssKb();
std::int64_t PeakRssKb();

// One profiling lane: a tree of phase nodes plus counters. Thread-confined
// (see header comment); copyable so sweep tasks can return it by value in
// their result structs.
class SelfProfiler {
 public:
  struct Node {
    Phase phase = Phase::kTotal;
    std::int32_t parent = -1;
    std::uint64_t count = 0;    // scope entries (deterministic)
    std::uint64_t sampled = 0;  // entries that were timed (deterministic)
    std::uint64_t inclusive_ns = 0;  // wall-clock over the sampled entries
    std::array<std::int32_t, kNumPhases> child;  // -1 = no such child yet
  };

  SelfProfiler();

  // Scope machinery — call through ScopedPhase / InstallLane, not directly.
  // Inline: the sampled phases enter tens of millions of times per run, so
  // the count-only path must stay a handful of instructions to hold the <3%
  // enabled-overhead gate.
  //
  // Re-entering the phase of the innermost open node collapses to a count
  // bump (recursion guard: Stream::Pump re-enters synchronously).
  bool ReenterCurrent(Phase phase) {
    if (current_ < 0 ||
        nodes_[static_cast<std::size_t>(current_)].phase != phase) {
      return false;
    }
    ++nodes_[static_cast<std::size_t>(current_)].count;
    return true;
  }
  // Opens a child scope; returns true when this entry is timed (the caller
  // then owes ExitTimed with the elapsed ns, else ExitUntimed).
  bool Enter(Phase phase) {
    std::int32_t index;
    if (phase == Phase::kTotal) {
      // Root scope, opened by InstallLane; re-installation accumulates.
      DP_CHECK(current_ < 0);
      index = 0;
    } else {
      DP_CHECK(current_ >= 0);  // scopes outside an installed root are a bug
      const std::int32_t existing =
          nodes_[static_cast<std::size_t>(current_)]
              .child[static_cast<std::size_t>(phase)];
      index = existing >= 0 ? existing : FindOrAddChild(current_, phase);
    }
    Node& node = nodes_[static_cast<std::size_t>(index)];
    ++node.count;
    const std::int32_t parent = current_;
    current_ = index;
    bool timed;
    if (suppress_ != 0) {
      timed = false;
    } else if (PhasePeriod(phase) == 1) {
      timed = true;
    } else if (parent > 0 &&
               PhasePeriod(nodes_[static_cast<std::size_t>(parent)].phase) >
                   1) {
      // Nested inside a sampled scope that is currently timing (suppress_ ==
      // 0 proves its gate passed): time unconditionally, otherwise this
      // node's own gate would almost never line up with the parent's and the
      // nested phase would starve for samples.
      timed = true;
    } else {
      timed = ((node.count - 1) & (PhasePeriod(phase) - 1)) == 0;
    }
    if (timed) {
      ++node.sampled;
    } else {
      ++suppress_;
    }
    return timed;
  }
  void ExitTimed(std::int64_t elapsed_ns) {
    DP_CHECK(current_ >= 0);
    Node& node = nodes_[static_cast<std::size_t>(current_)];
    node.inclusive_ns +=
        elapsed_ns > 0 ? static_cast<std::uint64_t>(elapsed_ns) : 0;
    current_ = node.parent;
  }
  void ExitUntimed() {
    DP_CHECK(current_ >= 0);
    DP_CHECK(suppress_ > 0);
    --suppress_;
    current_ = nodes_[static_cast<std::size_t>(current_)].parent;
  }

  void Add(Counter counter, std::uint64_t delta) {
    counters_[static_cast<std::size_t>(counter)] += delta;
  }

  // True once every opened scope (including the root) has closed — reports
  // may only be built from closed lanes.
  bool closed() const { return current_ < 0; }

  const std::vector<Node>& nodes() const { return nodes_; }
  const Node& root() const { return nodes_.front(); }
  std::uint64_t counter(Counter counter) const {
    return counters_[static_cast<std::size_t>(counter)];
  }

  // Adds `other`'s tree (matching nodes by phase path) and counters into
  // this lane. Both lanes must be closed. Used for the report's "aggregate".
  void Merge(const SelfProfiler& other);

 private:
  std::int32_t FindOrAddChild(std::int32_t parent, Phase phase);
  void MergeSubtree(std::int32_t dst, const SelfProfiler& other,
                    std::int32_t src);

  std::vector<Node> nodes_;    // nodes_[0] is the kTotal root
  std::int32_t current_ = -1;  // innermost open node, -1 = closed
  int suppress_ = 0;           // >0: inside an untimed entry, count-only
  std::uint64_t counters_[kNumCounters] = {};
};

namespace internal {
// Defined here rather than `extern`, so every reader sees its zero
// initializer: gcc then reads it as one thread-local load, where an `extern
// thread_local` goes through a TLS-init wrapper that UBSan reports as a null
// load.
inline thread_local SelfProfiler* g_lane = nullptr;
}  // namespace internal

// The lane scopes on this thread currently accumulate into (nullptr = off).
inline SelfProfiler* CurrentLane() { return internal::g_lane; }

// Attributes `delta` to a process counter; no-op (and no allocation) when no
// lane is installed.
inline void AddCount(Counter counter, std::uint64_t delta) {
  SelfProfiler* lane = CurrentLane();
  if (lane != nullptr) {
    lane->Add(counter, delta);
  }
}

// RAII phase scope. Constructing with no lane installed is a thread-local
// load and a branch; see the header cost model.
class ScopedPhase {
 public:
  explicit ScopedPhase(Phase phase) {
    SelfProfiler* lane = CurrentLane();
    if (lane == nullptr || lane->ReenterCurrent(phase)) {
      return;
    }
    lane_ = lane;
    timed_ = lane->Enter(phase);
    if (timed_) {
      start_ns_ = MonotonicNowNs();
    }
  }
  ~ScopedPhase() {
    if (lane_ == nullptr) {
      return;
    }
    if (timed_) {
      lane_->ExitTimed(MonotonicNowNs() - start_ns_);
    } else {
      lane_->ExitUntimed();
    }
  }
  ScopedPhase(const ScopedPhase&) = delete;
  ScopedPhase& operator=(const ScopedPhase&) = delete;

 private:
  SelfProfiler* lane_ = nullptr;
  bool timed_ = false;
  std::int64_t start_ns_ = 0;
};

// Installs `lane` as this thread's profiling destination and opens its root
// (kTotal) scope; restores the previously installed lane on destruction so
// nesting — SweepRunner with jobs=1 runs tasks inline on a thread that may
// already hold a lane — shadows instead of clobbering. nullptr = no-op, so
// call sites can write InstallLane(enabled ? &lane : nullptr).
class InstallLane {
 public:
  explicit InstallLane(SelfProfiler* lane) : lane_(lane) {
    if (lane_ == nullptr) {
      return;
    }
    prev_ = internal::g_lane;
    internal::g_lane = lane_;
    lane_->Enter(Phase::kTotal);
    start_ns_ = MonotonicNowNs();
  }
  ~InstallLane() {
    if (lane_ == nullptr) {
      return;
    }
    lane_->ExitTimed(MonotonicNowNs() - start_ns_);
    internal::g_lane = prev_;
  }
  InstallLane(const InstallLane&) = delete;
  InstallLane& operator=(const InstallLane&) = delete;

 private:
  SelfProfiler* lane_;
  SelfProfiler* prev_ = nullptr;
  std::int64_t start_ns_ = 0;
};

#define DP_SELFPROF_CONCAT_INNER(a, b) a##b
#define DP_SELFPROF_CONCAT(a, b) DP_SELFPROF_CONCAT_INNER(a, b)
// Times the rest of the enclosing block as `phase` when a lane is installed.
#define DP_SELFPROF_SCOPE(phase)                                     \
  ::deepplan::selfprof::ScopedPhase DP_SELFPROF_CONCAT(               \
      dp_selfprof_scope_, __LINE__)(::deepplan::selfprof::Phase::phase)

// A named lane for report building (e.g. one per sweep point, in task
// order). The pointed-to lane must be closed and outlive the call.
struct LaneView {
  std::string name;
  const SelfProfiler* lane = nullptr;
};

// Schema-versioned report (see DESIGN.md §15 for the layout):
//   {"selfprof_report": {"schema_version": 1, "label": ..., "lanes": [...],
//     "aggregate": {...}, "host": {"rss_kb": ..., "rss_peak_kb": ...}}}
// Lanes render in the given order; node children render in phase-enum order.
inline constexpr int kSelfprofSchemaVersion = 1;
std::string ReportJson(const std::string& label,
                       const std::vector<LaneView>& lanes);

// The byte-deterministic projection of a parsed report (ReportJson output or
// a report file): the document re-rendered without *_ns fields, the host
// block and wall-dependent counters, leaving tree shape, counts and
// deterministic counters. Identical across DEEPPLAN_JOBS for the same run,
// and itself a report trace_lint --selfprof accepts.
std::string DeterministicProjection(const JsonValue& report);

// Writes `json` (plus trailing newline) to `path`; false on I/O failure.
bool WriteReport(const std::string& path, const std::string& json);

}  // namespace selfprof
}  // namespace deepplan

#endif  // SRC_OBS_SELFPROF_H_
