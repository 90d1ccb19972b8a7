// Runtime simulation invariant checker (SimValidator). Components in the sim
// and serving layers call the hooks below at state-transition points; each
// hook re-derives an invariant the DESIGN doc claims and aborts with a
// detailed diagnostic (offending values + sim timestamp) when it does not
// hold. The checks are compiled in always and gated at runtime:
//
//   DEEPPLAN_VALIDATE=1   enable (any value other than "0")
//   DEEPPLAN_VALIDATE=0   disable
//   unset                 enabled in Debug builds (!NDEBUG), off otherwise
//
// Validation never writes to stdout and never perturbs simulation state, so
// enabling it cannot change any benchmark output byte.
//
// Invariant classes (see DESIGN.md "Correctness & static analysis"):
//   causality   — no event fires before the current sim time; the event-queue
//                 pop sequence and per-stream op starts are monotone
//   fabric      — fair shares are non-negative, per-link allocations never
//                 exceed capacity, every in-flight transfer drains at a
//                 positive rate, and bytes moved integrate to transfer size
//   gpu memory  — free blocks + allocations tile the arena exactly
//                 (free + resident == capacity, no overlap, no gap,
//                 neighbouring free blocks coalesced)
//   residency   — eviction only of resident, idle instances (no double-evict)
//   serving     — each request's queue/evict/load/exec spans tile
//                 [arrival, completion] exactly; warm requests carry no
//                 cold-start components; breakdown means stay additive
//
// This layer depends only on src/util so every other module can call into it.
#ifndef SRC_CHECK_VALIDATOR_H_
#define SRC_CHECK_VALIDATOR_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "src/util/time.h"

namespace deepplan {
namespace check {

namespace internal {
// The validation mode in force: 1 on, 0 off, -1 not yet read from the
// environment (until the first query or SetValidationForTesting call).
extern std::atomic<int> g_validation_mode;
// Reads the environment once, caches the result in g_validation_mode unless
// a test forced a mode first, and returns whether validation is on.
bool ResolveValidation();
}  // namespace internal

// True when invariant validation is active (see the gating table above).
// The environment is read once; afterwards this is one relaxed load of the
// cached mode, inlined at every hook's call site.
inline bool ValidationEnabled() {
  const int mode = internal::g_validation_mode.load(std::memory_order_relaxed);
  if (mode >= 0) [[likely]] {
    return mode != 0;
  }
  return internal::ResolveValidation();
}

// Test hook: 1 forces validation on, 0 forces it off, -1 restores the
// environment-derived default. The cached mode changes at once.
void SetValidationForTesting(int mode);

// Total number of invariant checks evaluated so far in this process (all
// threads). Healthy-run tests assert this moved to prove coverage.
std::uint64_t ChecksRun();

// Prints "<invariant> violated: <detail>" to stderr and aborts.
[[noreturn]] void Fail(const char* invariant, const std::string& detail);

// Per-link snapshot of a fabric allocation round.
struct FabricLinkShare {
  std::string name;
  double capacity = 0.0;   // bytes/sec
  double allocated = 0.0;  // sum of fair shares across the link, bytes/sec
  int transfers = 0;       // in-flight transfers crossing the link
};

// One span of a GPU device-memory arena (either a free block or a live
// allocation); spans are validated to tile [0, capacity] exactly.
struct ArenaSpan {
  std::int64_t offset = 0;
  std::int64_t bytes = 0;
  bool free = false;
};

// The hooks that fire once per event, stream op or transfer test the cached
// mode inline and call their out-of-line check only when validation is on,
// so a disabled hook costs one load and one branch at its call site. The
// rest fire per request, cold start or solve and test it in their bodies.
class SimValidator {
 public:
  static bool enabled() { return ValidationEnabled(); }

  // -- causality --------------------------------------------------------
  // A schedule request must not target the past.
  static void OnSchedule(Nanos now, Nanos when) {
    if (enabled()) {
      CheckSchedule(now, when);
    }
  }
  // A popped event must not fire before the clock it is about to advance.
  static void OnEventFire(Nanos now, Nanos when) {
    if (enabled()) {
      CheckEventFire(now, when);
    }
  }
  // Successive event-queue pops must be non-decreasing in time.
  static void OnQueuePop(Nanos prev_popped, Nanos when) {
    if (enabled()) {
      CheckQueuePop(prev_popped, when);
    }
  }
  // Ops on one stream start in monotone order.
  static void OnStreamOpStart(const std::string& stream, Nanos prev_start,
                              Nanos start) {
    if (enabled()) {
      CheckStreamOpStart(stream, prev_start, start);
    }
  }
  // A sync event fires at most once, never before its creation epoch.
  static void OnSyncEventFire(const char* what, bool already_fired, Nanos now) {
    if (enabled()) {
      CheckSyncEventFire(what, already_fired, now);
    }
  }

  // -- fabric flow conservation ----------------------------------------
  // After every progressive-filling round: shares non-negative, per-link
  // sums within capacity, every active transfer draining (rate > 0).
  static void OnFabricAllocation(Nanos now,
                                 const std::vector<FabricLinkShare>& links);
  static void OnTransferRate(Nanos now, std::uint64_t transfer, double rate);
  // At completion, bytes moved must integrate to the transfer size (within
  // the ns-rounding residue the fabric itself tolerates).
  static void OnTransferComplete(Nanos now, std::uint64_t transfer,
                                 double moved_bytes, double total_bytes) {
    if (enabled()) {
      CheckTransferComplete(now, transfer, moved_bytes, total_bytes);
    }
  }
  // The incremental (component-local) fair-share solve must agree with the
  // full progressive-filling re-solve to the last bit; the fabric runs the
  // full solve as a shadow whenever validation is on and reports both rates
  // here for every active transfer.
  static void OnFabricIncrementalSolve(Nanos now, std::uint64_t transfer,
                                       double incremental_rate,
                                       double full_rate);

  // -- GPU memory accounting -------------------------------------------
  // `spans` is the concatenation of free blocks and live allocations, in any
  // order; they must tile [0, capacity] exactly and sum to used + free.
  static void OnArenaUpdate(std::int64_t capacity, std::int64_t used,
                            std::vector<ArenaSpan> spans);

  // -- instance residency ----------------------------------------------
  static void OnEvict(int instance, bool resident, bool busy);
  static void OnMakeResident(int instance, std::int64_t used,
                             std::int64_t capacity);

  // -- serving accounting ----------------------------------------------
  // The four phases must tile [arrival, completion]: arrival <= start,
  // evict/load >= 0, start + evict + load <= completion; warm requests must
  // carry no cold-start components.
  static void OnRequestComplete(Nanos arrival, Nanos start, Nanos evict,
                                Nanos load, Nanos completion, bool cold,
                                int evictions);
  // Mean latency components must stay additive (queue + cold + exec ==
  // total, within floating-point tolerance).
  static void OnBreakdown(double mean_queue_ms, double mean_cold_ms,
                          double mean_exec_ms, double mean_total_ms);

  // -- profiling attribution -------------------------------------------
  // The critical-path engine's components must sum exactly (integer ns) to
  // the request's end-to-end latency.
  static void OnAttribution(int request, Nanos latency, Nanos attributed);

 private:
  // Bodies of the inline per-event hooks above, called only when enabled.
  static void CheckSchedule(Nanos now, Nanos when);
  static void CheckEventFire(Nanos now, Nanos when);
  static void CheckQueuePop(Nanos prev_popped, Nanos when);
  static void CheckStreamOpStart(const std::string& stream, Nanos prev_start,
                                 Nanos start);
  static void CheckSyncEventFire(const char* what, bool already_fired,
                                 Nanos now);
  static void CheckTransferComplete(Nanos now, std::uint64_t transfer,
                                    double moved_bytes, double total_bytes);
};

}  // namespace check
}  // namespace deepplan

#endif  // SRC_CHECK_VALIDATOR_H_
