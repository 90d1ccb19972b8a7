#include "src/check/validator.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "src/obs/selfprof.h"

namespace deepplan {
namespace check {

namespace {

// Tolerances mirror the fabric's own drain threshold: a completion event is
// scheduled on the next whole nanosecond, so up to one rate*1ns of byte
// residue (bounded by 1 byte at realistic rates, plus float noise) remains.
constexpr double kByteResidue = 1.0 + 1e-6;
// Relative slack for summing fair shares against a link capacity.
constexpr double kRateSlack = 1e-6;

std::atomic<std::uint64_t> g_checks_run{0};

bool EnvEnabled() {
  const char* v = std::getenv("DEEPPLAN_VALIDATE");
  if (v == nullptr || v[0] == '\0') {
#ifdef NDEBUG
    return false;
#else
    return true;
#endif
  }
  return !(v[0] == '0' && v[1] == '\0');
}

// The environment-derived default, read once per process.
int EnvMode() {
  static const int mode = EnvEnabled() ? 1 : 0;
  return mode;
}

void Count() {
  g_checks_run.fetch_add(1, std::memory_order_relaxed);
  selfprof::AddCount(selfprof::Counter::kValidatorChecks, 1);
}

}  // namespace

namespace internal {

std::atomic<int> g_validation_mode{-1};

bool ResolveValidation() {
  // A mode forced by SetValidationForTesting before the first query wins.
  int forced = -1;
  const int env = EnvMode();
  return g_validation_mode.compare_exchange_strong(forced, env,
                                                   std::memory_order_relaxed)
             ? env != 0
             : forced != 0;
}

}  // namespace internal

void SetValidationForTesting(int mode) {
  internal::g_validation_mode.store(
      mode < 0 ? EnvMode() : (mode != 0 ? 1 : 0), std::memory_order_relaxed);
}

std::uint64_t ChecksRun() {
  return g_checks_run.load(std::memory_order_relaxed);
}

void Fail(const char* invariant, const std::string& detail) {
  std::fprintf(stderr, "deepplan validator: %s violated: %s\n", invariant,
               detail.c_str());
  std::fflush(stderr);
  std::abort();
}

void SimValidator::CheckSchedule(Nanos now, Nanos when) {
  Count();
  if (when < now) {
    std::ostringstream os;
    os << "event scheduled in the past: when=" << when << "ns < now=" << now
       << "ns";
    Fail("causality", os.str());
  }
}

void SimValidator::CheckEventFire(Nanos now, Nanos when) {
  Count();
  if (when < now) {
    std::ostringstream os;
    os << "event fires before current sim time: event time=" << when
       << "ns < now=" << now << "ns";
    Fail("causality", os.str());
  }
}

void SimValidator::CheckQueuePop(Nanos prev_popped, Nanos when) {
  Count();
  if (when < prev_popped) {
    std::ostringstream os;
    os << "event-queue pop order not monotone: popped t=" << when
       << "ns after t=" << prev_popped << "ns";
    Fail("causality", os.str());
  }
}

void SimValidator::CheckStreamOpStart(const std::string& stream,
                                      Nanos prev_start, Nanos start) {
  Count();
  if (start < prev_start) {
    std::ostringstream os;
    os << "stream \"" << stream << "\" op order not monotone: op starts at t="
       << start << "ns after an op started at t=" << prev_start << "ns";
    Fail("causality", os.str());
  }
}

void SimValidator::CheckSyncEventFire(const char* what, bool already_fired,
                                      Nanos now) {
  Count();
  if (already_fired) {
    std::ostringstream os;
    os << what << " fired twice (second fire at t=" << now << "ns)";
    Fail("causality", os.str());
  }
}

void SimValidator::OnFabricAllocation(Nanos now,
                                      const std::vector<FabricLinkShare>& links) {
  if (!enabled()) {
    return;
  }
  // Heavy hooks (per-link loops, sorts, per-request accounting) carry a
  // timed scope *after* the enabled() early-out, so validation-off runs pay
  // nothing; cheap per-event hooks stay scope-free.
  DP_SELFPROF_SCOPE(kValidate);
  for (const FabricLinkShare& link : links) {
    Count();
    if (link.allocated < 0.0) {
      std::ostringstream os;
      os << "negative allocation on link \"" << link.name
         << "\": " << link.allocated << " B/s at t=" << now << "ns";
      Fail("fabric flow conservation", os.str());
    }
    if (link.allocated > link.capacity * (1.0 + kRateSlack)) {
      std::ostringstream os;
      os << "link \"" << link.name << "\" oversubscribed: "
         << link.transfers << " transfers allocate " << link.allocated
         << " B/s > capacity " << link.capacity << " B/s at t=" << now << "ns";
      Fail("fabric flow conservation", os.str());
    }
  }
}

void SimValidator::OnTransferRate(Nanos now, std::uint64_t transfer,
                                  double rate) {
  if (!enabled()) {
    return;
  }
  Count();
  if (!(rate > 0.0) || !std::isfinite(rate)) {
    std::ostringstream os;
    os << "in-flight transfer " << transfer
       << " has non-positive fair share " << rate << " B/s at t=" << now
       << "ns (it would never drain)";
    Fail("fabric flow conservation", os.str());
  }
}

void SimValidator::CheckTransferComplete(Nanos now, std::uint64_t transfer,
                                         double moved_bytes,
                                         double total_bytes) {
  Count();
  if (std::abs(moved_bytes - total_bytes) > kByteResidue) {
    std::ostringstream os;
    os << "transfer " << transfer << " completed at t=" << now
       << "ns having moved " << moved_bytes << " of " << total_bytes
       << " bytes";
    Fail("fabric flow conservation", os.str());
  }
}

void SimValidator::OnFabricIncrementalSolve(Nanos now, std::uint64_t transfer,
                                            double incremental_rate,
                                            double full_rate) {
  if (!enabled()) {
    return;
  }
  DP_SELFPROF_SCOPE(kValidate);
  Count();
  // Bitwise comparison on purpose: the incremental solve claims the exact
  // same arithmetic as the full re-solve, not an approximation of it.
  if (incremental_rate != full_rate) {
    std::ostringstream os;
    os.precision(17);
    os << "incremental fair-share diverged from full re-solve at t=" << now
       << "ns: transfer " << transfer << " incremental=" << incremental_rate
       << " full=" << full_rate << " bytes/sec";
    Fail("fabric fair share", os.str());
  }
}

void SimValidator::OnArenaUpdate(std::int64_t capacity, std::int64_t used,
                                 std::vector<ArenaSpan> spans) {
  if (!enabled()) {
    return;
  }
  DP_SELFPROF_SCOPE(kValidate);
  Count();
  std::sort(spans.begin(), spans.end(),
            [](const ArenaSpan& a, const ArenaSpan& b) {
              return a.offset < b.offset;
            });
  std::int64_t cursor = 0;
  std::int64_t free_total = 0;
  std::int64_t used_total = 0;
  bool prev_free = false;
  for (const ArenaSpan& span : spans) {
    if (span.bytes <= 0) {
      std::ostringstream os;
      os << (span.free ? "free block" : "allocation") << " at offset "
         << span.offset << " has non-positive size " << span.bytes;
      Fail("gpu memory accounting", os.str());
    }
    if (span.offset != cursor) {
      std::ostringstream os;
      os << (span.offset > cursor ? "gap" : "overlap") << " in arena at ["
         << std::min(cursor, span.offset) << ", "
         << std::max(cursor, span.offset) << ") — spans do not tile [0, "
         << capacity << ")";
      Fail("gpu memory accounting", os.str());
    }
    if (span.free && prev_free) {
      std::ostringstream os;
      os << "adjacent free blocks not coalesced at offset " << span.offset;
      Fail("gpu memory accounting", os.str());
    }
    prev_free = span.free;
    (span.free ? free_total : used_total) += span.bytes;
    cursor += span.bytes;
  }
  if (cursor != capacity) {
    std::ostringstream os;
    os << "arena spans cover [0, " << cursor << ") but capacity is "
       << capacity;
    Fail("gpu memory accounting", os.str());
  }
  if (used_total != used || free_total + used_total != capacity) {
    std::ostringstream os;
    os << "free (" << free_total << ") + resident (" << used_total
       << ") != capacity (" << capacity << "), accounted used=" << used;
    Fail("gpu memory accounting", os.str());
  }
}

void SimValidator::OnEvict(int instance, bool resident, bool busy) {
  if (!enabled()) {
    return;
  }
  Count();
  if (!resident) {
    std::ostringstream os;
    os << "eviction of non-resident instance " << instance
       << " (double evict?)";
    Fail("instance residency", os.str());
  }
  if (busy) {
    std::ostringstream os;
    os << "eviction of busy instance " << instance
       << " (victim selection must skip executing instances)";
    Fail("instance residency", os.str());
  }
}

void SimValidator::OnMakeResident(int instance, std::int64_t used,
                                  std::int64_t capacity) {
  if (!enabled()) {
    return;
  }
  Count();
  if (used > capacity) {
    std::ostringstream os;
    os << "provisioning instance " << instance << " left " << used
       << " bytes resident on a " << capacity << "-byte GPU";
    Fail("gpu memory accounting", os.str());
  }
}

void SimValidator::OnRequestComplete(Nanos arrival, Nanos start, Nanos evict,
                                     Nanos load, Nanos completion, bool cold,
                                     int evictions) {
  if (!enabled()) {
    return;
  }
  DP_SELFPROF_SCOPE(kValidate);
  Count();
  const auto fail = [&](const char* what) {
    std::ostringstream os;
    os << what << ": arrival=" << arrival << " start=" << start
       << " evict=" << evict << " load=" << load
       << " completion=" << completion << " cold=" << (cold ? 1 : 0)
       << " evictions=" << evictions;
    Fail("serving accounting", os.str());
  };
  if (start < arrival) {
    fail("request dispatched before it arrived");
  }
  if (evict < 0 || load < 0 || evictions < 0) {
    fail("negative cold-start component");
  }
  if (completion < start + evict + load) {
    fail("phases exceed [start, completion] — spans do not tile the request");
  }
  if (!cold && (evict != 0 || load != 0 || evictions != 0)) {
    fail("warm request carries cold-start components");
  }
  if (evictions == 0 && evict != 0) {
    fail("eviction delay without evictions");
  }
}

void SimValidator::OnBreakdown(double mean_queue_ms, double mean_cold_ms,
                               double mean_exec_ms, double mean_total_ms) {
  if (!enabled()) {
    return;
  }
  Count();
  const double sum = mean_queue_ms + mean_cold_ms + mean_exec_ms;
  const double slack =
      1e-6 * std::max(1.0, std::abs(mean_total_ms));
  if (std::abs(sum - mean_total_ms) > slack) {
    std::ostringstream os;
    os << "latency breakdown not additive: queue " << mean_queue_ms
       << " + cold " << mean_cold_ms << " + exec " << mean_exec_ms << " = "
       << sum << " != total " << mean_total_ms << " (ms)";
    Fail("serving accounting", os.str());
  }
}

void SimValidator::OnAttribution(int request, Nanos latency, Nanos attributed) {
  if (!enabled()) {
    return;
  }
  DP_SELFPROF_SCOPE(kValidate);
  Count();
  if (attributed != latency) {
    std::ostringstream os;
    os << "request " << request << " attribution components sum to "
       << attributed << "ns but end-to-end latency is " << latency << "ns";
    Fail("profiling attribution", os.str());
  }
}

}  // namespace check
}  // namespace deepplan
