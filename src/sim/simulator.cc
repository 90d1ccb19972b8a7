#include "src/sim/simulator.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "src/check/validator.h"
#include "src/obs/selfprof.h"
#include "src/util/logging.h"

namespace deepplan {

namespace {

// DEEPPLAN_PROGRESS=<seconds between heartbeats> (fractional ok; <= 0 or
// unset disables). Read once per process — tests use the per-sim setter.
Nanos GlobalProgressPeriodNs() {
  static const Nanos period = [] {
    const char* env = std::getenv("DEEPPLAN_PROGRESS");
    if (env == nullptr || *env == '\0') {
      return Nanos{0};
    }
    const double seconds = std::strtod(env, nullptr);
    if (!(seconds > 0.0)) {
      return Nanos{0};
    }
    return Seconds(seconds);
  }();
  return period;
}

}  // namespace

Simulator::Simulator() : progress_period_ns_(GlobalProgressPeriodNs()) {}

EventQueue::EventId Simulator::ScheduleAfter(Nanos delay, Action action) {
  check::SimValidator::OnSchedule(now_, now_ + delay);
  DP_CHECK(delay >= 0);
  return queue_.Schedule(now_ + delay, action);
}

EventQueue::EventId Simulator::ScheduleAt(Nanos when, Action action) {
  check::SimValidator::OnSchedule(now_, when);
  DP_CHECK(when >= now_);
  return queue_.Schedule(when, action);
}

bool Simulator::Reschedule(EventQueue::EventId id, Nanos delay) {
  check::SimValidator::OnSchedule(now_, now_ + delay);
  DP_CHECK(delay >= 0);
  return queue_.Reschedule(id, now_ + delay);
}

EventQueue::EventId Simulator::ScheduleReserved(Nanos when, std::uint64_t seq,
                                               Action action) {
  check::SimValidator::OnSchedule(now_, when);
  DP_CHECK(when >= now_);
  return queue_.ScheduleReserved(when, seq, action);
}

Nanos Simulator::Run() { return RunUntil(std::numeric_limits<Nanos>::max()); }

Nanos Simulator::RunUntil(Nanos deadline) {
  // One scope per drain, not per event: at ~110ns of host time per simulated
  // event (the 1M-request synthetic replay: 24.9M events in ~2.7 s on a
  // 4-core x86 host), a pair of clock reads per event would be a large
  // share of the loop. The event count reaches the lane as a delta at each
  // exit path instead.
  DP_SELFPROF_SCOPE(kSimDispatch);
  const std::uint64_t dispatched_at_entry = dispatched_;
  Nanos when = 0;
  Action action;
  while (queue_.PopUntil(deadline, &when, &action)) {
    check::SimValidator::OnEventFire(now_, when);
    DP_CHECK(when >= now_);
    now_ = when;
    action();
    ++dispatched_;
    if (progress_period_ns_ != 0 && (dispatched_ & 1023u) == 0) {
      MaybeEmitProgress();
    }
  }
  if (!queue_.empty()) {
    now_ = deadline;  // the next event lies beyond the deadline
  }
  selfprof::AddCount(selfprof::Counter::kEventsDispatched,
                     dispatched_ - dispatched_at_entry);
  return now_;
}

void Simulator::AddProgressCounter(const std::uint64_t* counter) {
  progress_counters_.push_back(counter);
}

void Simulator::RemoveProgressCounter(const std::uint64_t* counter) {
  progress_counters_.erase(
      std::remove(progress_counters_.begin(), progress_counters_.end(), counter),
      progress_counters_.end());
}

void Simulator::MaybeEmitProgress() {
  const std::int64_t wall = selfprof::MonotonicNowNs();
  if (progress_last_wall_ns_ == 0) {
    // First check establishes the baseline; the first line lands one period
    // into the run, so short runs stay silent.
    progress_last_wall_ns_ = wall;
    progress_last_dispatched_ = dispatched_;
    return;
  }
  const std::int64_t elapsed = wall - progress_last_wall_ns_;
  if (elapsed < progress_period_ns_) {
    return;
  }
  std::uint64_t retired = 0;
  for (const std::uint64_t* counter : progress_counters_) {
    retired += *counter;
  }
  const double events_per_sec =
      static_cast<double>(dispatched_ - progress_last_dispatched_) /
      (static_cast<double>(elapsed) / 1e9);
  char line[192];
  std::snprintf(line, sizeof(line),
                "deepplan-progress: sim=%.3fs events=%llu ev/s=%.3gM "
                "retired=%llu rss=%lldMB\n",
                ToSeconds(now_),
                static_cast<unsigned long long>(dispatched_),
                events_per_sec / 1e6,
                static_cast<unsigned long long>(retired),
                static_cast<long long>(selfprof::CurrentRssKb() / 1024));
  std::fputs(line, stderr);
  selfprof::AddCount(selfprof::Counter::kHeartbeats, 1);
  progress_last_wall_ns_ = wall;
  progress_last_dispatched_ = dispatched_;
}

}  // namespace deepplan
