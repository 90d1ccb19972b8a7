// Single-threaded discrete-event simulator: a clock plus an event queue.
// Components schedule actions; Run() drains events in time order.
#ifndef SRC_SIM_SIMULATOR_H_
#define SRC_SIM_SIMULATOR_H_

#include <cstdint>
#include <limits>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/sim/event_queue.h"
#include "src/util/time.h"

namespace deepplan {

class Simulator {
 public:
  using Action = EventQueue::Action;

  // Picks up the process-wide DEEPPLAN_PROGRESS heartbeat period (0 when
  // unset/disabled).
  Simulator();

  Nanos now() const { return now_; }

  // Schedules `action` to run `delay` after the current time (delay >= 0).
  EventQueue::EventId ScheduleAfter(Nanos delay, Action action);
  // Schedules `action` at absolute simulated time `when` (>= now()).
  EventQueue::EventId ScheduleAt(Nanos when, Action action);
  // The same for any other callable, boxed by the event queue
  // (EventQueue::Box).
  template <typename F>
    requires(!std::is_same_v<std::remove_cvref_t<F>, Action>)
  EventQueue::EventId ScheduleAfter(Nanos delay, F&& fn) {
    return ScheduleAfter(delay, EventQueue::Box(std::forward<F>(fn)));
  }
  template <typename F>
    requires(!std::is_same_v<std::remove_cvref_t<F>, Action>)
  EventQueue::EventId ScheduleAt(Nanos when, F&& fn) {
    return ScheduleAt(when, EventQueue::Box(std::forward<F>(fn)));
  }
  bool Cancel(EventQueue::EventId id) { return queue_.Cancel(id); }
  // Moves pending event `id` to `delay` after the current time (delay >= 0)
  // under a fresh sequence number (EventQueue::Reschedule): the pop order
  // and total_scheduled() of Cancel plus ScheduleAfter, with the same id.
  // False, and nothing scheduled, when `id` is not pending.
  bool Reschedule(EventQueue::EventId id, Nanos delay);
  // EventQueue::ReserveSeq / ScheduleReserved, at absolute time `when`
  // (>= now()).
  std::uint64_t ReserveSeq(std::uint64_t n) { return queue_.ReserveSeq(n); }
  EventQueue::EventId ScheduleReserved(Nanos when, std::uint64_t seq, Action action);

  // Runs until the queue is empty. Returns the final clock value.
  Nanos Run();
  // Runs until the queue is empty or the clock would pass `deadline`; events
  // at exactly `deadline` still fire.
  Nanos RunUntil(Nanos deadline);

  bool idle() const { return queue_.empty(); }
  std::size_t pending_events() const { return queue_.size(); }
  // Queue introspection (slot reuse / scheduling volume) for tests + benches.
  const EventQueue& event_queue() const { return queue_; }
  // Events popped and fired by this simulator over its lifetime.
  std::uint64_t events_dispatched() const { return dispatched_; }

  // Live progress heartbeat (DEEPPLAN_PROGRESS=<seconds>, fractional ok):
  // when enabled, the dispatch loop emits a stderr line at most once per
  // period — simulated time, events/sec, requests retired, RSS. Off by
  // default so every bench golden (stdout *and* stderr formats) is
  // untouched. The per-sim setter exists so tests need not mutate the
  // process environment.
  void set_progress_period_for_testing(Nanos period) {
    progress_period_ns_ = period;
  }
  // Components expose "requests retired so far" to the heartbeat by
  // registering a counter location (Server registers its finished-request
  // count; the heartbeat prints the sum). The pointee must stay valid until
  // removed; single-threaded like the rest of the simulator.
  void AddProgressCounter(const std::uint64_t* counter);
  void RemoveProgressCounter(const std::uint64_t* counter);

 private:
  void MaybeEmitProgress();

  Nanos now_ = 0;
  EventQueue queue_;
  std::uint64_t dispatched_ = 0;
  Nanos progress_period_ns_;  // 0 = heartbeat disabled
  std::int64_t progress_last_wall_ns_ = 0;
  std::uint64_t progress_last_dispatched_ = 0;
  std::vector<const std::uint64_t*> progress_counters_;
};

}  // namespace deepplan

#endif  // SRC_SIM_SIMULATOR_H_
