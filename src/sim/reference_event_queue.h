// The original binary-heap EventQueue, kept compiled as the differential
// oracle for EventQueue (tests/eventqueue_diff_test.cc). Pops are ordered by
// (when, sequence number): equal-time events fire in schedule order. Any
// randomized schedule must produce bit-identical pop sequences on both
// backends; this class defines "correct".
#ifndef SRC_SIM_REFERENCE_EVENT_QUEUE_H_
#define SRC_SIM_REFERENCE_EVENT_QUEUE_H_

#include <cstdint>
#include <functional>
#include <limits>
#include <queue>
#include <utility>
#include <vector>

#include "src/util/time.h"

namespace deepplan {

class ReferenceEventQueue {
 public:
  using Callback = std::function<void()>;
  using EventId = std::uint64_t;

  // Schedules `cb` at absolute time `when`. Returns an id usable with Cancel.
  EventId Schedule(Nanos when, Callback cb);
  // Reserves `n` sequence numbers; ScheduleReserved schedules at one of them.
  std::uint64_t ReserveSeq(std::uint64_t n);
  EventId ScheduleReserved(Nanos when, std::uint64_t seq, Callback cb);

  // Cancels a pending event. Cancelling an already-fired or unknown id is a
  // no-op and returns false.
  bool Cancel(EventId id);
  // Cancel(id) plus a Schedule of its callback at `when` under a fresh
  // sequence number, keeping the id. False when `id` is not pending.
  bool Reschedule(EventId id, Nanos when);

  bool empty() const { return live_count_ == 0; }
  std::size_t size() const { return live_count_; }

  // Earliest pending event time; must not be called when empty.
  Nanos NextTime() const;

  // Pops and returns the earliest event (time + callback). Must not be empty.
  std::pair<Nanos, Callback> PopNext();

 private:
  struct Entry {
    Nanos when;
    std::uint64_t seq;
    EventId id;
    bool operator>(const Entry& o) const {
      return when != o.when ? when > o.when : seq > o.seq;
    }
  };

  EventId Add(Nanos when, std::uint64_t seq, Callback cb);
  // Pops entries of cancelled events and the old entries of rescheduled ones.
  void SkipStale() const;

  mutable std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>> heap_;
  // id -> callback; erased on cancel/fire. Keeps heap entries lightweight.
  std::vector<Callback> callbacks_;
  std::vector<bool> live_;
  std::vector<std::uint64_t> seq_of_;  // id -> sequence number of its entry
  std::uint64_t next_seq_ = 0;
  std::size_t live_count_ = 0;
};

}  // namespace deepplan

#endif  // SRC_SIM_REFERENCE_EVENT_QUEUE_H_
