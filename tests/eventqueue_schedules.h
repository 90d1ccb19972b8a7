// Shared randomized schedule generator for event-queue implementations. The
// driver makes every decision (op choice, timestamps, cancel and reschedule
// victims) from its own Rng and its own bookkeeping — never from
// queue-returned values, which are opaque handles — so driving two different
// implementations with the same seed produces the same structural schedule,
// and their observable logs (pop sequence, cancel and reschedule outcomes,
// sizes) must agree exactly. Used by eventqueue_diff_test.cc (EventQueue vs
// the reference binary heap) and property_test.cc (EventQueue alone).
#ifndef TESTS_EVENTQUEUE_SCHEDULES_H_
#define TESTS_EVENTQUEUE_SCHEDULES_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "src/util/rng.h"
#include "src/util/time.h"

namespace deepplan {
namespace testing_schedules {

// Shapes the time distribution of one randomized run.
struct ScheduleRegime {
  // Ops to perform (schedules + cancels + reschedules + pops; the final
  // drain is extra).
  int ops = 10000;
  // Timestamps are drawn from [base, base + domain); a small domain makes
  // equal-timestamp ties common (the FIFO tie-break stress).
  Nanos domain = 50;
  // When > 0, the base drifts forward by [0, drift) after every op, so later
  // schedules land after earlier ones (the queue's in-order run).
  Nanos drift = 0;
  // Out of 10: weight of schedule ops (the rest split cancels, reschedules
  // and pops).
  int schedule_weight = 5;
  // Events queued before the first op, in key order, three per timestamp,
  // backlog_step apart: a trace queued up front.
  int backlog = 0;
  Nanos backlog_step = 10;
  // Events fed one at a time at sequence numbers reserved before the
  // backlog (ReserveSeq / ScheduleReserved): the next is scheduled when the
  // previous pops, feed_step later.
  int feed = 0;
  Nanos feed_step = 10;
  // Every burst_every-th schedule emits a burst of equal-timestamp events.
  int burst_every = 0;
  int burst_size = 8;
  // Every far_every-th schedule lands far in the future (epoch spread).
  int far_every = 0;
  Nanos far_offset = Seconds(100);
};

// Observable outcome of a run: everything an implementation is allowed to
// expose, in execution order. Two correct implementations must produce
// byte-equal logs for the same seed and regime.
struct ScheduleLog {
  std::vector<std::pair<Nanos, int>> pops;  // (when, tag) in pop order
  std::vector<Nanos> next_times;            // NextTime() before each pop
  std::vector<char> cancel_results;         // Cancel() outcomes in op order
  std::vector<char> reschedule_results;     // Reschedule() outcomes
  std::vector<std::size_t> sizes;           // size() after every op
  std::uint64_t scheduled = 0;              // total events scheduled

  bool operator==(const ScheduleLog& other) const {
    return pops == other.pops && next_times == other.next_times &&
           cancel_results == other.cancel_results &&
           reschedule_results == other.reschedule_results && sizes == other.sizes &&
           scheduled == other.scheduled;
  }
};

// The live events of a run, by tag. Tags are issued in increasing order, so
// a Fenwick tree of 0/1 counts over tags finds the k-th smallest live tag
// (a cancel's pick) and retires a popped tag in O(log n) each, where a
// tag-ordered vector needs a scan and a middle erase: the live set of a
// dense-burst regime reaches tens of thousands of events.
template <typename Id>
class LiveTags {
 public:
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  bool contains(int tag) const { return live_[Idx(tag)] != 0; }
  Id id(int tag) const { return ids_[Idx(tag)]; }

  // Adds the next tag (the number of tags added so far) with its event id.
  void Push(Id id) {
    ids_.push_back(id);
    live_.push_back(1);
    // Node i counts the live tags in [i - lowbit(i), i): its own, plus those
    // before it in that range.
    const std::size_t i = ids_.size();
    tree_.push_back(1 + Prefix(i - 1) - Prefix(i - LowBit(i)));
    ++size_;
  }

  void Remove(int tag) {
    live_[Idx(tag)] = 0;
    for (std::size_t i = Idx(tag) + 1; i < tree_.size(); i += LowBit(i)) {
      --tree_[i];
    }
    --size_;
  }

  // The k-th smallest live tag (k < size()).
  int Kth(std::size_t k) const {
    std::size_t pos = 0;
    for (std::size_t step = std::bit_floor(ids_.size()); step > 0; step >>= 1) {
      if (pos + step < tree_.size() && tree_[pos + step] <= k) {
        pos += step;
        k -= tree_[pos];
      }
    }
    return static_cast<int>(pos);
  }

 private:
  static std::size_t Idx(int tag) { return static_cast<std::size_t>(tag); }
  static std::size_t LowBit(std::size_t i) { return i & (~i + 1); }
  // Live tags among [0, n).
  std::size_t Prefix(std::size_t n) const {
    std::size_t sum = 0;
    for (; n > 0; n -= LowBit(n)) {
      sum += tree_[n];
    }
    return sum;
  }

  std::vector<Id> ids_;
  std::vector<char> live_;
  std::vector<std::size_t> tree_{0};  // 1-based; tree_[0] is unused
  std::size_t size_ = 0;
};

// `fn` as the callback type `Queue` schedules: EventQueue boxes it into an
// Action.
template <typename Queue, typename F>
auto AsCallback(F fn) {
  if constexpr (requires { Queue::Box(fn); }) {
    return Queue::Box(std::move(fn));
  } else {
    return typename Queue::Callback(std::move(fn));
  }
}

// Runs one randomized schedule against `q` (any type with the EventQueue
// interface: Schedule, ReserveSeq, ScheduleReserved, Cancel, Reschedule,
// PopNext, NextTime, size, empty) and returns the observable log. Every
// schedule and successful reschedule issues the next tag, so tags count
// insertion order, the documented equal-time tie-break; a fired callback
// reports its event, and the log its event's latest tag.
template <typename Queue>
ScheduleLog RunRandomSchedule(Queue& q, std::uint64_t seed,
                              const ScheduleRegime& regime) {
  Rng rng(seed);
  ScheduleLog log;
  LiveTags<typename Queue::EventId> live;
  std::vector<typename Queue::EventId> retired;  // fired or cancelled
  std::vector<int> fired;                        // events, in firing order
  std::vector<int> tag_of;                       // event -> latest tag
  std::vector<int> event_of;                     // tag -> event
  Nanos base = 0;
  int schedules = 0;

  const auto issue_tag = [&](int event, typename Queue::EventId id) {
    tag_of[static_cast<std::size_t>(event)] = static_cast<int>(event_of.size());
    event_of.push_back(event);
    live.Push(id);
  };
  const auto callback = [&fired](int event) {
    return AsCallback<Queue>([&fired, event] { fired.push_back(event); });
  };
  const auto schedule_at = [&](Nanos when) {
    const int event = static_cast<int>(tag_of.size());
    tag_of.push_back(0);
    issue_tag(event, q.Schedule(when, callback(event)));
    ++log.scheduled;
  };
  // Feed: event feed_event fires at reserved sequence number feed_seq +
  // feed_next - 1; its pop schedules the next.
  const std::uint64_t feed_seq = q.ReserveSeq(static_cast<std::uint64_t>(regime.feed));
  log.scheduled += static_cast<std::uint64_t>(regime.feed);
  int feed_next = 0;
  int feed_event = -1;
  const auto feed = [&] {
    feed_event = static_cast<int>(tag_of.size());
    tag_of.push_back(0);
    issue_tag(feed_event,
              q.ScheduleReserved(regime.feed_step * feed_next,
                                 feed_seq + static_cast<std::uint64_t>(feed_next),
                                 callback(feed_event)));
    ++feed_next;
  };
  const auto draw_time = [&] {
    ++schedules;
    Nanos when = base + static_cast<Nanos>(
                            rng.NextBounded(static_cast<std::uint64_t>(regime.domain)));
    if (regime.far_every > 0 && schedules % regime.far_every == 0) {
      when += regime.far_offset;
    }
    return when;
  };
  const auto pop = [&] {
    log.next_times.push_back(q.NextTime());
    auto popped = q.PopNext();
    popped.second();
    const int event = fired.back();
    const int tag = tag_of[static_cast<std::size_t>(event)];
    log.pops.emplace_back(popped.first, tag);
    if (live.contains(tag)) {
      retired.push_back(live.id(tag));
      live.Remove(tag);
    }
    if (event == feed_event && feed_next < regime.feed) {
      feed();
    }
  };

  for (int i = 0; i < regime.backlog; ++i) {
    schedule_at(regime.backlog_step * (i / 3));
  }
  if (regime.feed > 0) {
    feed();
  }
  for (int step = 0; step < regime.ops; ++step) {
    const std::uint64_t op = rng.NextBounded(10);
    const bool want_schedule =
        op < static_cast<std::uint64_t>(regime.schedule_weight) || live.empty();
    if (want_schedule) {
      const Nanos when = draw_time();
      if (regime.burst_every > 0 && schedules % regime.burst_every == 0) {
        for (int b = 0; b < regime.burst_size; ++b) {
          schedule_at(when);
        }
      } else {
        schedule_at(when);
      }
    } else if (op < 7) {
      // Cancel, or one time in three reschedule: half the time a live event,
      // half a retired (stale) id. Every outcome is part of the observable
      // log.
      const bool reschedule = rng.NextBounded(3) == 0;
      const Nanos when = reschedule ? draw_time() : 0;
      std::vector<char>& results = reschedule ? log.reschedule_results : log.cancel_results;
      if (!retired.empty() && rng.NextBounded(2) == 0) {
        const auto id = retired[rng.NextBounded(retired.size())];
        results.push_back((reschedule ? q.Reschedule(id, when) : q.Cancel(id)) ? 1 : 0);
      } else {
        const int tag = live.Kth(rng.NextBounded(live.size()));
        const auto id = live.id(tag);
        results.push_back((reschedule ? q.Reschedule(id, when) : q.Cancel(id)) ? 1 : 0);
        live.Remove(tag);
        if (reschedule) {
          issue_tag(event_of[static_cast<std::size_t>(tag)], id);
          ++log.scheduled;
        } else {
          retired.push_back(id);
        }
      }
    } else {
      pop();
    }
    if (regime.drift > 0) {
      base += static_cast<Nanos>(
          rng.NextBounded(static_cast<std::uint64_t>(regime.drift)));
    }
    log.sizes.push_back(q.size());
  }

  // Drain: remaining events must come out in (when, insertion order).
  while (!q.empty()) {
    pop();
    log.sizes.push_back(q.size());
  }
  return log;
}

}  // namespace testing_schedules
}  // namespace deepplan

#endif  // TESTS_EVENTQUEUE_SCHEDULES_H_
