// Shared randomized schedule generator for event-queue implementations. The
// driver makes every decision (op choice, timestamps, cancel victims) from
// its own Rng and its own bookkeeping — never from queue-returned values,
// which are opaque handles — so driving two different implementations with
// the same seed produces the same structural schedule, and their observable
// logs (pop sequence, cancel outcomes, sizes) must agree exactly. Used by
// eventqueue_diff_test.cc (calendar queue vs the reference binary heap) and
// property_test.cc (calendar queue vs a brute-force model).
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
  // Ops to perform (schedules + cancels + pops; the final drain is extra).
  int ops = 10000;
  // Timestamps are drawn from [base, base + domain); a small domain makes
  // equal-timestamp ties common (the FIFO tie-break stress).
  Nanos domain = 50;
  // When > 0, the base drifts forward by [0, drift) after every op, sweeping
  // the calendar queue across epochs (exercises AdvanceEpoch/Rewind).
  Nanos drift = 0;
  // Out of 10: weight of schedule ops (the rest split cancels and pops).
  int schedule_weight = 5;
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
  std::vector<std::size_t> sizes;           // size() after every op
  std::uint64_t scheduled = 0;              // total events scheduled

  bool operator==(const ScheduleLog& other) const {
    return pops == other.pops && next_times == other.next_times &&
           cancel_results == other.cancel_results && sizes == other.sizes &&
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

// Runs one randomized schedule against `q` (any type with the EventQueue
// interface: Schedule, Cancel, PopNext, NextTime, size, empty) and returns
// the observable log. Fired callbacks record a per-run monotone tag — the
// insertion order, which is the documented equal-time tie-break.
template <typename Queue>
ScheduleLog RunRandomSchedule(Queue& q, std::uint64_t seed,
                              const ScheduleRegime& regime) {
  Rng rng(seed);
  ScheduleLog log;
  LiveTags<typename Queue::EventId> live;
  std::vector<typename Queue::EventId> retired;  // fired or cancelled
  std::vector<int> fired;
  int next_tag = 0;
  Nanos base = 0;
  int schedules = 0;

  const auto schedule_at = [&](Nanos when) {
    const int tag = next_tag++;
    live.Push(q.Schedule(when, [&fired, tag] { fired.push_back(tag); }));
    ++log.scheduled;
  };

  for (int step = 0; step < regime.ops; ++step) {
    const std::uint64_t op = rng.NextBounded(10);
    const bool want_schedule =
        op < static_cast<std::uint64_t>(regime.schedule_weight) || live.empty();
    if (want_schedule) {
      ++schedules;
      Nanos when = base + static_cast<Nanos>(
                              rng.NextBounded(static_cast<std::uint64_t>(regime.domain)));
      if (regime.far_every > 0 && schedules % regime.far_every == 0) {
        when += regime.far_offset;
      }
      if (regime.burst_every > 0 && schedules % regime.burst_every == 0) {
        for (int b = 0; b < regime.burst_size; ++b) {
          schedule_at(when);
        }
      } else {
        schedule_at(when);
      }
    } else if (op < 7) {
      // Cancel: half the time a live event, half a retired (stale) id. Both
      // outcomes are part of the observable log.
      if (!retired.empty() && rng.NextBounded(2) == 0) {
        const auto id = retired[rng.NextBounded(retired.size())];
        log.cancel_results.push_back(q.Cancel(id) ? 1 : 0);
      } else {
        const int tag = live.Kth(rng.NextBounded(live.size()));
        log.cancel_results.push_back(q.Cancel(live.id(tag)) ? 1 : 0);
        retired.push_back(live.id(tag));
        live.Remove(tag);
      }
    } else {
      log.next_times.push_back(q.NextTime());
      auto popped = q.PopNext();
      popped.second();
      const int tag = fired.back();
      log.pops.emplace_back(popped.first, tag);
      if (live.contains(tag)) {
        retired.push_back(live.id(tag));
        live.Remove(tag);
      }
    }
    if (regime.drift > 0) {
      base += static_cast<Nanos>(
          rng.NextBounded(static_cast<std::uint64_t>(regime.drift)));
    }
    log.sizes.push_back(q.size());
  }

  // Drain: remaining events must come out in (when, insertion order).
  while (!q.empty()) {
    log.next_times.push_back(q.NextTime());
    auto popped = q.PopNext();
    popped.second();
    log.pops.emplace_back(popped.first, fired.back());
    log.sizes.push_back(q.size());
  }
  return log;
}

}  // namespace testing_schedules
}  // namespace deepplan

#endif  // TESTS_EVENTQUEUE_SCHEDULES_H_
