// Differential lockdown of EventQueue (indexed heap plus in-order run)
// against the original binary-heap backend (ReferenceEventQueue): ~1M
// randomized schedule/pop/cancel/reschedule operations across six
// time-distribution regimes must produce bit-identical observable logs — pop
// order including FIFO ties, NextTime before every pop, Cancel and
// Reschedule outcomes, and live sizes after every op. The reference backend
// defines "correct"; see tests/eventqueue_schedules.h for the shared
// generator.
#include <algorithm>
#include <cstdint>

#include <gtest/gtest.h>

#include "src/check/validator.h"
#include "src/sim/event_queue.h"
#include "src/sim/reference_event_queue.h"
#include "src/util/time.h"
#include "tests/eventqueue_schedules.h"

namespace deepplan {
namespace {

using testing_schedules::RunRandomSchedule;
using testing_schedules::ScheduleLog;
using testing_schedules::ScheduleRegime;

// Raw-queue fuzzing intentionally pops non-monotonically (a later schedule
// may land before an already-popped time): that violates the *simulator's*
// monotone-pop invariant, which only holds when a Simulator owns the queue.
// Force validation off so Debug/DEEPPLAN_VALIDATE builds fuzz the queue
// itself rather than abort in the validator.
class EventQueueDiffTest : public ::testing::Test {
 protected:
  void SetUp() override { check::SetValidationForTesting(0); }
  void TearDown() override { check::SetValidationForTesting(-1); }
};

void ExpectSameLogs(std::uint64_t seed, const ScheduleRegime& regime) {
  EventQueue queue;
  ReferenceEventQueue reference;
  const ScheduleLog got = RunRandomSchedule(queue, seed, regime);
  const ScheduleLog want = RunRandomSchedule(reference, seed, regime);

  ASSERT_EQ(got.scheduled, want.scheduled) << "seed " << seed;
  EXPECT_EQ(got.cancel_results, want.cancel_results) << "seed " << seed;
  EXPECT_EQ(got.reschedule_results, want.reschedule_results) << "seed " << seed;
  EXPECT_EQ(got.sizes, want.sizes) << "seed " << seed;
  EXPECT_EQ(got.next_times, want.next_times) << "seed " << seed;
  ASSERT_EQ(got.pops.size(), want.pops.size()) << "seed " << seed;
  for (std::size_t i = 0; i < got.pops.size(); ++i) {
    ASSERT_EQ(got.pops[i], want.pops[i])
        << "seed " << seed << " divergence at pop " << i;
  }
  EXPECT_TRUE(queue.empty());
  EXPECT_TRUE(reference.empty());

  // Arena-reuse invariant: callback slots are recycled, so the pool never
  // grows past the peak number of simultaneously pending events.
  const std::size_t peak =
      got.sizes.empty() ? 0 : *std::max_element(got.sizes.begin(), got.sizes.end());
  EXPECT_LE(queue.slot_capacity(), peak);
  EXPECT_EQ(queue.total_scheduled(), got.scheduled);
}

// Tiny time domain: nearly every event collides with others at the same
// nanosecond, so the FIFO (insertion-order) tie-break carries the ordering.
TEST_F(EventQueueDiffTest, DenseEqualTimestampBursts) {
  ScheduleRegime regime;
  regime.ops = 200000;
  regime.domain = 8;
  regime.schedule_weight = 6;
  regime.burst_every = 5;
  regime.burst_size = 8;
  ExpectSameLogs(0x1001, regime);
}

// Wide time domain with a drifting base: many schedules land after every
// earlier one and join the in-order run, the rest go into the heap, and
// pops interleave the two.
TEST_F(EventQueueDiffTest, WideDomainWithDrift) {
  ScheduleRegime regime;
  regime.ops = 200000;
  regime.domain = Seconds(1);
  regime.drift = 1000;
  ExpectSameLogs(0x2002, regime);
}

// Cancel-heavy: most non-schedule ops cancel or reschedule live or stale
// ids, taking entries out of the heap and leaving dead run entries that the
// run must skip and compact away without perturbing order.
TEST_F(EventQueueDiffTest, CancelHeavy) {
  ScheduleRegime regime;
  regime.ops = 200000;
  regime.domain = 200;
  regime.schedule_weight = 4;
  ExpectSameLogs(0x3003, regime);
}

// Far-future outliers: each lands after the run's last entry and is
// appended to it, so near-term schedules that follow go into the heap and
// must fire first.
TEST_F(EventQueueDiffTest, FarFutureOutliers) {
  ScheduleRegime regime;
  regime.ops = 200000;
  regime.domain = 1000;
  regime.far_every = 7;
  regime.far_offset = Seconds(100);
  ExpectSameLogs(0x4004, regime);
}

// Shaped like a fig15 replay that queues its trace up front: 60k events in
// key order (three per timestamp) fill the run, a feed at sequence numbers
// reserved before them ties with them at equal times, and near-term churn
// drifting through the backlog schedules into the heap, cancels and
// reschedules run entries (most live events are backlog) and pops from
// both, so the run compacts as it drains.
TEST_F(EventQueueDiffTest, InOrderBacklogWithNearTermChurn) {
  ScheduleRegime regime;
  regime.ops = 200000;
  regime.backlog = 60000;
  regime.backlog_step = 10;
  regime.feed = 20000;
  regime.feed_step = 10;
  regime.domain = 30;
  regime.drift = 3;
  regime.burst_every = 9;
  regime.burst_size = 3;
  regime.far_every = 50;
  regime.far_offset = Millis(1);
  ExpectSameLogs(0x6006, regime);
}

// Everything at once, two seeds: ties, drift, bursts, outliers, cancels.
TEST_F(EventQueueDiffTest, MixedRegime) {
  ScheduleRegime regime;
  regime.ops = 100000;
  regime.domain = 50;
  regime.drift = 20;
  regime.burst_every = 11;
  regime.burst_size = 5;
  regime.far_every = 13;
  regime.far_offset = Seconds(2);
  ExpectSameLogs(0x5005, regime);
  ExpectSameLogs(0x5006, regime);
}

}  // namespace
}  // namespace deepplan
