#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <type_traits>
#include <vector>

#include "src/sim/event_queue.h"
#include "src/sim/fabric.h"
#include "src/sim/simulator.h"
#include "src/sim/stream.h"

namespace deepplan {
namespace {

// ---------------------------------------------------------------- event queue

TEST(EventQueueTest, FiresInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.Schedule(30, [&] { order.push_back(3); });
  q.Schedule(10, [&] { order.push_back(1); });
  q.Schedule(20, [&] { order.push_back(2); });
  while (!q.empty()) {
    q.PopNext().second();
  }
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueueTest, EqualTimesFireInScheduleOrder) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    q.Schedule(100, [&, i] { order.push_back(i); });
  }
  while (!q.empty()) {
    q.PopNext().second();
  }
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueueTest, CancelSuppressesEvent) {
  EventQueue q;
  bool fired = false;
  const auto id = q.Schedule(10, [&] { fired = true; });
  EXPECT_TRUE(q.Cancel(id));
  EXPECT_FALSE(q.Cancel(id));  // double-cancel is a no-op
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(fired);
}

// The next few tests pin the Cancel/stale-id contract: ids are never
// resurrected, cancelled events never surface through NextTime/PopNext, and
// tie-breaking among survivors stays schedule-order.

TEST(EventQueueTest, CancelledIdIsNeverResurrectedByLaterSchedules) {
  EventQueue q;
  bool stale_fired = false;
  bool fresh_fired = false;
  const auto stale = q.Schedule(10, [&] { stale_fired = true; });
  ASSERT_TRUE(q.Cancel(stale));
  // New events (including ones at the same timestamp) must not revive the
  // cancelled id, even if the implementation recycles its storage.
  const auto fresh = q.Schedule(10, [&] { fresh_fired = true; });
  EXPECT_NE(stale, fresh);
  EXPECT_FALSE(q.Cancel(stale));
  EXPECT_EQ(q.size(), 1u);
  auto [when, cb] = q.PopNext();
  EXPECT_EQ(when, 10);
  cb();
  EXPECT_FALSE(stale_fired);
  EXPECT_TRUE(fresh_fired);
}

TEST(EventQueueTest, NextTimeSkipsCancelledHead) {
  EventQueue q;
  const auto head = q.Schedule(5, [] {});
  q.Schedule(20, [] {});
  EXPECT_EQ(q.NextTime(), 5);
  ASSERT_TRUE(q.Cancel(head));
  EXPECT_EQ(q.NextTime(), 20);  // stale head entry must not surface
  EXPECT_EQ(q.NextTime(), 20);  // and NextTime must not consume anything
  EXPECT_EQ(q.size(), 1u);
  EXPECT_EQ(q.PopNext().first, 20);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueueTest, CancelInsideEqualTimeBurstKeepsScheduleOrder) {
  EventQueue q;
  std::vector<int> order;
  std::vector<EventQueue::EventId> ids;
  for (int i = 0; i < 6; ++i) {
    ids.push_back(q.Schedule(100, [&, i] { order.push_back(i); }));
  }
  ASSERT_TRUE(q.Cancel(ids[0]));  // head of the burst
  ASSERT_TRUE(q.Cancel(ids[3]));  // middle of the burst
  while (!q.empty()) {
    q.PopNext().second();
  }
  EXPECT_EQ(order, (std::vector<int>{1, 2, 4, 5}));
}

TEST(EventQueueTest, CancelAndRescheduleChurnKeepsQueueConsistent) {
  // The fabric's reallocation pattern: cancel the pending completion and
  // schedule a replacement, thousands of times. Ids must stay unique, size
  // must track live events only, and only the last replacement fires.
  EventQueue q;
  int fired = 0;
  EventQueue::EventId id = q.Schedule(1000, [&] { ++fired; });
  for (int i = 0; i < 5000; ++i) {
    ASSERT_TRUE(q.Cancel(id));
    const EventQueue::EventId next = q.Schedule(1000 + i % 7, [&] { ++fired; });
    EXPECT_NE(next, id);
    id = next;
    ASSERT_EQ(q.size(), 1u);
  }
  q.PopNext().second();
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(q.Cancel(id));  // already fired
}

// Reschedule is Cancel plus Schedule of the same action under the same id
// (the fabric re-keys every in-flight completion on each rate change).
TEST(EventQueueTest, RescheduleToAnUnchangedTimePopsAfterTiesScheduledSince) {
  EventQueue q;
  std::vector<int> order;
  const auto first = q.Schedule(100, [&] { order.push_back(0); });
  q.Schedule(100, [&] { order.push_back(1); });
  q.Schedule(50, [&] { order.push_back(2); });
  EXPECT_EQ(q.total_scheduled(), 3u);
  ASSERT_TRUE(q.Reschedule(first, 100));
  EXPECT_EQ(q.total_scheduled(), 4u);  // one fresh sequence number
  q.Schedule(100, [&] { order.push_back(3); });
  EXPECT_EQ(q.size(), 4u);
  while (!q.empty()) {
    q.PopNext().second();
  }
  EXPECT_EQ(order, (std::vector<int>{2, 1, 0, 3}));
}

TEST(EventQueueTest, RescheduleOfAFiredOrCancelledIdFailsAndTakesNoSequenceNumber) {
  EventQueue q;
  int fired = 0;
  const auto done = q.Schedule(10, [&] { ++fired; });
  const auto cancelled = q.Schedule(20, [&] { ++fired; });
  q.Schedule(30, [&] { ++fired; });
  q.PopNext().second();
  ASSERT_TRUE(q.Cancel(cancelled));
  const std::uint64_t scheduled = q.total_scheduled();
  EXPECT_FALSE(q.Reschedule(done, 40));
  EXPECT_FALSE(q.Reschedule(cancelled, 40));
  EXPECT_EQ(q.total_scheduled(), scheduled);
  EXPECT_EQ(q.size(), 1u);
  q.PopNext().second();
  EXPECT_EQ(fired, 2);
  // The sequence number the failed reschedules did not take goes to the next
  // schedule: it pops after an earlier schedule at the same time.
  std::vector<int> order;
  q.Schedule(50, [&] { order.push_back(0); });
  q.Schedule(50, [&] { order.push_back(1); });
  EXPECT_EQ(q.total_scheduled(), scheduled + 2);
  while (!q.empty()) {
    q.PopNext().second();
  }
  EXPECT_EQ(order, (std::vector<int>{0, 1}));
}

TEST(EventQueueTest, RescheduleMovesAnEventQueuedInKeyOrder) {
  // Events scheduled in key order sit in the in-order run; rescheduling one
  // earlier or later moves it past the others either way.
  EventQueue q;
  std::vector<int> order;
  std::vector<EventQueue::EventId> ids;
  for (int i = 0; i < 6; ++i) {
    ids.push_back(q.Schedule(10 * (i + 1), [&, i] { order.push_back(i); }));
  }
  ASSERT_TRUE(q.Reschedule(ids[4], 5));    // 50 -> 5: first
  ASSERT_TRUE(q.Reschedule(ids[0], 100));  // 10 -> 100: last
  ASSERT_TRUE(q.Reschedule(ids[2], 20));   // 30 -> 20: after the 20 event
  EXPECT_EQ(q.NextTime(), 5);
  while (!q.empty()) {
    q.PopNext().second();
  }
  EXPECT_EQ(order, (std::vector<int>{4, 1, 2, 3, 5, 0}));
}

TEST(SimulatorTest, RescheduleIsRelativeToNowAndKeepsTheId) {
  Simulator sim;
  std::vector<Nanos> fired_at;
  const auto id = sim.ScheduleAfter(100, [&] { fired_at.push_back(sim.now()); });
  sim.ScheduleAfter(10, [&] {
    EXPECT_TRUE(sim.Reschedule(id, 5));  // now 10: fires at 15
  });
  sim.Run();
  EXPECT_EQ(fired_at, (std::vector<Nanos>{15}));
  EXPECT_FALSE(sim.Reschedule(id, 5));
  EXPECT_TRUE(sim.idle());
}

TEST(EventQueueTest, ScheduleDuringPopAtSameTimeFiresAfterExistingTies) {
  // An event scheduled from inside a callback at the *current* timestamp
  // joins the back of the equal-time FIFO (schedule order is global).
  EventQueue q;
  std::vector<int> order;
  q.Schedule(50, [&] {
    order.push_back(0);
    q.Schedule(50, [&] { order.push_back(2); });
  });
  q.Schedule(50, [&] { order.push_back(1); });
  while (!q.empty()) {
    q.PopNext().second();
  }
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(EventQueueTest, ReservedSequenceNumbersPopAsIfScheduledAtTheReservation) {
  // Start events at 10, 10 and 20 are either all scheduled up front, or
  // reserved up front and fed one at a time from the previous one's
  // callback. Events scheduled after them at the same times fire after
  // them either way.
  const auto run = [](bool feed) {
    EventQueue q;
    std::vector<int> order;
    const Nanos start[] = {10, 10, 20};
    std::uint64_t first = 0;
    std::function<void(int)> fire = [&](int i) {
      order.push_back(i);
      if (feed && i < 2) {
        q.ScheduleReserved(start[i + 1], first + static_cast<std::uint64_t>(i) + 1,
                           EventQueue::Box([&fire, i] { fire(i + 1); }));
      }
    };
    if (feed) {
      first = q.ReserveSeq(3);
      q.ScheduleReserved(start[0], first, EventQueue::Box([&fire] { fire(0); }));
    } else {
      for (int i = 0; i < 3; ++i) {
        q.Schedule(start[i], [&fire, i] { fire(i); });
      }
    }
    q.Schedule(20, [&] { order.push_back(21); });
    q.Schedule(10, [&] { order.push_back(11); });
    while (!q.empty()) {
      q.PopNext().second();
    }
    return order;
  };
  EXPECT_EQ(run(false), (std::vector<int>{0, 1, 11, 2, 21}));
  EXPECT_EQ(run(true), run(false));
}

// The event record and a stream op are plain bytes: scheduling, popping and
// enqueueing copy them and never run a constructor or touch the heap.
static_assert(std::is_trivially_copyable_v<EventQueue::Action>);
static_assert(std::is_trivially_copyable_v<Stream::Op>);

struct OrderLog {
  std::vector<int> order;
  void Append(std::uint64_t value) { order.push_back(static_cast<int>(value)); }
};

TEST(EventQueueTest, ActionsAndBoxedCallablesShareOneScheduleOrder) {
  EventQueue q;
  OrderLog log;
  std::function<void()> boxed = [&] { log.order.push_back(1); };
  q.Schedule(100, MakeAction<&OrderLog::Append>(&log, 0));
  q.Schedule(100, boxed);
  q.Schedule(100, [&, big = std::vector<int>(4)] { log.order.push_back(2); });
  q.Schedule(100, MakeAction<&OrderLog::Append>(&log, 3));
  while (!q.empty()) {
    q.PopNext().second();
  }
  EXPECT_EQ(log.order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(EventQueueTest, CancelDestroysABoxedCallableAtOnce) {
  EventQueue q;
  const auto owned = std::make_shared<int>(7);
  const auto id = q.Schedule(10, [owned] { ++*owned; });
  q.Schedule(20, [] {});
  EXPECT_EQ(owned.use_count(), 2);
  ASSERT_TRUE(q.Cancel(id));
  // The copy inside the queue is gone now, not when its tombstone is pruned.
  EXPECT_EQ(owned.use_count(), 1);
  q.PopNext().second();
  EXPECT_EQ(*owned, 7);
}

TEST(EventQueueTest, NeverFiredBoxedCallablesDieWithTheQueue) {
  const auto owned = std::make_shared<int>(0);
  {
    EventQueue q;
    q.Schedule(10, [owned] {});
    EXPECT_EQ(owned.use_count(), 2);
  }
  EXPECT_EQ(owned.use_count(), 1);
}

// ---------------------------------------------------------------- link paths

TEST(LinkPathTest, BuildsFromABraceListAndFromAVector) {
  const LinkPath listed = {3, 1};
  ASSERT_EQ(listed.size(), 2u);
  EXPECT_EQ(listed[0], 3);
  EXPECT_EQ(listed[1], 1);
  const std::vector<LinkId> links = {5, 6, 7, 8};
  const LinkPath converted = links;
  EXPECT_EQ(std::vector<LinkId>(converted.begin(), converted.end()), links);
  EXPECT_TRUE(LinkPath{}.empty());
}

TEST(LinkPathDeathTest, AFifthLinkFailsTheCheck) {
  LinkPath path = {0, 1, 2, 3};
  EXPECT_DEATH(path.push_back(4), "LinkPath");
  EXPECT_DEATH(LinkPath(std::vector<LinkId>{0, 1, 2, 3, 4}), "LinkPath");
}

// ---------------------------------------------------------------- simulator

TEST(SimulatorTest, ClockAdvancesToEventTimes) {
  Simulator sim;
  Nanos seen = -1;
  sim.ScheduleAfter(100, [&] { seen = sim.now(); });
  sim.Run();
  EXPECT_EQ(seen, 100);
  EXPECT_EQ(sim.now(), 100);
}

TEST(SimulatorTest, NestedSchedulingWorks) {
  Simulator sim;
  std::vector<Nanos> times;
  sim.ScheduleAfter(10, [&] {
    times.push_back(sim.now());
    sim.ScheduleAfter(5, [&] { times.push_back(sim.now()); });
  });
  sim.Run();
  EXPECT_EQ(times, (std::vector<Nanos>{10, 15}));
}

TEST(SimulatorTest, RunUntilStopsAtDeadline) {
  Simulator sim;
  bool late_fired = false;
  sim.ScheduleAfter(10, [] {});
  sim.ScheduleAfter(1000, [&] { late_fired = true; });
  sim.RunUntil(100);
  EXPECT_EQ(sim.now(), 100);
  EXPECT_FALSE(late_fired);
  EXPECT_EQ(sim.pending_events(), 1u);
}

// ---------------------------------------------------------------- fabric

TEST(FabricTest, SingleTransferTakesBytesOverBandwidth) {
  Simulator sim;
  Fabric fabric(&sim);
  const LinkId link = fabric.AddLink("pcie", 1e9);  // 1 GB/s
  Nanos elapsed = -1;
  fabric.Start({link}, 1'000'000, /*latency=*/0, [&](Nanos e) { elapsed = e; });
  sim.Run();
  EXPECT_NEAR(static_cast<double>(elapsed), 1e6, 1e3);  // 1 MB at 1 GB/s = 1 ms
}

TEST(FabricTest, LatencyAddsAfterDrain) {
  Simulator sim;
  Fabric fabric(&sim);
  const LinkId link = fabric.AddLink("pcie", 1e9);
  Nanos elapsed = -1;
  fabric.Start({link}, 1'000'000, /*latency=*/Micros(50), [&](Nanos e) { elapsed = e; });
  sim.Run();
  EXPECT_NEAR(static_cast<double>(elapsed), 1e6 + 50e3, 1e3);
}

TEST(FabricTest, ZeroByteTransferCompletesAfterLatency) {
  Simulator sim;
  Fabric fabric(&sim);
  fabric.AddLink("pcie", 1e9);
  Nanos elapsed = -1;
  fabric.Start({}, 0, Micros(7), [&](Nanos e) { elapsed = e; });
  sim.Run();
  EXPECT_EQ(elapsed, Micros(7));
}

TEST(FabricTest, TwoTransfersShareLinkFairly) {
  Simulator sim;
  Fabric fabric(&sim);
  const LinkId link = fabric.AddLink("pcie", 1e9);
  Nanos first = -1;
  Nanos second = -1;
  fabric.Start({link}, 1'000'000, 0, [&](Nanos e) { first = e; });
  fabric.Start({link}, 1'000'000, 0, [&](Nanos e) { second = e; });
  sim.Run();
  // Both share 1 GB/s -> each effectively 0.5 GB/s -> 2 ms each.
  EXPECT_NEAR(static_cast<double>(first), 2e6, 2e4);
  EXPECT_NEAR(static_cast<double>(second), 2e6, 2e4);
}

TEST(FabricTest, ShortTransferFreesBandwidthForLongOne) {
  Simulator sim;
  Fabric fabric(&sim);
  const LinkId link = fabric.AddLink("pcie", 1e9);
  Nanos long_elapsed = -1;
  fabric.Start({link}, 3'000'000, 0, [&](Nanos e) { long_elapsed = e; });
  fabric.Start({link}, 1'000'000, 0, [](Nanos) {});
  sim.Run();
  // Phase 1: both at 0.5 GB/s until the short one finishes at t=2ms (long has
  // 2 MB left). Phase 2: long alone at 1 GB/s -> +2 ms. Total 4 ms.
  EXPECT_NEAR(static_cast<double>(long_elapsed), 4e6, 4e4);
}

TEST(FabricTest, SharedUplinkConstrainsTwoGpuLoads) {
  // Two GPUs behind one switch (Table 2's 4-GPU contention case): each GPU
  // link is 12 GB/s but the shared uplink is 12.6 GB/s, so concurrent loads
  // run at ~6.3 GB/s each.
  Simulator sim;
  Fabric fabric(&sim);
  const LinkId uplink = fabric.AddLink("uplink", 12.6e9);
  const LinkId gpu0 = fabric.AddLink("gpu0", 12e9);
  const LinkId gpu1 = fabric.AddLink("gpu1", 12e9);
  Nanos t0 = -1;
  Nanos t1 = -1;
  fabric.Start({uplink, gpu0}, 126'000'000, 0, [&](Nanos e) { t0 = e; });
  fabric.Start({uplink, gpu1}, 126'000'000, 0, [&](Nanos e) { t1 = e; });
  sim.Run();
  EXPECT_NEAR(static_cast<double>(t0), 20e6, 2e5);  // 126 MB at 6.3 GB/s
  EXPECT_NEAR(static_cast<double>(t1), 20e6, 2e5);
}

TEST(FabricTest, IndependentLinksDoNotInterfere) {
  Simulator sim;
  Fabric fabric(&sim);
  const LinkId a = fabric.AddLink("a", 1e9);
  const LinkId b = fabric.AddLink("b", 1e9);
  Nanos ta = -1;
  Nanos tb = -1;
  fabric.Start({a}, 1'000'000, 0, [&](Nanos e) { ta = e; });
  fabric.Start({b}, 1'000'000, 0, [&](Nanos e) { tb = e; });
  sim.Run();
  EXPECT_NEAR(static_cast<double>(ta), 1e6, 1e4);
  EXPECT_NEAR(static_cast<double>(tb), 1e6, 1e4);
}

TEST(FabricTest, MaxMinFairnessWithAsymmetricPaths) {
  // T1 crosses links A and B; T2 crosses only A; T3 crosses only B.
  // A and B both 1 GB/s. Max-min: each link splits between its two users,
  // T1 bottlenecked at 0.5 on both; T2 and T3 get 0.5 each.
  Simulator sim;
  Fabric fabric(&sim);
  const LinkId a = fabric.AddLink("a", 1e9);
  const LinkId b = fabric.AddLink("b", 1e9);
  fabric.Start({a, b}, 10'000'000, 0, [](Nanos) {});
  fabric.Start({a}, 10'000'000, 0, [](Nanos) {});
  fabric.Start({b}, 10'000'000, 0, [](Nanos) {});
  EXPECT_NEAR(fabric.AllocatedOn(a), 1e9, 1e6);
  EXPECT_NEAR(fabric.AllocatedOn(b), 1e9, 1e6);
  sim.Run();
}

// ---------------------------------------------------------------- streams

TEST(StreamTest, OpsRunInOrder) {
  Simulator sim;
  Stream stream(&sim, "s");
  std::vector<int> order;
  stream.EnqueueMarker([&] { order.push_back(1); });
  stream.EnqueueDelay(100);
  stream.EnqueueMarker([&] { order.push_back(2); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_TRUE(stream.idle());
}

TEST(StreamTest, DelayOccupiesStream) {
  Simulator sim;
  Stream stream(&sim, "s");
  Nanos done_at = -1;
  stream.EnqueueDelay(100);
  stream.EnqueueDelay(50);
  stream.EnqueueMarker([&] { done_at = sim.now(); });
  sim.Run();
  EXPECT_EQ(done_at, 150);
}

TEST(SyncEventTest, WaitBlocksUntilFire) {
  Simulator sim;
  SyncEvent event(&sim);
  Stream stream(&sim, "s");
  Nanos resumed_at = -1;
  stream.EnqueueWait(&event);
  stream.EnqueueMarker([&] { resumed_at = sim.now(); });
  sim.ScheduleAfter(500, [&] { event.Fire(); });
  sim.Run();
  EXPECT_EQ(resumed_at, 500);
  EXPECT_EQ(stream.wait_time(), 500);
}

TEST(SyncEventTest, WaitOnFiredEventIsInstant) {
  Simulator sim;
  SyncEvent event(&sim);
  event.Fire();
  Stream stream(&sim, "s");
  Nanos resumed_at = -1;
  stream.EnqueueWait(&event);
  stream.EnqueueMarker([&] { resumed_at = sim.now(); });
  sim.Run();
  EXPECT_EQ(resumed_at, 0);
  EXPECT_EQ(stream.wait_time(), 0);
}

TEST(StreamTest, RecordFiresEventInOrder) {
  Simulator sim;
  Stream producer(&sim, "load");
  Stream consumer(&sim, "exec");
  SyncEvent event(&sim);
  producer.EnqueueDelay(200);
  producer.EnqueueRecord(&event);
  Nanos exec_start = -1;
  consumer.EnqueueWait(&event);
  consumer.EnqueueMarker([&] { exec_start = sim.now(); });
  sim.Run();
  EXPECT_EQ(exec_start, 200);
}

TEST(SyncEventTest, WaitersResumeInRegistrationOrder) {
  Simulator sim;
  SyncEvent event(&sim);
  Stream first(&sim, "first");
  Stream second(&sim, "second");
  std::vector<int> order;
  second.EnqueueWait(&event);
  second.EnqueueMarker([&] { order.push_back(2); });
  first.EnqueueWait(&event);
  first.EnqueueMarker([&] { order.push_back(1); });
  sim.ScheduleAfter(100, [&] { event.Fire(); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{2, 1}));
  EXPECT_EQ(first.wait_time(), 100);
  EXPECT_EQ(second.wait_time(), 100);
}

TEST(SyncEventTest, WaitAfterFireCompletesInlineWithoutAnEvent) {
  Simulator sim;
  SyncEvent event(&sim);
  event.Fire();
  Stream stream(&sim, "s");
  const std::uint64_t scheduled = sim.event_queue().total_scheduled();
  bool passed = false;
  stream.EnqueueWait(&event);
  stream.EnqueueMarker([&] { passed = true; });
  EXPECT_TRUE(passed);  // before the simulator ran at all
  EXPECT_TRUE(stream.idle());
  EXPECT_EQ(sim.event_queue().total_scheduled(), scheduled);
}

// Causal provenance: a stream's next recorded op hangs off its last
// recorded node and the nodes that fired the events it waited on since.
std::vector<CpNodeId> Preds(const Stream& stream) {
  return {stream.preds().begin(), stream.preds().end()};
}

TEST(StreamProvenanceTest, AWaitAddsTheFiringNode) {
  Simulator sim;
  SyncEvent event(&sim);
  Stream stream(&sim, "s");
  stream.Recorded(5);
  std::vector<CpNodeId> seen;
  stream.EnqueueWait(&event);
  stream.EnqueueMarker([&] { seen = Preds(stream); });
  sim.ScheduleAfter(100, [&] { event.Fire(3); });
  sim.Run();
  EXPECT_EQ(event.node(), 3);
  EXPECT_EQ(seen, (std::vector<CpNodeId>{5, 3}));
  // Recording the next op makes it the one predecessor.
  stream.Recorded(8);
  EXPECT_EQ(Preds(stream), (std::vector<CpNodeId>{8}));
}

TEST(StreamProvenanceTest, RepeatedWaitsOnOneSourceFold) {
  Simulator sim;
  std::vector<SyncEvent> events(5, SyncEvent(&sim));
  Stream stream(&sim, "s");
  stream.Recorded(5);
  // Consecutive waits on events one node fired count it once; a node that
  // comes back after another, or an event fired with no node, changes
  // nothing it should not.
  for (SyncEvent& event : events) {
    stream.EnqueueWait(&event);
  }
  const CpNodeId fired_by[] = {3, 3, 4, -1, 3};
  for (std::size_t i = 0; i < events.size(); ++i) {
    sim.ScheduleAfter(static_cast<Nanos>(10 * (i + 1)),
                      [&events, &fired_by, i] { events[i].Fire(fired_by[i]); });
  }
  sim.Run();
  EXPECT_TRUE(stream.idle());
  EXPECT_EQ(Preds(stream), (std::vector<CpNodeId>{5, 3, 4, 3}));
}

TEST(StreamProvenanceTest, AWaitThatPassesInlineStillCounts) {
  Simulator sim;
  SyncEvent event(&sim);
  event.Fire(7);
  Stream stream(&sim, "s");
  stream.Recorded(5);
  stream.EnqueueWait(&event);
  EXPECT_TRUE(stream.idle());  // passed before the simulator ran
  EXPECT_EQ(Preds(stream), (std::vector<CpNodeId>{5, 7}));
}

TEST(StreamProvenanceTest, ARecordOpFiresWithTheLastNode) {
  Simulator sim;
  SyncEvent event(&sim);
  Stream producer(&sim, "load");
  Stream consumer(&sim, "exec");
  producer.Recorded(9);
  consumer.Recorded(2);
  producer.EnqueueDelay(200);
  producer.EnqueueRecord(&event);
  consumer.EnqueueWait(&event);
  sim.Run();
  EXPECT_EQ(event.node(), 9);
  EXPECT_EQ(Preds(consumer), (std::vector<CpNodeId>{2, 9}));
}

TEST(StreamProvenanceTest, ResetClearsBoth) {
  Simulator sim;
  SyncEvent event(&sim);
  event.Fire(3);
  Stream stream(&sim, "s");
  EXPECT_EQ(Preds(stream), (std::vector<CpNodeId>{-1}));
  stream.Recorded(5);
  stream.EnqueueWait(&event);
  ASSERT_EQ(Preds(stream), (std::vector<CpNodeId>{5, 3}));
  stream.Reset(&sim, "s", 11);
  EXPECT_EQ(Preds(stream), (std::vector<CpNodeId>{11}));
  stream.Reset(&sim, "s");
  EXPECT_EQ(Preds(stream), (std::vector<CpNodeId>{-1}));
  event.Reset(&sim);
  EXPECT_FALSE(event.fired());
  EXPECT_EQ(event.node(), -1);
}

TEST(StreamTest, UnreachedMarkersDieWithTheStream) {
  Simulator sim;
  SyncEvent never(&sim);
  const auto owned = std::make_shared<int>(0);
  {
    Stream stream(&sim, "s");
    stream.EnqueueWait(&never);
    stream.EnqueueMarker([owned] { ++*owned; });
    EXPECT_EQ(owned.use_count(), 2);
  }
  EXPECT_EQ(owned.use_count(), 1);
  EXPECT_EQ(*owned, 0);
}

// Transfer A, then a marker, then transfer B, on a link a second flow
// contends for: through a stream, or hand-chained through the fabric's
// completion callbacks.
struct ChainTimes {
  Nanos marker = -1;
  Nanos done = -1;
  std::uint64_t scheduled = 0;
};

ChainTimes RunTransferChain(bool through_stream) {
  Simulator sim;
  Fabric fabric(&sim);
  const LinkId link = fabric.AddLink("link", 1e9);
  fabric.Start({link}, 3'000'000, Micros(5), [](Nanos) {});
  ChainTimes t;
  // A completion callback packs into 16 bytes, so the hand-chained
  // callbacks reach their state through one pointer.
  struct Chain {
    Simulator* sim;
    Fabric* fabric;
    LinkId link;
    ChainTimes* t;
  } chain{&sim, &fabric, link, &t};
  Stream stream(&sim, "s");
  if (through_stream) {
    stream.EnqueueTransfer(&fabric, {link}, 1'000'000, Micros(5));
    stream.EnqueueMarker([&] { t.marker = sim.now(); });
    stream.EnqueueTransfer(&fabric, {link}, 1'000'000, Micros(5));
    stream.EnqueueMarker([&] { t.done = sim.now(); });
  } else {
    fabric.Start({link}, 1'000'000, Micros(5), [c = &chain](Nanos) {
      c->t->marker = c->sim->now();
      c->fabric->Start({c->link}, 1'000'000, Micros(5),
                       [c](Nanos) { c->t->done = c->sim->now(); });
    });
  }
  sim.Run();
  t.scheduled = sim.event_queue().total_scheduled();
  return t;
}

TEST(StreamTest, TransferThenMarkerRunsInsideTheCompletionCallback) {
  const ChainTimes stream = RunTransferChain(true);
  const ChainTimes chained = RunTransferChain(false);
  EXPECT_GT(stream.marker, 0);
  EXPECT_GT(stream.done, stream.marker);
  // Same completion times and not one extra event: the marker and the next
  // transfer start from within the first transfer's completion callback.
  EXPECT_EQ(stream.marker, chained.marker);
  EXPECT_EQ(stream.done, chained.done);
  EXPECT_EQ(stream.scheduled, chained.scheduled);
}

}  // namespace
}  // namespace deepplan
