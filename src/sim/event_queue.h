// Calendar queue of timestamped actions with a deterministic tiebreak
// (insertion sequence), so equal-time events fire in schedule order — the
// same pop order, bit for bit, as the original binary-heap backend (kept as
// ReferenceEventQueue and enforced by tests/eventqueue_diff_test.cc).
//
// Design (DESIGN.md §12): time is divided into fixed-width epochs hashed
// into a power-of-two ring of buckets. Pops serve one epoch at a time from a
// sorted working vector; schedules append to a bucket (O(1)). Width and
// bucket count adapt to the live population, so both schedule and pop are
// amortized O(1) instead of the heap's O(log n).
//
// Every event is one trivially-copyable Action — a function pointer plus a
// context pointer and a 64-bit argument — held in a generation-checked
// SlotPool: slots are recycled when events fire or are cancelled, bounding
// memory by the *maximum outstanding* events rather than the total ever
// scheduled. The simulator's hot paths (stream delays, fabric completions,
// warm finishes) schedule Actions directly. Any other callable goes through
// Box, which turns it into an Action that runs it once; Schedule(when, fn)
// is that adapter.
#ifndef SRC_SIM_EVENT_QUEUE_H_
#define SRC_SIM_EVENT_QUEUE_H_

#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/util/arena.h"
#include "src/util/time.h"

namespace deepplan {

class EventQueue {
 public:
  // One event: calls fn(ctx, arg). Trivially copyable, so scheduling,
  // popping and cancelling move 24 bytes and never allocate.
  struct Action {
    void (*fn)(void* ctx, std::uint64_t arg) = nullptr;
    void* ctx = nullptr;
    std::uint64_t arg = 0;

    void operator()() const { fn(ctx, arg); }
  };
  using EventId = std::uint64_t;

  EventQueue();
  // Destroys the boxed callables of events that never fired.
  ~EventQueue();
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  // Schedules `action` at absolute time `when`. Returns an id usable with
  // Cancel.
  EventId Schedule(Nanos when, Action action);
  // Schedules any other callable: Schedule(when, Box(fn)).
  template <typename F>
    requires(!std::is_same_v<std::remove_cvref_t<F>, Action>)
  EventId Schedule(Nanos when, F&& fn) {
    return Schedule(when, Box(std::forward<F>(fn)));
  }

  // Reserves `n` consecutive sequence numbers and returns the first. An
  // event scheduled later with one of them (ScheduleReserved) fires exactly
  // where it would have had it been scheduled at the reservation: before
  // every event of the same time scheduled since. That lets a producer of
  // many future events feed them one at a time, keeping the queue small,
  // without changing the pop order. The caller must schedule a reserved
  // event before any event that would pop after it has popped.
  std::uint64_t ReserveSeq(std::uint64_t n);
  EventId ScheduleReserved(Nanos when, std::uint64_t seq, Action action);

  // Turns `fn` into an Action that runs it once. A trivially-copyable
  // callable of up to 16 bytes (a lambda capturing a pointer and an int,
  // say) is packed into ctx/arg and needs no storage at all; anything else
  // moves into one heap block that the Action owns until it runs. An Action
  // that will not run must be handed to Discard: the queue does that for
  // cancelled and never-fired events, a Stream for unstarted markers.
  template <typename F>
  static Action Box(F&& fn);
  // Destroys the callable of a boxed Action without running it; no-op for
  // any other Action.
  static void Discard(const Action& action);

  // Cancels a pending event. Cancelling an already-fired or unknown id is a
  // no-op and returns false. A cancelled id is never resurrected: the slot it
  // named is recycled under a new generation, so stale ids stay dead.
  bool Cancel(EventId id);

  bool empty() const { return slots_.live_count() == 0; }
  std::size_t size() const { return slots_.live_count(); }

  // Earliest pending event time; must not be called when empty.
  Nanos NextTime() const;

  // Pops and returns the earliest event (time + action). Must not be empty.
  std::pair<Nanos, Action> PopNext();

  // Pops the earliest event into *when / *action if one is pending at or
  // before `deadline`; false otherwise. One front lookup per event, which is
  // what the simulator's dispatch loop runs on.
  bool PopUntil(Nanos deadline, Nanos* when, Action* action);

  // --- introspection (tests + bench_scaling) ---
  // Total events ever scheduled on this queue (reserved sequence numbers
  // included).
  std::uint64_t total_scheduled() const { return seq_; }
  // Event slots ever created; bounded by max simultaneously-pending
  // events, not total_scheduled() — the arena-reuse invariant scaling_test
  // asserts on.
  std::size_t slot_capacity() const { return slots_.capacity(); }
  std::size_t bucket_count() const { return buckets_.size(); }

 private:
  struct Entry {
    Nanos when;
    std::uint64_t seq;   // global schedule order; FIFO tiebreak at equal when
    std::uint32_t slot;  // SlotPool handle (action location)
    std::uint32_t gen;   // SlotPool generation; mismatch = cancelled/stale
  };

  // Heap block of a boxed callable; `call` runs it (run = true) or not, and
  // deletes the block either way.
  struct BoxedCall {
    void (*call)(BoxedCall* box, bool run);
  };
  // Action::fn of heap-boxed callables; ctx is the BoxedCall.
  static void RunBoxed(void* ctx, std::uint64_t arg);
  // Pops the entry EnsureFront positioned at cur_[head_].
  std::pair<Nanos, Action> PopFront();
  EventId Insert(Nanos when, std::uint64_t seq, Action action);

  static bool EntryLess(const Entry& a, const Entry& b) {
    return a.when != b.when ? a.when < b.when : a.seq < b.seq;
  }

  std::int64_t EpochOf(Nanos when) const;
  std::vector<Entry>& ServeBucket() {
    return buckets_[static_cast<std::size_t>(serve_epoch_) & mask_];
  }

  // Positions the next live entry at cur_[head_]; false when nothing is live.
  bool EnsureFront();
  void ExtractServeBucket();
  void AdvanceEpoch();
  void Rewind(std::int64_t epoch);
  void MaybeResize();
  void Rebuild();

  SlotPool<Action> slots_;
  std::vector<std::vector<Entry>> buckets_;
  std::size_t mask_ = 0;  // buckets_.size() - 1 (power of two)
  Nanos width_ = 1;       // nanoseconds per epoch

  // Serving state: cur_ holds the serve epoch's entries sorted by
  // (when, seq); head_ is the next unpopped index. Entries scheduled into the
  // serve epoch after extraction are inserted in order.
  std::vector<Entry> cur_;
  std::size_t head_ = 0;
  std::vector<Entry> rebuild_scratch_;
  std::int64_t serve_epoch_ = 0;
  bool extracted_ = false;

  std::uint64_t seq_ = 0;
  // Entries physically resident in buckets_/cur_, including
  // cancelled ones not yet pruned.
  std::size_t total_entries_ = 0;
  // Latest popped timestamp; the validator asserts pops are monotone.
  Nanos last_popped_ = std::numeric_limits<Nanos>::min();
};

static_assert(std::is_trivially_copyable_v<EventQueue::Action>);

template <typename F>
EventQueue::Action EventQueue::Box(F&& fn) {
  using Fn = std::decay_t<F>;
  static_assert(std::is_invocable_v<Fn&>, "Box needs a callable taking no arguments");
  if constexpr (std::is_trivially_copyable_v<Fn> && sizeof(Fn) <= 16 && alignof(Fn) <= 8) {
    // The callable's bytes ride in ctx and arg.
    alignas(8) unsigned char bytes[16] = {};
    ::new (bytes) Fn(std::forward<F>(fn));
    Action action;
    action.fn = [](void* ctx, std::uint64_t arg) {
      alignas(8) unsigned char packed[16];
      std::memcpy(packed, &ctx, 8);
      std::memcpy(packed + 8, &arg, 8);
      (*std::launder(reinterpret_cast<Fn*>(packed)))();
    };
    std::memcpy(&action.ctx, bytes, 8);
    std::memcpy(&action.arg, bytes + 8, 8);
    return action;
  } else {
    struct Boxed : BoxedCall {
      Fn fn;
    };
    auto* box = new Boxed{{[](BoxedCall* b, bool run) {
                            const std::unique_ptr<Boxed> owned(static_cast<Boxed*>(b));
                            if (run) {
                              owned->fn();
                            }
                          }},
                          Fn(std::forward<F>(fn))};
    return {&EventQueue::RunBoxed, static_cast<BoxedCall*>(box), 0};
  }
}

// An Action that calls obj->Method(arg), or obj->Method() for a method that
// takes no argument.
template <auto Method, typename T>
EventQueue::Action MakeAction(T* obj, std::uint64_t arg = 0) {
  return {[](void* ctx, std::uint64_t a) {
            if constexpr (std::is_invocable_v<decltype(Method), T*, std::uint64_t>) {
              (static_cast<T*>(ctx)->*Method)(a);
            } else {
              (static_cast<T*>(ctx)->*Method)();
            }
          },
          obj, arg};
}

}  // namespace deepplan

#endif  // SRC_SIM_EVENT_QUEUE_H_
