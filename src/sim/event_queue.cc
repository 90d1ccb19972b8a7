#include "src/sim/event_queue.h"

#include <algorithm>
#include <tuple>

#include "src/check/validator.h"
#include "src/util/logging.h"

namespace deepplan {
namespace {

constexpr std::size_t kArity = 4;
// Run capacity (entries) that compaction keeps even when it is mostly spare;
// above it, a run of a quarter of its capacity or less is shrunk to fit.
constexpr std::size_t kRunKeep = 4096;

}  // namespace

EventQueue::~EventQueue() {
  for (const Entry& e : heap_) {
    Discard(PendingOf(e).action);
  }
  for (std::size_t i = head_; i < run_.size(); ++i) {
    if (run_[i].slot != kDead) {
      Discard(PendingOf(run_[i]).action);
    }
  }
}

EventQueue::EventId EventQueue::Schedule(Nanos when, Action action) {
  return Insert(when, seq_++, action);
}

std::uint64_t EventQueue::ReserveSeq(std::uint64_t n) {
  const std::uint64_t first = seq_;
  seq_ += n;
  return first;
}

EventQueue::EventId EventQueue::ScheduleReserved(Nanos when, std::uint64_t seq,
                                                 Action action) {
  DP_CHECK(seq < seq_);
  return Insert(when, seq, action);
}

EventQueue::EventId EventQueue::Insert(Nanos when, std::uint64_t seq, Action action) {
  const SlotPool<Pending>::Handle h = slots_.Alloc();
  slots_.Get(h).action = action;
  Place({when, seq, h.index, h.generation});
  return h.Pack();
}

void EventQueue::Place(const Entry& e) {
  if (EntryLess(run_back_, e)) {
    DP_CHECK(run_.size() < kInRun);
    PendingOf(e).pos = kInRun | static_cast<std::uint32_t>(run_.size());
    run_.push_back(e);
    run_back_ = e;
    ++run_live_;
  } else {
    heap_.push_back(e);
    SiftUp(heap_.size() - 1, e);
  }
}

void EventQueue::RunBoxed(void* ctx, std::uint64_t /*arg*/) {
  auto* box = static_cast<BoxedCall*>(ctx);
  box->call(box, /*run=*/true);
}

void EventQueue::Discard(const Action& action) {
  if (action.fn == &EventQueue::RunBoxed) {
    auto* box = static_cast<BoxedCall*>(action.ctx);
    box->call(box, /*run=*/false);
  }
}

bool EventQueue::Cancel(EventId id) {
  const SlotPool<Pending>::Handle h = SlotPool<Pending>::Handle::Unpack(id);
  if (!slots_.Alive(h)) {
    return false;
  }
  // A boxed callable is destroyed now (it may hold owning references).
  Discard(slots_.Get(h).action);
  Unlink(slots_.Get(h).pos);
  slots_.Free(h);
  return true;
}

bool EventQueue::Reschedule(EventId id, Nanos when) {
  const SlotPool<Pending>::Handle h = SlotPool<Pending>::Handle::Unpack(id);
  if (!slots_.Alive(h)) {
    return false;
  }
  const Entry e{when, seq_++, h.index, h.generation};
  const std::uint32_t pos = slots_.Get(h).pos;
  if ((pos & kInRun) != 0) {
    Unlink(pos);
    Place(e);
  } else {
    HeapRekey(pos, e);
  }
  return true;
}

void EventQueue::Unlink(std::uint32_t pos) {
  if ((pos & kInRun) != 0) {
    run_[pos & ~kInRun].slot = kDead;
    --run_live_;
    SettleRun();
  } else {
    HeapRemove(pos);
  }
}

void EventQueue::HeapSet(std::size_t i, const Entry& e) {
  heap_[i] = e;
  PendingOf(e).pos = static_cast<std::uint32_t>(i);
}

void EventQueue::SiftUp(std::size_t i, const Entry e) {
  while (i > 0) {
    const std::size_t parent = (i - 1) / kArity;
    if (!EntryLess(e, heap_[parent])) {
      break;
    }
    HeapSet(i, heap_[parent]);
    i = parent;
  }
  HeapSet(i, e);
}

void EventQueue::SiftDown(std::size_t i, const Entry e) {
  const std::size_t n = heap_.size();
  for (std::size_t child = kArity * i + 1; child < n; child = kArity * i + 1) {
    std::size_t best = child;
    for (std::size_t c = child + 1; c < std::min(child + kArity, n); ++c) {
      if (EntryLess(heap_[c], heap_[best])) {
        best = c;
      }
    }
    if (!EntryLess(heap_[best], e)) {
      break;
    }
    HeapSet(i, heap_[best]);
    i = best;
  }
  HeapSet(i, e);
}

void EventQueue::HeapRekey(std::size_t i, const Entry e) {
  if (EntryLess(e, heap_[i])) {
    SiftUp(i, e);
  } else {
    SiftDown(i, e);
  }
}

void EventQueue::HeapRemove(std::size_t i) {
  const Entry last = heap_.back();
  heap_.pop_back();
  if (i < heap_.size()) {
    HeapRekey(i, last);
  }
}

void EventQueue::SettleRun() {
  if (2 * run_live_ >= run_.size()) {
    // Live entries are at least half the run, so one lies at or after head_.
    while (run_[head_].slot == kDead) {
      ++head_;
    }
    return;
  }
  std::size_t out = 0;
  for (std::size_t i = head_; i < run_.size(); ++i) {
    if (run_[i].slot != kDead) {
      PendingOf(run_[i]).pos = kInRun | static_cast<std::uint32_t>(out);
      run_[out++] = run_[i];
    }
  }
  run_.resize(out);
  head_ = 0;
  if (run_.capacity() > kRunKeep && run_.capacity() > 4 * out) {
    run_.shrink_to_fit();
  }
}

Nanos EventQueue::NextTime() const {
  DP_CHECK(!empty());
  return FrontInRun() ? run_[head_].when : heap_[0].when;
}

std::pair<Nanos, EventQueue::Action> EventQueue::PopFront(bool in_run) {
  const Entry e = in_run ? run_[head_] : heap_[0];
  if (in_run) {
    ++head_;
    --run_live_;
    SettleRun();
  } else {
    HeapRemove(0);
  }
  check::SimValidator::OnQueuePop(last_popped_, e.when);
  last_popped_ = e.when;
  const SlotPool<Pending>::Handle h{e.slot, e.gen};
  const Action action = slots_.Get(h).action;
  slots_.Free(h);
  return {e.when, action};
}

std::pair<Nanos, EventQueue::Action> EventQueue::PopNext() {
  DP_CHECK(!empty());
  return PopFront(FrontInRun());
}

bool EventQueue::PopUntil(Nanos deadline, Nanos* when, Action* action) {
  if (empty()) {
    return false;
  }
  const bool in_run = FrontInRun();
  if ((in_run ? run_[head_] : heap_[0]).when > deadline) {
    return false;
  }
  std::tie(*when, *action) = PopFront(in_run);
  return true;
}

}  // namespace deepplan
