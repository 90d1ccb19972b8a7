#include "src/sim/reference_event_queue.h"

#include "src/util/logging.h"

namespace deepplan {

ReferenceEventQueue::EventId ReferenceEventQueue::Schedule(Nanos when, Callback cb) {
  return Add(when, next_seq_++, std::move(cb));
}

std::uint64_t ReferenceEventQueue::ReserveSeq(std::uint64_t n) {
  const std::uint64_t first = next_seq_;
  next_seq_ += n;
  return first;
}

ReferenceEventQueue::EventId ReferenceEventQueue::ScheduleReserved(Nanos when,
                                                                   std::uint64_t seq,
                                                                   Callback cb) {
  DP_CHECK(seq < next_seq_);
  return Add(when, seq, std::move(cb));
}

ReferenceEventQueue::EventId ReferenceEventQueue::Add(Nanos when, std::uint64_t seq,
                                                      Callback cb) {
  const EventId id = callbacks_.size();
  callbacks_.push_back(std::move(cb));
  live_.push_back(true);
  seq_of_.push_back(seq);
  ++live_count_;
  heap_.push(Entry{when, seq, id});
  return id;
}

bool ReferenceEventQueue::Cancel(EventId id) {
  if (id >= live_.size() || !live_[id]) {
    return false;
  }
  live_[id] = false;
  callbacks_[id] = nullptr;
  --live_count_;
  return true;
}

bool ReferenceEventQueue::Reschedule(EventId id, Nanos when) {
  if (id >= live_.size() || !live_[id]) {
    return false;
  }
  // The old entry goes stale; the callback stays under the same id.
  seq_of_[id] = next_seq_++;
  heap_.push(Entry{when, seq_of_[id], id});
  return true;
}

void ReferenceEventQueue::SkipStale() const {
  while (!heap_.empty()) {
    const Entry& top = heap_.top();
    if (live_[top.id] && seq_of_[top.id] == top.seq) {
      return;
    }
    heap_.pop();
  }
}

Nanos ReferenceEventQueue::NextTime() const {
  SkipStale();
  DP_CHECK(!heap_.empty());
  return heap_.top().when;
}

std::pair<Nanos, ReferenceEventQueue::Callback> ReferenceEventQueue::PopNext() {
  SkipStale();
  DP_CHECK(!heap_.empty());
  const Entry top = heap_.top();
  heap_.pop();
  Callback cb = std::move(callbacks_[top.id]);
  callbacks_[top.id] = nullptr;
  live_[top.id] = false;
  --live_count_;
  return {top.when, std::move(cb)};
}

}  // namespace deepplan
