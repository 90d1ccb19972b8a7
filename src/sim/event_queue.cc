#include "src/sim/event_queue.h"

#include <algorithm>
#include <bit>
#include <tuple>

#include "src/check/validator.h"
#include "src/util/logging.h"

namespace deepplan {
namespace {

constexpr std::size_t kMinBuckets = 8;
constexpr std::size_t kMaxBuckets = std::size_t{1} << 20;
// Buckets probed one-by-one before falling back to a direct min-epoch scan
// (sparse queues with large gaps between events).
constexpr std::size_t kLapLimit = 64;

}  // namespace

EventQueue::EventQueue() : buckets_(kMinBuckets), mask_(kMinBuckets - 1) {}

EventQueue::~EventQueue() {
  // Every pending event has exactly one live entry; tombstones are dead.
  const auto discard = [this](const Entry& e) {
    const SlotPool<Action>::Handle h{e.slot, e.gen};
    if (slots_.Alive(h)) {
      Discard(slots_.Get(h));
      slots_.Free(h);
    }
  };
  for (const std::vector<Entry>& bucket : buckets_) {
    for (const Entry& e : bucket) {
      discard(e);
    }
  }
  for (std::size_t i = head_; i < cur_.size(); ++i) {
    discard(cur_[i]);
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
  const SlotPool<Action>::Handle h = slots_.Alloc();
  slots_.Get(h) = action;
  const Entry entry{when, seq, h.index, h.generation};

  if (total_entries_ == 0) {
    // Physically empty: re-anchor the calendar at this event instead of
    // walking the ring from wherever the last event left the horizon.
    cur_.clear();
    head_ = 0;
    serve_epoch_ = EpochOf(when);
    extracted_ = false;
  }
  const std::int64_t epoch = EpochOf(when);
  if (epoch < serve_epoch_) {
    Rewind(epoch);
  }
  ++total_entries_;
  if (epoch == serve_epoch_ && extracted_) {
    // The serve bucket was already swept into cur_: insert the entry in
    // (when, seq) order among the unpopped ones. An epoch holds ~2 entries
    // (see Rebuild), so this moves a few and never allocates once cur_ has
    // grown.
    cur_.insert(std::upper_bound(cur_.begin() + static_cast<std::ptrdiff_t>(head_), cur_.end(),
                                 entry, EntryLess),
                entry);
  } else {
    buckets_[static_cast<std::size_t>(epoch) & mask_].push_back(entry);
  }
  MaybeResize();
  return h.Pack();
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
  const SlotPool<Action>::Handle h = SlotPool<Action>::Handle::Unpack(id);
  if (!slots_.Alive(h)) {
    return false;
  }
  // The ring entry stays behind as a stale tombstone pruned lazily; a boxed
  // callable is destroyed now (it may hold owning references).
  Discard(slots_.Get(h));
  slots_.Free(h);
  return true;
}

void EventQueue::ExtractServeBucket() {
  std::vector<Entry>& bucket = ServeBucket();
  std::size_t keep = 0;
  for (const Entry& e : bucket) {
    if (!slots_.Alive({e.slot, e.gen})) {
      --total_entries_;  // prune cancelled entries of any epoch in passing
      continue;
    }
    if (EpochOf(e.when) == serve_epoch_) {
      cur_.push_back(e);
    } else {
      bucket[keep++] = e;  // a later lap of the ring; leave in place
    }
  }
  bucket.resize(keep);
  std::sort(cur_.begin(), cur_.end(), EntryLess);
  extracted_ = true;
}

void EventQueue::AdvanceEpoch() {
  const std::size_t limit = std::min(buckets_.size(), kLapLimit);
  std::int64_t epoch = serve_epoch_;
  for (std::size_t probed = 0; probed < limit; ++probed) {
    ++epoch;
    const std::vector<Entry>& bucket = buckets_[static_cast<std::size_t>(epoch) & mask_];
    if (bucket.empty()) {
      continue;
    }
    for (const Entry& e : bucket) {
      if (EpochOf(e.when) == epoch) {
        serve_epoch_ = epoch;
        extracted_ = false;
        return;
      }
    }
  }
  // Sparse tail: jump straight to the earliest occupied epoch.
  std::int64_t best = std::numeric_limits<std::int64_t>::max();
  for (const std::vector<Entry>& bucket : buckets_) {
    for (const Entry& e : bucket) {
      best = std::min(best, EpochOf(e.when));
    }
  }
  DP_CHECK(best != std::numeric_limits<std::int64_t>::max());
  serve_epoch_ = best;
  extracted_ = false;
}

bool EventQueue::EnsureFront() {
  for (;;) {
    if (!extracted_) {
      ExtractServeBucket();
    }
    while (head_ < cur_.size()) {
      const Entry& e = cur_[head_];
      if (slots_.Alive({e.slot, e.gen})) {
        return true;
      }
      ++head_;  // cancelled after extraction
      --total_entries_;
    }
    cur_.clear();
    head_ = 0;
    if (slots_.live_count() == 0) {
      return false;
    }
    AdvanceEpoch();
  }
}

void EventQueue::Rewind(std::int64_t epoch) {
  // A schedule landed before the serve horizon: dump the in-flight serve
  // epoch back into its bucket (extraction re-sorts it later) and restart
  // serving from the earlier epoch.
  std::vector<Entry>& bucket = ServeBucket();
  for (std::size_t i = head_; i < cur_.size(); ++i) {
    bucket.push_back(cur_[i]);
  }
  cur_.clear();
  head_ = 0;
  serve_epoch_ = epoch;
  extracted_ = false;
}

void EventQueue::MaybeResize() {
  const std::size_t n = buckets_.size();
  if ((total_entries_ > 2 * n && n < kMaxBuckets) ||
      (total_entries_ * 8 < n && n > kMinBuckets)) {
    Rebuild();
  }
}

void EventQueue::Rebuild() {
  // Collected into a member buffer so that steady-state rebuilds reuse it;
  // it is released below whenever the ring shrinks.
  std::vector<Entry>& all = rebuild_scratch_;
  all.clear();
  all.reserve(total_entries_);
  for (std::vector<Entry>& bucket : buckets_) {
    for (const Entry& e : bucket) {
      if (slots_.Alive({e.slot, e.gen})) {
        all.push_back(e);
      }
    }
    bucket.clear();
  }
  for (std::size_t i = head_; i < cur_.size(); ++i) {
    if (slots_.Alive({cur_[i].slot, cur_[i].gen})) {
      all.push_back(cur_[i]);
    }
  }
  cur_.clear();
  head_ = 0;
  total_entries_ = all.size();

  std::size_t n = kMinBuckets;
  while (n < all.size() && n < kMaxBuckets) {
    n <<= 1;
  }
  // Surviving buckets keep their (now empty) storage, so a ring that grows
  // and shrinks by one step around a small population stops allocating; a
  // shrink frees the buckets it drops.
  const bool shrinks = n < buckets_.size();
  buckets_.resize(n);
  mask_ = n - 1;

  // Width targets ~2 entries per epoch across the occupied span, so a lap of
  // the ring covers the whole population; it is rounded up to a power of two
  // so that EpochOf is a shift.
  if (all.size() >= 2) {
    Nanos lo = all.front().when;
    Nanos hi = lo;
    for (const Entry& e : all) {
      lo = std::min(lo, e.when);
      hi = std::max(hi, e.when);
    }
    const Nanos span = hi - lo;
    const auto width = static_cast<std::uint64_t>(
        std::max<Nanos>(1, 2 * (span / static_cast<Nanos>(all.size()))));
    width_shift_ = std::countr_zero(std::bit_ceil(width));
  }

  std::int64_t min_epoch = std::numeric_limits<std::int64_t>::max();
  for (const Entry& e : all) {
    const std::int64_t epoch = EpochOf(e.when);
    min_epoch = std::min(min_epoch, epoch);
    buckets_[static_cast<std::size_t>(epoch) & mask_].push_back(e);
  }
  serve_epoch_ = all.empty() ? 0 : min_epoch;
  extracted_ = false;
  if (shrinks) {
    std::vector<Entry>().swap(all);
  }
}

Nanos EventQueue::NextTime() const {
  EventQueue* self = const_cast<EventQueue*>(this);
  const bool has = self->EnsureFront();
  DP_CHECK(has);
  return cur_[head_].when;
}

std::pair<Nanos, EventQueue::Action> EventQueue::PopFront() {
  const Entry e = cur_[head_];
  check::SimValidator::OnQueuePop(last_popped_, e.when);
  last_popped_ = e.when;
  ++head_;
  --total_entries_;
  const SlotPool<Action>::Handle h{e.slot, e.gen};
  const Action action = slots_.Get(h);
  slots_.Free(h);
  return {e.when, action};
}

std::pair<Nanos, EventQueue::Action> EventQueue::PopNext() {
  const bool has = EnsureFront();
  DP_CHECK(has);
  return PopFront();
}

bool EventQueue::PopUntil(Nanos deadline, Nanos* when, Action* action) {
  if (!EnsureFront() || cur_[head_].when > deadline) {
    return false;
  }
  std::tie(*when, *action) = PopFront();
  return true;
}

}  // namespace deepplan
