#include "src/sim/stream.h"

#include "src/check/validator.h"
#include "src/obs/selfprof.h"
#include "src/util/logging.h"

namespace deepplan {

void SyncEvent::Fire() {
  check::SimValidator::OnSyncEventFire("SyncEvent::Fire", fired_, sim_->now());
  DP_CHECK(!fired_);
  fired_ = true;
  fire_time_ = sim_->now();
  // No stream can start waiting once fired_ is set, so the list is stable
  // while the waiters resume.
  for (Stream* waiter : waiters_) {
    waiter->EndWait();
  }
  waiters_.clear();
}

Stream::Stream(Simulator* sim, std::string name) : sim_(sim), name_(std::move(name)) {
  DP_CHECK(sim != nullptr);
}

Stream::~Stream() {
  for (std::size_t i = next_; i < ops_.size(); ++i) {
    if (ops_[i].kind == OpKind::kMarker) {
      EventQueue::Discard(ops_[i].marker);
    }
  }
}

void Stream::Reset(Simulator* sim, std::string name) {
  DP_CHECK(sim != nullptr);
  DP_CHECK(idle());
  sim_ = sim;
  name_ = std::move(name);
  wait_time_ = 0;
  last_start_ = -1;
}

void Stream::EnqueueDelay(Nanos duration) {
  DP_CHECK(duration >= 0);
  Push({.kind = OpKind::kDelay, .duration = duration});
}

void Stream::EnqueueWait(SyncEvent* event) {
  Push({.kind = OpKind::kWait, .event = event});
}

void Stream::EnqueueRecord(SyncEvent* event) {
  Push({.kind = OpKind::kRecord, .event = event});
}

void Stream::EnqueueTransfer(Fabric* fabric, LinkPath path, std::int64_t bytes,
                             Nanos latency) {
  Push({.kind = OpKind::kTransfer,
        .duration = latency,
        .fabric = fabric,
        .path = path,
        .bytes = bytes});
}

void Stream::EnqueueMarker(EventQueue::Action marker) {
  Push({.kind = OpKind::kMarker, .marker = marker});
}

void Stream::Push(const Op& op) {
  if (next_ == ops_.size()) {
    // Every enqueued op has started.
    ops_.clear();
    next_ = 0;
  }
  ops_.push_back(op);
  Pump();
}

void Stream::Finish() {
  running_ = false;
  Pump();
}

void Stream::EndWait() {
  wait_time_ += sim_->now() - wait_start_;
  Finish();
}

void Stream::Pump() {
  if (running_ || next_ == ops_.size()) {
    return;
  }
  // After the early-outs so only real op starts are attributed; a Record or
  // Marker that releases another stream pumps it inside this scope, which
  // collapses into a count bump (no nested timing).
  DP_SELFPROF_SCOPE(kExecStream);
  while (!running_ && next_ < ops_.size()) {
    check::SimValidator::OnStreamOpStart(name_, last_start_, sim_->now());
    last_start_ = sim_->now();
    // `op` dangles once a callback below enqueues onto this stream, so each
    // case takes what it needs first. An inline op clears running_ only
    // after its side effects, so an op enqueued meanwhile starts after them.
    Op& op = ops_[next_++];
    running_ = true;
    switch (op.kind) {
      case OpKind::kDelay:
        sim_->ScheduleAfter(op.duration, MakeAction<&Stream::Finish>(this));
        break;
      case OpKind::kTransfer:
        op.fabric->Start(op.path, op.bytes, op.duration, [this](Nanos) { Finish(); });
        break;
      case OpKind::kWait:
        if (op.event->fired()) {
          running_ = false;
        } else {
          wait_start_ = sim_->now();
          op.event->waiters_.push_back(this);
        }
        break;
      case OpKind::kRecord: {
        SyncEvent* event = op.event;
        event->Fire();
        running_ = false;
        break;
      }
      case OpKind::kMarker: {
        const EventQueue::Action marker = op.marker;
        marker();
        running_ = false;
        break;
      }
    }
  }
}

}  // namespace deepplan
