// Shared-bandwidth transfer fabric. Links have fixed capacities; a transfer
// claims a path (an ordered set of links) and receives a max-min fair share
// of every link it crosses (progressive filling). This reproduces the paper's
// PCIe contention effects: two GPUs pulling through one PCIe switch uplink
// each see roughly half bandwidth (Table 2), while NVLink traffic rides its
// own links and overlaps freely with host->GPU PCIe traffic (Figure 9).
#ifndef SRC_SIM_FABRIC_H_
#define SRC_SIM_FABRIC_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <new>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/check/validator.h"
#include "src/obs/metrics_registry.h"
#include "src/sim/simulator.h"
#include "src/util/arena.h"
#include "src/util/logging.h"
#include "src/util/time.h"

namespace deepplan {

using LinkId = int;
using TransferId = std::uint64_t;

// A transfer's route: at most kMax links, stored inline so paths are copied
// by value and no transfer allocates one. Server routes have one (NVLink) or
// two (switch uplink + GPU lane) links. Converts implicitly from a brace
// list and from a vector; more than kMax links DP_CHECK-fails.
class LinkPath {
 public:
  static constexpr std::size_t kMax = 4;

  LinkPath() = default;
  LinkPath(std::initializer_list<LinkId> links) {
    for (const LinkId l : links) {
      push_back(l);
    }
  }
  LinkPath(const std::vector<LinkId>& links) {
    for (const LinkId l : links) {
      push_back(l);
    }
  }

  void push_back(LinkId link) {
    DP_CHECK(size_ < kMax && "LinkPath holds at most LinkPath::kMax links");
    links_[size_++] = link;
  }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  LinkId operator[](std::size_t i) const { return links_[i]; }
  const LinkId* begin() const { return links_.data(); }
  const LinkId* end() const { return links_.data() + size_; }

 private:
  std::array<LinkId, kMax> links_{};
  std::uint32_t size_ = 0;
};

// What a finished transfer calls: fn(ctx, arg, elapsed), with the
// transfer's elapsed time. Trivially copyable like EventQueue::Action, so a
// transfer and its latency tail carry it by value and never allocate. A
// default-constructed callback does nothing.
struct TransferDone {
  void (*fn)(void* ctx, std::uint64_t arg, Nanos elapsed) = nullptr;
  void* ctx = nullptr;
  std::uint64_t arg = 0;

  void operator()(Nanos elapsed) const { fn(ctx, arg, elapsed); }

  // Packs a trivially-copyable callable of up to 16 bytes (a lambda
  // capturing a pointer or two) into ctx/arg; larger state goes behind one
  // captured pointer.
  template <typename F>
  static TransferDone Pack(F fn);
};

static_assert(std::is_trivially_copyable_v<TransferDone>);

// A TransferDone that calls obj->Method(arg, elapsed), obj->Method(elapsed)
// or obj->Method(), whichever the method takes.
template <auto Method, typename T>
TransferDone MakeTransferDone(T* obj, std::uint64_t arg = 0) {
  return {[](void* ctx, std::uint64_t a, Nanos elapsed) {
            T* self = static_cast<T*>(ctx);
            if constexpr (std::is_invocable_v<decltype(Method), T*, std::uint64_t, Nanos>) {
              (self->*Method)(a, elapsed);
            } else if constexpr (std::is_invocable_v<decltype(Method), T*, Nanos>) {
              (self->*Method)(elapsed);
            } else {
              (self->*Method)();
            }
          },
          obj, arg};
}

template <typename F>
TransferDone TransferDone::Pack(F fn) {
  static_assert(std::is_invocable_v<F&, Nanos>, "a transfer callback takes the elapsed time");
  static_assert(std::is_trivially_copyable_v<F> && sizeof(F) <= 16 && alignof(F) <= 8,
                "a transfer callback packs into 16 trivially-copyable bytes");
  alignas(8) unsigned char bytes[16] = {};
  ::new (bytes) F(std::move(fn));
  TransferDone done;
  done.fn = [](void* ctx, std::uint64_t arg, Nanos elapsed) {
    alignas(8) unsigned char packed[16];
    std::memcpy(packed, &ctx, 8);
    std::memcpy(packed + 8, &arg, 8);
    (*std::launder(reinterpret_cast<F*>(packed)))(elapsed);
  };
  std::memcpy(&done.ctx, bytes, 8);
  std::memcpy(&done.arg, bytes + 8, 8);
  return done;
}

class Fabric {
 public:
  explicit Fabric(Simulator* sim);

  // Adds a link with the given capacity (bytes/second). Returns its id.
  LinkId AddLink(std::string name, double capacity_bytes_per_sec);

  int num_links() const { return static_cast<int>(links_.size()); }
  const std::string& link_name(LinkId id) const;
  double link_capacity(LinkId id) const;

  // Starts a transfer of `bytes` across `path`. `latency` is added once, after
  // the last byte drains (DMA setup + completion signalling). `done` fires at
  // completion with the transfer's elapsed time. Zero-byte transfers complete
  // after just the latency. Returns an id (informational).
  TransferId Start(LinkPath path, std::int64_t bytes, Nanos latency, TransferDone done = {});
  // The same for a small callable (TransferDone::Pack).
  template <typename F>
    requires(!std::is_same_v<std::remove_cvref_t<F>, TransferDone>)
  TransferId Start(LinkPath path, std::int64_t bytes, Nanos latency, F&& done) {
    return Start(path, bytes, latency, TransferDone::Pack(std::forward<F>(done)));
  }

  // Number of in-flight transfers (draining bytes; excludes latency tails).
  int active_transfers() const { return static_cast<int>(active_.size()); }
  // Number of in-flight transfers whose route crosses `id` (a route that
  // lists a link twice counts twice); 0 means the link is idle.
  int transfers_on(LinkId id) const;

  // Current fair-share rate of a link's busiest direction: total allocated
  // bandwidth on the link (bytes/sec). For tests and bandwidth accounting.
  double AllocatedOn(LinkId id) const;

  // Duration the transfer would take with its path to itself: bytes at the
  // path's minimum link capacity (same ceil-to-ns rounding the completion
  // scheduler applies) plus the latency tail. The profiling layer charges
  // actual - solo to contention; fair sharing can only slow a transfer, so
  // actual >= solo always.
  Nanos SoloDuration(const LinkPath& path, std::int64_t bytes, Nanos latency) const;

  // Attaches a registry (nullptr detaches) that counts every started
  // transfer and its bytes ("fabric.transfers", "fabric.bytes"). The unused
  // first and third parameters keep the call shape the benchmark compiles
  // against, until its change in ROADMAP item 7, step 2.
  void set_telemetry(std::nullptr_t, MetricsRegistry* registry, int = 0);

  // Test hook: disables the incremental (component-local) fair-share solve
  // and re-solves every active transfer on each change, as the original
  // implementation did. tests/fabric_diff_test.cc runs one fabric in each
  // mode over identical schedules and asserts bitwise-equal behavior.
  void set_full_resolve_for_testing(bool full) { force_full_resolve_ = full; }

 private:
  struct Link {
    std::string name;
    double capacity;
  };

  struct Transfer {
    TransferId id;
    LinkPath path;
    double total_bytes = 0.0;
    double remaining_bytes;
    double rate = 0.0;       // current allocation, bytes/sec
    Nanos last_update = 0;   // sim time when remaining_bytes was settled
    Nanos started = 0;
    Nanos latency = 0;
    TransferDone done;
    EventQueue::EventId completion_event = 0;
    bool has_completion_event = false;
  };

  // Settles progress to now(), recomputes the max-min allocation of the
  // transfers whose flow set changed (`seeds`: indices into active_), and
  // re-keys every transfer's completion event. Settling and re-keying stay
  // global on purpose: completion times are re-quantized (ceil to whole ns)
  // from freshly settled remaining_bytes, and skipping that for "unchanged"
  // transfers would shift completions by a nanosecond relative to the
  // original implementation.
  void Reallocate(const std::vector<std::size_t>& seeds, bool seeds_closed);
  void SettleProgress();
  // Recomputes rates for the link-connected component(s) of `seeds` only;
  // other transfers keep their (bitwise-unchanged) rates. When
  // `seeds_closed` the caller guarantees `seeds` is already closed under
  // link-sharing (a union of components) and the expansion is skipped. A
  // single seed that shares no link with any other transfer (a starting
  // transfer on idle links, or the one transfer left in a departing
  // transfer's component) takes its route's smallest capacity in closed
  // form, which is bitwise what progressive filling computes for a
  // one-transfer component. When validation is on, shadows the full
  // re-solve and cross-checks every rate bit-for-bit.
  void ComputeRates(const std::vector<std::size_t>& seeds, bool seeds_closed);
  // True when every link of `path`, an in-flight transfer's route, counts
  // that transfer alone. A route listing one link twice is never alone.
  bool Alone(const LinkPath& path) const;
  // The smallest capacity along `path`: an uncontended transfer's rate.
  double MinCapacity(const LinkPath& path) const;
  // Progressive filling restricted to `subset` (ascending indices into
  // active_, closed under link-sharing); writes rates[i] for i in subset.
  void SolveSubset(const std::vector<std::size_t>& subset,
                   std::vector<double>& rates);
  // Expands `seeds` to their link-connected component(s), ascending.
  void CollectComponent(const std::vector<std::size_t>& seeds,
                        std::vector<std::size_t>& out);
  // Schedules each in-flight transfer's completion at its current rate. A
  // pending completion is re-keyed in place (Simulator::Reschedule): one
  // scheduled event and the pop order of a cancel and a fresh schedule,
  // without freeing and taking a slot.
  void ScheduleCompletions();
  // Completion event of transfer `id` (an Action arg): drained its bytes.
  void OnDrained(std::uint64_t id);
  void Complete(std::size_t index);
  // Schedules `done(elapsed since started)` after `latency`.
  void ScheduleTail(Nanos latency, Nanos started, TransferDone done);
  // Latency-tail event (an Action arg: the tails_ handle).
  void OnTail(std::uint64_t handle);

  Simulator* sim_;
  std::vector<Link> links_;
  std::vector<Transfer> active_;
  // Transfers in their latency tail: drained, `done` not yet called.
  struct Tail {
    Nanos started = 0;
    TransferDone done;
  };
  SlotPool<Tail> tails_;
  // Per link: in-flight transfers whose route crosses it, counted once per
  // occurrence in the route; kept as transfers start and drain.
  std::vector<int> link_users_;
  TransferId next_id_ = 1;
  bool force_full_resolve_ = false;

  // Scratch buffers reused across solves (the fabric reallocates on every
  // transfer start/completion; per-call vector churn was a measurable slice
  // of the sim-core profile).
  std::vector<std::size_t> affected_;
  std::vector<LinkId> touched_links_;
  std::vector<int> users_;          // per link, valid for touched links only
  std::vector<double> residual_;    // per link, valid for touched links only
  std::vector<char> in_component_;  // per active_ index
  std::vector<char> link_mark_;     // per link (component BFS)
  std::vector<std::size_t> all_indices_;       // 0..n-1 (full re-solve)
  std::vector<std::size_t> start_seeds_;       // seed buffer for Start
  std::vector<std::size_t> completion_seeds_;  // seed buffer for Complete
  std::vector<char> frozen_;        // per subset position
  std::vector<double> shadow_rates_;  // full re-solve result (validation)
  std::vector<check::FabricLinkShare> link_shares_;  // per link (validation)

  MetricsRegistry* registry_ = nullptr;
};

}  // namespace deepplan

#endif  // SRC_SIM_FABRIC_H_
