#include "src/sim/fabric.h"

#include <algorithm>
#include <limits>

#include "src/check/validator.h"
#include "src/obs/selfprof.h"
#include "src/util/index.h"
#include "src/util/logging.h"

namespace deepplan {

namespace {
// A transfer is considered drained when fewer than this many bytes remain
// (guards against floating-point residue never reaching exactly zero).
constexpr double kEpsilonBytes = 1e-6;

// ceil(secs * 1e9) as whole nanoseconds, without a libm call. The product is
// non-negative and far below 2^63, so truncation is floor and one compare
// finds the fractional part: the result is bitwise what std::ceil gives.
Nanos CeilNanos(double secs) {
  const double ns = secs * kNanosPerSecond;
  const auto whole = static_cast<Nanos>(ns);
  return static_cast<double>(whole) < ns ? whole + 1 : whole;
}
}  // namespace

Fabric::Fabric(Simulator* sim) : sim_(sim) { DP_CHECK(sim != nullptr); }

LinkId Fabric::AddLink(std::string name, double capacity_bytes_per_sec) {
  DP_CHECK(capacity_bytes_per_sec > 0);
  links_.push_back(Link{std::move(name), capacity_bytes_per_sec});
  link_users_.push_back(0);
  return static_cast<LinkId>(links_.size() - 1);
}

const std::string& Fabric::link_name(LinkId id) const {
  DP_CHECK(id >= 0 && id < num_links());
  return links_[Idx(id)].name;
}

double Fabric::link_capacity(LinkId id) const {
  DP_CHECK(id >= 0 && id < num_links());
  return links_[Idx(id)].capacity;
}

int Fabric::transfers_on(LinkId id) const {
  DP_CHECK(id >= 0 && id < num_links());
  return link_users_[Idx(id)];
}

void Fabric::set_telemetry(std::nullptr_t, MetricsRegistry* registry, int) {
  registry_ = registry;
}

TransferId Fabric::Start(LinkPath path, std::int64_t bytes, Nanos latency,
                         TransferDone done) {
  DP_CHECK(bytes >= 0);
  for (LinkId l : path) {
    DP_CHECK(l >= 0 && l < num_links());
  }
  const TransferId id = next_id_++;
  if (registry_ != nullptr) {
    registry_->AddCounter("fabric.transfers");
    registry_->AddCounter("fabric.bytes", bytes);
  }
  if (bytes == 0 || path.empty()) {
    ScheduleTail(latency, sim_->now(), done);
    return id;
  }
  Transfer t;
  t.id = id;
  t.path = path;
  t.total_bytes = static_cast<double>(bytes);
  t.remaining_bytes = static_cast<double>(bytes);
  t.last_update = sim_->now();
  t.started = sim_->now();
  t.latency = latency;
  t.done = done;
  active_.push_back(std::move(t));
  for (LinkId l : path) {
    ++link_users_[Idx(l)];
  }
  start_seeds_.assign(1, active_.size() - 1);
  Reallocate(start_seeds_, /*seeds_closed=*/false);
  return id;
}

Nanos Fabric::SoloDuration(const LinkPath& path, std::int64_t bytes,
                           Nanos latency) const {
  if (bytes == 0 || path.empty()) {
    return latency;
  }
  for (LinkId l : path) {
    DP_CHECK(l >= 0 && l < num_links());
  }
  return CeilNanos(static_cast<double>(bytes) / MinCapacity(path)) + latency;
}

bool Fabric::Alone(const LinkPath& path) const {
  for (LinkId l : path) {
    if (link_users_[Idx(l)] != 1) {
      return false;
    }
  }
  return true;
}

double Fabric::MinCapacity(const LinkPath& path) const {
  double min_capacity = std::numeric_limits<double>::infinity();
  for (LinkId l : path) {
    min_capacity = std::min(min_capacity, links_[Idx(l)].capacity);
  }
  return min_capacity;
}

double Fabric::AllocatedOn(LinkId id) const {
  double total = 0.0;
  for (const auto& t : active_) {
    if (std::find(t.path.begin(), t.path.end(), id) != t.path.end()) {
      total += t.rate;
    }
  }
  return total;
}

void Fabric::SettleProgress() {
  const Nanos now = sim_->now();
  for (auto& t : active_) {
    if (t.rate > 0 && now > t.last_update) {
      const double elapsed_sec =
          static_cast<double>(now - t.last_update) / kNanosPerSecond;
      t.remaining_bytes = std::max(0.0, t.remaining_bytes - t.rate * elapsed_sec);
    }
    t.last_update = now;
  }
}

void Fabric::CollectComponent(const std::vector<std::size_t>& seeds,
                              std::vector<std::size_t>& out) {
  const std::size_t n = active_.size();
  // The mark arrays are all-zero between calls (cleared selectively below),
  // so growing them is the only per-call maintenance.
  if (in_component_.size() < n) {
    in_component_.resize(n, 0);
  }
  if (link_mark_.size() < links_.size()) {
    link_mark_.resize(links_.size(), 0);
  }
  out.clear();
  for (std::size_t i : seeds) {
    if (in_component_[i]) {
      continue;
    }
    in_component_[i] = 1;
    out.push_back(i);
    for (LinkId l : active_[i].path) {
      link_mark_[Idx(l)] = 1;
    }
  }
  // Fixpoint: a transfer joins the component when it shares a link with it,
  // and contributes its own links. Paths are short and components small (a
  // PCIe subtree), so a scan-to-fixpoint beats maintaining adjacency.
  bool changed = true;
  while (changed) {
    changed = false;
    for (std::size_t i = 0; i < n; ++i) {
      if (in_component_[i]) {
        continue;
      }
      bool touches = false;
      for (LinkId l : active_[i].path) {
        if (link_mark_[Idx(l)]) {
          touches = true;
          break;
        }
      }
      if (!touches) {
        continue;
      }
      in_component_[i] = 1;
      out.push_back(i);
      for (LinkId l : active_[i].path) {
        link_mark_[Idx(l)] = 1;
      }
      changed = true;
    }
  }
  // Downstream solves scan the subset in ascending active_ index to keep the
  // full re-solve's tie-breaks; membership was discovered out of order.
  std::sort(out.begin(), out.end());
  for (const std::size_t i : out) {
    in_component_[i] = 0;
    for (LinkId l : active_[i].path) {
      link_mark_[Idx(l)] = 0;
    }
  }
}

void Fabric::SolveSubset(const std::vector<std::size_t>& subset,
                         std::vector<double>& rates) {
  // Progressive filling: repeatedly saturate the most-constrained link, freeze
  // the transfers crossing it at the fair share, remove them, and repeat.
  // Restricted to `subset` (a union of link-connected components) this yields
  // bitwise the rates of a full solve: transfers outside the subset share no
  // link with it, so neither side's arithmetic sees the other. Links are
  // scanned in ascending global id and transfers in ascending active_ index,
  // matching the original full solve's tie-breaks.
  users_.resize(links_.size());
  residual_.resize(links_.size());
  touched_links_.clear();
  for (std::size_t i : subset) {
    touched_links_.insert(touched_links_.end(), active_[i].path.begin(),
                          active_[i].path.end());
  }
  std::sort(touched_links_.begin(), touched_links_.end());
  touched_links_.erase(std::unique(touched_links_.begin(), touched_links_.end()),
                       touched_links_.end());
  for (LinkId l : touched_links_) {
    residual_[Idx(l)] = links_[Idx(l)].capacity;
  }
  frozen_.assign(subset.size(), 0);
  for (std::size_t i : subset) {
    rates[i] = 0.0;
  }
  std::size_t remaining = subset.size();
  while (remaining > 0) {
    // Count unfrozen transfers per link; find the tightest fair share.
    for (LinkId l : touched_links_) {
      users_[Idx(l)] = 0;
    }
    for (std::size_t k = 0; k < subset.size(); ++k) {
      if (frozen_[k]) {
        continue;
      }
      for (LinkId l : active_[subset[k]].path) {
        ++users_[Idx(l)];
      }
    }
    double best_share = std::numeric_limits<double>::infinity();
    LinkId best_link = -1;
    for (LinkId l : touched_links_) {
      if (users_[Idx(l)] == 0) {
        continue;
      }
      const double share = residual_[Idx(l)] / users_[Idx(l)];
      if (share < best_share) {
        best_share = share;
        best_link = l;
      }
    }
    DP_CHECK(best_link >= 0);
    // Freeze every unfrozen transfer crossing the bottleneck at that share.
    for (std::size_t k = 0; k < subset.size(); ++k) {
      if (frozen_[k]) {
        continue;
      }
      auto& t = active_[subset[k]];
      if (std::find(t.path.begin(), t.path.end(), best_link) == t.path.end()) {
        continue;
      }
      rates[subset[k]] = best_share;
      frozen_[k] = 1;
      --remaining;
      for (LinkId l : t.path) {
        residual_[Idx(l)] = std::max(0.0, residual_[Idx(l)] - best_share);
      }
    }
  }
}

void Fabric::ComputeRates(const std::vector<std::size_t>& seeds,
                          bool seeds_closed) {
  // Both solve entry points (transfer start via Reallocate, transfer
  // completion's direct incremental call) funnel through here.
  DP_SELFPROF_SCOPE(kFairShare);
  const std::size_t n = active_.size();
  if (force_full_resolve_) {
    affected_.clear();
    for (std::size_t i = 0; i < n; ++i) {
      affected_.push_back(i);
    }
  } else if (seeds.size() == 1 && Alone(active_[seeds[0]].path)) {
    // A one-transfer component: progressive filling's single round divides
    // each link's capacity by one user and takes the smallest quotient.
    affected_.clear();
    active_[seeds[0]].rate = MinCapacity(active_[seeds[0]].path);
  } else if (seeds_closed) {
    affected_.assign(seeds.begin(), seeds.end());
  } else {
    CollectComponent(seeds, affected_);
  }
  shadow_rates_.resize(n);
  if (!affected_.empty()) {
    SolveSubset(affected_, shadow_rates_);
    for (std::size_t i : affected_) {
      active_[i].rate = shadow_rates_[i];
    }
  }
  if (check::ValidationEnabled()) {
    // Shadow full re-solve: the incremental claim is bitwise equality, so
    // recompute everything from scratch and compare rate by rate.
    all_indices_.clear();
    for (std::size_t i = 0; i < n; ++i) {
      all_indices_.push_back(i);
    }
    SolveSubset(all_indices_, shadow_rates_);
    for (std::size_t i = 0; i < n; ++i) {
      check::SimValidator::OnFabricIncrementalSolve(sim_->now(), active_[i].id,
                                                    active_[i].rate,
                                                    shadow_rates_[i]);
    }
    link_shares_.resize(links_.size());
    for (std::size_t l = 0; l < links_.size(); ++l) {
      link_shares_[l].name = links_[l].name;
      link_shares_[l].capacity = links_[l].capacity;
      link_shares_[l].allocated = 0.0;
      link_shares_[l].transfers = 0;
    }
    for (const auto& t : active_) {
      check::SimValidator::OnTransferRate(sim_->now(), t.id, t.rate);
      for (LinkId l : t.path) {
        link_shares_[Idx(l)].allocated += t.rate;
        ++link_shares_[Idx(l)].transfers;
      }
    }
    check::SimValidator::OnFabricAllocation(sim_->now(), link_shares_);
  }
}

void Fabric::ScheduleCompletions() {
  for (auto& t : active_) {
    DP_CHECK(t.rate > 0);
    const Nanos delay = CeilNanos(t.remaining_bytes / t.rate);
    if (t.has_completion_event) {
      // Pending: only a transfer's own completion erases it from active_.
      const bool pending = sim_->Reschedule(t.completion_event, delay);
      DP_CHECK(pending);
    } else {
      t.completion_event =
          sim_->ScheduleAfter(delay, MakeAction<&Fabric::OnDrained>(this, t.id));
      t.has_completion_event = true;
    }
  }
}

void Fabric::OnDrained(std::uint64_t id) {
  for (std::size_t j = 0; j < active_.size(); ++j) {
    if (active_[j].id == id) {
      Complete(j);
      return;
    }
  }
  DP_CHECK(false && "completion for unknown transfer");
}

void Fabric::Complete(std::size_t index) {
  SettleProgress();
  // The transfers whose fair share changes are exactly the departing
  // transfer's link-connected component; find it before the erase shifts
  // indices, then drop the departing transfer itself. A transfer that
  // shares no link is its own component: nothing else is re-solved.
  completion_seeds_.clear();
  if (!Alone(active_[index].path)) {
    start_seeds_.assign(1, index);
    CollectComponent(start_seeds_, completion_seeds_);
    std::size_t out = 0;
    for (std::size_t i : completion_seeds_) {
      if (i != index) {
        completion_seeds_[out++] = i > index ? i - 1 : i;
      }
    }
    completion_seeds_.resize(out);
  }
  Transfer t = std::move(active_[index]);
  for (LinkId l : t.path) {
    --link_users_[Idx(l)];
  }
  check::SimValidator::OnTransferComplete(sim_->now(), t.id,
                                          t.total_bytes - t.remaining_bytes,
                                          t.total_bytes);
  DP_CHECK(t.remaining_bytes <= kEpsilonBytes + 1.0);  // allow ns-rounding residue
  active_.erase(active_.begin() + static_cast<std::ptrdiff_t>(index));
  if (!active_.empty()) {
    // completion_seeds_ is the departing transfer's component minus itself:
    // still closed under link-sharing (removal never adds connectivity).
    ComputeRates(completion_seeds_, /*seeds_closed=*/true);
    ScheduleCompletions();
  }
  ScheduleTail(t.latency, t.started, t.done);
}

void Fabric::ScheduleTail(Nanos latency, Nanos started, TransferDone done) {
  const SlotPool<Tail>::Handle h = tails_.Alloc();
  Tail& tail = tails_.Get(h);
  tail.started = started;
  tail.done = done;
  sim_->ScheduleAfter(latency, MakeAction<&Fabric::OnTail>(this, h.Pack()));
}

void Fabric::OnTail(std::uint64_t handle) {
  const SlotPool<Tail>::Handle h = SlotPool<Tail>::Handle::Unpack(handle);
  Tail& tail = tails_.Get(h);
  const Nanos started = tail.started;
  // Copied out first: `done` may start transfers whose tails recycle this slot.
  const TransferDone done = tail.done;
  tails_.Free(h);
  if (done.fn != nullptr) {
    done(sim_->now() - started);
  }
}

void Fabric::Reallocate(const std::vector<std::size_t>& seeds, bool seeds_closed) {
  SettleProgress();
  ComputeRates(seeds, seeds_closed);
  ScheduleCompletions();
}

}  // namespace deepplan
