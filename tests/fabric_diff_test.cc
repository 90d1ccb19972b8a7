// Differential lockdown of the Fabric's incremental (component-local)
// max-min fair-share solve against the original full progressive-filling
// re-solve: random topologies and random transfer schedules must produce
// bitwise-identical behavior in both modes — completion times, elapsed
// durations, and the per-link allocation profile sampled at every
// completion. The full re-solve (set_full_resolve_for_testing) defines
// "correct"; additionally the SimValidator shadow cross-check
// (OnFabricIncrementalSolve) is exercised with validation forced on. A
// second workload of mostly disjoint routes drives the closed-form solve of
// a transfer that shares no link through the same comparisons.
#include <cstdint>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "src/check/validator.h"
#include "src/sim/fabric.h"
#include "src/sim/simulator.h"
#include "src/util/rng.h"
#include "src/util/time.h"

namespace deepplan {
namespace {

struct TransferSpec {
  Nanos start;
  std::vector<LinkId> path;
  std::int64_t bytes;
  Nanos latency;
};

struct FabricWorkload {
  std::vector<double> capacities;
  std::vector<TransferSpec> transfers;
};

// Random link-sharing topology + schedule. Paths are small random subsets of
// links, so transfers form shifting link-connected components: some overlap
// heavily (shared bottlenecks), some are disjoint (independent components —
// exactly what the incremental solve skips re-solving).
FabricWorkload MakeWorkload(std::uint64_t seed) {
  Rng rng(seed);
  FabricWorkload w;
  const int num_links = 3 + static_cast<int>(rng.NextBounded(8));
  const double caps[] = {1e9, 4e9, 12e9, 16e9, 25e9};
  for (int l = 0; l < num_links; ++l) {
    w.capacities.push_back(caps[rng.NextBounded(5)]);
  }
  const int num_transfers = 30 + static_cast<int>(rng.NextBounded(31));
  for (int t = 0; t < num_transfers; ++t) {
    TransferSpec spec;
    spec.start = static_cast<Nanos>(rng.NextBounded(Millis(5)));
    const int path_len = 1 + static_cast<int>(rng.NextBounded(3));
    for (int h = 0; h < path_len; ++h) {
      const LinkId link = static_cast<LinkId>(rng.NextBounded(num_links));
      bool dup = false;
      for (const LinkId existing : spec.path) {
        dup = dup || existing == link;
      }
      if (!dup) {
        spec.path.push_back(link);
      }
    }
    // Mostly mid-size transfers; a few zero-byte (latency-only) and a few
    // large ones that outlive many starts/completions.
    const std::uint64_t kind = rng.NextBounded(10);
    if (kind == 0) {
      spec.bytes = 0;
    } else if (kind < 8) {
      spec.bytes = static_cast<std::int64_t>(1 + rng.NextBounded(8u << 20));
    } else {
      spec.bytes = static_cast<std::int64_t>(1 + rng.NextBounded(256u << 20));
    }
    spec.latency = static_cast<Nanos>(rng.NextBounded(50000));
    w.transfers.push_back(std::move(spec));
  }
  return w;
}

// Many links and one- or two-hop routes that rarely overlap, as parallel
// transmission spreads a model's loads across PCIe switches: links come in
// (uplink, lane) pairs, a route is one pair's uplink or the whole pair, and
// one route in eight crosses from one pair's uplink to another pair's lane.
// Most transfers find every link of their route idle, so the fabric solves
// them in closed form; the overlaps left still exercise the general solve.
FabricWorkload MakeDisjointWorkload(std::uint64_t seed) {
  Rng rng(seed);
  FabricWorkload w;
  const int pairs = 12 + static_cast<int>(rng.NextBounded(9));
  const double caps[] = {4e9, 12e9, 16e9, 25e9};
  for (int l = 0; l < 2 * pairs; ++l) {
    w.capacities.push_back(caps[rng.NextBounded(4)]);
  }
  const int num_transfers = 40 + static_cast<int>(rng.NextBounded(41));
  for (int t = 0; t < num_transfers; ++t) {
    TransferSpec spec;
    spec.start = static_cast<Nanos>(rng.NextBounded(Millis(40)));
    const auto pair = static_cast<LinkId>(rng.NextBounded(static_cast<std::uint64_t>(pairs)));
    spec.path.push_back(2 * pair);
    const std::uint64_t shape = rng.NextBounded(8);
    if (shape == 0) {
      const auto other = static_cast<LinkId>(rng.NextBounded(static_cast<std::uint64_t>(pairs)));
      spec.path.push_back(2 * other + 1);
    } else if (shape < 5) {
      spec.path.push_back(2 * pair + 1);
    }
    spec.bytes = rng.NextBounded(16) == 0
                     ? 0
                     : static_cast<std::int64_t>(1 + rng.NextBounded(8u << 20));
    spec.latency = static_cast<Nanos>(rng.NextBounded(50000));
    w.transfers.push_back(std::move(spec));
  }
  return w;
}

// Everything observable about one run: per-completion (transfer, finish time,
// elapsed) plus the full per-link allocation vector sampled inside each done
// callback — the instant the fair-share state differs, so does this log.
struct FabricLog {
  std::vector<std::size_t> completed;
  std::vector<Nanos> finish_times;
  std::vector<Nanos> elapsed;
  std::vector<double> allocations;
  // Transfers that drained bytes, and those of them that found every link
  // of their route idle (Fabric::transfers_on) when they started.
  std::size_t draining = 0;
  std::size_t idle_route = 0;
};

FabricLog Replay(const FabricWorkload& w, bool full_resolve) {
  Simulator sim;
  Fabric fabric(&sim);
  fabric.set_full_resolve_for_testing(full_resolve);
  for (std::size_t l = 0; l < w.capacities.size(); ++l) {
    fabric.AddLink("link" + std::to_string(l), w.capacities[l]);
  }
  FabricLog log;
  // A completion callback packs into 16 bytes: the transfer index plus one
  // pointer to everything it records.
  struct Recorder {
    Simulator* sim;
    Fabric* fabric;
    FabricLog* log;
  } recorder{&sim, &fabric, &log};
  for (std::size_t t = 0; t < w.transfers.size(); ++t) {
    const TransferSpec& spec = w.transfers[t];
    sim.ScheduleAt(spec.start, [&fabric, &recorder, &log, &spec, t] {
      if (spec.bytes > 0 && !spec.path.empty()) {
        ++log.draining;
        bool idle = true;
        for (const LinkId l : spec.path) {
          idle = idle && fabric.transfers_on(l) == 0;
        }
        log.idle_route += idle ? 1 : 0;
      }
      fabric.Start(spec.path, spec.bytes, spec.latency,
                   [r = &recorder, t](Nanos elapsed) {
                     r->log->completed.push_back(t);
                     r->log->finish_times.push_back(r->sim->now());
                     r->log->elapsed.push_back(elapsed);
                     for (LinkId l = 0; l < r->fabric->num_links(); ++l) {
                       r->log->allocations.push_back(r->fabric->AllocatedOn(l));
                     }
                   });
    });
  }
  sim.Run();
  EXPECT_EQ(fabric.active_transfers(), 0);
  for (LinkId l = 0; l < fabric.num_links(); ++l) {
    EXPECT_EQ(fabric.transfers_on(l), 0) << "link " << l;
  }
  return log;
}

// Bitwise double equality: fair-share rates must agree to the last bit, not
// within a tolerance — the incremental solve is a re-ordering of the same
// arithmetic, not an approximation.
bool BitEqual(double a, double b) {
  std::uint64_t ua, ub;
  std::memcpy(&ua, &a, sizeof(ua));
  std::memcpy(&ub, &b, sizeof(ub));
  return ua == ub;
}

// Asserts two runs of one workload behaved identically, bit for bit.
void ExpectIdentical(const FabricLog& incremental, const FabricLog& full,
                     std::uint64_t seed) {
  ASSERT_EQ(incremental.completed, full.completed) << "seed " << seed;
  ASSERT_EQ(incremental.finish_times, full.finish_times) << "seed " << seed;
  ASSERT_EQ(incremental.elapsed, full.elapsed) << "seed " << seed;
  ASSERT_EQ(incremental.allocations.size(), full.allocations.size());
  for (std::size_t i = 0; i < incremental.allocations.size(); ++i) {
    ASSERT_TRUE(BitEqual(incremental.allocations[i], full.allocations[i]))
        << "seed " << seed << " sample " << i << ": "
        << incremental.allocations[i] << " vs " << full.allocations[i];
  }
}

TEST(FabricDiffTest, IncrementalMatchesFullResolveOnRandomTopologies) {
  for (std::uint64_t seed = 1; seed <= 25; ++seed) {
    const FabricWorkload w = MakeWorkload(seed);
    ExpectIdentical(Replay(w, /*full_resolve=*/false),
                    Replay(w, /*full_resolve=*/true), seed);
  }
}

TEST(FabricDiffTest, ClosedFormMatchesFullResolveOnDisjointRoutes) {
  std::size_t draining = 0;
  std::size_t idle_route = 0;
  for (std::uint64_t seed = 1; seed <= 25; ++seed) {
    const FabricWorkload w = MakeDisjointWorkload(seed);
    const FabricLog incremental = Replay(w, /*full_resolve=*/false);
    ExpectIdentical(incremental, Replay(w, /*full_resolve=*/true), seed);
    draining += incremental.draining;
    idle_route += incremental.idle_route;
  }
  // Most starts take the closed form; the rest share a link and are solved
  // by component search and progressive filling.
  EXPECT_GT(idle_route, draining * 3 / 4);
  EXPECT_LT(idle_route, draining);
}

TEST(FabricDiffTest, ElapsedNeverBeatsSoloDuration) {
  // Fair sharing can only slow a transfer down: elapsed >= SoloDuration for
  // every completion, in both modes.
  const FabricWorkload w = MakeWorkload(99);
  for (const bool full : {false, true}) {
    Simulator sim;
    Fabric fabric(&sim);
    fabric.set_full_resolve_for_testing(full);
    for (std::size_t l = 0; l < w.capacities.size(); ++l) {
      fabric.AddLink("link" + std::to_string(l), w.capacities[l]);
    }
    for (const TransferSpec& spec : w.transfers) {
      sim.ScheduleAt(spec.start, [&fabric, &spec] {
        const Nanos solo =
            fabric.SoloDuration(spec.path, spec.bytes, spec.latency);
        fabric.Start(spec.path, spec.bytes, spec.latency,
                     [solo](Nanos elapsed) { EXPECT_GE(elapsed, solo); });
      });
    }
    sim.Run();
  }
}

TEST(FabricDiffTest, ValidatorShadowCrossCheckRuns) {
  // With validation forced on, every incremental solve shadows the full
  // re-solve and compares each active transfer's rate bit-for-bit
  // (SimValidator::OnFabricIncrementalSolve aborts on mismatch). A healthy
  // run must both survive and actually evaluate checks.
  check::SetValidationForTesting(1);
  const std::uint64_t before = check::ChecksRun();
  const FabricWorkload w = MakeWorkload(7);
  const FabricLog log = Replay(w, /*full_resolve=*/false);
  EXPECT_EQ(log.completed.size(), w.transfers.size());
  EXPECT_GT(check::ChecksRun(), before);
  check::SetValidationForTesting(-1);
}

TEST(FabricDiffTest, ValidatorShadowCrossChecksTheClosedForm) {
  // The shadow full re-solve compares every closed-form rate bit for bit.
  check::SetValidationForTesting(1);
  const std::uint64_t before = check::ChecksRun();
  const FabricWorkload w = MakeDisjointWorkload(7);
  const FabricLog log = Replay(w, /*full_resolve=*/false);
  EXPECT_EQ(log.completed.size(), w.transfers.size());
  EXPECT_GT(log.idle_route, 0u);
  EXPECT_GT(check::ChecksRun(), before);
  check::SetValidationForTesting(-1);
}

}  // namespace
}  // namespace deepplan
