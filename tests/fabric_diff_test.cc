// Differential lockdown of the Fabric's incremental (component-local)
// max-min fair-share solve against the original full progressive-filling
// re-solve: random topologies and random transfer schedules must produce
// bitwise-identical behavior in both modes — completion times, elapsed
// durations, and the per-link allocation profile sampled at every
// completion. The full re-solve (set_full_resolve_for_testing) defines
// "correct"; additionally the SimValidator shadow cross-check
// (OnFabricIncrementalSolve) is exercised with validation forced on.
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

// Everything observable about one run: per-completion (transfer, finish time,
// elapsed) plus the full per-link allocation vector sampled inside each done
// callback — the instant the fair-share state differs, so does this log.
struct FabricLog {
  std::vector<std::size_t> completed;
  std::vector<Nanos> finish_times;
  std::vector<Nanos> elapsed;
  std::vector<double> allocations;
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
    sim.ScheduleAt(spec.start, [&fabric, &recorder, &spec, t] {
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

TEST(FabricDiffTest, IncrementalMatchesFullResolveOnRandomTopologies) {
  for (std::uint64_t seed = 1; seed <= 25; ++seed) {
    const FabricWorkload w = MakeWorkload(seed);
    const FabricLog incremental = Replay(w, /*full_resolve=*/false);
    const FabricLog full = Replay(w, /*full_resolve=*/true);

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

}  // namespace
}  // namespace deepplan
