// Scale smoke test for the million-request sim core: a 200k-request
// synthetic replay must (1) produce byte-identical bench output whether the
// sweep runs on 1, 2, or 8 threads, (2) stay within a bounded peak RSS —
// the old heap-backed queue grew its id-indexed bookkeeping without bound —
// and (3) demonstrate the arena-reuse invariant: callback slots ever created
// stay orders of magnitude below total events scheduled. Also unit-pins the
// count-exact synthetic generator (src/workload/synthetic.h) the scaling
// curve is built from, and the event path's heap-allocation budget per
// request.
#include <sys/resource.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bench/scaling_common.h"
#include "src/obs/whatif/whatif.h"
#include "src/workload/synthetic.h"
#include "tests/counting_new.h"

namespace deepplan {
namespace {

TEST(SyntheticTraceTest, CountExactSortedAndInRange) {
  SyntheticScaleOptions options;
  options.num_requests = 5000;
  options.num_instances = 17;
  options.seed = 3;
  const Trace trace = GenerateSyntheticScaleTrace(options);
  ASSERT_EQ(trace.size(), 5000u);
  Nanos prev = 0;
  for (const Arrival& a : trace.arrivals()) {
    EXPECT_GE(a.time, prev);
    prev = a.time;
    EXPECT_GE(a.instance, 0);
    EXPECT_LT(a.instance, 17);
  }
  // Mean rate tracks the requested intensity (law of large numbers; wide
  // tolerance — this is a sanity pin, not a statistics test).
  EXPECT_NEAR(trace.MeanRate(), options.rate_per_sec,
              options.rate_per_sec * 0.1);
}

TEST(SyntheticTraceTest, DeterministicInOptionsOnly) {
  SyntheticScaleOptions options;
  options.num_requests = 2000;
  options.seed = 11;
  const Trace a = GenerateSyntheticScaleTrace(options);
  const Trace b = GenerateSyntheticScaleTrace(options);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.arrivals()[i].time, b.arrivals()[i].time);
    EXPECT_EQ(a.arrivals()[i].instance, b.arrivals()[i].instance);
  }
  options.seed = 12;
  const Trace c = GenerateSyntheticScaleTrace(options);
  EXPECT_NE(a.arrivals()[0].time, c.arrivals()[0].time);
}

TEST(SyntheticTraceTest, ZipfSkewsTowardLowRanks) {
  SyntheticScaleOptions options;
  options.num_requests = 20000;
  options.num_instances = 50;
  options.zipf_exponent = 1.0;
  const Trace trace = GenerateSyntheticScaleTrace(options);
  const std::vector<std::size_t> counts = trace.PerInstanceCounts(50);
  // Rank 0 is the hottest instance; the bottom half combined should not
  // outdraw it under s=1.0 skew.
  std::size_t tail = 0;
  for (std::size_t i = 25; i < 50; ++i) {
    tail += counts[i];
  }
  EXPECT_GT(counts[0], tail / 5);
  EXPECT_GT(counts[0], counts[49]);
}

// The scale run proper: 200k requests through a 135-instance BERT-Base
// server, streaming a binary journal as it runs — so the RSS pin below
// covers bounded-memory journal recording, not just the sim core. One run
// shared by the assertions below (it is the expensive part).
class ScalingReplayTest : public ::testing::Test {
 protected:
  // The 69 MB journal goes once the suite's last test has read it.
  static void TearDownTestSuite() { std::remove(JournalPath().c_str()); }

  static const std::string& JournalPath() {
    static const std::string path =
        ::testing::TempDir() + "/scaling_200k.dpj";
    return path;
  }

  static bench::ScalingPointResult& Result() {
    static bench::ScalingPointResult r = [] {
      bench::ScalingPointOptions options;
      options.num_requests = 200000;
      options.journal_out = JournalPath();
      return bench::RunScalingPoint(options);
    }();
    return r;
  }
};

TEST_F(ScalingReplayTest, CompletesAllRequests) {
  const bench::ScalingPointResult& r = Result();
  EXPECT_EQ(r.requests, 200000u);
  EXPECT_EQ(r.completed, 200000u);
  EXPECT_GT(r.goodput, 0.5);
  EXPECT_GT(r.cold_starts, 0u);
}

TEST_F(ScalingReplayTest, EventSlotsStayBounded) {
  // Arena reuse: the queue recycles callback slots, so the number of slots
  // ever created (= peak simultaneously-pending events) must sit far below
  // the millions of events the replay schedules in total.
  const bench::ScalingPointResult& r = Result();
  EXPECT_GT(r.events_scheduled, 1000000u);
  EXPECT_LT(r.event_slot_peak, r.events_scheduled / 100);
}

TEST_F(ScalingReplayTest, PeakRssBounded) {
  // ru_maxrss is process-wide and in KiB on Linux. The replay schedules
  // millions of events; with per-event recycling the whole test binary stays
  // well under this ceiling, while the old unbounded-bookkeeping backend
  // grew by hundreds of MB on runs of this length.
  const bench::ScalingPointResult& r = Result();
  ASSERT_EQ(r.completed, r.requests);
  struct rusage usage;
  ASSERT_EQ(getrusage(RUSAGE_SELF, &usage), 0);
  // Sanitizer builds carry shadow memory and redzones on top of the real
  // working set, so give them headroom; the plain build keeps the tight bound.
  long limit_kib = 400 * 1024;
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  limit_kib *= 4;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
  limit_kib *= 4;
#endif
#endif
  EXPECT_LT(usage.ru_maxrss, limit_kib) << "peak RSS (KiB)";
}

TEST_F(ScalingReplayTest, JournalTotalsCoverTheWholeRun) {
  const bench::ScalingPointResult& r = Result();
  ASSERT_TRUE(r.journaled);
  EXPECT_EQ(r.journal.requests, 200000u);
  EXPECT_EQ(r.journal.incomplete_requests, 0u);
  EXPECT_GT(r.journal.nodes, r.journal.requests);  // >= arrival + work
  EXPECT_GT(r.journal.chunks, 10u);
  std::ifstream in(JournalPath(), std::ios::binary | std::ios::ate);
  ASSERT_TRUE(in.is_open());
  EXPECT_EQ(static_cast<std::uint64_t>(in.tellg()), r.journal_bytes);
  // The DPJL bytes themselves, pinned: the 200k point of bench_scaling
  // --journal_out. A change to the encoder, or to what the engine and server
  // record, moves them.
  EXPECT_EQ(r.journal_bytes, 68761269u);
  in.seekg(0);
  const std::string bytes(std::istreambuf_iterator<char>(in), {});
  EXPECT_EQ(Crc32(bytes), 0x738dfee1u);
}

TEST_F(ScalingReplayTest, WindowedIdentityReplayMatchesRecordedLatencies) {
  // The streamed 200k journal replays bit-exactly under the windowed engine:
  // every request's identity-predicted completion equals the recorded one,
  // with only a bounded window of requests resident.
  const bench::ScalingPointResult& r = Result();
  ASSERT_TRUE(r.journaled);
  WindowedJournal journal;
  std::string error;
  ASSERT_TRUE(journal.Open(JournalPath(), &error)) << error;
  ASSERT_EQ(journal.requests().size(), 200000u);
  WhatIfExperiment identity;
  identity.name = "baseline";
  const WhatIfReplay replay = journal.Replay(identity);
  ASSERT_EQ(replay.latency.size(), 200000u);
  for (std::size_t i = 0; i < journal.requests().size(); ++i) {
    const CpRequest& req = journal.requests()[i];
    ASSERT_EQ(replay.latency[i], req.completion - req.arrival)
        << "request " << i;
  }
  EXPECT_LT(journal.max_resident_requests(), 200000u / 10);
}

// The allocations-per-request work counter: the 44k golden point replayed as
// RunScalingPoint does, counting global operator new calls from the first
// arrival until the queue drains (and, when `journal_path` is set, until a
// streaming causal journal recorded there is finished). Every event stays
// where it was: the 44k point of bench/golden/BENCH_scaling.json.
double AllocationsPerRequest(const std::string& journal_path) {
  const bench::ScalingPointOptions point;  // the 44k golden point
  const Trace trace = bench::ScalingTrace(point);
  const Topology topology = Topology::P3_8xlarge();
  const PerfModel perf(topology.gpu(), topology.pcie());
  ServerOptions options;
  options.strategy = point.strategy;
  options.slo = point.slo;
  Simulator sim;
  Server server(&sim, topology, perf, options);
  server.AddInstances(server.RegisterModelType(ModelZoo::BertBase()), point.num_instances);
  JournalWriter writer;  // outlives the graph that streams into it
  CausalGraph causal(/*enabled=*/true);
  const bool journal = !journal_path.empty();
  if (journal) {
    EXPECT_TRUE(writer.Open(journal_path));
    causal.AttachSink(&writer);
    server.set_causal(&causal, causal.RegisterProcess("scaling"));
  }
  server.Warmup();

  bench::ChainedFeeder feeder{&trace.arrivals(), &sim, &server};
  const std::size_t before = g_allocations;
  feeder.ScheduleNext();
  sim.Run();
  if (journal) {
    causal.FlushOpenRequests();
    EXPECT_TRUE(writer.Finish());
  }
  const std::size_t allocations = g_allocations - before;

  EXPECT_EQ(server.metrics().count(), trace.size());
  EXPECT_EQ(sim.event_queue().total_scheduled(), 1056690u);
  EXPECT_EQ(sim.event_queue().slot_capacity(), 10u);
  if (journal) {
    EXPECT_EQ(writer.totals().requests, trace.size());
    EXPECT_EQ(writer.totals().incomplete_requests, 0u);
  }
  return static_cast<double>(allocations) / static_cast<double>(trace.size());
}

TEST(AllocationBudgetTest, SteadyStateReplayBarelyTouchesTheHeap) {
  // Events, stream ops, transfers, warm completions and pooled cold runs
  // must not allocate per request; what remains is per cold start (the GPU
  // memory arena's bookkeeping) and amortized growth such as the metrics
  // record vector.
  EXPECT_LT(AllocationsPerRequest(""), 0.5);
}

TEST(AllocationBudgetTest, StreamingJournalRecordingBarelyTouchesTheHeap) {
  // The same replay recording a streaming causal journal, as the
  // journal_record benchmark does. Open requests and their nodes live in
  // reused rings and pooled records, recorders hand the graph interned ids,
  // and the writer encodes into reused buffers, so recording adds less than
  // half an allocation per request to the replay's own.
  const std::string path = ::testing::TempDir() + "/allocations_44k.dpj";
  EXPECT_LT(AllocationsPerRequest(path), 1.0);
  std::remove(path.c_str());
}

TEST(ScalingDeterminismTest, ByteIdenticalAcrossJobCounts) {
  // The bench surface: the same three-point sweep must render the same
  // deterministic JSON — and record byte-identical journals — for any
  // thread count. Small points keep this fast; identical code paths
  // (SweepRunner + RunScalingPoint) to bench_scaling --journal_out.
  std::vector<std::size_t> sizes = {2000, 4000, 8000};
  std::string baseline;
  std::vector<std::string> baseline_journals;
  for (const int jobs : {1, 2, 8}) {
    const SweepRunner runner(jobs);
    const std::vector<bench::ScalingPointResult> results =
        runner.Map(static_cast<int>(sizes.size()), [&](int i) {
          bench::ScalingPointOptions options;
          options.num_requests = sizes[static_cast<std::size_t>(i)];
          options.journal_out = ::testing::TempDir() + "/scaling_jobs" +
                                std::to_string(jobs) + "." +
                                std::to_string(options.num_requests);
          return bench::RunScalingPoint(options);
        });
    const std::string json = bench::DeterministicPointsJson(results);
    std::vector<std::string> journals;
    for (std::size_t i = 0; i < sizes.size(); ++i) {
      const std::string path = ::testing::TempDir() + "/scaling_jobs" +
                               std::to_string(jobs) + "." +
                               std::to_string(sizes[i]);
      std::ifstream in(path, std::ios::binary);
      ASSERT_TRUE(in.is_open()) << path;
      journals.emplace_back(std::istreambuf_iterator<char>(in),
                            std::istreambuf_iterator<char>());
      in.close();
      std::remove(path.c_str());
      ASSERT_FALSE(journals.back().empty());
    }
    if (jobs == 1) {
      baseline = json;
      baseline_journals = journals;
    } else {
      EXPECT_EQ(json, baseline) << "jobs=" << jobs;
      for (std::size_t i = 0; i < sizes.size(); ++i) {
        EXPECT_EQ(journals[i], baseline_journals[i])
            << "jobs=" << jobs << " size=" << sizes[i];
      }
    }
  }
  EXPECT_FALSE(baseline.empty());
}

}  // namespace
}  // namespace deepplan
