#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/model/zoo.h"
#include "src/obs/causal_graph.h"
#include "src/obs/journal_stream.h"
#include "src/obs/metrics_registry.h"
#include "src/serving/instance.h"
#include "src/serving/metrics.h"
#include "src/serving/server.h"
#include "src/util/rng.h"
#include "src/workload/azure_trace.h"
#include "src/workload/poisson.h"

namespace deepplan {
namespace {

// ---------------------------------------------------------------- instances

TEST(InstanceManagerTest, AddAndAccounting) {
  InstanceManager mgr(2, 1000);
  const int a = mgr.AddInstance(0, 0, 400);
  const int b = mgr.AddInstance(0, 0, 400);
  EXPECT_EQ(mgr.num_instances(), 2);
  std::vector<int> evicted;
  EXPECT_TRUE(mgr.MakeResident(a, 1, &evicted));
  EXPECT_TRUE(mgr.MakeResident(b, 2, &evicted));
  EXPECT_TRUE(evicted.empty());
  EXPECT_EQ(mgr.used_bytes(0), 800);
  EXPECT_EQ(mgr.ResidentCount(), 2);
}

TEST(InstanceManagerTest, EvictsLeastRecentlyUsed) {
  InstanceManager mgr(1, 1000);
  const int a = mgr.AddInstance(0, 0, 400);
  const int b = mgr.AddInstance(0, 0, 400);
  const int c = mgr.AddInstance(0, 0, 400);
  std::vector<int> evicted;
  ASSERT_TRUE(mgr.MakeResident(a, 1, &evicted));
  ASSERT_TRUE(mgr.MakeResident(b, 2, &evicted));
  // Touch a so b becomes LRU.
  mgr.MarkUsed(a, 3);
  ASSERT_TRUE(mgr.MakeResident(c, 4, &evicted));
  ASSERT_EQ(evicted.size(), 1u);
  EXPECT_EQ(evicted[0], b);
  EXPECT_TRUE(mgr.instance(a).resident);
  EXPECT_FALSE(mgr.instance(b).resident);
}

TEST(InstanceManagerTest, BusyInstancesAreNotEvicted) {
  InstanceManager mgr(1, 1000);
  const int a = mgr.AddInstance(0, 0, 400);
  const int b = mgr.AddInstance(0, 0, 400);
  const int c = mgr.AddInstance(0, 0, 400);
  std::vector<int> evicted;
  ASSERT_TRUE(mgr.MakeResident(a, 1, &evicted));
  ASSERT_TRUE(mgr.MakeResident(b, 2, &evicted));
  mgr.SetBusy(a, true);
  mgr.SetBusy(b, true);
  // Nothing evictable: c cannot fit.
  EXPECT_FALSE(mgr.MakeResident(c, 3, &evicted));
  mgr.SetBusy(a, false);
  EXPECT_TRUE(mgr.MakeResident(c, 4, &evicted));
  ASSERT_EQ(evicted.size(), 1u);
  EXPECT_EQ(evicted[0], a);
}

TEST(InstanceManagerTest, ResidentInstanceJustRefreshes) {
  InstanceManager mgr(1, 1000);
  const int a = mgr.AddInstance(0, 0, 400);
  std::vector<int> evicted;
  ASSERT_TRUE(mgr.MakeResident(a, 1, &evicted));
  ASSERT_TRUE(mgr.MakeResident(a, 5, &evicted));
  EXPECT_EQ(mgr.used_bytes(0), 400);  // not double-counted
  EXPECT_EQ(mgr.instance(a).last_used, 5);
}

TEST(InstanceManagerTest, PerGpuIsolation) {
  InstanceManager mgr(2, 500);
  const int a = mgr.AddInstance(0, 0, 400);
  const int b = mgr.AddInstance(0, 1, 400);
  std::vector<int> evicted;
  ASSERT_TRUE(mgr.MakeResident(a, 1, &evicted));
  ASSERT_TRUE(mgr.MakeResident(b, 2, &evicted));
  EXPECT_TRUE(evicted.empty());  // separate GPUs, no eviction
  EXPECT_EQ(mgr.used_bytes(0), 400);
  EXPECT_EQ(mgr.used_bytes(1), 400);
}

// ---------------------------------------------------------------- metrics

TEST(MetricsTest, PercentilesGoodputColdRate) {
  ServingMetrics m;
  for (int i = 1; i <= 100; ++i) {
    RequestRecord r;
    r.arrival = 0;
    r.start = 0;
    r.completion = Millis(i);  // latencies 1..100 ms
    r.cold = i % 4 == 0;
    m.Record(r);
  }
  EXPECT_NEAR(m.LatencyPercentileMs(99), 99.0, 1.1);
  EXPECT_NEAR(m.Goodput(Millis(50)), 0.5, 0.01);
  EXPECT_NEAR(m.ColdStartRate(), 0.25, 0.001);
  EXPECT_EQ(m.ColdStartCount(), 25u);
  EXPECT_NEAR(m.MeanLatencyMs(), 50.5, 0.01);
}

TEST(MetricsTest, PerMinuteSeries) {
  ServingMetrics m;
  for (int minute = 0; minute < 3; ++minute) {
    for (int i = 0; i < 10; ++i) {
      RequestRecord r;
      r.arrival = Seconds(60 * minute + i);
      r.start = r.arrival;
      r.completion = r.arrival + Millis(minute == 1 ? 200 : 20);
      r.cold = minute == 1;
      m.Record(r);
    }
  }
  const MinuteSeries s = m.PerMinute(Millis(100));
  ASSERT_EQ(s.requests.size(), 3u);
  EXPECT_EQ(s.requests[0], 10u);
  EXPECT_DOUBLE_EQ(s.goodput[0], 1.0);
  EXPECT_DOUBLE_EQ(s.goodput[1], 0.0);
  EXPECT_EQ(s.cold_starts[1], 10u);
  EXPECT_GT(s.p99_ms[1], s.p99_ms[0]);
}

// Four thousand records in completion order: warm and cold requests, some
// with evictions, a third queued, arrivals spread over five minutes, and 40
// equal latencies holding the 99th rank (sorted ranks 3950-3989; p99
// interpolates between ranks 3959 and 3960).
std::vector<RequestRecord> MixedRecords() {
  Rng rng(2026);
  std::vector<RequestRecord> records;
  for (int i = 0; i < 4000; ++i) {
    RequestRecord r;
    r.arrival = static_cast<Nanos>(rng.NextBounded(Seconds(300)));
    r.start = r.arrival;
    if (i % 3 == 0) {
      r.start += static_cast<Nanos>(rng.NextBounded(Millis(40)));
    }
    r.instance = i % 9;
    r.cold = i % 7 == 0;
    if (r.cold) {
      r.evictions = static_cast<int>(rng.NextBounded(3));
      r.evict = Micros(200) * r.evictions;
      r.load = Millis(5) + static_cast<Nanos>(rng.NextBounded(Millis(30)));
    }
    r.completion = r.start + r.evict + r.load + Millis(2) +
                   static_cast<Nanos>(rng.NextBounded(Millis(20)));
    if (i % 80 == 40) {
      // The 50 slowest requests: 40 tied at 150 ms, then 10 slower still.
      const int slow = i / 80;
      r.completion = r.arrival + Millis(slow < 40 ? 150 : 150 + slow);
    }
    records.push_back(r);
  }
  return records;
}

// Every query against its answer computed the long way from the whole
// records: percentiles by a full sort (Percentiles), means summed in record
// order, counts by a scan.
TEST(MetricsTest, ColumnsAnswerEveryQueryAsTheWholeRecordsDo) {
  const std::vector<RequestRecord> records = MixedRecords();
  ServingMetrics m;
  for (const RequestRecord& r : records) {
    m.Record(r);
  }
  ASSERT_EQ(m.count(), records.size());

  Percentiles latency, queue, cold, exec;
  std::size_t cold_starts = 0;
  std::size_t evictions = 0;
  std::vector<Nanos> latencies;
  for (const RequestRecord& r : records) {
    latency.Add(ToMillis(r.Latency()));
    queue.Add(ToMillis(r.QueueTime()));
    cold.Add(ToMillis(r.ColdStartTime()));
    exec.Add(ToMillis(r.ExecTime()));
    cold_starts += r.cold ? 1 : 0;
    evictions += static_cast<std::size_t>(r.evictions);
    latencies.push_back(r.Latency());
  }
  ASSERT_GT(cold_starts, 0u);
  ASSERT_GT(evictions, 0u);
  // Summed in record order, before Percentile() sorts the samples.
  const double mean_latency = latency.Mean();
  EXPECT_EQ(m.latencies(), latencies);
  for (const double p : {0.0, 50.0, 99.0, 100.0}) {
    EXPECT_EQ(m.LatencyPercentileMs(p), latency.Percentile(p)) << "p" << p;
  }
  EXPECT_DOUBLE_EQ(m.LatencyPercentileMs(99), 150.0);  // the tied block holds it
  EXPECT_EQ(m.MeanLatencyMs(), mean_latency);
  for (const Nanos slo : {Millis(25), Millis(100)}) {
    const auto good = std::count_if(records.begin(), records.end(),
                                    [slo](const RequestRecord& r) {
                                      return r.Latency() <= slo;
                                    });
    EXPECT_EQ(m.Goodput(slo),
              static_cast<double>(good) / static_cast<double>(records.size()));
  }
  EXPECT_EQ(m.ColdStartCount(), cold_starts);
  EXPECT_EQ(m.ColdStartRate(), static_cast<double>(cold_starts) /
                                   static_cast<double>(records.size()));
  EXPECT_EQ(m.EvictionCount(), evictions);

  const LatencyBreakdown b = m.Breakdown();
  EXPECT_EQ(b.mean_queue_ms, queue.Mean());
  EXPECT_EQ(b.p99_queue_ms, queue.Percentile(99));
  EXPECT_EQ(b.mean_cold_ms, cold.Mean());
  EXPECT_EQ(b.p99_cold_ms, cold.Percentile(99));
  EXPECT_EQ(b.mean_exec_ms, exec.Mean());
  EXPECT_EQ(b.p99_exec_ms, exec.Percentile(99));
  EXPECT_EQ(b.mean_total_ms, mean_latency);
  EXPECT_EQ(b.p99_total_ms, latency.Percentile(99));

  const Nanos slo = Millis(30);
  std::vector<Percentiles> minute_latency(5);
  std::vector<std::size_t> requests(5, 0), good(5, 0), colds(5, 0);
  for (const RequestRecord& r : records) {
    const auto minute = static_cast<std::size_t>(r.arrival / Seconds(60));
    minute_latency[minute].Add(ToMillis(r.Latency()));
    ++requests[minute];
    good[minute] += r.Latency() <= slo ? 1 : 0;
    colds[minute] += r.cold ? 1 : 0;
  }
  const MinuteSeries series = m.PerMinute(slo);
  ASSERT_EQ(series.requests.size(), 5u);
  EXPECT_EQ(series.requests, requests);
  EXPECT_EQ(series.cold_starts, colds);
  ASSERT_EQ(series.p99_ms.size(), 5u);
  ASSERT_EQ(series.goodput.size(), 5u);
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(series.p99_ms[i], minute_latency[i].Percentile(99)) << "minute " << i;
    EXPECT_EQ(series.goodput[i], static_cast<double>(good[i]) /
                                     static_cast<double>(requests[i]))
        << "minute " << i;
  }
}

// ---------------------------------------------------------------- server

class ServerTest : public ::testing::Test {
 protected:
  static ServerOptions BaseOptions(Strategy strategy) {
    ServerOptions options;
    options.strategy = strategy;
    options.slo = Millis(100);
    return options;
  }
};

TEST_F(ServerTest, WarmOnlyWorkloadHasNoColdStarts) {
  const Topology topo = Topology::P3_8xlarge();
  const PerfModel perf(topo.gpu(), topo.pcie());
  Server server(topo, perf, BaseOptions(Strategy::kPipeSwitch));
  const int type = server.RegisterModelType(ModelZoo::BertBase());
  server.AddInstances(type, 8);  // fits easily: everything stays resident

  PoissonOptions w;
  w.rate_per_sec = 40;
  w.num_instances = 8;
  w.duration = Seconds(5);
  const ServingMetrics m = server.Run(GeneratePoissonTrace(w));
  EXPECT_GT(m.count(), 100u);
  EXPECT_EQ(m.ColdStartCount(), 0u);
  EXPECT_NEAR(m.Goodput(Millis(100)), 1.0, 0.001);
  // Warm latency ~10 ms; p99 includes mild queueing.
  EXPECT_LT(m.LatencyPercentileMs(99), 60.0);
}

TEST_F(ServerTest, OverCapacityTriggersColdStartsAndEviction) {
  const Topology topo = Topology::P3_8xlarge();
  const PerfModel perf(topo.gpu(), topo.pcie());
  ServerOptions options = BaseOptions(Strategy::kPipeSwitch);
  // Shrink GPU memory so only ~4 instances fit per GPU.
  options.usable_bytes_per_gpu = 2LL * 1024 * 1024 * 1024;
  Server server(topo, perf, options);
  const int type = server.RegisterModelType(ModelZoo::BertBase());
  server.AddInstances(type, 40);  // 10 per GPU home, only ~4 fit

  EXPECT_LT(server.WarmCapacity(), 40);
  PoissonOptions w;
  w.rate_per_sec = 60;
  w.num_instances = 40;
  w.duration = Seconds(5);
  const ServingMetrics m = server.Run(GeneratePoissonTrace(w));
  EXPECT_GT(m.ColdStartCount(), 0u);
  EXPECT_GT(m.LatencyPercentileMs(99), 30.0);
}

TEST_F(ServerTest, DeepPlanInstancesHaveSmallerFootprint) {
  // Figure 13's capacity effect: DHA layers stay host-side, so more DeepPlan
  // instances fit in the same GPU memory.
  const Topology topo = Topology::P3_8xlarge();
  const PerfModel perf(topo.gpu(), topo.pcie());

  Server pipeswitch(topo, perf, BaseOptions(Strategy::kPipeSwitch));
  const int t1 = pipeswitch.RegisterModelType(ModelZoo::BertBase());
  pipeswitch.AddInstances(t1, 200);

  Server deepplan(topo, perf, BaseOptions(Strategy::kDeepPlanPtDha));
  const int t2 = deepplan.RegisterModelType(ModelZoo::BertBase());
  deepplan.AddInstances(t2, 200);

  // Warmup happens inside Run; use a trivial trace.
  PoissonOptions w;
  w.rate_per_sec = 1;
  w.num_instances = 200;
  w.duration = Seconds(1);
  pipeswitch.Run(GeneratePoissonTrace(w));
  deepplan.Run(GeneratePoissonTrace(w));
  EXPECT_GT(deepplan.WarmCapacity(), pipeswitch.WarmCapacity());
  // Paper: 100 vs 124 on 4x16GB with 417 MiB models.
  EXPECT_NEAR(pipeswitch.WarmCapacity(), 100, 8);
  EXPECT_NEAR(deepplan.WarmCapacity(), 124, 10);
}

TEST_F(ServerTest, DeepPlanTailBeatsPipeSwitchUnderChurn) {
  // Over-committed concurrency: DeepPlan's cheaper cold starts and higher
  // capacity must show up as lower p99 and higher goodput.
  const Topology topo = Topology::P3_8xlarge();
  const PerfModel perf(topo.gpu(), topo.pcie());
  auto run = [&](Strategy strategy) {
    Server server(topo, perf, BaseOptions(strategy));
    const int type = server.RegisterModelType(ModelZoo::BertBase());
    server.AddInstances(type, 140);
    PoissonOptions w;
    w.rate_per_sec = 100;
    w.num_instances = 140;
    w.duration = Seconds(10);
    w.seed = 3;
    return server.Run(GeneratePoissonTrace(w));
  };
  ServingMetrics ps = run(Strategy::kPipeSwitch);
  ServingMetrics dp = run(Strategy::kDeepPlanPtDha);
  EXPECT_LT(dp.LatencyPercentileMs(99), ps.LatencyPercentileMs(99));
  EXPECT_GE(dp.Goodput(Millis(100)), ps.Goodput(Millis(100)));
}

TEST_F(ServerTest, MixedModelTypes) {
  const Topology topo = Topology::P3_8xlarge();
  const PerfModel perf(topo.gpu(), topo.pcie());
  Server server(topo, perf, BaseOptions(Strategy::kDeepPlanDha));
  const int bert = server.RegisterModelType(ModelZoo::BertBase());
  const int roberta = server.RegisterModelType(ModelZoo::RobertaBase());
  const int gpt2 = server.RegisterModelType(ModelZoo::Gpt2());
  server.AddInstances(bert, 4);
  server.AddInstances(roberta, 4);
  server.AddInstances(gpt2, 1);
  EXPECT_EQ(server.num_instances(), 9);
  PoissonOptions w;
  w.rate_per_sec = 30;
  w.num_instances = 9;
  w.duration = Seconds(5);
  const ServingMetrics m = server.Run(GeneratePoissonTrace(w));
  EXPECT_GT(m.count(), 50u);
  EXPECT_GT(m.Goodput(Millis(100)), 0.9);
}

// An Azure-like trace over capacity in which every 20th arrival brings four
// more at the same nanosecond, on other instances: equal-time arrivals fire
// in trace order.
Trace BurstyAzureTrace(int instances) {
  AzureTraceOptions w;
  w.num_instances = instances;
  w.duration = Seconds(30);
  w.target_rate_per_sec = 60;
  const Trace base = GenerateAzureTrace(w);
  std::vector<Arrival> arrivals;
  for (std::size_t i = 0; i < base.size(); ++i) {
    const Arrival& a = base.arrivals()[i];
    arrivals.push_back(a);
    for (int k = 1; i % 20 == 0 && k <= 4; ++k) {
      arrivals.push_back({a.time, (a.instance + 7 * k) % instances});
    }
  }
  return Trace(std::move(arrivals));
}

// Run() feeds one arrival at a time at sequence numbers reserved up front;
// the oracle queues every arrival before the run. Both must pop every event
// in the same order: the same answers, the same journal, the same number of
// events scheduled. Only the queue's size differs.
TEST_F(ServerTest, RunFeedsArrivalsAsIfAllWereQueuedUpFront) {
  const Topology topo = Topology::P3_8xlarge();
  const PerfModel perf(topo.gpu(), topo.pcie());
  ServerOptions options = BaseOptions(Strategy::kDeepPlanPtDha);
  options.usable_bytes_per_gpu = 2LL * 1024 * 1024 * 1024;  // force churn
  const Trace trace = BurstyAzureTrace(40);

  struct Replay {
    Simulator sim;
    std::unique_ptr<Server> server;
    CausalGraph causal{true};
  };
  const auto make = [&](Replay* r) {
    r->server = std::make_unique<Server>(&r->sim, topo, perf, options);
    r->server->AddInstances(r->server->RegisterModelType(ModelZoo::BertBase()), 40);
    r->server->set_causal(&r->causal, r->causal.RegisterProcess("server"));
  };
  Replay run;
  make(&run);
  const ServingMetrics got = run.server->Run(trace);

  Replay oracle;
  make(&oracle);
  oracle.server->Warmup();
  for (const Arrival& a : trace.arrivals()) {
    oracle.sim.ScheduleAt(a.time, [server = oracle.server.get(), instance = a.instance] {
      server->Submit(instance);
    });
  }
  oracle.sim.Run();
  const ServingMetrics& want = oracle.server->metrics();

  ASSERT_EQ(got.count(), trace.size());
  ASSERT_GT(got.EvictionCount(), 0u);
  EXPECT_EQ(got.latencies(), want.latencies());
  for (const double p : {0.0, 50.0, 99.0, 100.0}) {
    EXPECT_EQ(got.LatencyPercentileMs(p), want.LatencyPercentileMs(p)) << "p" << p;
  }
  EXPECT_EQ(got.MeanLatencyMs(), want.MeanLatencyMs());
  EXPECT_EQ(got.Goodput(options.slo), want.Goodput(options.slo));
  EXPECT_EQ(got.ColdStartCount(), want.ColdStartCount());
  EXPECT_EQ(got.EvictionCount(), want.EvictionCount());
  const LatencyBreakdown gb = got.Breakdown();
  const LatencyBreakdown wb = want.Breakdown();
  EXPECT_EQ(gb.mean_queue_ms, wb.mean_queue_ms);
  EXPECT_EQ(gb.p99_queue_ms, wb.p99_queue_ms);
  EXPECT_EQ(gb.mean_cold_ms, wb.mean_cold_ms);
  EXPECT_EQ(gb.p99_cold_ms, wb.p99_cold_ms);
  EXPECT_EQ(gb.mean_exec_ms, wb.mean_exec_ms);
  EXPECT_EQ(gb.p99_exec_ms, wb.p99_exec_ms);
  const MinuteSeries gs = got.PerMinute(options.slo);
  const MinuteSeries ws = want.PerMinute(options.slo);
  EXPECT_EQ(gs.p99_ms, ws.p99_ms);
  EXPECT_EQ(gs.goodput, ws.goodput);
  EXPECT_EQ(gs.requests, ws.requests);
  EXPECT_EQ(gs.cold_starts, ws.cold_starts);
  EXPECT_TRUE(run.causal.journal() == oracle.causal.journal());

  const EventQueue& fed = run.sim.event_queue();
  const EventQueue& queued = oracle.sim.event_queue();
  EXPECT_EQ(fed.total_scheduled(), queued.total_scheduled());
  EXPECT_GE(queued.slot_capacity(), trace.size());
  EXPECT_LT(fed.slot_capacity() * 20, trace.size());
}

// ---------------------------------------------------------------- telemetry

// The fabric counters the benchmark reads through set_telemetry(nullptr,
// registry) count exactly the transfers the journal records: one PCIe or
// NVLink node per fabric transfer, with its bytes.
TEST_F(ServerTest, FabricCountersMatchJournalTransfers) {
  const Topology topo = Topology::P3_8xlarge();
  const PerfModel perf(topo.gpu(), topo.pcie());
  for (const Strategy strategy : AllStrategies()) {
    ServerOptions options = BaseOptions(strategy);
    options.usable_bytes_per_gpu = 2LL * 1024 * 1024 * 1024;  // force churn
    Server server(topo, perf, options);
    const int type = server.RegisterModelType(ModelZoo::BertBase());
    server.AddInstances(type, 40);

    MetricsRegistry registry;
    server.set_telemetry(nullptr, &registry);
    CausalGraph graph(/*enabled=*/true);
    server.set_causal(&graph, graph.RegisterProcess("server"));

    PoissonOptions w;
    w.rate_per_sec = 60;
    w.num_instances = 40;
    w.duration = Seconds(5);
    const ServingMetrics m = server.Run(GeneratePoissonTrace(w));
    ASSERT_GT(m.ColdStartCount(), 0u) << StrategyName(strategy);
    ASSERT_GT(m.EvictionCount(), 0u) << StrategyName(strategy);

    std::int64_t transfers = 0;
    std::int64_t bytes = 0;
    ForEachGraphChunk(graph, [&](JournalChunk& chunk) {
      for (const CpNode& node : chunk.nodes) {
        if (node.kind == CpKind::kPcie || node.kind == CpKind::kNvlink) {
          ++transfers;
          bytes += node.bytes;
        }
      }
    });
    EXPECT_EQ(registry.counter("fabric.transfers"), transfers)
        << StrategyName(strategy);
    EXPECT_EQ(registry.counter("fabric.bytes"), bytes) << StrategyName(strategy);
    if (strategy == Strategy::kDeepPlanPtDha) {
      EXPECT_EQ(transfers, 19'240);
      EXPECT_EQ(bytes, 73'091'665'920);
    }
  }
}

TEST_F(ServerTest, LatencyBreakdownComponentsTileTotal) {
  const Topology topo = Topology::P3_8xlarge();
  const PerfModel perf(topo.gpu(), topo.pcie());
  ServerOptions options = BaseOptions(Strategy::kDeepPlanPtDha);
  options.usable_bytes_per_gpu = 2LL * 1024 * 1024 * 1024;
  Server server(topo, perf, options);
  const int type = server.RegisterModelType(ModelZoo::BertBase());
  server.AddInstances(type, 40);
  PoissonOptions w;
  w.rate_per_sec = 60;
  w.num_instances = 40;
  w.duration = Seconds(5);
  const ServingMetrics m = server.Run(GeneratePoissonTrace(w));
  ASSERT_GT(m.ColdStartCount(), 0u);
  const LatencyBreakdown b = m.Breakdown();
  // The decomposition is additive per request, so it is additive in the mean.
  EXPECT_NEAR(b.mean_queue_ms + b.mean_cold_ms + b.mean_exec_ms, b.mean_total_ms,
              1e-6);
  EXPECT_GT(b.mean_cold_ms, 0.0);
  EXPECT_GT(b.mean_exec_ms, 0.0);
  EXPECT_GE(b.p99_total_ms, b.p99_exec_ms);
}

}  // namespace
}  // namespace deepplan
