// Serving metrics: tail latency, goodput against an SLO, cold-start rate, the
// latency breakdown, and per-minute time series (the three panels of
// Figures 13-15), from per-request records.
#ifndef SRC_SERVING_METRICS_H_
#define SRC_SERVING_METRICS_H_

#include <cstdint>
#include <vector>

#include "src/util/stats.h"
#include "src/util/time.h"

namespace deepplan {

struct RequestRecord {
  Nanos arrival = 0;
  Nanos start = 0;       // dispatch time (queueing ends)
  Nanos completion = 0;
  int instance = -1;
  bool cold = false;
  // Cold-start decomposition (all zero for warm requests): eviction teardown,
  // then provisioning until every parameter is resident on the primary GPU.
  // Execution overlaps provisioning under pipelining, so ExecTime() is the
  // post-load execution tail — the three parts sum exactly to Latency() minus
  // QueueTime().
  Nanos evict = 0;
  Nanos load = 0;
  int evictions = 0;     // instances evicted to make room

  Nanos Latency() const { return completion - arrival; }
  Nanos QueueTime() const { return start - arrival; }
  Nanos ColdStartTime() const { return evict + load; }
  Nanos ExecTime() const { return completion - start - evict - load; }
};

// Mean/p99 of each additive latency component over all requests (the paper's
// Figure 15 narrative in one table: where does the tail come from?).
struct LatencyBreakdown {
  double mean_queue_ms = 0.0;
  double p99_queue_ms = 0.0;
  double mean_cold_ms = 0.0;  // evict + provisioning; 0 for warm requests
  double p99_cold_ms = 0.0;
  double mean_exec_ms = 0.0;
  double p99_exec_ms = 0.0;
  double mean_total_ms = 0.0;
  double p99_total_ms = 0.0;
};

struct MinuteSeries {
  std::vector<double> p99_ms;
  std::vector<double> goodput;    // fraction of requests within SLO
  std::vector<std::size_t> requests;
  std::vector<std::size_t> cold_starts;
};

// Keeps, per finished request, only what its queries read: five columns
// (arrival, queue time, cold-start time, latency, cold flag), in completion
// order, plus running cold-start and eviction counts. A request costs four
// 8-byte columns and one bit, not a 56-byte RequestRecord; exec time is
// latency - queue - cold-start time, the same integer as
// RequestRecord::ExecTime.
class ServingMetrics {
 public:
  void Record(const RequestRecord& record);

  std::size_t count() const { return latency_.size(); }
  // Each request's latency (completion - arrival), in completion order.
  const std::vector<Nanos>& latencies() const { return latency_; }

  // Latency percentile in milliseconds (p in [0,100]).
  double LatencyPercentileMs(double p) const;
  double MeanLatencyMs() const;

  // Fraction of requests with latency <= slo.
  double Goodput(Nanos slo) const;

  // Fraction of requests that triggered a cold start.
  double ColdStartRate() const;
  std::size_t ColdStartCount() const { return cold_starts_; }

  // Instances evicted across all recorded requests.
  std::size_t EvictionCount() const { return evictions_; }

  // Per-request latency decomposition (queue vs. cold-start vs. exec).
  LatencyBreakdown Breakdown() const;

  // Per-minute breakdown (Figure 15's time axis).
  MinuteSeries PerMinute(Nanos slo) const;

 private:
  std::vector<Nanos> arrival_;
  std::vector<Nanos> queue_;      // start - arrival
  std::vector<Nanos> cold_time_;  // evict + load
  std::vector<Nanos> latency_;    // completion - arrival
  std::vector<bool> cold_;
  std::size_t cold_starts_ = 0;
  std::size_t evictions_ = 0;
};

}  // namespace deepplan

#endif  // SRC_SERVING_METRICS_H_
