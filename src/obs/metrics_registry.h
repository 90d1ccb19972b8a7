// Named metrics for a simulation run: monotonic counters, last-value gauges,
// and sample histograms, with deterministic JSON snapshot export. Components
// (fabric, server, cluster) hold a `MetricsRegistry*` that is nullptr when
// telemetry is off; when attached, one registry accumulates a whole run and
// its snapshot lands in the bench's BENCH_<name>.json report.
//
// Naming convention: dotted lowercase paths, component first —
//   fabric.transfers, fabric.bytes,
//   server.requests, server.cold_starts, server.warm_hits, server.evictions,
//   server.queue_depth.gpu<g>, server.latency_ms (histogram),
//   cluster.routed.server<k>.
//
// Export order is the sorted metric name, so identical runs render to
// identical bytes regardless of the order metrics were first touched.
//
// Internally synchronized (GUARDED_BY mu_): the registry can be shared across
// threads — e.g. a JournalWriter bumping journal.* counters from whichever
// thread retires a request — *without* breaking determinism, because every
// mutation is commutative (counter adds, gauge last-write per distinct name,
// histogram sample multiset) and the export is sorted. The one caveat is
// gauges: concurrent SetGauge on the *same* name is last-write-wins and so
// timing-dependent; writers of a given gauge name must stay single-threaded.
#ifndef SRC_OBS_METRICS_REGISTRY_H_
#define SRC_OBS_METRICS_REGISTRY_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>

#include "src/util/json.h"
#include "src/util/stats.h"
#include "src/util/thread_annotations.h"

namespace deepplan {

// Percentile summary of one sample histogram, as exported in the snapshot.
struct HistogramSummary {
  std::size_t count = 0;
  double mean = 0.0;
  double min = 0.0;
  double max = 0.0;
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  // Movable so sweep tasks can return a registry inside their result struct
  // (SweepRunner task-index slots). Moves run under the standard exclusive-
  // access contract — no other thread may touch either object during the
  // move, which is exactly the hand-off situation they exist for — so they
  // deliberately bypass the lock; each object keeps its own (non-movable)
  // mutex.
  MetricsRegistry(MetricsRegistry&& other) noexcept NO_THREAD_SAFETY_ANALYSIS;
  MetricsRegistry& operator=(MetricsRegistry&& other) noexcept
      NO_THREAD_SAFETY_ANALYSIS;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  void AddCounter(const std::string& name, std::int64_t delta = 1)
      EXCLUDES(mu_);
  // 0 when the counter was never touched.
  std::int64_t counter(const std::string& name) const EXCLUDES(mu_);

  void SetGauge(const std::string& name, double value) EXCLUDES(mu_);
  double gauge(const std::string& name) const EXCLUDES(mu_);

  void Observe(const std::string& name, double sample) EXCLUDES(mu_);
  HistogramSummary histogram(const std::string& name) const EXCLUDES(mu_);

  bool empty() const EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return counters_.empty() && gauges_.empty() && histograms_.empty();
  }

  // {"counters":{...},"gauges":{...},"histograms":{name:{count,mean,min,max,
  // p50,p95,p99}}} with sorted keys; empty sections are omitted.
  JsonObject Snapshot() const EXCLUDES(mu_);
  JsonObject ToJsonObject() const { return Snapshot(); }  // legacy name
  std::string ToJson() const { return Snapshot().Render(); }

 private:
  // Summarizes a by-value copy so Snapshot() can render histograms without
  // re-entering the (non-recursive) lock via histogram(). The copy is load-
  // bearing either way: Percentile() sorts lazily, mutating the instance.
  static HistogramSummary SummaryOf(Percentiles pct);

  mutable Mutex mu_;
  std::map<std::string, std::int64_t> counters_ GUARDED_BY(mu_);
  std::map<std::string, double> gauges_ GUARDED_BY(mu_);
  std::map<std::string, Percentiles> histograms_ GUARDED_BY(mu_);
};

}  // namespace deepplan

#endif  // SRC_OBS_METRICS_REGISTRY_H_
