// Named monotonic counters. The fabric is the one writer: it counts its
// transfers and bytes (fabric.transfers, fabric.bytes) into an attached
// registry, and the benchmark reads those two counters for its per-layer
// metrics. Every other count a run makes lives in ServingMetrics or in the
// causal journal.
//
// Thread-confined, like the simulator that writes it: a registry belongs to
// one run.
#ifndef SRC_OBS_METRICS_REGISTRY_H_
#define SRC_OBS_METRICS_REGISTRY_H_

#include <cstdint>
#include <map>
#include <string>

namespace deepplan {

class MetricsRegistry {
 public:
  void AddCounter(const std::string& name, std::int64_t delta = 1) {
    counters_[name] += delta;
  }
  // 0 when the counter was never touched.
  std::int64_t counter(const std::string& name) const {
    const auto it = counters_.find(name);
    return it == counters_.end() ? 0 : it->second;
  }

 private:
  std::map<std::string, std::int64_t> counters_;
};

}  // namespace deepplan

#endif  // SRC_OBS_METRICS_REGISTRY_H_
