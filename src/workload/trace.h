// Arrival traces: the common currency between workload generators and the
// serving simulator. A trace is a time-ordered list of (arrival time,
// instance id) pairs, with CSV persistence and scaling helpers so real
// Microsoft-Azure-Functions-derived traces can be replayed too.
#ifndef SRC_WORKLOAD_TRACE_H_
#define SRC_WORKLOAD_TRACE_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/util/time.h"

namespace deepplan {

struct Arrival {
  Nanos time = 0;
  int instance = 0;
};

class Trace {
 public:
  Trace() = default;
  explicit Trace(std::vector<Arrival> arrivals);

  const std::vector<Arrival>& arrivals() const { return arrivals_; }
  std::size_t size() const { return arrivals_.size(); }
  bool empty() const { return arrivals_.empty(); }
  Nanos duration() const { return empty() ? 0 : arrivals_.back().time; }

  // Mean request rate over the trace duration (requests/second).
  double MeanRate() const;

  // Requests per instance (index = instance id).
  std::vector<std::size_t> PerInstanceCounts(int num_instances) const;

  // Per-minute arrival counts (the "offered load" series of Figure 15).
  std::vector<std::size_t> PerMinuteCounts() const;

  // Uniformly rescales arrival times so the mean rate becomes
  // `target_rate_per_sec` (same arrival pattern, different intensity).
  Trace ScaledToRate(double target_rate_per_sec) const;

  // CSV round-trip: one "<time_ns>,<instance>" line per arrival. Parsing is
  // strict: every row needs two integer fields and a non-negative time, so a
  // truncated or garbled file fails loudly instead of yielding a silently
  // short trace.
  std::string ToCsv() const;
  static std::optional<Trace> FromCsv(const std::string& text);
  bool SaveTo(const std::string& path) const;
  // Loads a trace to replay on a server of `num_instances` instances: a real
  // (or exported) MAF-style CSV. Streams the file line-at-a-time (no
  // whole-file buffer — MAF-scale traces are larger than the arrivals they
  // decode to), and refuses a malformed row, or one naming an instance the
  // server lacks, with the offending line in `error`: "path:LINE: malformed
  // row ...".
  static std::optional<Trace> LoadFrom(const std::string& path,
                                       int num_instances, std::string* error);

 private:
  std::vector<Arrival> arrivals_;  // sorted by time
};

}  // namespace deepplan

#endif  // SRC_WORKLOAD_TRACE_H_
