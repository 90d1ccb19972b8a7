// Synthetic Microsoft-Azure-Functions-like workload (Section 5.3.2). The MAF
// 2019 characterization (Shahrad et al., ATC'20) shows: heavily skewed
// per-function popularity (a few functions dominate), slow diurnal rate
// fluctuation, and short high-intensity spikes on individual functions. This
// generator reproduces those features as a nonhomogeneous Poisson process:
//   rate(t, i) = popularity_i * diurnal(t) * (1 + spike_i(t)) * base
// normalized so the whole trace averages `target_rate_per_sec`. Real MAF CSVs
// can be replayed instead via Trace::LoadFrom.
#ifndef SRC_WORKLOAD_AZURE_TRACE_H_
#define SRC_WORKLOAD_AZURE_TRACE_H_

#include <cstdint>

#include "src/workload/trace.h"

namespace deepplan {

struct AzureTraceOptions {
  int num_instances = 90;
  Nanos duration = Seconds(180);
  double target_rate_per_sec = 150.0;
  std::uint64_t seed = 7;

  // Popularity skew (Zipf exponent over instances).
  double zipf_exponent = 0.9;
  // Diurnal modulation depth (0 = flat, 0.4 = +-40% sinusoid over the trace).
  double diurnal_depth = 0.35;
  // Expected spikes per instance per hour, their intensity multiple, and
  // duration.
  double spikes_per_instance_per_hour = 2.0;
  double spike_multiplier = 4.0;
  Nanos spike_duration = Seconds(20);
};

Trace GenerateAzureTrace(const AzureTraceOptions& options);

}  // namespace deepplan

#endif  // SRC_WORKLOAD_AZURE_TRACE_H_
