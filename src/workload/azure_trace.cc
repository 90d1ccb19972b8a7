#include "src/workload/azure_trace.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "src/obs/selfprof.h"
#include "src/util/index.h"
#include "src/util/logging.h"
#include "src/util/rng.h"

namespace deepplan {

Trace GenerateAzureTrace(const AzureTraceOptions& options) {
  DP_SELFPROF_SCOPE(kWorkloadGen);
  DP_CHECK(options.num_instances > 0);
  DP_CHECK(options.duration > 0);
  DP_CHECK(options.target_rate_per_sec > 0);
  Rng rng(options.seed);

  // Per-instance popularity: Zipf weights, shuffled so instance id does not
  // correlate with popularity.
  const int n = options.num_instances;
  std::vector<double> weight(Idx(n));
  for (int i = 0; i < n; ++i) {
    weight[Idx(i)] = 1.0 / std::pow(static_cast<double>(i + 1), options.zipf_exponent);
  }
  for (int i = n - 1; i > 0; --i) {
    const auto j = static_cast<int>(rng.NextBounded(static_cast<std::uint64_t>(i + 1)));
    std::swap(weight[Idx(i)], weight[Idx(j)]);
  }
  double weight_sum = 0.0;
  for (double w : weight) {
    weight_sum += w;
  }

  // Per-instance spike windows.
  struct Spike {
    Nanos start;
    Nanos end;
  };
  std::vector<std::vector<Spike>> spikes(Idx(n));
  const double hours = ToSeconds(options.duration) / 3600.0;
  for (int i = 0; i < n; ++i) {
    const auto count =
        rng.NextPoisson(options.spikes_per_instance_per_hour * hours);
    for (std::uint64_t s = 0; s < count; ++s) {
      const Nanos start = static_cast<Nanos>(rng.NextDouble() *
                                             static_cast<double>(options.duration));
      spikes[Idx(i)].push_back(Spike{start, start + options.spike_duration});
    }
  }
  auto spike_boost = [&](int i, Nanos t) {
    for (const Spike& s : spikes[Idx(i)]) {
      if (t >= s.start && t < s.end) {
        return options.spike_multiplier;
      }
    }
    return 1.0;
  };

  // Diurnal modulation: one full sinusoid over the trace (the paper replays a
  // 3-hour slice; the fluctuation pattern matters, not its absolute period).
  auto diurnal = [&](Nanos t) {
    const double phase = 2.0 * M_PI * static_cast<double>(t) /
                         static_cast<double>(options.duration);
    return 1.0 + options.diurnal_depth * std::sin(phase);
  };

  // Thinning-based nonhomogeneous Poisson sampling. Upper bound on the total
  // rate: everything spiking at diurnal peak.
  const double base = options.target_rate_per_sec;
  const double rate_max =
      base * (1.0 + options.diurnal_depth) * options.spike_multiplier;
  std::vector<Arrival> arrivals;
  double t_sec = 0.0;
  const double horizon = ToSeconds(options.duration);
  while (true) {
    t_sec += rng.NextExponential(rate_max);
    if (t_sec >= horizon) {
      break;
    }
    const Nanos t = Seconds(t_sec);
    // Pick an instance by popularity, then thin by its instantaneous rate.
    double pick = rng.NextDouble() * weight_sum;
    int inst = 0;
    for (; inst < n - 1; ++inst) {
      pick -= weight[Idx(inst)];
      if (pick <= 0) {
        break;
      }
    }
    const double rate_now = base * diurnal(t) * spike_boost(inst, t);
    if (rng.NextDouble() < rate_now / rate_max) {
      arrivals.push_back(Arrival{t, inst});
    }
  }
  Trace trace(std::move(arrivals));
  // Normalize the realized mean rate to the target.
  if (trace.MeanRate() > 0) {
    return trace.ScaledToRate(options.target_rate_per_sec);
  }
  return trace;
}

}  // namespace deepplan
