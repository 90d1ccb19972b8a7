#include "src/serving/metrics.h"

#include <algorithm>

#include "src/check/validator.h"
#include "src/util/logging.h"

namespace deepplan {

namespace {

// Percentiles::Percentile(p) of non-empty `samples`, selecting the two order
// statistics it interpolates between instead of sorting. Reorders `samples`.
double SelectPercentile(std::vector<double>* samples, double p) {
  DP_CHECK(p >= 0.0 && p <= 100.0);
  const double rank = p / 100.0 * static_cast<double>(samples->size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const double frac = rank - static_cast<double>(lo);
  if (lo + 1 >= samples->size()) {
    return *std::max_element(samples->begin(), samples->end());
  }
  const auto at = samples->begin() + static_cast<std::ptrdiff_t>(lo);
  std::nth_element(samples->begin(), at, samples->end());
  return *at * (1.0 - frac) + *std::min_element(at + 1, samples->end()) * frac;
}

}  // namespace

void ServingMetrics::Record(const RequestRecord& record) {
  check::SimValidator::OnRequestComplete(record.arrival, record.start,
                                         record.evict, record.load,
                                         record.completion, record.cold,
                                         record.evictions);
  DP_CHECK(record.completion >= record.start);
  DP_CHECK(record.start >= record.arrival);
  DP_CHECK(record.evict >= 0 && record.load >= 0 && record.evictions >= 0);
  DP_CHECK(record.completion >= record.start + record.evict + record.load);
  records_.push_back(record);
}

double ServingMetrics::LatencyPercentileMs(double p) const {
  if (records_.empty()) {
    return 0.0;
  }
  std::vector<double> latencies;
  latencies.reserve(records_.size());
  for (const auto& r : records_) {
    latencies.push_back(ToMillis(r.Latency()));
  }
  return SelectPercentile(&latencies, p);
}

double ServingMetrics::MeanLatencyMs() const {
  if (records_.empty()) {
    return 0.0;
  }
  double sum = 0.0;
  for (const auto& r : records_) {
    sum += ToMillis(r.Latency());
  }
  return sum / static_cast<double>(records_.size());
}

double ServingMetrics::Goodput(Nanos slo) const {
  if (records_.empty()) {
    return 0.0;
  }
  std::size_t good = 0;
  for (const auto& r : records_) {
    if (r.Latency() <= slo) {
      ++good;
    }
  }
  return static_cast<double>(good) / static_cast<double>(records_.size());
}

double ServingMetrics::ColdStartRate() const {
  if (records_.empty()) {
    return 0.0;
  }
  return static_cast<double>(ColdStartCount()) / static_cast<double>(records_.size());
}

std::size_t ServingMetrics::ColdStartCount() const {
  std::size_t n = 0;
  for (const auto& r : records_) {
    if (r.cold) {
      ++n;
    }
  }
  return n;
}

std::size_t ServingMetrics::EvictionCount() const {
  std::size_t n = 0;
  for (const auto& r : records_) {
    n += static_cast<std::size_t>(r.evictions);
  }
  return n;
}

LatencyBreakdown ServingMetrics::Breakdown() const {
  LatencyBreakdown b;
  if (records_.empty()) {
    return b;
  }
  // One buffer for each component in turn; the mean is summed in record
  // order, as Percentiles::Mean does, before the selection reorders it.
  std::vector<double> samples(records_.size());
  const auto summarize = [this, &samples](Nanos (RequestRecord::*part)() const,
                                          double* mean, double* p99) {
    double sum = 0.0;
    for (std::size_t i = 0; i < records_.size(); ++i) {
      samples[i] = ToMillis((records_[i].*part)());
      sum += samples[i];
    }
    *mean = sum / static_cast<double>(samples.size());
    *p99 = SelectPercentile(&samples, 99.0);
  };
  summarize(&RequestRecord::QueueTime, &b.mean_queue_ms, &b.p99_queue_ms);
  summarize(&RequestRecord::ColdStartTime, &b.mean_cold_ms, &b.p99_cold_ms);
  summarize(&RequestRecord::ExecTime, &b.mean_exec_ms, &b.p99_exec_ms);
  summarize(&RequestRecord::Latency, &b.mean_total_ms, &b.p99_total_ms);
  check::SimValidator::OnBreakdown(b.mean_queue_ms, b.mean_cold_ms,
                                   b.mean_exec_ms, b.mean_total_ms);
  return b;
}

MinuteSeries ServingMetrics::PerMinute(Nanos slo) const {
  MinuteSeries series;
  std::vector<Percentiles> latencies;
  std::vector<std::size_t> good;
  for (const auto& r : records_) {
    const auto minute = static_cast<std::size_t>(r.arrival / (60 * kNanosPerSecond));
    if (minute >= latencies.size()) {
      latencies.resize(minute + 1);
      good.resize(minute + 1, 0);
      series.requests.resize(minute + 1, 0);
      series.cold_starts.resize(minute + 1, 0);
    }
    latencies[minute].Add(ToMillis(r.Latency()));
    ++series.requests[minute];
    if (r.Latency() <= slo) {
      ++good[minute];
    }
    if (r.cold) {
      ++series.cold_starts[minute];
    }
  }
  series.p99_ms.resize(latencies.size(), 0.0);
  series.goodput.resize(latencies.size(), 0.0);
  for (std::size_t m = 0; m < latencies.size(); ++m) {
    if (latencies[m].count() > 0) {
      series.p99_ms[m] = latencies[m].Percentile(99.0);
      series.goodput[m] = static_cast<double>(good[m]) /
                          static_cast<double>(series.requests[m]);
    }
  }
  return series;
}

}  // namespace deepplan
