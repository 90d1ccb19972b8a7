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
  arrival_.push_back(record.arrival);
  queue_.push_back(record.QueueTime());
  cold_time_.push_back(record.ColdStartTime());
  latency_.push_back(record.Latency());
  cold_.push_back(record.cold);
  cold_starts_ += record.cold ? 1 : 0;
  evictions_ += static_cast<std::size_t>(record.evictions);
}

double ServingMetrics::LatencyPercentileMs(double p) const {
  if (latency_.empty()) {
    return 0.0;
  }
  std::vector<double> latencies;
  latencies.reserve(latency_.size());
  for (const Nanos latency : latency_) {
    latencies.push_back(ToMillis(latency));
  }
  return SelectPercentile(&latencies, p);
}

double ServingMetrics::MeanLatencyMs() const {
  if (latency_.empty()) {
    return 0.0;
  }
  double sum = 0.0;
  for (const Nanos latency : latency_) {
    sum += ToMillis(latency);
  }
  return sum / static_cast<double>(latency_.size());
}

double ServingMetrics::Goodput(Nanos slo) const {
  if (latency_.empty()) {
    return 0.0;
  }
  const auto good = std::count_if(latency_.begin(), latency_.end(),
                                  [slo](Nanos latency) { return latency <= slo; });
  return static_cast<double>(good) / static_cast<double>(latency_.size());
}

double ServingMetrics::ColdStartRate() const {
  if (latency_.empty()) {
    return 0.0;
  }
  return static_cast<double>(cold_starts_) / static_cast<double>(latency_.size());
}

LatencyBreakdown ServingMetrics::Breakdown() const {
  LatencyBreakdown b;
  if (latency_.empty()) {
    return b;
  }
  // One buffer for each component in turn; the mean is summed in record
  // order, as Percentiles::Mean does, before the selection reorders it.
  std::vector<double> samples(latency_.size());
  const auto summarize = [&samples](const auto& part, double* mean, double* p99) {
    double sum = 0.0;
    for (std::size_t i = 0; i < samples.size(); ++i) {
      samples[i] = ToMillis(part(i));
      sum += samples[i];
    }
    *mean = sum / static_cast<double>(samples.size());
    *p99 = SelectPercentile(&samples, 99.0);
  };
  summarize([this](std::size_t i) { return queue_[i]; }, &b.mean_queue_ms,
            &b.p99_queue_ms);
  summarize([this](std::size_t i) { return cold_time_[i]; }, &b.mean_cold_ms,
            &b.p99_cold_ms);
  summarize([this](std::size_t i) { return latency_[i] - queue_[i] - cold_time_[i]; },
            &b.mean_exec_ms, &b.p99_exec_ms);
  summarize([this](std::size_t i) { return latency_[i]; }, &b.mean_total_ms,
            &b.p99_total_ms);
  check::SimValidator::OnBreakdown(b.mean_queue_ms, b.mean_cold_ms,
                                   b.mean_exec_ms, b.mean_total_ms);
  return b;
}

MinuteSeries ServingMetrics::PerMinute(Nanos slo) const {
  MinuteSeries series;
  std::vector<Percentiles> latencies;
  std::vector<std::size_t> good;
  for (std::size_t i = 0; i < latency_.size(); ++i) {
    const auto minute = static_cast<std::size_t>(arrival_[i] / (60 * kNanosPerSecond));
    if (minute >= latencies.size()) {
      latencies.resize(minute + 1);
      good.resize(minute + 1, 0);
      series.requests.resize(minute + 1, 0);
      series.cold_starts.resize(minute + 1, 0);
    }
    latencies[minute].Add(ToMillis(latency_[i]));
    ++series.requests[minute];
    if (latency_[i] <= slo) {
      ++good[minute];
    }
    if (cold_[i]) {
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
