#include "src/workload/trace.h"

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>

#include "src/obs/selfprof.h"
#include "src/util/index.h"
#include "src/util/logging.h"

namespace deepplan {

Trace::Trace(std::vector<Arrival> arrivals) : arrivals_(std::move(arrivals)) {
  std::stable_sort(arrivals_.begin(), arrivals_.end(),
                   [](const Arrival& a, const Arrival& b) { return a.time < b.time; });
}

double Trace::MeanRate() const {
  if (arrivals_.size() < 2 || duration() == 0) {
    return 0.0;
  }
  return static_cast<double>(arrivals_.size()) / ToSeconds(duration());
}

std::vector<std::size_t> Trace::PerInstanceCounts(int num_instances) const {
  std::vector<std::size_t> counts(Idx(num_instances), 0);
  for (const Arrival& a : arrivals_) {
    if (a.instance >= 0 && a.instance < num_instances) {
      ++counts[Idx(a.instance)];
    }
  }
  return counts;
}

std::vector<std::size_t> Trace::PerMinuteCounts() const {
  std::vector<std::size_t> counts;
  for (const Arrival& a : arrivals_) {
    const auto minute = static_cast<std::size_t>(a.time / (60 * kNanosPerSecond));
    if (minute >= counts.size()) {
      counts.resize(minute + 1, 0);
    }
    ++counts[minute];
  }
  return counts;
}

Trace Trace::ScaledToRate(double target_rate_per_sec) const {
  DP_CHECK(target_rate_per_sec > 0);
  const double current = MeanRate();
  if (current <= 0) {
    return *this;
  }
  const double factor = current / target_rate_per_sec;
  std::vector<Arrival> scaled = arrivals_;
  for (Arrival& a : scaled) {
    a.time = static_cast<Nanos>(static_cast<double>(a.time) * factor);
  }
  return Trace(std::move(scaled));
}

std::string Trace::ToCsv() const {
  std::ostringstream os;
  os << "time_ns,instance\n";
  for (const Arrival& a : arrivals_) {
    os << a.time << "," << a.instance << "\n";
  }
  return os.str();
}

namespace {

// Strict "<time_ns>,<instance>" row parse, the instance below
// `num_instances`. Returns false with a diagnosis on anything else — a
// missing comma usually means the file was cut mid-row.
bool ParseArrivalLine(const std::string& line, int num_instances, Arrival* out,
                      std::string* why) {
  const auto comma = line.find(',');
  if (comma == std::string::npos) {
    *why = "no comma (want <time_ns>,<instance> — truncated file?)";
    return false;
  }
  char* end = nullptr;
  errno = 0;
  out->time = std::strtoll(line.c_str(), &end, 10);
  if (end != line.c_str() + comma || errno == ERANGE || out->time < 0) {
    *why = "bad time_ns field (want a non-negative integer)";
    return false;
  }
  errno = 0;
  const long instance = std::strtol(line.c_str() + comma + 1, &end, 10);
  if (end == line.c_str() + comma + 1 || *end != '\0' || errno == ERANGE ||
      instance < 0 || instance > std::numeric_limits<int>::max()) {
    *why = "bad instance field (want a non-negative integer)";
    return false;
  }
  if (instance >= num_instances) {
    *why = "instance " + std::to_string(instance) + " is not below the " +
           std::to_string(num_instances) + " instances replaying the trace";
    return false;
  }
  out->instance = static_cast<int>(instance);
  return true;
}

// Shared line-at-a-time reader over any istream source.
std::optional<Trace> ReadArrivalLines(std::istream& is,
                                      const std::string& origin,
                                      int num_instances, std::string* error) {
  std::string line;
  std::vector<Arrival> arrivals;
  bool first = true;
  std::size_t line_number = 0;
  while (std::getline(is, line)) {
    ++line_number;
    if (!line.empty() && line.back() == '\r') {
      line.pop_back();
    }
    if (line.empty()) {
      continue;
    }
    if (first) {
      first = false;
      if (line.rfind("time_ns", 0) == 0) {
        continue;  // header
      }
    }
    Arrival a;
    std::string why;
    if (!ParseArrivalLine(line, num_instances, &a, &why)) {
      if (error != nullptr) {
        *error = origin + ":" + std::to_string(line_number) +
                 ": malformed row \"" + line + "\": " + why;
      }
      return std::nullopt;
    }
    arrivals.push_back(a);
  }
  return Trace(std::move(arrivals));
}

}  // namespace

std::optional<Trace> Trace::FromCsv(const std::string& text) {
  std::istringstream is(text);
  return ReadArrivalLines(is, "<csv>", std::numeric_limits<int>::max(), nullptr);
}

bool Trace::SaveTo(const std::string& path) const {
  std::ofstream out(path);
  if (!out) {
    return false;
  }
  out << ToCsv();
  return static_cast<bool>(out);
}

std::optional<Trace> Trace::LoadFrom(const std::string& path,
                                     int num_instances, std::string* error) {
  DP_SELFPROF_SCOPE(kWorkloadGen);
  DP_CHECK(error != nullptr);
  std::ifstream in(path);
  if (!in) {
    *error = path + ": cannot open file";
    return std::nullopt;
  }
  return ReadArrivalLines(in, path, num_instances, error);
}

}  // namespace deepplan
