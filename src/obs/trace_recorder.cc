#include "src/obs/trace_recorder.h"

#include <utility>

#include "src/obs/selfprof.h"

namespace deepplan {

int TraceRecorder::RegisterProcess(std::string_view name) {
  if (!enabled_) {
    return 0;
  }
  doc_.process_names.emplace_back(name);
  return static_cast<int>(doc_.process_names.size() - 1);
}

void TraceRecorder::Span(int pid, std::string_view track, std::string_view name,
                         Nanos start, Nanos duration) {
  if (!enabled_) {
    return;
  }
  doc_.events.push_back(TraceEvent{TracePhase::kSpan, pid, std::string(track),
                                   std::string(name), start, duration, 0.0});
}

void TraceRecorder::Counter(int pid, std::string_view track, std::string_view series,
                            Nanos ts, double value) {
  if (!enabled_) {
    return;
  }
  doc_.events.push_back(TraceEvent{TracePhase::kCounter, pid, std::string(track),
                                   std::string(series), ts, 0, value});
}

void TraceRecorder::AsyncBegin(int pid, std::string_view track,
                               std::string_view name, std::uint64_t id, Nanos ts) {
  if (!enabled_) {
    return;
  }
  doc_.events.push_back(TraceEvent{TracePhase::kAsyncBegin, pid,
                                   std::string(track), std::string(name), ts, 0,
                                   0.0, id});
}

void TraceRecorder::AsyncEnd(int pid, std::string_view track,
                             std::string_view name, std::uint64_t id, Nanos ts) {
  if (!enabled_) {
    return;
  }
  doc_.events.push_back(TraceEvent{TracePhase::kAsyncEnd, pid,
                                   std::string(track), std::string(name), ts, 0,
                                   0.0, id});
}

void TraceRecorder::Adopt(TraceRecorder&& other) {
  if (!enabled_) {
    return;
  }
  const int offset = static_cast<int>(doc_.process_names.size());
  for (std::string& name : other.doc_.process_names) {
    doc_.process_names.push_back(std::move(name));
  }
  doc_.events.reserve(doc_.events.size() + other.doc_.events.size());
  for (TraceEvent& e : other.doc_.events) {
    e.pid += offset;
    doc_.events.push_back(std::move(e));
  }
  other.doc_.process_names.clear();
  other.doc_.events.clear();
}

std::string TraceRecorder::ToJson() const {
  DP_SELFPROF_SCOPE(kTraceSerialize);
  return ChromeTraceWriter::ToJson(doc_);
}

bool TraceRecorder::WriteTo(const std::string& path) const {
  DP_SELFPROF_SCOPE(kTraceSerialize);
  return ChromeTraceWriter::WriteTo(path, doc_);
}

}  // namespace deepplan
