#include "src/obs/trace_recorder.h"

#include "src/obs/selfprof.h"

namespace deepplan {

int TraceRecorder::RegisterProcess(std::string_view name) {
  if (!enabled_) {
    return 0;
  }
  doc_.process_names.emplace_back(name);
  return static_cast<int>(doc_.process_names.size() - 1);
}

void TraceRecorder::Add(TracePhase phase, int pid, std::string_view track,
                        std::string_view name, Nanos ts, Nanos duration,
                        double value, std::uint64_t id) {
  if (enabled_) {
    doc_.events.push_back(TraceEvent{phase, pid, std::string(track),
                                     std::string(name), ts, duration, value, id});
  }
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
