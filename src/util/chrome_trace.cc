#include "src/util/chrome_trace.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <ostream>
#include <sstream>
#include <tuple>
#include <utility>

#include "src/util/json.h"

namespace deepplan {

namespace {

void AppendEscaped(std::ostream& os, const std::string& s) {
  for (const char c : s) {
    switch (c) {
      case '"':
        os << "\\\"";
        break;
      case '\\':
        os << "\\\\";
        break;
      case '\n':
        os << "\\n";
        break;
      case '\r':
        os << "\\r";
        break;
      case '\t':
        os << "\\t";
        break;
      case '\b':
        os << "\\b";
        break;
      case '\f':
        os << "\\f";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          os << buf;
        } else {
          os << c;
        }
    }
  }
}

// Deterministic event order: timestamp, then process, then (for equal
// timestamps) longer spans first so parents precede the slices they enclose,
// then track/name/phase. std::stable_sort keeps insertion order for full
// ties, so identical inputs always render to identical bytes.
bool EventBefore(const TraceEvent& a, const TraceEvent& b) {
  if (a.ts != b.ts) {
    return a.ts < b.ts;
  }
  if (a.pid != b.pid) {
    return a.pid < b.pid;
  }
  if (a.duration != b.duration) {
    return a.duration > b.duration;  // parents before enclosed children
  }
  if (a.track != b.track) {
    return a.track < b.track;
  }
  if (a.name != b.name) {
    return a.name < b.name;
  }
  if (a.phase != b.phase) {
    return a.phase < b.phase;  // async begins before same-timestamp ends
  }
  return a.id < b.id;
}

// Renders `doc` into `os`. The events are sorted through pointers, so a
// large document is neither copied nor held a second time as text.
void Render(std::ostream& os, const TraceDocument& doc) {
  std::vector<const TraceEvent*> events;
  events.reserve(doc.events.size());
  for (const TraceEvent& e : doc.events) {
    events.push_back(&e);
  }
  std::stable_sort(events.begin(), events.end(),
                   [](const TraceEvent* a, const TraceEvent* b) {
                     return EventBefore(*a, *b);
                   });

  // Track ids from the sorted (pid, track) set of thread-track events; tids
  // restart per process. Counter events carry no tid (their `track` is the
  // counter name itself).
  std::map<std::pair<int, std::string>, int> tids;
  for (const TraceEvent* e : events) {
    if (e->phase != TracePhase::kCounter) {
      tids.emplace(std::make_pair(e->pid, e->track), 0);
    }
  }
  {
    int last_pid = -1;
    int next_tid = 0;
    for (auto& [key, tid] : tids) {
      if (key.first != last_pid) {
        last_pid = key.first;
        next_tid = 0;
      }
      tid = next_tid++;
    }
  }

  os << "{\"traceEvents\":[";
  bool first = true;
  const auto comma = [&os, &first]() {
    if (!first) {
      os << ",";
    }
    first = false;
  };

  // Process-name metadata: only when the document names processes, for every
  // pid any event references.
  if (!doc.process_names.empty()) {
    std::map<int, std::string> pids;
    for (const TraceEvent* e : events) {
      if (pids.count(e->pid) != 0) {
        continue;
      }
      const auto idx = static_cast<std::size_t>(e->pid);
      std::string name = e->pid >= 0 && idx < doc.process_names.size()
                             ? doc.process_names[idx]
                             : "";
      pids.emplace(e->pid, name.empty() ? "pid " + std::to_string(e->pid) : name);
    }
    for (const auto& [pid, name] : pids) {
      comma();
      os << "{\"ph\":\"M\",\"pid\":" << pid
         << ",\"name\":\"process_name\",\"args\":{\"name\":\"";
      AppendEscaped(os, name);
      os << "\"}}";
    }
  }
  for (const auto& [key, tid] : tids) {
    comma();
    os << "{\"ph\":\"M\",\"pid\":" << key.first << ",\"tid\":" << tid
       << ",\"name\":\"thread_name\",\"args\":{\"name\":\"";
    AppendEscaped(os, key.second);
    os << "\"}}";
  }

  for (const TraceEvent* event : events) {
    const TraceEvent& e = *event;
    comma();
    switch (e.phase) {
      case TracePhase::kSpan:
        os << "{\"ph\":\"X\",\"pid\":" << e.pid << ",\"tid\":"
           << tids[{e.pid, e.track}] << ",\"name\":\"";
        AppendEscaped(os, e.name);
        os << "\",\"ts\":" << Json::Num(ToMicros(e.ts))
           << ",\"dur\":" << Json::Num(ToMicros(e.duration)) << "}";
        break;
      case TracePhase::kCounter:
        os << "{\"ph\":\"C\",\"pid\":" << e.pid << ",\"name\":\"";
        AppendEscaped(os, e.track);
        os << "\",\"ts\":" << Json::Num(ToMicros(e.ts)) << ",\"args\":{\"";
        AppendEscaped(os, e.name);
        os << "\":" << Json::Num(e.value) << "}}";
        break;
      case TracePhase::kAsyncBegin:
      case TracePhase::kAsyncEnd:
        os << "{\"ph\":\"" << (e.phase == TracePhase::kAsyncBegin ? "b" : "e")
           << "\",\"pid\":" << e.pid << ",\"tid\":" << tids[{e.pid, e.track}]
           << ",\"cat\":\"";
        AppendEscaped(os, e.track);
        os << "\",\"id\":" << e.id << ",\"name\":\"";
        AppendEscaped(os, e.name);
        os << "\",\"ts\":" << Json::Num(ToMicros(e.ts)) << "}";
        break;
    }
  }
  os << "]}";
}

}  // namespace

std::string ChromeTraceWriter::ToJson(const TraceDocument& doc) {
  std::ostringstream os;
  Render(os, doc);
  return os.str();
}

bool ChromeTraceWriter::WriteTo(const std::string& path, const TraceDocument& doc) {
  std::ofstream out(path);
  if (!out) {
    return false;
  }
  Render(out, doc);
  out << "\n";
  return static_cast<bool>(out);
}

}  // namespace deepplan
