// journal_convert: renders a causal journal for people and external tooling.
// Causal journals are recorded and read as binary DPJL
// (src/obs/journal_stream.h); no tool reads either rendering back.
//
//   --to-json    the {"causal_journal":...} JSON export, byte-identical to
//                CausalGraph::ToJson() of the recording run;
//   --to-chrome  the run's Chrome trace (src/obs/trace_export.h), to open in
//                chrome://tracing or ui.perfetto.dev and to lint with
//                `trace_lint`. It decodes the journal chunk by chunk and
//                holds the trace's events, not the chunks.
//
// To validate a journal and print its totals, use `trace_lint --journal`.
//
//   journal_convert --to-json results/profile_fig15.dpj out.json
//   journal_convert --to-chrome results/profile_fig15.dpj trace.json
#include <cstdio>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "src/obs/journal_stream.h"
#include "src/obs/trace_export.h"

int main(int argc, char** argv) {
  const std::string mode = argc == 4 ? argv[1] : "";
  const bool json = mode == "--to-json";
  if (!json && mode != "--to-chrome") {
    std::fprintf(stderr,
                 "usage: %s --to-json|--to-chrome <journal.dpj> <out.json>\n",
                 argv[0]);
    return 2;
  }
  const std::string out_path = argv[3];
  // The JSON export orders requests and nodes by id, so it needs every
  // chunk; the Chrome export keeps each chunk's events only.
  std::vector<deepplan::JournalChunk> chunks;
  deepplan::JournalTraceExport trace;
  std::string error;
  if (!deepplan::ForEachJournalChunk(
          argv[2],
          [&](deepplan::JournalChunk& chunk) {
            if (json) {
              chunks.push_back(std::move(chunk));
            } else {
              trace.Add(chunk);
            }
          },
          &error)) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 1;
  }
  bool ok = false;
  if (json) {
    std::ofstream out(out_path, std::ios::binary);
    if (out) {
      out << deepplan::CausalJournalJson(chunks) << "\n";
    }
    ok = static_cast<bool>(out);
  } else {
    ok = trace.Finish().WriteTo(out_path);
  }
  if (!ok) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(stderr, "wrote %s\n", out_path.c_str());
  return 0;
}
