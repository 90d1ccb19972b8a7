// journal_convert: the one producer of the {"causal_journal":...} JSON
// export. Causal journals are recorded and read as binary DPJL
// (src/obs/journal_stream.h); --to-json renders one as JSON for people and
// external tooling, byte-identical to CausalGraph::ToJson() of the recording
// run. No tool reads the JSON back. To validate a journal and print its
// totals, use `trace_lint --journal`.
//
//   journal_convert --to-json results/profile_fig15.dpj out.json
#include <cstdio>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "src/obs/journal_stream.h"

int main(int argc, char** argv) {
  if (argc != 4 || std::string(argv[1]) != "--to-json") {
    std::fprintf(stderr, "usage: %s --to-json <journal.dpj> <out.json>\n",
                 argv[0]);
    return 2;
  }
  const std::string in_path = argv[2];
  const std::string out_path = argv[3];
  // The export orders requests and nodes by id, so it needs every chunk.
  std::vector<deepplan::JournalChunk> chunks;
  std::string error;
  if (!deepplan::ForEachJournalChunk(
          in_path,
          [&chunks](deepplan::JournalChunk& chunk) {
            chunks.push_back(std::move(chunk));
          },
          &error)) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 1;
  }
  std::ofstream out(out_path, std::ios::binary);
  if (out) {
    out << deepplan::CausalJournalJson(chunks) << "\n";
  }
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(stderr, "wrote %s\n", out_path.c_str());
  return 0;
}
