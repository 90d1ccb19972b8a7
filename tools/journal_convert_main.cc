// journal_convert: the one producer of the {"causal_journal":...} JSON
// export. Causal journals are recorded and read as binary DPJL
// (src/obs/journal_stream.h); --to-json renders one as JSON for people and
// external tooling, byte-identical to CausalGraph::ToJson() of the recording
// run. No tool reads the JSON back. --info validates a journal and prints its
// totals.
//
//   journal_convert --to-json results/profile_fig15.dpj out.json
//   journal_convert --info    results/profile_fig15.dpj
#include <cstdio>
#include <fstream>
#include <string>

#include "src/obs/causal_graph.h"
#include "src/obs/journal_stream.h"

namespace {

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --to-json <journal.dpj> <out.json>\n"
               "       %s --info <journal.dpj>\n",
               argv0, argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) {
    return Usage(argv[0]);
  }
  const std::string mode = argv[1];
  const std::string in_path = argv[2];

  if (mode == "--info" && argc == 3) {
    deepplan::JournalLintInfo info;
    const deepplan::check::TraceLintResult result =
        deepplan::LintJournalFile(in_path, &info);
    if (!result.ok()) {
      for (const std::string& e : result.errors) {
        std::fprintf(stderr, "%s\n", e.c_str());
      }
      return 1;
    }
    std::printf(
        "binary journal v%u: %llu requests (%llu incomplete), %llu nodes, "
        "%llu edges in %llu chunks, %llu process(es)\n",
        deepplan::kJournalVersion,
        static_cast<unsigned long long>(info.totals.requests),
        static_cast<unsigned long long>(info.totals.incomplete_requests),
        static_cast<unsigned long long>(info.totals.nodes),
        static_cast<unsigned long long>(info.totals.edges),
        static_cast<unsigned long long>(info.totals.chunks),
        static_cast<unsigned long long>(info.processes));
    return 0;
  }

  if (mode != "--to-json" || argc != 4) {
    return Usage(argv[0]);
  }
  const std::string out_path = argv[3];
  deepplan::CausalGraph graph;
  std::string error;
  if (!deepplan::ReadJournalToGraph(in_path, &graph, &error)) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 1;
  }
  std::ofstream out(out_path, std::ios::binary);
  if (out) {
    out << graph.ToJson() << "\n";
  }
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(stderr, "wrote %s\n", out_path.c_str());
  return 0;
}
