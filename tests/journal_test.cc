// Tests for the streaming binary causal journal (src/obs/journal_stream.h)
// and its chunk consumers: encoding primitives, byte-exact round trips (the
// JSON export of a journal equals the recording graph's) on engine- and
// server-recorded journals, a graph's own in-memory journal against the same
// run recorded to a file (bytes, export and reports), Adopt's re-encoding,
// corruption and version-mismatch rejection with actionable messages, one
// verdict from every reader on repeated or out-of-range request ids,
// dangling-edge diagnosis, cyclic-edge rejection, and the headline
// differential — windowed replay over a small-chunk file must be
// bit-identical to replay over the run's own one-chunk journal while keeping
// fewer requests resident than the journal holds and barely touching the
// heap.
#include <gtest/gtest.h>
#include <sys/stat.h>

#include <climits>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <iterator>
#include <limits>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "src/model/zoo.h"
#include "src/obs/causal_graph.h"
#include "src/obs/journal_stream.h"
#include "src/obs/profile_report.h"
#include "src/obs/trace_export.h"
#include "src/obs/whatif/whatif.h"
#include "src/obs/whatif/whatif_report.h"
#include "src/serving/server.h"
#include "src/workload/azure_trace.h"
#include "src/workload/poisson.h"
#include "tests/causal_node.h"
#include "tests/counting_new.h"

namespace deepplan {
namespace {

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << path;
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  ASSERT_TRUE(out.is_open()) << path;
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

// Records `record` into a journal file at `path` through an attached writer
// with `options`, retiring whatever it leaves open.
void RecordToFile(const std::string& path, const JournalWriterOptions& options,
                  const std::function<void(CausalGraph*)>& record) {
  JournalWriter writer;
  ASSERT_TRUE(writer.Open(path, options));
  CausalGraph graph(/*enabled=*/true);
  graph.AttachSink(&writer);
  record(&graph);
  graph.FlushOpenRequests();
  ASSERT_TRUE(writer.Finish());
}

// The JSON export of the journal at `path` as journal_convert --to-json
// renders it: every chunk of the validating pass, then CausalJournalJson.
bool JournalJson(const std::string& path, std::string* json,
                 std::string* error) {
  std::vector<JournalChunk> chunks;
  if (!ForEachJournalChunk(
          path,
          [&chunks](JournalChunk& chunk) {
            chunks.push_back(std::move(chunk));
          },
          error)) {
    return false;
  }
  *json = CausalJournalJson(chunks);
  return true;
}

// The profile report of the journal at `path` as profile_report streams it.
bool ReadProfileReport(const std::string& path, ProfileReport* report,
                       std::string* error) {
  ProfileReportBuilder builder;
  if (!ForEachJournalChunk(
          path,
          [&builder](JournalChunk& chunk) { builder.Add(chunk); },
          error)) {
    return false;
  }
  *report = builder.Finish();
  return true;
}

// One journal reader's verdict: whether it accepted the file, and its first
// error (empty when it accepted).
struct ReaderVerdict {
  std::string reader;
  bool ok = false;
  std::string error;
};

// Every journal reader's verdict on the journal at `path`: the lint, the
// windowed what-if journal, the profile report, and the JSON and Chrome
// exports.
std::vector<ReaderVerdict> ReaderVerdicts(const std::string& path) {
  const check::TraceLintResult lint = LintJournalFile(path);
  std::vector<ReaderVerdict> verdicts = {
      {"lint", lint.ok(), lint.errors.empty() ? "" : lint.errors[0]}};
  WindowedJournal journal;
  std::string error;
  const bool opened = journal.Open(path, &error);
  verdicts.push_back({"windowed journal", opened, error});
  ProfileReport report;
  error.clear();
  const bool reported = ReadProfileReport(path, &report, &error);
  verdicts.push_back({"profile report", reported, error});
  std::string json;
  error.clear();
  const bool exported = JournalJson(path, &json, &error);
  verdicts.push_back({"JSON export", exported, error});
  JournalTraceExport trace;
  error.clear();
  const bool traced = ForEachJournalChunk(
      path, [&trace](JournalChunk& chunk) { trace.Add(chunk); }, &error);
  verdicts.push_back({"Chrome export", traced, error});
  return verdicts;
}

void ExpectEveryReaderRejects(const std::string& path,
                              const std::string& diagnostic) {
  for (const ReaderVerdict& v : ReaderVerdicts(path)) {
    EXPECT_FALSE(v.ok) << v.reader << " accepted " << path;
    EXPECT_NE(v.error.find(diagnostic), std::string::npos)
        << v.reader << ": want \"" << diagnostic << "\", got \"" << v.error
        << "\"";
  }
}

void ExpectEveryReaderAccepts(const std::string& path) {
  for (const ReaderVerdict& v : ReaderVerdicts(path)) {
    EXPECT_TRUE(v.ok) << v.reader << " refused " << path;
    EXPECT_EQ(v.error, "") << v.reader;
  }
}

// ------------------------------------------------ encoding primitives

TEST(JournalEncodingTest, VarintRoundTrips) {
  const std::vector<std::uint64_t> values = {
      0,   1,        127,        128,        300,       16383, 16384,
      1u << 20, (1ull << 32) - 1, 1ull << 32, 1ull << 63, ~0ull};
  std::string buf;
  for (const std::uint64_t v : values) {
    AppendVarint(&buf, v);
  }
  std::size_t pos = 0;
  for (const std::uint64_t v : values) {
    std::uint64_t got = 0;
    ASSERT_TRUE(ReadVarint(buf, &pos, &got));
    EXPECT_EQ(got, v);
  }
  EXPECT_EQ(pos, buf.size());
}

TEST(JournalEncodingTest, VarintRejectsTruncationAndOverlongForms) {
  std::string buf;
  AppendVarint(&buf, 1ull << 62);  // multi-byte encoding
  std::uint64_t out = 0;
  // Every strict prefix of a multi-byte varint is a decode error.
  for (std::size_t len = 0; len + 1 < buf.size(); ++len) {
    std::size_t pos = 0;
    EXPECT_FALSE(ReadVarint(buf.substr(0, len + 1), &pos, &out)) << len;
  }
  // An 11-byte continuation run can never be a valid 64-bit varint.
  std::size_t pos = 0;
  EXPECT_FALSE(ReadVarint(std::string(11, '\x80'), &pos, &out));
}

TEST(JournalEncodingTest, ZigzagRoundTripsAndInterleavesSigns) {
  EXPECT_EQ(ZigzagEncode(0), 0u);
  EXPECT_EQ(ZigzagEncode(-1), 1u);
  EXPECT_EQ(ZigzagEncode(1), 2u);
  EXPECT_EQ(ZigzagEncode(-2), 3u);
  const std::vector<std::int64_t> values = {
      0, 1, -1, 63, -64, 64, 1000000, -1000000,
      std::numeric_limits<std::int64_t>::max(),
      std::numeric_limits<std::int64_t>::min()};
  std::string buf;
  for (const std::int64_t v : values) {
    AppendZigzag(&buf, v);
  }
  std::size_t pos = 0;
  for (const std::int64_t v : values) {
    std::int64_t got = 0;
    ASSERT_TRUE(ReadZigzag(buf, &pos, &got));
    EXPECT_EQ(got, v);
    EXPECT_EQ(ZigzagDecode(ZigzagEncode(v)), v);
  }
  EXPECT_EQ(pos, buf.size());
}

TEST(JournalEncodingTest, Crc32MatchesTheStandardCheckValue) {
  EXPECT_EQ(Crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(Crc32(""), 0u);
  EXPECT_NE(Crc32("abc"), Crc32("abd"));
  // Against a byte-at-a-time reference over every length 0-256 at every
  // start offset 0-7, so each alignment meets the 8-byte steps and every
  // tail length.
  const auto reference = [](std::string_view data) {
    std::uint32_t crc = 0xFFFFFFFFu;
    for (const char ch : data) {
      crc ^= static_cast<std::uint8_t>(ch);
      for (int k = 0; k < 8; ++k) {
        crc = (crc & 1) ? (0xEDB88320u ^ (crc >> 1)) : (crc >> 1);
      }
    }
    return crc ^ 0xFFFFFFFFu;
  };
  std::string bytes(256 + 8, '\0');
  std::uint32_t x = 12345;
  for (char& ch : bytes) {
    x = x * 1103515245u + 12345u;
    ch = static_cast<char>(x >> 24);
  }
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t len = 0; len <= 256; ++len) {
      const std::string_view data(bytes.data() + offset, len);
      ASSERT_EQ(Crc32(data), reference(data)) << "offset " << offset << " length " << len;
    }
  }
}

// ------------------------------------------------ recorded-journal fixtures

// fig15-style served workload: queueing, cold starts, evictions, warm DHA,
// contended links. Deterministic per seed, so two runs record identical
// graphs.
void RunServedWorkload(CausalGraph* graph, double duration_seconds = 2.0) {
  const Topology topology = Topology::P3_8xlarge();
  const PerfModel perf(topology.gpu(), topology.pcie());
  ServerOptions options;
  options.strategy = Strategy::kDeepPlanDha;
  Server server(topology, perf, options);
  const int type = server.RegisterModelType(ModelZoo::BertBase());
  server.AddInstances(type, 120);
  server.set_causal(graph, graph->RegisterProcess("serve"));
  PoissonOptions w;
  w.rate_per_sec = 150.0;
  w.num_instances = 120;
  w.duration = Seconds(duration_seconds);
  w.seed = 7;
  server.Run(GeneratePoissonTrace(w));
}

// fig02-style journal: one cold start per strategy, stitched with Adopt in
// strategy order (the multi-process / multi-graph shape).
CausalGraph ColdStartGraph() {
  const Topology topology = Topology::P3_8xlarge();
  const PerfModel perf(topology.gpu(), topology.pcie());
  const Model model = ModelZoo::BertBase();
  CausalGraph merged(/*enabled=*/true);
  for (const Strategy strategy :
       {Strategy::kBaseline, Strategy::kPipeSwitch, Strategy::kDeepPlanDha,
        Strategy::kDeepPlanPtDha}) {
    CausalGraph graph(/*enabled=*/true);
    const int process = graph.RegisterProcess(StrategyName(strategy));
    bench::RunColdWithProfile(topology, perf, model, strategy,
                              bench::ExactProfile(perf, model),
                              /*batch=*/1, &graph, process);
    merged.Adopt(std::move(graph));
  }
  return merged;
}

// ------------------------------------------------ round trips

TEST(JournalRoundTripTest, ColdStartGraphSurvivesBinaryExactly) {
  const CausalGraph graph = ColdStartGraph();
  const std::string json = graph.ToJson();
  const std::string path = TempPath("journal_fig02.dpj");

  std::string error;
  ASSERT_TRUE(WriteGraphToJournal(graph, path, &error)) << error;
  std::string back;
  ASSERT_TRUE(JournalJson(path, &back, &error)) << error;
  EXPECT_EQ(back, json);
  std::remove(path.c_str());
}

TEST(JournalRoundTripTest, ServedWorkloadSurvivesBinaryExactly) {
  CausalGraph graph(/*enabled=*/true);
  RunServedWorkload(&graph);
  ASSERT_GT(ForEachGraphChunk(graph, [](JournalChunk&) {}).requests, 100u);
  const std::string json = graph.ToJson();
  const std::string path = TempPath("journal_served.dpj");

  // The same run to a file in small chunks, which force the multi-chunk code
  // paths even on a short run.
  JournalWriterOptions small;
  small.chunk_requests = 16;
  RecordToFile(path, small, [](CausalGraph* g) { RunServedWorkload(g); });

  std::string error;
  std::string back;
  ASSERT_TRUE(JournalJson(path, &back, &error)) << error;
  EXPECT_EQ(back, json);
  std::remove(path.c_str());
}

TEST(JournalRoundTripTest, StreamingWriterRecordsTheSameGraph) {
  // Reference: the identical run recorded into a graph's own journal.
  CausalGraph reference(/*enabled=*/true);
  RunServedWorkload(&reference);
  const JournalTotals totals = ForEachGraphChunk(reference, [](JournalChunk&) {});

  // Streamed: same run, retiring straight into a file writer with small
  // chunks. Requests retire in completion order (not id order) and chunk
  // differently, so the file differs from the reference's journal — but its
  // JSON export and profile report must equal the reference's, and repeated
  // runs must produce identical bytes.
  const std::string path = TempPath("journal_streamed.dpj");
  const auto stream_once = [&] {
    CausalGraph graph(/*enabled=*/true);
    JournalWriter writer;
    JournalWriterOptions small;
    small.chunk_requests = 16;
    EXPECT_TRUE(writer.Open(path, small));
    graph.AttachSink(&writer);
    RunServedWorkload(&graph);
    graph.FlushOpenRequests();
    EXPECT_TRUE(writer.Finish());
    EXPECT_EQ(writer.totals().requests, totals.requests);
    EXPECT_EQ(writer.totals().nodes, totals.nodes);
    EXPECT_GT(writer.totals().chunks, 1u);
    return ReadFileBytes(path);
  };
  const std::string first = stream_once();
  EXPECT_EQ(stream_once(), first);

  std::string back;
  std::string error;
  ASSERT_TRUE(JournalJson(path, &back, &error)) << error;
  EXPECT_EQ(back, reference.ToJson());

  // The profile report streamed from the file, whose requests retired out of
  // id order, equals the reference's, text and JSON.
  ProfileReport streamed;
  ASSERT_TRUE(ReadProfileReport(path, &streamed, &error)) << error;
  const ProfileReport in_memory = BuildProfileReport(reference);
  ASSERT_GT(in_memory.summary.requests.size(), 100u);
  std::ostringstream streamed_text, in_memory_text;
  PrintProfileReport(streamed, streamed_text);
  PrintProfileReport(in_memory, in_memory_text);
  EXPECT_EQ(streamed_text.str(), in_memory_text.str());
  EXPECT_EQ(ProfileReportJson(streamed), ProfileReportJson(in_memory));
  std::remove(path.c_str());
}

// A graph's own journal and the same run recorded into an attached file
// writer with default options are one format: the same bytes, and so the
// same reports whether a bench reads its graph in memory or a tool reads the
// file.
TEST(JournalRoundTripTest, BothRecordingRoutesWriteTheSameBytes) {
  CausalGraph graph(/*enabled=*/true);
  RunServedWorkload(&graph);
  const std::string path = TempPath("journal_routes.dpj");
  RecordToFile(path, {}, [](CausalGraph* g) { RunServedWorkload(g); });
  const std::string file = ReadFileBytes(path);
  EXPECT_TRUE(graph.journal() == file)
      << graph.journal().size() << " bytes in memory, " << file.size()
      << " in the file";

  std::string error;
  ProfileReport from_file;
  ASSERT_TRUE(ReadProfileReport(path, &from_file, &error)) << error;
  const ProfileReport in_memory = BuildProfileReport(graph);
  ASSERT_GT(in_memory.summary.requests.size(), 100u);
  std::ostringstream file_text, memory_text;
  PrintProfileReport(from_file, file_text);
  PrintProfileReport(in_memory, memory_text);
  EXPECT_EQ(memory_text.str(), file_text.str());
  EXPECT_EQ(ProfileReportJson(in_memory), ProfileReportJson(from_file));

  WindowedJournal journal;
  ASSERT_TRUE(journal.Open(path, &error)) << error;
  const std::vector<WhatIfExperiment> experiments = DefaultWhatIfExperiments();
  const WhatIfReport read = BuildWhatIfReportWindowed(journal, experiments);
  const WhatIfReport recorded = BuildWhatIfReport(graph, experiments);
  EXPECT_TRUE(recorded.baseline_matches_journal);
  std::ostringstream read_text, recorded_text;
  PrintWhatIfReport(read, read_text);
  PrintWhatIfReport(recorded, recorded_text);
  EXPECT_EQ(recorded_text.str(), read_text.str());
  EXPECT_EQ(WhatIfReportJson(recorded), WhatIfReportJson(read));
  std::remove(path.c_str());
}

// Adopt re-encodes each task's records with their ids moved past the
// merged graph's: the stitched journal is the one a single graph records
// when it runs the tasks one after the other.
TEST(JournalRoundTripTest, AdoptedJournalsEqualOneRecording) {
  const Topology topology = Topology::P3_8xlarge();
  const PerfModel perf(topology.gpu(), topology.pcie());
  const Model model = ModelZoo::BertBase();
  CausalGraph single(/*enabled=*/true);
  for (const Strategy strategy :
       {Strategy::kBaseline, Strategy::kPipeSwitch, Strategy::kDeepPlanDha,
        Strategy::kDeepPlanPtDha}) {
    const int process = single.RegisterProcess(StrategyName(strategy));
    bench::RunColdWithProfile(topology, perf, model, strategy,
                              bench::ExactProfile(perf, model),
                              /*batch=*/1, &single, process);
  }
  const CausalGraph adopted = ColdStartGraph();
  EXPECT_TRUE(adopted.journal() == single.journal());
  EXPECT_EQ(adopted.ToJson(), single.ToJson());
}

TEST(JournalRoundTripTest, IncompleteRequestsKeepCompletionMinusOne) {
  const std::string path = TempPath("journal_incomplete.dpj");
  CausalGraph graph(/*enabled=*/true);
  JournalWriter writer;
  ASSERT_TRUE(writer.Open(path));
  graph.AttachSink(&writer);
  const int process = graph.RegisterProcess("p");
  const int done = graph.BeginRequest(process, 0, 10);
  graph.AddNode(done,
                MakeNode(graph, CpKind::kExec, "exec", "exec/gpu0", 10, 20),
                {graph.last_node(done)});
  graph.EndRequest(done, 20);
  const int open = graph.BeginRequest(process, 1, 15);
  graph.AddNode(open,
                MakeNode(graph, CpKind::kExec, "exec", "exec/gpu0", 15, 25), {});
  // `open` never ends: FlushOpenRequests retires it with completion -1.
  graph.FlushOpenRequests();
  ASSERT_TRUE(writer.Finish());
  EXPECT_EQ(writer.totals().requests, 2u);
  EXPECT_EQ(writer.totals().incomplete_requests, 1u);

  WindowedJournal back;
  std::string error;
  ASSERT_TRUE(back.Open(path, &error)) << error;
  ASSERT_EQ(back.requests().size(), 2u);
  EXPECT_EQ(back.requests()[0].completion, 20);
  EXPECT_EQ(back.requests()[1].completion, -1);
  EXPECT_EQ(back.requests()[1].terminal_node, -1);
  std::remove(path.c_str());
}

// ------------------------------------------------ sequential reader

TEST(JournalReaderTest, IteratesChunksAndCrossChecksTheFooter) {
  CausalGraph graph(/*enabled=*/true);
  RunServedWorkload(&graph);
  std::uint64_t processes = 0;
  const JournalTotals recorded =
      ForEachGraphChunk(graph, [&processes](JournalChunk& chunk) {
        processes += chunk.new_processes.size();
      });
  const std::string path = TempPath("journal_iter.dpj");
  JournalWriterOptions small;
  small.chunk_requests = 32;
  RecordToFile(path, small, [](CausalGraph* g) { RunServedWorkload(g); });

  JournalReader reader;
  ASSERT_TRUE(reader.Open(path)) << reader.error();
  std::uint64_t chunks = 0;
  std::uint64_t requests = 0;
  JournalChunk chunk;
  while (reader.Next(&chunk) == JournalReadStatus::kChunk) {
    ++chunks;
    requests += chunk.requests.size();
  }
  ASSERT_TRUE(reader.footer_seen()) << reader.error();
  EXPECT_GT(chunks, 1u);
  EXPECT_EQ(chunks, reader.totals().chunks);
  EXPECT_EQ(requests, reader.totals().requests);
  EXPECT_EQ(requests, recorded.requests);
  EXPECT_EQ(reader.num_processes(), processes);
  // Past the footer the reader stays parked there.
  EXPECT_EQ(reader.Next(&chunk), JournalReadStatus::kFooter);
  std::remove(path.c_str());
}

// ------------------------------------------------ corruption rejection

// One small well-formed journal per test, then one precise mutilation.
class JournalCorruptionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = TempPath("journal_corrupt.dpj");
    JournalWriterOptions small;
    small.chunk_requests = 4;  // two chunks
    RecordToFile(path_, small, [](CausalGraph* graph) {
      const int process = graph->RegisterProcess("p");
      for (int i = 0; i < 8; ++i) {
        const int req = graph->BeginRequest(process, i, i * 100);
        graph->AddNode(req,
                       MakeNode(*graph, CpKind::kExec, "exec", "exec/gpu0",
                                i * 100, i * 100 + 50),
                       {graph->last_node(req)});
        graph->EndRequest(req, i * 100 + 50);
      }
    });
    bytes_ = ReadFileBytes(path_);
    ASSERT_GT(bytes_.size(), 40u);
  }

  void TearDown() override { std::remove(path_.c_str()); }

  // Writes a mutated copy and lints it, expecting failure with `needle` in
  // the first error.
  void ExpectLintError(const std::string& mutated, const std::string& needle) {
    WriteFileBytes(path_, mutated);
    const check::TraceLintResult r = LintJournalFile(path_);
    EXPECT_FALSE(r.ok());
    ASSERT_FALSE(r.errors.empty());
    EXPECT_NE(r.errors[0].find(needle), std::string::npos) << r.errors[0];
  }

  std::string path_;
  std::string bytes_;
};

TEST_F(JournalCorruptionTest, PristineJournalLintsClean) {
  JournalLintInfo info;
  const check::TraceLintResult r = LintJournalFile(path_, &info);
  EXPECT_TRUE(r.ok()) << (r.errors.empty() ? "" : r.errors[0]);
  EXPECT_EQ(info.totals.requests, 8u);
  EXPECT_EQ(info.totals.chunks, 2u);
  EXPECT_EQ(info.processes, 1u);
}

TEST_F(JournalCorruptionTest, FlippedPayloadByteFailsItsChunkCrc) {
  std::string mutated = bytes_;
  // Offset 20 is inside the first chunk's payload (8 header + marker +
  // size varint + 4 CRC bytes come first).
  mutated[20] = static_cast<char>(mutated[20] ^ 0x5A);
  ExpectLintError(mutated, "CRC mismatch");
}

TEST_F(JournalCorruptionTest, UnsupportedVersionIsRejected) {
  std::string mutated = bytes_;
  mutated[4] = 9;  // version u32le lives at bytes 4..7
  ExpectLintError(mutated, "unsupported journal version 9");
}

TEST_F(JournalCorruptionTest, TruncationIsDiagnosedNotMisread) {
  // Chop into the footer frame: the frame header survives but its payload
  // does not.
  ExpectLintError(bytes_.substr(0, bytes_.size() - 4), "truncated");
  // Chop whole frames off: the journal just ends without a footer.
  ExpectLintError(bytes_.substr(0, 8), "without a footer");
  // Not even a full header.
  ExpectLintError(bytes_.substr(0, 3), "too short");
}

TEST_F(JournalCorruptionTest, BadMagicAndJsonContentGetDistinctDiagnoses) {
  ExpectLintError("XXXXXXXX-not-a-journal-at-all", "bad magic");
  // A JSON export handed to the reader is called out as one.
  ExpectLintError(R"({"causal_journal":{"processes":[]}})",
                  "looks like JSON");
}

TEST_F(JournalCorruptionTest, TrailingBytesAfterTheFooterAreAnError) {
  ExpectLintError(bytes_ + "extra", "trailing data");
}

// The file's size bounds the ids a journal can hold, so a pipe, which cannot
// be sized, is refused by name after its header instead of read unbounded.
TEST_F(JournalCorruptionTest, APipeIsRefusedAsUnsizable) {
  const std::string fifo = TempPath("journal_fifo.dpj");
  std::remove(fifo.c_str());
  ASSERT_EQ(mkfifo(fifo.c_str(), 0600), 0);
  // Opening either end waits for the other; the writer hands over the header
  // only, all the reader takes before it refuses the pipe.
  std::thread writer([this, &fifo] {
    std::ofstream(fifo, std::ios::binary) << bytes_.substr(0, 8);
  });
  const check::TraceLintResult r = LintJournalFile(fifo);
  writer.join();
  EXPECT_FALSE(r.ok());
  ASSERT_FALSE(r.errors.empty());
  EXPECT_NE(r.errors[0].find("a journal must be a regular file"),
            std::string::npos)
      << r.errors[0];
  std::remove(fifo.c_str());
}

TEST_F(JournalCorruptionTest, EveryReaderRefusesCorruptInput) {
  std::string mutated = bytes_;
  mutated[20] = static_cast<char>(mutated[20] ^ 0x5A);
  WriteFileBytes(path_, mutated);
  ExpectEveryReaderRejects(path_, "CRC mismatch");
}

// One complete request whose exec node is labelled `label`.
void RecordLabel(const std::string& path, std::string_view process,
                 std::string_view label) {
  RecordToFile(path, JournalWriterOptions{}, [&](CausalGraph* graph) {
    const int req = graph->BeginRequest(graph->RegisterProcess(process), 0, 0);
    graph->AddNode(req,
                   MakeNode(*graph, CpKind::kExec, label, "exec/gpu0", 0, 10),
                   {graph->last_node(req)});
    graph->EndRequest(req, 10);
  });
}

TEST(JournalRoundTripTest, EveryReaderRefusesStringsThatAreNotUtf8) {
  // The bytes 0xFF 0xFE in an exec label, or in a process name: the chunk
  // decodes, and the sequential pass must refuse it, or the JSON and Chrome
  // exports would write a document no JSON parser reads.
  const std::string path = TempPath("journal_not_utf8.dpj");
  RecordLabel(path, "p", "exec \xFF\xFE");
  ExpectEveryReaderRejects(path, "chunk 1: string-table entry ");
  ExpectEveryReaderRejects(path, "\"exec \\xff\\xfe\" is not valid UTF-8");
  RecordLabel(path, "p\xC0\xAF", "exec");  // an overlong '/'
  ExpectEveryReaderRejects(path, "chunk 1: process name 0 ");
  // Two-, three- and four-byte sequences are valid UTF-8.
  RecordLabel(path, "p\xC3\xA9", "exec \xE2\x86\x92 \xF0\x9F\x98\x80");
  ExpectEveryReaderAccepts(path);
  std::remove(path.c_str());
}

TEST(JournalRoundTripTest, EveryReaderRefusesDuplicateRequestIds) {
  // Two well-formed records in one chunk that both claim request 0: the
  // chunk decodes, and the sequential pass must still refuse it.
  const std::string path = TempPath("journal_duplicate.dpj");
  JournalWriter writer;
  ASSERT_TRUE(writer.Open(path));
  writer.OnProcess(0, "p");
  CpStrings strings;
  for (CpNodeId id = 0; id < 2; ++id) {
    CpRequestRecord rec;
    rec.request.id = 0;
    rec.request.completion = 0;
    rec.request.arrival_node = id;
    rec.request.terminal_node = id;
    CpNode arrival;
    arrival.id = id;
    arrival.request = 0;
    arrival.kind = CpKind::kArrival;
    arrival.label = strings.Intern("arrival");
    rec.nodes = {arrival};
    writer.OnRequestRetired(rec, strings);
  }
  ASSERT_TRUE(writer.Finish());
  ExpectEveryReaderRejects(path, "chunk 1: request 0 appears twice");
  std::remove(path.c_str());
}

// One request per chunk, handed straight to the writer as (request id, node
// id) pairs: each record is one arrival node, complete at its arrival.
void WriteRequests(const std::string& path,
                   const std::vector<std::pair<int, CpNodeId>>& ids) {
  JournalWriter writer;
  JournalWriterOptions one_per_chunk;
  one_per_chunk.chunk_requests = 1;
  ASSERT_TRUE(writer.Open(path, one_per_chunk));
  writer.OnProcess(0, "p");
  CpStrings strings;
  for (const auto& [id, node] : ids) {
    CpRequestRecord rec;
    rec.request.id = id;
    rec.request.completion = 0;
    rec.request.arrival_node = node;
    rec.request.terminal_node = node;
    CpNode arrival;
    arrival.id = node;
    arrival.request = id;
    arrival.kind = CpKind::kArrival;
    arrival.label = strings.Intern("arrival");
    rec.nodes = {arrival};
    writer.OnRequestRetired(rec, strings);
  }
  ASSERT_TRUE(writer.Finish());
}

// Every reader gives one verdict on request ids that repeat or are not below
// the journal's request total, naming the request, and none sizes anything
// from such an id: a single request numbered INT_MAX used to lint OK and end
// the what-if replay with bad_alloc, and request 0 written in two chunks
// used to lint OK while the other readers refused it with two different
// messages. Node ids are held to the same rule.
TEST(JournalRoundTripTest, EveryReaderRefusesRequestIdsThatAreNotDense) {
  const std::string path = TempPath("journal_sparse_ids.dpj");
  WriteRequests(path, {{INT_MAX, 0}});
  ExpectEveryReaderRejects(
      path, "chunk 1: request 2147483647 is not below the journal's request "
            "total");
  WriteRequests(path, {{0, 0}, {0, 1}});
  ExpectEveryReaderRejects(path, "chunk 2: request 0 appears twice");
  // Unique ids with a gap fit the file, so the footer is what bounds them.
  WriteRequests(path, {{0, 0}, {2, 1}});
  ExpectEveryReaderRejects(path,
                           "request 2 is not below the journal's request "
                           "total 2");
  WriteRequests(path, {{0, 0}, {1, 0}});
  ExpectEveryReaderRejects(path, "chunk 2: node 0 appears twice");
  WriteRequests(path, {{0, 0}, {1, 5}});
  ExpectEveryReaderRejects(path, "node 5 is not below the journal's node "
                                 "total 2");
  // The control: ids 0 and 1 in either order are accepted by every reader.
  WriteRequests(path, {{1, 0}, {0, 1}});
  ExpectEveryReaderAccepts(path);
  std::remove(path.c_str());
}

// Counts inside a chunk whose CRC is valid: each payload below is framed
// with its own CRC, so the decoder, not the CRC check, has to refuse it.
// Unbounded, each count would be reserved as is and end the process with
// length_error or bad_alloc.
class JournalCountTest : public ::testing::Test {
 protected:
  void TearDown() override { std::remove(path_.c_str()); }

  // A journal of one chunk frame carrying `payload`.
  static std::string Journal(const std::string& payload) {
    std::string bytes(kJournalMagic, sizeof(kJournalMagic));
    for (int shift = 0; shift < 32; shift += 8) {
      bytes.push_back(static_cast<char>(kJournalVersion >> shift));
    }
    bytes.push_back(static_cast<char>(kJournalChunkMarker));
    AppendVarint(&bytes, payload.size());
    const std::uint32_t crc = Crc32(payload);
    for (int shift = 0; shift < 32; shift += 8) {
      bytes.push_back(static_cast<char>(crc >> shift));
    }
    return bytes + payload;
  }

  // Process table {"p"}, a string table of `strings` one-letter strings, and
  // one request (id 0, process 0, no completion) whose header announces
  // `num_nodes` nodes.
  static std::string RequestHeader(std::uint64_t strings, std::uint64_t num_nodes) {
    std::string p;
    AppendVarint(&p, 1);
    AppendVarint(&p, 1);
    p += 'p';
    AppendVarint(&p, strings);
    for (std::uint64_t i = 0; i < strings; ++i) {
      AppendVarint(&p, 1);
      p += 'x';
    }
    AppendVarint(&p, 1);   // requests
    AppendZigzag(&p, 0);   // id
    AppendVarint(&p, 0);   // process
    AppendZigzag(&p, 0);   // instance
    p += '\0';             // flags
    AppendZigzag(&p, 0);   // arrival
    AppendZigzag(&p, 0);   // arrival node
    AppendZigzag(&p, -1);  // terminal node
    AppendVarint(&p, num_nodes);
    return p;
  }

  // One arrival node (id 0, labels from string 0) up to its hop count.
  static void AppendNode(std::string* p, std::uint64_t hops) {
    AppendZigzag(p, 0);  // id delta
    p->push_back(static_cast<char>(CpKind::kArrival));
    AppendVarint(p, 0);   // label
    AppendVarint(p, 0);   // resource
    AppendZigzag(p, 0);   // start delta
    AppendVarint(p, 0);   // duration
    AppendZigzag(p, 0);   // bytes
    AppendZigzag(p, -1);  // solo
    AppendVarint(p, 0);   // dha
    AppendVarint(p, hops);
  }

  void ExpectRejected(const std::string& payload, const std::string& needle) {
    WriteFileBytes(path_, Journal(payload));
    JournalReader reader;
    ASSERT_TRUE(reader.Open(path_)) << reader.error();
    JournalChunk chunk;
    EXPECT_EQ(reader.Next(&chunk), JournalReadStatus::kError);
    EXPECT_NE(reader.error().find(needle), std::string::npos) << reader.error();
  }

  std::string path_ = TempPath("journal_counts.dpj");
};

constexpr std::uint64_t kHugeCount = std::uint64_t{1} << 60;

TEST_F(JournalCountTest, WellFormedChunkDecodes) {
  std::string p = RequestHeader(/*strings=*/1, /*num_nodes=*/1);
  AppendNode(&p, /*hops=*/0);
  AppendVarint(&p, 0);  // edges
  WriteFileBytes(path_, Journal(p));
  JournalReader reader;
  ASSERT_TRUE(reader.Open(path_)) << reader.error();
  JournalChunk chunk;
  ASSERT_EQ(reader.Next(&chunk), JournalReadStatus::kChunk) << reader.error();
  ASSERT_EQ(chunk.requests.size(), 1u);
  EXPECT_EQ(chunk.requests[0].num_nodes, 1u);
  EXPECT_EQ(chunk.nodes.size(), 1u);
}

TEST_F(JournalCountTest, StringCountBeyondThePayloadIsRejected) {
  std::string p;
  AppendVarint(&p, 0);
  AppendVarint(&p, kHugeCount);
  ExpectRejected(p, "string count 1152921504606846976 exceeds");
}

TEST_F(JournalCountTest, RequestCountBeyondThePayloadIsRejected) {
  std::string p;
  AppendVarint(&p, 0);
  AppendVarint(&p, 0);
  AppendVarint(&p, kHugeCount);
  ExpectRejected(p, "request count 1152921504606846976 exceeds");
}

TEST_F(JournalCountTest, NodeCountBeyondThePayloadIsRejected) {
  // Two nodes' worth of bytes cannot hold three nodes.
  std::string p = RequestHeader(/*strings=*/1, /*num_nodes=*/3);
  AppendNode(&p, 0);
  AppendNode(&p, 0);
  ExpectRejected(p, "request 0: node count 3 exceeds");
  // Padding keeps the request count plausible, so the node count is what
  // fails.
  ExpectRejected(RequestHeader(1, kHugeCount) + std::string(32, '\0'),
                 "request 0: node count 1152921504606846976 exceeds");
}

TEST_F(JournalCountTest, EdgeCountBeyondThePayloadIsRejected) {
  std::string p = RequestHeader(/*strings=*/1, /*num_nodes=*/1);
  AppendNode(&p, 0);
  AppendVarint(&p, kHugeCount);
  ExpectRejected(p, "request 0: edge count 1152921504606846976 exceeds");
}

TEST_F(JournalCountTest, NodeWithMoreHopsThanARouteIsRejected) {
  std::string p = RequestHeader(/*strings=*/1, /*num_nodes=*/1);
  AppendNode(&p, kCpMaxHops + 1);
  ExpectRejected(p + std::string(32, '\0'),
                 "request 0: node 0 has 5 hops; a route has at most 4");
}

// One request (id 0, completed at node 2) with nodes 0, 1 and 2 of the
// given kinds (by default an arrival and two execs), rooted at
// `arrival_node`, with the given edges, handed straight to the writer: it
// encodes whatever it is given (it trusts the recorder), so the readers have
// to refuse what a recorder could never produce.
void WriteHandMadeJournal(const std::string& path,
                          const std::vector<CpEdgeRec>& edges,
                          const std::vector<CpKind>& kinds = {CpKind::kArrival,
                                                              CpKind::kExec,
                                                              CpKind::kExec},
                          CpNodeId arrival_node = 0) {
  JournalWriter writer;
  ASSERT_TRUE(writer.Open(path));
  writer.OnProcess(0, "p");
  CpStrings strings;
  CpRequestRecord rec;
  rec.request.id = 0;
  rec.request.process = 0;
  rec.request.instance = 0;
  rec.request.arrival = 0;
  rec.request.completion = 100;
  rec.request.arrival_node = arrival_node;
  rec.request.terminal_node = 2;
  CpNode arrival;
  arrival.id = 0;
  arrival.request = 0;
  arrival.kind = CpKind::kArrival;
  arrival.label = strings.Intern("arrival");
  arrival.resource = strings.Intern("arrival");
  CpNode exec = arrival;
  exec.kind = CpKind::kExec;
  exec.label = strings.Intern("exec");
  exec.resource = strings.Intern("exec/gpu0");
  exec.end = 100;
  CpNode first = exec;
  first.id = 1;
  CpNode second = exec;
  second.id = 2;
  rec.nodes = {arrival, first, second};
  for (std::size_t i = 0; i < rec.nodes.size(); ++i) {
    rec.nodes[i].kind = kinds[i];
  }
  rec.edges = edges;
  writer.OnRequestRetired(rec, strings);
  ASSERT_TRUE(writer.Finish());
}

TEST(JournalLintTest, DanglingEdgeNamesTheRequestAndNode) {
  const std::string path = TempPath("journal_dangling.dpj");
  // Node 7 does not exist.
  WriteHandMadeJournal(path, {{/*seq=*/0, /*from=*/0, /*to=*/7}});

  const check::TraceLintResult r = LintJournalFile(path);
  EXPECT_FALSE(r.ok());
  ASSERT_FALSE(r.errors.empty());
  EXPECT_NE(r.errors[0].find("dangling"), std::string::npos) << r.errors[0];
  EXPECT_NE(r.errors[0].find("request 0"), std::string::npos) << r.errors[0];
  std::remove(path.c_str());
}

// A cycle (1 -> 2 -> 1) and a self-loop (2 -> 2) both pass the CRC and
// every reference check; left in, the replay would wait forever on node 2
// and abort. Every reader refuses the backward edge, naming the request and
// both nodes.
TEST(JournalLintTest, CyclicEdgesAreRejectedByEveryReader) {
  struct Shape {
    std::vector<CpEdgeRec> edges;
    std::string edge;  // as the diagnostic names it
  };
  const std::vector<Shape> shapes = {
      {{{0, 0, 1}, {1, 1, 2}, {2, 2, 1}}, "edge (2 -> 1)"},
      {{{0, 0, 1}, {1, 1, 2}, {2, 2, 2}}, "edge (2 -> 2)"},
  };
  const std::string path = TempPath("journal_cyclic.dpj");
  for (const Shape& shape : shapes) {
    WriteHandMadeJournal(path, shape.edges);
    ExpectEveryReaderRejects(path, "request 0: " + shape.edge);
    ExpectEveryReaderRejects(
        path, "does not run from a lower node id to a higher one");
  }
  std::remove(path.c_str());
}

// A request whose first node is not its one arrival would make the replay
// finish a node twice or wait forever, so every reader refuses it.
TEST(JournalLintTest, RequestsRootAtOneFirstArrivalNode) {
  struct Shape {
    std::vector<CpKind> kinds;
    CpNodeId arrival_node;
    std::string diagnostic;
  };
  const std::vector<Shape> shapes = {
      {{CpKind::kArrival, CpKind::kArrival, CpKind::kExec}, 0,
       "request 0: node 1 is a second arrival node"},
      {{CpKind::kExec, CpKind::kExec, CpKind::kExec}, 0,
       "request 0: node 0 is the request's first node but not an arrival"},
      {{CpKind::kArrival, CpKind::kExec, CpKind::kExec}, 1,
       "request 0: arrival_node 1 is not the request's first node"},
  };
  const std::string path = TempPath("journal_rootless.dpj");
  for (const Shape& shape : shapes) {
    WriteHandMadeJournal(path, {{0, 0, 1}, {1, 1, 2}}, shape.kinds,
                         shape.arrival_node);
    ExpectEveryReaderRejects(path, shape.diagnostic);
  }
  std::remove(path.c_str());
}

TEST(JournalLintTest, ForwardEdgesOfTheSameShapeAreAccepted) {
  // The control for the test above: the same request with its edges
  // pointing forward lints clean and replays its recorded latency.
  const std::string path = TempPath("journal_forward.dpj");
  WriteHandMadeJournal(path, {{0, 0, 1}, {1, 1, 2}});
  ExpectEveryReaderAccepts(path);
  WindowedJournal journal;
  std::string error;
  ASSERT_TRUE(journal.Open(path, &error)) << error;
  WhatIfExperiment identity;
  identity.name = "baseline";
  EXPECT_EQ(journal.Replay(identity).latency, std::vector<Nanos>{200});
  std::remove(path.c_str());
}

// A process names each link at one capacity: the what-if replay builds one
// fabric link per process and name, so two requests of one process whose
// PCIe hops name "pcie/gpu0" at 12e9 and 24e9 B/s used to lint clean and
// then abort the replay. The sequential reader pass refuses the journal,
// across chunks (one request per chunk here), naming the request, the node,
// the link and both capacities. In two processes they are two links.
TEST(JournalLintTest, ALinkNamedAtTwoCapacitiesInOneProcessIsRejected) {
  const auto write = [](const std::string& path, bool two_processes) {
    JournalWriterOptions one_per_chunk;
    one_per_chunk.chunk_requests = 1;
    RecordToFile(path, one_per_chunk, [two_processes](CausalGraph* graph) {
      const int first = graph->RegisterProcess("a");
      const int second = two_processes ? graph->RegisterProcess("b") : first;
      for (const auto& [process, capacity] :
           {std::pair{first, 12e9}, std::pair{second, 24e9}}) {
        const int req = graph->BeginRequest(process, 0, 0);
        CpNode load = MakeNode(*graph, CpKind::kPcie, "load", "pcie/gpu0", 0,
                               1000, 12000, 1000);
        load.path = {{graph->Intern("pcie/gpu0"), capacity}};
        graph->AddNode(req, load, {graph->last_node(req)});
        graph->EndRequest(req, 1000);
      }
    });
  };
  const std::string path = TempPath("journal_two_capacities.dpj");
  const std::string diagnostic =
      "chunk 2: request 1: node 3 names link \"pcie/gpu0\" at capacity "
      "24000000000 B/s, but process 0 named it at 12000000000 B/s before";

  write(path, /*two_processes=*/false);
  ExpectEveryReaderRejects(path, diagnostic);

  write(path, /*two_processes=*/true);
  ExpectEveryReaderAccepts(path);
  std::string error;
  WindowedJournal journal;
  ASSERT_TRUE(journal.Open(path, &error)) << error;
  WhatIfExperiment identity;
  identity.name = "baseline";
  EXPECT_EQ(journal.Replay(identity).latency, (std::vector<Nanos>{1000, 1000}));
  std::remove(path.c_str());
}

// ------------------------------------------------ streaming state

// The streaming graph indexes open requests from the oldest open one: a
// request held open while thousands of later requests retire stays
// addressable, its early nodes still predecessors of a node recorded late,
// and FlushOpenRequests retires it last, incomplete.
TEST(CausalStreamTest, RequestHeldOpenIsFlushedLast) {
  const std::string path = TempPath("journal_held_open.dpj");
  CausalGraph graph(/*enabled=*/true);
  JournalWriter writer;
  ASSERT_TRUE(writer.Open(path));
  graph.AttachSink(&writer);
  const int process = graph.RegisterProcess("p");
  const int held = graph.BeginRequest(process, 0, 0);
  const CpNodeId held_node = graph.AddNode(
      held, MakeNode(graph, CpKind::kExec, "exec", "exec/gpu0", 0, 5),
      {graph.last_node(held)});
  constexpr int kLater = 5000;
  for (int i = 1; i <= kLater; ++i) {
    const int req = graph.BeginRequest(process, 1, i);
    graph.AddNode(req,
                  MakeNode(graph, CpKind::kExec, "exec", "exec/gpu0", i, i + 1),
                  {graph.last_node(req)});
    graph.EndRequest(req, i + 1);
  }
  CpNode late = MakeNode(graph, CpKind::kExec, "exec", "exec/gpu0", 5, 9);
  late.dha_pcie = 3;
  const CpNodeId late_node = graph.AddNode(held, late, {held_node});
  graph.FlushOpenRequests();
  ASSERT_TRUE(writer.Finish());
  EXPECT_EQ(writer.totals().requests, kLater + 1u);
  EXPECT_EQ(writer.totals().incomplete_requests, 1u);

  JournalReader reader;
  ASSERT_TRUE(reader.Open(path)) << reader.error();
  JournalChunk chunk;
  CpRequest last;
  while (reader.Next(&chunk) == JournalReadStatus::kChunk) {
    last = chunk.requests.back().request;
  }
  ASSERT_TRUE(reader.footer_seen()) << reader.error();
  EXPECT_EQ(last.id, held);
  EXPECT_EQ(last.completion, -1);

  WindowedJournal back;
  std::string error;
  ASSERT_TRUE(back.Open(path, &error)) << error;
  ASSERT_EQ(back.requests().size(), kLater + 1u);
  EXPECT_EQ(back.requests()[0].completion, -1);
  EXPECT_EQ(back.requests()[1].completion, 2);
  Nanos late_dha_pcie = -1;
  std::vector<std::pair<CpNodeId, CpNodeId>> late_edges;
  ASSERT_TRUE(ForEachJournalChunk(
      path,
      [&](JournalChunk& c) {
        for (const CpNode& node : c.nodes) {
          if (node.id == late_node) {
            late_dha_pcie = node.dha_pcie;
          }
        }
        for (const JournalChunk::Edge& e : c.edges) {
          if (c.nodes[e.to].id == late_node) {
            late_edges.emplace_back(c.nodes[e.from].id, c.nodes[e.to].id);
          }
        }
      },
      &error))
      << error;
  EXPECT_EQ(late_dha_pcie, 3);
  EXPECT_EQ(late_edges,
            (std::vector<std::pair<CpNodeId, CpNodeId>>{{held_node, late_node}}));
  std::remove(path.c_str());
}

// A graph holds only open requests, each retired as one self-contained
// record, and an edge only enters the node being recorded: a predecessor
// from another open request, one not earlier than the new node, or one of a
// retired request dies rather than writing a wrong journal.
constexpr const char* kPredecessorCheck =
    "a predecessor is an earlier node of the same open request";

TEST(CausalStreamDeathTest, PredecessorFromAnotherOpenRequestDies) {
  EXPECT_DEATH(
      {
        CausalGraph graph(/*enabled=*/true);
        const int process = graph.RegisterProcess("p");
        const int a = graph.BeginRequest(process, 0, 0);
        const int b = graph.BeginRequest(process, 1, 0);
        graph.AddNode(b, MakeNode(graph, CpKind::kExec, "exec", "gpu0", 0, 5),
                      {graph.last_node(a)});
      },
      kPredecessorCheck);
}

TEST(CausalStreamDeathTest, PredecessorNotEarlierThanTheNodeDies) {
  // The id the new node is about to get, and one past it.
  for (const CpNodeId ahead : {1, 2}) {
    EXPECT_DEATH(
        {
          CausalGraph graph(/*enabled=*/true);
          const int req = graph.BeginRequest(graph.RegisterProcess("p"), 0, 0);
          graph.AddNode(req, MakeNode(graph, CpKind::kExec, "exec", "gpu0", 0, 5),
                        {graph.last_node(req) + ahead});
        },
        kPredecessorCheck);
  }
}

TEST(CausalStreamDeathTest, PredecessorOfARetiredRequestDies) {
  EXPECT_DEATH(
      {
        CausalGraph graph(/*enabled=*/true);
        const int process = graph.RegisterProcess("p");
        const int retired = graph.BeginRequest(process, 0, 0);
        const CpNodeId node = graph.last_node(retired);
        graph.EndRequest(retired, 0);
        const int req = graph.BeginRequest(process, 1, 0);
        graph.AddNode(req, MakeNode(graph, CpKind::kExec, "exec", "gpu0", 0, 5),
                      {node});
      },
      kPredecessorCheck);
}

// ------------------------------------------------ windowed replay

// The windowed engine's differential: replay over a file journal in small
// chunks against replay over the same run's own journal in memory (one
// chunk), on a served azure-style workload — every per-request vector
// identical, every report byte identical, and the windowed engine provably
// holding fewer requests than the journal.
class WindowedReplayTest : public ::testing::Test {
 protected:
  static void TearDownTestSuite() { std::remove(TempPath(kJournalName).c_str()); }

  static constexpr const char* kJournalName = "journal_windowed.dpj";

  static void RunAzureWorkload(CausalGraph* graph) {
    const Topology topology = Topology::P3_8xlarge();
    const PerfModel perf(topology.gpu(), topology.pcie());
    ServerOptions options;
    options.strategy = Strategy::kDeepPlanDha;
    Server server(topology, perf, options);
    const int type = server.RegisterModelType(ModelZoo::BertBase());
    server.AddInstances(type, 50);
    server.set_causal(graph, graph->RegisterProcess("azure"));
    AzureTraceOptions w;
    w.num_instances = 50;
    w.duration = Seconds(20);
    w.target_rate_per_sec = 100.0;
    server.Run(GenerateAzureTrace(w));
  }

  static CausalGraph& Graph() {
    static CausalGraph* graph = [] {
      auto* g = new CausalGraph(/*enabled=*/true);
      RunAzureWorkload(g);
      return g;
    }();
    return *graph;
  }

  static const std::string& JournalPath() {
    static const std::string path = [] {
      const std::string p = TempPath(kJournalName);
      JournalWriterOptions small;
      small.chunk_requests = 64;  // many windows
      RecordToFile(p, small, RunAzureWorkload);
      return p;
    }();
    return path;
  }
};

TEST_F(WindowedReplayTest, OpenIndexesTheSameMetadata) {
  WindowedJournal journal;
  std::string error;
  ASSERT_TRUE(journal.Open(JournalPath(), &error)) << error;
  WindowedJournal in_memory;
  ASSERT_TRUE(in_memory.OpenBytes(Graph().journal(), &error)) << error;
  ASSERT_GT(in_memory.requests().size(), 500u);
  EXPECT_EQ(journal.processes(), in_memory.processes());
  ASSERT_EQ(journal.requests().size(), in_memory.requests().size());
  for (std::size_t i = 0; i < in_memory.requests().size(); ++i) {
    EXPECT_EQ(journal.requests()[i].arrival, in_memory.requests()[i].arrival);
    EXPECT_EQ(journal.requests()[i].completion,
              in_memory.requests()[i].completion);
  }
}

TEST_F(WindowedReplayTest, EveryExperimentReplaysBitIdentically) {
  WindowedJournal journal;
  std::string error;
  ASSERT_TRUE(journal.Open(JournalPath(), &error)) << error;
  std::vector<WhatIfExperiment> experiments = DefaultWhatIfExperiments();
  WhatIfExperiment identity;
  identity.name = "baseline";
  experiments.push_back(identity);
  for (const WhatIfExperiment& exp : experiments) {
    const WhatIfReplay in_memory = ReplayWhatIf(Graph(), exp);
    const WhatIfReplay windowed = journal.Replay(exp);
    EXPECT_EQ(windowed.latency, in_memory.latency) << exp.name;
    EXPECT_EQ(windowed.pcie_time, in_memory.pcie_time) << exp.name;
    EXPECT_EQ(windowed.nvlink_time, in_memory.nvlink_time) << exp.name;
    EXPECT_EQ(windowed.exec_time, in_memory.exec_time) << exp.name;
  }
}

TEST_F(WindowedReplayTest, ReportsAreByteIdenticalAcrossEngines) {
  WindowedJournal journal;
  std::string error;
  ASSERT_TRUE(journal.Open(JournalPath(), &error)) << error;
  const std::vector<WhatIfExperiment> experiments = DefaultWhatIfExperiments();
  const WhatIfReport in_memory = BuildWhatIfReport(Graph(), experiments);
  const WhatIfReport windowed =
      BuildWhatIfReportWindowed(journal, experiments);
  EXPECT_TRUE(in_memory.baseline_matches_journal);
  EXPECT_TRUE(windowed.baseline_matches_journal);
  EXPECT_EQ(WhatIfReportJson(windowed), WhatIfReportJson(in_memory));
}

TEST_F(WindowedReplayTest, ResidentWindowStaysBelowTheJournalSize) {
  WindowedJournal journal;
  std::string error;
  ASSERT_TRUE(journal.Open(JournalPath(), &error)) << error;
  WhatIfExperiment identity;
  identity.name = "baseline";
  journal.Replay(identity);
  EXPECT_GT(journal.max_resident_requests(), 0u);
  // The bounded-memory claim: a 64-request chunk window plus in-flight
  // requests, never the whole journal.
  EXPECT_LT(journal.max_resident_requests(), journal.requests().size() / 2);
}

TEST_F(WindowedReplayTest, OneReplayBarelyTouchesTheHeap) {
  // The replay's allocation counter: a replay decodes each chunk into
  // reused flat arrays and schedules Actions and TransferDones, so what it
  // allocates is per chunk, per link and per replay, never per node.
  std::size_t replayed_nodes = 0;
  const JournalTotals totals =
      ForEachGraphChunk(Graph(), [&replayed_nodes](JournalChunk& chunk) {
        for (const JournalChunk::Record& rec : chunk.requests) {
          if (rec.request.completion >= 0) {
            replayed_nodes += rec.num_nodes;
          }
        }
      });
  ASSERT_GT(replayed_nodes, 2000u);
  WindowedJournal journal;
  std::string error;
  ASSERT_TRUE(journal.Open(JournalPath(), &error)) << error;
  WhatIfExperiment identity;
  identity.name = "baseline";
  const std::size_t before = g_allocations;
  const WhatIfReplay replay = journal.Replay(identity);
  const std::size_t allocations = g_allocations - before;
  EXPECT_EQ(replay.latency.size(), totals.requests);
  EXPECT_LT(static_cast<double>(allocations) / static_cast<double>(replayed_nodes), 0.1)
      << allocations << " allocations for " << replayed_nodes << " replayed nodes";
}

TEST(WindowedJournalTest, OpenRejectsMissingAndCorruptFiles) {
  WindowedJournal journal;
  std::string error;
  EXPECT_FALSE(journal.Open("/nonexistent/journal.dpj", &error));
  EXPECT_FALSE(error.empty());
}

}  // namespace
}  // namespace deepplan
