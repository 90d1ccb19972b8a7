// Tests for the streaming binary causal journal (src/obs/journal_stream.h)
// and its windowed what-if consumer: encoding primitives, byte-exact round
// trips (the JSON export of a read-back journal equals the recording
// graph's) on engine- and server-recorded journals,
// streaming-writer equivalence with the batch dump, corruption and
// version-mismatch rejection with actionable messages, dangling-edge
// diagnosis, cyclic-edge rejection, and the headline differential —
// windowed chunk-at-a-time replay must be bit-identical to in-memory replay
// while keeping fewer requests resident than the journal holds and barely
// touching the heap.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <limits>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "src/model/zoo.h"
#include "src/obs/causal_graph.h"
#include "src/obs/journal_stream.h"
#include "src/obs/metrics_registry.h"
#include "src/obs/whatif/whatif.h"
#include "src/obs/whatif/whatif_report.h"
#include "src/serving/server.h"
#include "src/workload/azure_trace.h"
#include "src/workload/poisson.h"
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
  ASSERT_TRUE(WriteGraphToJournal(graph, path, {}, nullptr, &error)) << error;
  CausalGraph back(/*enabled=*/true);
  ASSERT_TRUE(ReadJournalToGraph(path, &back, &error)) << error;
  EXPECT_EQ(back.ToJson(), json);
  std::remove(path.c_str());
}

TEST(JournalRoundTripTest, ServedWorkloadSurvivesBinaryExactly) {
  CausalGraph graph(/*enabled=*/true);
  RunServedWorkload(&graph);
  ASSERT_GT(graph.requests().size(), 100u);
  const std::string json = graph.ToJson();
  const std::string path = TempPath("journal_served.dpj");

  // Small chunks force the multi-chunk code paths even on a short run.
  JournalWriterOptions small;
  small.chunk_requests = 16;
  std::string error;
  ASSERT_TRUE(WriteGraphToJournal(graph, path, small, nullptr, &error))
      << error;

  CausalGraph back(/*enabled=*/true);
  ASSERT_TRUE(ReadJournalToGraph(path, &back, &error)) << error;
  EXPECT_EQ(back.ToJson(), json);
  std::remove(path.c_str());
}

TEST(JournalRoundTripTest, StreamingWriterRecordsTheSameGraph) {
  // Reference: the identical run recorded into an in-memory graph.
  CausalGraph reference(/*enabled=*/true);
  RunServedWorkload(&reference);

  // Streamed: same run, retiring straight into the chunked writer. Requests
  // retire in completion order (not id order), so the file differs from the
  // batch dump — but it must decode to the identical graph, and repeated
  // runs must produce identical bytes.
  const std::string path = TempPath("journal_streamed.dpj");
  const auto stream_once = [&] {
    CausalGraph graph(/*enabled=*/true);
    JournalWriter writer;
    JournalWriterOptions small;
    small.chunk_requests = 16;
    EXPECT_TRUE(writer.Open(path, small));
    graph.AttachSink(&writer);
    EXPECT_TRUE(graph.streaming());
    RunServedWorkload(&graph);
    graph.FlushOpenRequests();
    EXPECT_TRUE(writer.Finish());
    EXPECT_EQ(writer.totals().requests,
              reference.requests().size());
    EXPECT_GT(writer.totals().chunks, 1u);
    return ReadFileBytes(path);
  };
  const std::string first = stream_once();
  EXPECT_EQ(stream_once(), first);

  CausalGraph back(/*enabled=*/true);
  std::string error;
  ASSERT_TRUE(ReadJournalToGraph(path, &back, &error)) << error;
  EXPECT_EQ(back.ToJson(), reference.ToJson());
  std::remove(path.c_str());
}

TEST(JournalRoundTripTest, IncompleteRequestsKeepCompletionMinusOne) {
  const std::string path = TempPath("journal_incomplete.dpj");
  CausalGraph graph(/*enabled=*/true);
  JournalWriter writer;
  ASSERT_TRUE(writer.Open(path));
  graph.AttachSink(&writer);
  const int process = graph.RegisterProcess("p");
  const int done = graph.BeginRequest(process, 0, 10);
  const CpNodeId exec =
      graph.AddNode(done, CpKind::kExec, "exec", "exec/gpu0", 10, 20);
  graph.AddEdge(graph.arrival_node(done), exec);
  graph.EndRequest(done, 20, exec);
  const int open = graph.BeginRequest(process, 1, 15);
  graph.AddNode(open, CpKind::kExec, "exec", "exec/gpu0", 15, 25);
  // `open` never ends: FlushOpenRequests retires it with completion -1.
  graph.FlushOpenRequests();
  ASSERT_TRUE(writer.Finish());
  EXPECT_EQ(writer.totals().requests, 2u);
  EXPECT_EQ(writer.totals().incomplete_requests, 1u);

  CausalGraph back(/*enabled=*/true);
  std::string error;
  ASSERT_TRUE(ReadJournalToGraph(path, &back, &error)) << error;
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
  const std::string path = TempPath("journal_iter.dpj");
  JournalWriterOptions small;
  small.chunk_requests = 32;
  std::string error;
  ASSERT_TRUE(WriteGraphToJournal(graph, path, small, nullptr, &error))
      << error;

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
  EXPECT_EQ(requests, graph.requests().size());
  EXPECT_EQ(reader.num_processes(), graph.processes().size());
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
    CausalGraph graph(/*enabled=*/true);
    const int process = graph.RegisterProcess("p");
    for (int i = 0; i < 8; ++i) {
      const int req = graph.BeginRequest(process, i, i * 100);
      const CpNodeId exec = graph.AddNode(req, CpKind::kExec, "exec",
                                          "exec/gpu0", i * 100, i * 100 + 50);
      graph.AddEdge(graph.arrival_node(req), exec);
      graph.EndRequest(req, i * 100 + 50, exec);
    }
    JournalWriterOptions small;
    small.chunk_requests = 4;  // two chunks
    std::string error;
    ASSERT_TRUE(WriteGraphToJournal(graph, path_, small, nullptr, &error))
        << error;
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

TEST_F(JournalCorruptionTest, ReadJournalToGraphRefusesCorruptInput) {
  std::string mutated = bytes_;
  mutated[20] = static_cast<char>(mutated[20] ^ 0x5A);
  WriteFileBytes(path_, mutated);
  CausalGraph out(/*enabled=*/true);
  std::string error;
  EXPECT_FALSE(ReadJournalToGraph(path_, &out, &error));
  EXPECT_NE(error.find("CRC mismatch"), std::string::npos) << error;
}

TEST(JournalRoundTripTest, ReadJournalToGraphRefusesDuplicateRequestIds) {
  // Two well-formed records that both claim request 0: each chunk decodes,
  // and the materialized graph must still refuse them.
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
  CausalGraph out(/*enabled=*/true);
  std::string error;
  EXPECT_FALSE(ReadJournalToGraph(path, &out, &error));
  EXPECT_NE(error.find("duplicate, missing or out-of-order request 1"),
            std::string::npos)
      << error;
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
    const auto expect_diagnostic = [&shape](const std::string& error) {
      EXPECT_NE(error.find("request 0: " + shape.edge), std::string::npos)
          << error;
      EXPECT_NE(error.find("does not run from a lower node id to a higher one"),
                std::string::npos)
          << error;
    };

    const check::TraceLintResult lint = LintJournalFile(path);
    EXPECT_FALSE(lint.ok()) << shape.edge;
    ASSERT_FALSE(lint.errors.empty()) << shape.edge;
    expect_diagnostic(lint.errors[0]);

    CausalGraph graph(/*enabled=*/true);
    std::string error;
    EXPECT_FALSE(ReadJournalToGraph(path, &graph, &error)) << shape.edge;
    expect_diagnostic(error);

    WindowedJournal journal;
    error.clear();
    EXPECT_FALSE(journal.Open(path, &error)) << shape.edge;
    expect_diagnostic(error);
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
    const check::TraceLintResult lint = LintJournalFile(path);
    ASSERT_FALSE(lint.errors.empty()) << shape.diagnostic;
    EXPECT_NE(lint.errors[0].find(shape.diagnostic), std::string::npos)
        << lint.errors[0];
    WindowedJournal journal;
    std::string error;
    EXPECT_FALSE(journal.Open(path, &error)) << shape.diagnostic;
    EXPECT_NE(error.find(shape.diagnostic), std::string::npos) << error;
  }
  std::remove(path.c_str());
}

TEST(JournalLintTest, ForwardEdgesOfTheSameShapeAreAccepted) {
  // The control for the test above: the same request with its edges
  // pointing forward lints clean and replays its recorded latency.
  const std::string path = TempPath("journal_forward.dpj");
  WriteHandMadeJournal(path, {{0, 0, 1}, {1, 1, 2}});
  const check::TraceLintResult lint = LintJournalFile(path);
  EXPECT_TRUE(lint.ok()) << (lint.errors.empty() ? "" : lint.errors[0]);
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
    CausalGraph graph(/*enabled=*/true);
    const int first = graph.RegisterProcess("a");
    const int second = two_processes ? graph.RegisterProcess("b") : first;
    for (const auto& [process, capacity] :
         {std::pair{first, 12e9}, std::pair{second, 24e9}}) {
      const int req = graph.BeginRequest(process, 0, 0);
      const CpNodeId load = graph.AddNode(req, CpKind::kPcie, "load",
                                          "pcie/gpu0", 0, 1000, 12000, 1000);
      graph.SetNodePath(load, {{graph.Intern("pcie/gpu0"), capacity}});
      graph.AddEdge(graph.arrival_node(req), load);
      graph.EndRequest(req, 1000, load);
    }
    JournalWriterOptions one_per_chunk;
    one_per_chunk.chunk_requests = 1;
    std::string error;
    ASSERT_TRUE(WriteGraphToJournal(graph, path, one_per_chunk, nullptr, &error))
        << error;
  };
  const std::string path = TempPath("journal_two_capacities.dpj");
  const std::string diagnostic =
      "chunk 2: request 1: node 3 names link \"pcie/gpu0\" at capacity "
      "24000000000 B/s, but process 0 named it at 12000000000 B/s before";

  write(path, /*two_processes=*/false);
  const check::TraceLintResult lint = LintJournalFile(path);
  ASSERT_FALSE(lint.errors.empty());
  EXPECT_NE(lint.errors[0].find(diagnostic), std::string::npos) << lint.errors[0];
  CausalGraph graph(/*enabled=*/true);
  std::string error;
  EXPECT_FALSE(ReadJournalToGraph(path, &graph, &error));
  EXPECT_NE(error.find(diagnostic), std::string::npos) << error;
  WindowedJournal rejected;
  error.clear();
  EXPECT_FALSE(rejected.Open(path, &error));
  EXPECT_NE(error.find(diagnostic), std::string::npos) << error;

  write(path, /*two_processes=*/true);
  const check::TraceLintResult control = LintJournalFile(path);
  EXPECT_TRUE(control.ok()) << (control.errors.empty() ? "" : control.errors[0]);
  ASSERT_TRUE(ReadJournalToGraph(path, &graph, &error)) << error;
  WindowedJournal journal;
  ASSERT_TRUE(journal.Open(path, &error)) << error;
  WhatIfExperiment identity;
  identity.name = "baseline";
  EXPECT_EQ(journal.Replay(identity).latency, (std::vector<Nanos>{1000, 1000}));
  std::remove(path.c_str());
}

// ------------------------------------------------ streaming state

// The streaming graph indexes open requests and their nodes from the oldest
// open one: a request held open while thousands of later requests retire
// stays addressable, and FlushOpenRequests retires it last, incomplete.
TEST(CausalStreamTest, RequestHeldOpenIsFlushedLast) {
  const std::string path = TempPath("journal_held_open.dpj");
  CausalGraph graph(/*enabled=*/true);
  JournalWriter writer;
  ASSERT_TRUE(writer.Open(path));
  graph.AttachSink(&writer);
  const int process = graph.RegisterProcess("p");
  const CpStrId exec = graph.Intern("exec");
  const CpStrId gpu = graph.Intern("exec/gpu0");
  const int held = graph.BeginRequest(process, 0, 0);
  const CpNodeId held_node = graph.AddNode(held, CpKind::kExec, exec, gpu, 0, 5);
  graph.AddEdge(graph.arrival_node(held), held_node);
  constexpr int kLater = 5000;
  for (int i = 1; i <= kLater; ++i) {
    const int req = graph.BeginRequest(process, 1, i);
    const CpNodeId node = graph.AddNode(req, CpKind::kExec, exec, gpu, i, i + 1);
    graph.AddEdge(graph.arrival_node(req), node);
    graph.EndRequest(req, i + 1, node);
  }
  graph.SetNodeDhaPcie(held_node, 3);
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

  CausalGraph back(/*enabled=*/true);
  std::string error;
  ASSERT_TRUE(ReadJournalToGraph(path, &back, &error)) << error;
  ASSERT_EQ(back.requests().size(), kLater + 1u);
  EXPECT_EQ(back.requests()[0].completion, -1);
  EXPECT_EQ(back.requests()[1].completion, 2);
  EXPECT_EQ(back.nodes()[static_cast<std::size_t>(held_node)].dha_pcie, 3);
  std::remove(path.c_str());
}

// A streaming graph holds only open requests, each retired as one
// self-contained record: an edge between two open requests, or a change to
// a node of a retired one, dies rather than writing a wrong journal.
TEST(CausalStreamDeathTest, EdgeAcrossTwoOpenRequestsDies) {
  const std::string path = TempPath("journal_death_edge.dpj");
  EXPECT_DEATH(
      {
        JournalWriter writer;
        writer.Open(path);
        CausalGraph graph(/*enabled=*/true);
        graph.AttachSink(&writer);
        const int process = graph.RegisterProcess("p");
        const int a = graph.BeginRequest(process, 0, 0);
        const int b = graph.BeginRequest(process, 1, 0);
        graph.AddEdge(graph.arrival_node(a), graph.arrival_node(b));
      },
      "an edge stays in one request");
  std::remove(path.c_str());
}

TEST(CausalStreamDeathTest, MutatingANodeOfARetiredRequestDies) {
  const std::string path = TempPath("journal_death_retired.dpj");
  // With no older request open the window has moved past the node; with one
  // held open the node is still in the window, but its request is retired.
  for (const bool hold_older : {false, true}) {
    EXPECT_DEATH(
        {
          JournalWriter writer;
          writer.Open(path);
          CausalGraph graph(/*enabled=*/true);
          graph.AttachSink(&writer);
          const int process = graph.RegisterProcess("p");
          if (hold_older) {
            graph.BeginRequest(process, 0, 0);
          }
          const int req = graph.BeginRequest(process, 1, 0);
          const CpNodeId node =
              graph.AddNode(req, CpKind::kExec, "exec", "exec/gpu0", 0, 5);
          graph.EndRequest(req, 5, node);
          graph.SetNodeDhaPcie(node, 1);
        },
        "the node's request is open");
  }
  std::remove(path.c_str());
}

// ------------------------------------------------ windowed replay

// The tentpole differential: chunk-windowed replay over the binary journal
// against whole-graph in-memory replay, on a served azure-style workload —
// every per-request vector identical, every report byte identical, and the
// windowed engine provably holding fewer requests than the journal.
class WindowedReplayTest : public ::testing::Test {
 protected:
  static void TearDownTestSuite() { std::remove(TempPath(kJournalName).c_str()); }

  static constexpr const char* kJournalName = "journal_windowed.dpj";

  static CausalGraph& Graph() {
    static CausalGraph* graph = [] {
      auto* g = new CausalGraph(/*enabled=*/true);
      const Topology topology = Topology::P3_8xlarge();
      const PerfModel perf(topology.gpu(), topology.pcie());
      ServerOptions options;
      options.strategy = Strategy::kDeepPlanDha;
      Server server(topology, perf, options);
      const int type = server.RegisterModelType(ModelZoo::BertBase());
      server.AddInstances(type, 50);
      server.set_causal(g, g->RegisterProcess("azure"));
      AzureTraceOptions w;
      w.num_instances = 50;
      w.duration = Seconds(20);
      w.target_rate_per_sec = 100.0;
      server.Run(GenerateAzureTrace(w));
      return g;
    }();
    return *graph;
  }

  static const std::string& JournalPath() {
    static const std::string path = [] {
      const std::string p = TempPath(kJournalName);
      JournalWriterOptions small;
      small.chunk_requests = 64;  // many windows
      std::string error;
      EXPECT_TRUE(WriteGraphToJournal(Graph(), p, small, nullptr, &error))
          << error;
      return p;
    }();
    return path;
  }
};

TEST_F(WindowedReplayTest, OpenIndexesTheSameMetadata) {
  WindowedJournal journal;
  std::string error;
  ASSERT_TRUE(journal.Open(JournalPath(), &error)) << error;
  const CausalGraph& graph = Graph();
  ASSERT_GT(graph.requests().size(), 500u);
  EXPECT_EQ(journal.processes(), graph.processes());
  ASSERT_EQ(journal.requests().size(), graph.requests().size());
  for (std::size_t i = 0; i < graph.requests().size(); ++i) {
    EXPECT_EQ(journal.requests()[i].arrival, graph.requests()[i].arrival);
    EXPECT_EQ(journal.requests()[i].completion,
              graph.requests()[i].completion);
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
  const CausalGraph& graph = Graph();
  std::size_t replayed_nodes = 0;
  for (const CpNode& node : graph.nodes()) {
    if (graph.requests()[static_cast<std::size_t>(node.request)].completion >= 0) {
      ++replayed_nodes;
    }
  }
  ASSERT_GT(replayed_nodes, 2000u);
  WindowedJournal journal;
  std::string error;
  ASSERT_TRUE(journal.Open(JournalPath(), &error)) << error;
  WhatIfExperiment identity;
  identity.name = "baseline";
  const std::size_t before = g_allocations;
  const WhatIfReplay replay = journal.Replay(identity);
  const std::size_t allocations = g_allocations - before;
  EXPECT_EQ(replay.latency.size(), graph.requests().size());
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
