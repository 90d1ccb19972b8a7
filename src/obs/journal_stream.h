// Binary causal journal (DPJL, schema v1): the one format a causal journal
// is recorded in and read from. A streaming JournalWriter consumes retired
// requests from a streaming CausalGraph (CausalSink) and appends them in
// CRC-guarded chunks, so recording a million-request run costs only the
// in-flight state; WriteGraphToJournal dumps an accumulated graph the same
// way. A chunk-iterator JournalReader lets consumers (the windowed what-if
// engine, the lint mode, ReadJournalToGraph) bound their resident set to a
// window of chunks. JSON (CausalGraph::ToJson) is an export only:
// `journal_convert --to-json` writes it, byte-identical to ToJson() of the
// recording run, and no reader accepts it.
//
// File layout (all integers little-endian; varint = LEB128, zigzag for
// signed):
//
//   header  "DPJL" + u32 version (=1)
//   frame*  u8 marker + varint payload_size + u32 crc32(payload) + payload
//
// A frame is a chunk (marker 0xC4) or the footer (0xFA, final frame). Chunk
// payload:
//
//   varint new_process_count, { varint len, bytes }*   (ids are sequential)
//   varint string_count,      { varint len, bytes }*   (chunk string table,
//                                                       first-use order)
//   varint request_count, request records...
//
// Each request record is self-contained (the recorder guarantees edges never
// cross requests): request meta, nodes (id-delta, kind, label/resource as
// string-table indices, start relative to arrival, duration, bytes, solo,
// dha_pcie, hops as link index + raw f64 capacity bits), then edges (seq
// delta + endpoints relative to the first node id). The footer carries the
// journal totals, which readers cross-check against the chunks they saw.
//
// Determinism: the encoding has no timestamps, pointers, or hashes of
// addresses — the same run produces the same bytes, for any DEEPPLAN_JOBS.
#ifndef SRC_OBS_JOURNAL_STREAM_H_
#define SRC_OBS_JOURNAL_STREAM_H_

#include <cstdint>
#include <fstream>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/check/trace_lint.h"
#include "src/obs/causal_graph.h"
#include "src/obs/metrics_registry.h"
#include "src/util/thread_annotations.h"

namespace deepplan {

inline constexpr char kJournalMagic[4] = {'D', 'P', 'J', 'L'};
inline constexpr std::uint32_t kJournalVersion = 1;
inline constexpr std::uint8_t kJournalChunkMarker = 0xC4;
inline constexpr std::uint8_t kJournalFooterMarker = 0xFA;

// --- low-level encoding primitives (exposed for tests) ---

void AppendVarint(std::string* out, std::uint64_t v);
std::uint64_t ZigzagEncode(std::int64_t v);
std::int64_t ZigzagDecode(std::uint64_t v);
void AppendZigzag(std::string* out, std::int64_t v);
// Bounds-checked LEB128 decode from `data` at `*pos`; false on overrun or a
// >10-byte (overlong) encoding.
bool ReadVarint(std::string_view data, std::size_t* pos, std::uint64_t* out);
bool ReadZigzag(std::string_view data, std::size_t* pos, std::int64_t* out);
// CRC-32 (IEEE 802.3, reflected 0xEDB88320) — Crc32("123456789") is the
// standard check value 0xCBF43926.
std::uint32_t Crc32(std::string_view data);

// Footer totals; also the shape of the journal.* metrics counters.
struct JournalTotals {
  std::uint64_t requests = 0;
  std::uint64_t incomplete_requests = 0;  // flushed with completion -1
  std::uint64_t nodes = 0;
  std::uint64_t edges = 0;
  std::uint64_t chunks = 0;

  bool operator==(const JournalTotals&) const = default;
};

struct JournalWriterOptions {
  // A chunk flushes when it holds this many requests or its encoded body
  // reaches this many bytes, whichever first. Both bound reader windows.
  std::size_t chunk_requests = 4096;
  std::size_t chunk_bytes = std::size_t{1} << 20;
};

// Streaming writer; plugs into a streaming CausalGraph as its CausalSink.
// When a MetricsRegistry is attached, each flushed chunk bumps the
// journal.requests / journal.incomplete_requests / journal.nodes /
// journal.edges / journal.chunks / journal.bytes counters; with no registry
// (and on the disabled-graph path, which never calls the sink) the writer
// touches no metrics at all.
//
// Internally synchronized: the writer is the retirement hand-off point, so
// every mutable field sits behind mu_ (GUARDED_BY, compile-checked). What the
// lock does NOT provide is retirement *order* — under PDES the caller must
// still hand requests over in a deterministic order for the journal bytes to
// be reproducible; today that order comes from the single-threaded recorder
// (or FlushOpenRequests' id-ordered sweep). The status accessors return by
// value for the same reason: a reference into guarded state would escape the
// lock. Lock order: this is a leaf for the graph (graph's stream mutex is
// held across OnRequestRetired) but acquires the registry's internal lock via
// the journal.* counters — so registry < writer < graph, never cyclic.
class JournalWriter : public CausalSink {
 public:
  JournalWriter() = default;
  ~JournalWriter() override;
  JournalWriter(const JournalWriter&) = delete;
  JournalWriter& operator=(const JournalWriter&) = delete;

  bool Open(const std::string& path, const JournalWriterOptions& options = {},
            MetricsRegistry* metrics = nullptr) EXCLUDES(mu_);

  void OnProcess(int id, const std::string& name) override EXCLUDES(mu_);
  void OnRequestRetired(CpRequestRecord&& record) override EXCLUDES(mu_);

  // Flushes the tail chunk, writes the footer, and closes. Returns false if
  // any write failed. Safe to call once; the destructor calls it if needed.
  bool Finish() EXCLUDES(mu_);

  bool ok() const EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return ok_;
  }
  std::string error() const EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return error_;
  }
  JournalTotals totals() const EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return totals_;
  }
  std::uint64_t bytes_written() const EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return bytes_written_;
  }

 private:
  std::uint64_t Intern(const std::string& s) REQUIRES(mu_);
  void EncodeRecord(const CpRequestRecord& record) REQUIRES(mu_);
  void FlushChunk() REQUIRES(mu_);
  void WriteFrame(std::uint8_t marker, const std::string& payload)
      REQUIRES(mu_);

  mutable Mutex mu_;
  std::ofstream out_ GUARDED_BY(mu_);
  bool open_ GUARDED_BY(mu_) = false;
  bool finished_ GUARDED_BY(mu_) = false;
  bool ok_ GUARDED_BY(mu_) = true;
  std::string error_ GUARDED_BY(mu_);
  JournalWriterOptions options_ GUARDED_BY(mu_);
  MetricsRegistry* metrics_ GUARDED_BY(mu_) = nullptr;
  JournalTotals totals_ GUARDED_BY(mu_);
  std::uint64_t bytes_written_ GUARDED_BY(mu_) = 0;
  // Current-chunk state, reset at every flush.
  std::vector<std::string> pending_processes_ GUARDED_BY(mu_);
  std::vector<std::string> strings_ GUARDED_BY(mu_);
  std::unordered_map<std::string, std::uint64_t> string_ids_ GUARDED_BY(mu_);
  std::string body_ GUARDED_BY(mu_);
  std::uint64_t chunk_requests_ GUARDED_BY(mu_) = 0;
  std::uint64_t chunk_incomplete_ GUARDED_BY(mu_) = 0;
  std::uint64_t chunk_nodes_ GUARDED_BY(mu_) = 0;
  std::uint64_t chunk_edges_ GUARDED_BY(mu_) = 0;
};

// One decoded chunk: process names registered in it (ids continue the
// cumulative sequence) plus its request records, in file order.
struct JournalChunk {
  std::vector<std::string> new_processes;
  std::vector<CpRequestRecord> requests;
};

enum class JournalReadStatus { kChunk, kFooter, kError };

// Sequential chunk iterator with full structural validation: header magic
// and version, per-frame CRC, in-range string/process references, strictly
// increasing node ids, edge endpoints resolving to nodes of the same request
// (dangling edges are rejected here, not downstream), and footer totals
// matching the chunks read. Any failure latches error() with an actionable
// message and Next() returns kError from then on.
class JournalReader {
 public:
  JournalReader() = default;
  JournalReader(const JournalReader&) = delete;
  JournalReader& operator=(const JournalReader&) = delete;

  bool Open(const std::string& path);

  // Advances one frame. kChunk fills `chunk`; kFooter means the journal
  // ended cleanly (totals() is now valid and Next() keeps returning
  // kFooter); kError means corruption (see error()).
  JournalReadStatus Next(JournalChunk* chunk);

  // Random access for windowed consumers: decodes the single frame starting
  // at `offset` (a value previously observed via next_offset()). Process
  // references are validated against `process_bound` — pass the total from a
  // completed sequential pass. Does not disturb the sequential cursor state
  // beyond the file position, so use a dedicated reader for random access.
  bool ReadChunkAt(std::uint64_t offset, std::uint64_t process_bound,
                   JournalChunk* chunk);

  // File offset of the next frame Next() would read.
  std::uint64_t next_offset() const { return offset_; }
  std::uint64_t chunks_read() const { return seen_.chunks; }
  std::uint64_t num_processes() const { return process_count_; }
  bool footer_seen() const { return footer_seen_; }
  const JournalTotals& totals() const { return totals_; }
  const std::string& error() const { return error_; }

 private:
  bool Fail(const std::string& message);
  bool ReadFrame(std::uint8_t* marker, std::string* payload, bool* at_eof);
  bool DecodeChunk(const std::string& payload, std::uint64_t process_bound,
                   JournalChunk* chunk, std::string* error) const;

  std::ifstream in_;
  std::string path_;
  bool open_ = false;
  bool footer_seen_ = false;
  std::string error_;
  std::uint64_t offset_ = 0;
  std::uint64_t process_count_ = 0;
  JournalTotals seen_;    // accumulated over chunks read sequentially
  JournalTotals totals_;  // from the footer
};

// --- whole-journal conversions ---

// Reads a complete binary journal into an in-memory CausalGraph. Requires a
// clean footer; reassembles global node-id and edge-seq order, so
// out->ToJson() is byte-identical to the graph that wrote the journal
// regardless of retirement order. Incomplete (flushed) requests keep
// completion -1.
bool ReadJournalToGraph(const std::string& path, CausalGraph* out,
                        std::string* error);

// Dumps an in-memory graph as a binary journal, requests in id (= arrival)
// order. Fails on graphs with cross-request edges (the chunked format cannot
// represent them; no recorder produces them).
bool WriteGraphToJournal(const CausalGraph& graph, const std::string& path,
                         const JournalWriterOptions& options = {},
                         MetricsRegistry* metrics = nullptr,
                         std::string* error = nullptr);

// --- lint (trace_lint --journal) ---

struct JournalLintInfo {
  JournalTotals totals;
  std::uint64_t processes = 0;
};

// Walks the whole journal through the validating reader: header/version
// check, per-chunk CRC verification, record-level reference checks
// (including dangling-edge diagnosis), and footer/truncation diagnosis.
// Reuses TraceLintResult for error accounting (num_events = requests seen).
check::TraceLintResult LintJournalFile(
    const std::string& path, JournalLintInfo* info = nullptr,
    const check::TraceLintOptions& options = {});

}  // namespace deepplan

#endif  // SRC_OBS_JOURNAL_STREAM_H_
