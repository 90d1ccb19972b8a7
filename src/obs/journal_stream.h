// Binary causal journal (DPJL, schema v1): the one format a causal journal
// is recorded in and read from, on disk and in memory. A JournalWriter
// consumes the requests a CausalGraph retires and appends them in
// CRC-guarded chunks, so recording a million-request run costs only the
// in-flight state: to a file when the graph has one attached, or else to the
// graph's own journal in memory (CausalGraph::journal). The chunk-iterator
// JournalReader, over a file or those bytes, is the one judge of a valid
// journal, and every consumer reads the chunks it decodes: the windowed
// what-if engine, the lint mode, the profile report and the JSON export. So
// a bench's inline reports and the tools' reports are one computation on the
// same bytes. JSON (CausalJournalJson) is an export only: `journal_convert
// --to-json` writes it, byte-identical to ToJson() of the recording graph,
// and no reader accepts it.
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
// delta + endpoints relative to the first node id; every edge runs from a
// lower node id to a higher one). The footer carries the journal totals,
// which readers cross-check against the chunks they saw.
//
// Determinism: the encoding has no timestamps, pointers, or hashes of
// addresses — the same run produces the same bytes, for any DEEPPLAN_JOBS.
#ifndef SRC_OBS_JOURNAL_STREAM_H_
#define SRC_OBS_JOURNAL_STREAM_H_

#include <array>
#include <cstdint>
#include <fstream>
#include <functional>
#include <istream>
#include <initializer_list>
#include <memory>
#include <streambuf>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/check/trace_lint.h"
#include "src/obs/causal_graph.h"
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
// standard check value 0xCBF43926. `crc` is the CRC of the bytes before
// `data`, so a CRC runs over pieces: Crc32(b, Crc32(a)) == Crc32(a + b).
std::uint32_t Crc32(std::string_view data, std::uint32_t crc = 0);

// Footer totals.
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

// Streaming writer; the one sink of a CausalGraph, writing a file (Open,
// then CausalGraph::AttachSink) or the graph's own journal in memory
// (OpenInMemory). totals() and bytes_written() report its progress.
//
// Internally synchronized: the writer is the retirement hand-off point, so
// every mutable field sits behind mu_ (GUARDED_BY, compile-checked). What the
// lock does NOT provide is retirement *order* — under PDES the caller must
// still hand requests over in a deterministic order for the journal bytes to
// be reproducible; today that order comes from the single-threaded recorder
// (or FlushOpenRequests' id-ordered sweep). The status accessors return by
// value for the same reason: a reference into guarded state would escape the
// lock. Lock order: this is a leaf (the graph's stream mutex is held across
// OnRequestRetired), so writer < graph, never cyclic.
class JournalWriter {
 public:
  JournalWriter() = default;
  ~JournalWriter();
  JournalWriter(const JournalWriter&) = delete;
  JournalWriter& operator=(const JournalWriter&) = delete;

  bool Open(const std::string& path, const JournalWriterOptions& options = {})
      EXCLUDES(mu_);
  // Writes the journal into memory instead, with default options; TakeBytes
  // hands it over after Finish.
  void OpenInMemory() EXCLUDES(mu_);
  std::string TakeBytes() EXCLUDES(mu_);

  // A process registration, which always precedes the first request that
  // uses it, and a retired request: what the graph hands over. `strings` is
  // the graph's string table the record's ids index, the same on every call.
  void OnProcess(int id, const std::string& name) EXCLUDES(mu_);
  void OnRequestRetired(const CpRequestRecord& record, const CpStrings& strings)
      EXCLUDES(mu_);

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
  // A growable byte buffer that the encoder writes through a raw cursor:
  // Reserve(n) returns a cursor with room for n more bytes, and Commit(end)
  // ends the buffer where the cursor stopped. Reserved room is left
  // unwritten, and Clear keeps the capacity.
  class Buffer {
   public:
    char* Reserve(std::size_t n);
    void Commit(char* end) { size_ = static_cast<std::size_t>(end - data_.get()); }
    void Clear() { size_ = 0; }
    std::size_t size() const { return size_; }
    std::string_view view() const { return {data_.get(), size_}; }

   private:
    std::unique_ptr<char[]> data_;
    std::size_t size_ = 0;
    std::size_t capacity_ = 0;
  };

  // The chunk string-table index of the graph's string `id`, added in
  // first-use order.
  std::uint64_t ChunkString(CpStrId id, const CpStrings& strings)
      REQUIRES(mu_);
  void EncodeRecord(const CpRequestRecord& record, const CpStrings& strings)
      REQUIRES(mu_);
  void FlushChunk() REQUIRES(mu_);
  void WriteHeader() REQUIRES(mu_);
  // Appends `bytes` to the journal: the file, or the bytes in memory.
  void Emit(std::string_view bytes) REQUIRES(mu_);
  // Writes one frame whose payload is `pieces` in order, without joining
  // them: the size and CRC run over the pieces.
  void WriteFrame(std::uint8_t marker,
                  std::initializer_list<std::string_view> pieces)
      REQUIRES(mu_);

  mutable Mutex mu_;
  std::ofstream out_ GUARDED_BY(mu_);
  bool in_memory_ GUARDED_BY(mu_) = false;
  std::string memory_ GUARDED_BY(mu_);  // the journal, when in_memory_
  bool open_ GUARDED_BY(mu_) = false;
  bool finished_ GUARDED_BY(mu_) = false;
  bool ok_ GUARDED_BY(mu_) = true;
  std::string error_ GUARDED_BY(mu_);
  JournalWriterOptions options_ GUARDED_BY(mu_);
  JournalTotals totals_ GUARDED_BY(mu_);
  std::uint64_t bytes_written_ GUARDED_BY(mu_) = 0;
  // Current-chunk state, reset at every flush. The chunk's string table and
  // its request records are kept encoded; chunk_index_of_ maps a graph
  // string id to its chunk index + 1 (0: not used in this chunk yet), and
  // chunk_strings_ lists the graph ids set there, so the reset touches only
  // those.
  std::vector<std::string> pending_processes_ GUARDED_BY(mu_);
  Buffer string_table_ GUARDED_BY(mu_);
  std::vector<CpStrId> chunk_strings_ GUARDED_BY(mu_);
  std::vector<std::uint32_t> chunk_index_of_ GUARDED_BY(mu_);
  Buffer body_ GUARDED_BY(mu_);
  std::uint64_t chunk_requests_ GUARDED_BY(mu_) = 0;
  std::uint64_t chunk_incomplete_ GUARDED_BY(mu_) = 0;
  std::uint64_t chunk_nodes_ GUARDED_BY(mu_) = 0;
  std::uint64_t chunk_edges_ GUARDED_BY(mu_) = 0;
};

// One decoded chunk, flat: every request record's nodes in one array and
// its edges in another, with each record's slice of both. Node label,
// resource and hop ids index the chunk's own string table (str()). Decoding
// into a chunk that held an earlier one reuses its storage, so a reader that
// keeps one chunk stops allocating once the chunk has grown.
struct JournalChunk {
  // One request record and its slices of `nodes` and `edges`. The arrival
  // and terminal nodes are given as indices into `nodes` too (terminal -1
  // when the request has none).
  struct Record {
    CpRequest request;
    std::uint32_t first_node = 0;
    std::uint32_t num_nodes = 0;
    std::uint32_t first_edge = 0;
    std::uint32_t num_edges = 0;
    std::uint32_t arrival_index = 0;
    std::int64_t terminal_index = -1;
  };
  // An edge: its global append-order sequence number and its endpoints as
  // indices into `nodes` (their ids are nodes[from].id and nodes[to].id).
  struct Edge {
    std::int64_t seq = -1;
    std::uint32_t from = 0;
    std::uint32_t to = 0;
  };

  std::string_view str(CpStrId id) const {
    const auto& [offset, size] = string_spans[id];
    return std::string_view(text).substr(offset, size);
  }
  std::size_t num_strings() const { return string_spans.size(); }

  std::vector<std::string> new_processes;  // ids continue the sequence
  std::vector<Record> requests;            // in file order
  std::vector<CpNode> nodes;   // record by record, id order within each
  std::vector<Edge> edges;     // record by record, seq order within each
  // String storage: str(i) is text[offset, offset + size) of span i.
  std::string text;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> string_spans;
};

// {"causal_journal":{"processes":[...],"requests":[...],"nodes":[...],
//  "edges":[[from,to],...]}} of a journal's chunks in file order: requests
// and nodes by id and edges by seq, whatever order the chunks hold them in,
// so a journal exports byte-identical to ToJson() of the recording graph.
// The ids must be dense, as the reader's sequential pass checks.
std::string CausalJournalJson(const std::vector<JournalChunk>& chunks);

enum class JournalReadStatus { kChunk, kFooter, kError };

// Sequential chunk iterator with full structural validation: header magic
// and version, per-frame CRC, in-range string/process references, process
// names and string-table entries that are valid UTF-8, strictly
// increasing node ids, edge endpoints resolving to nodes of the same request
// (dangling edges are rejected here, not downstream), edges running from a
// lower node id to a higher one (so no journal it accepts has a cycle), one
// capacity per link name within a process across all chunks (the what-if
// replay builds one link per process and name), footer totals matching the
// chunks read, and request ids, node ids and edge seqs each appearing once
// and below the footer's total of their kind (so they are dense). Any
// failure latches error() with an actionable message and Next() returns
// kError from then on.
class JournalReader {
 public:
  JournalReader() = default;
  JournalReader(const JournalReader&) = delete;
  JournalReader& operator=(const JournalReader&) = delete;

  // Reads the journal in the file at `path`, or in `bytes`, which must
  // outlive the reader (a graph's own journal, CausalGraph::journal).
  bool Open(const std::string& path);
  bool OpenBytes(std::string_view bytes);

  // Advances one frame. kChunk fills `chunk`; kFooter means the journal
  // ended cleanly (totals() is now valid and Next() keeps returning
  // kFooter); kError means corruption (see error()).
  JournalReadStatus Next(JournalChunk* chunk);

  // Random access for windowed consumers: decodes the single frame starting
  // at `offset` (a value previously observed via next_offset()). Process
  // references are validated against `process_bound` — pass the total from a
  // completed sequential pass. Does not disturb the sequential cursor state
  // beyond the read position, so use a dedicated reader for random access.
  bool ReadChunkAt(std::uint64_t offset, std::uint64_t process_bound,
                   JournalChunk* chunk);

  // Offset of the next frame Next() would read.
  std::uint64_t next_offset() const { return offset_; }
  std::uint64_t num_processes() const { return process_count_; }
  bool footer_seen() const { return footer_seen_; }
  const JournalTotals& totals() const { return totals_; }
  const std::string& error() const { return error_; }

 private:
  // A read-only stream buffer over bytes it does not own, seekable (by
  // offset) as a file is, so one reader reads either.
  class ByteBuf : public std::streambuf {
   public:
    void Reset(std::string_view bytes);

   protected:
    pos_type seekoff(off_type off, std::ios_base::seekdir dir,
                     std::ios_base::openmode which) override;
  };

  bool Fail(const std::string& message);
  // Checks the header of the journal in_ reads and sizes it.
  bool ReadHeader();
  // Reads one frame into frame_.
  bool ReadFrame(std::uint8_t* marker, bool* at_eof);
  // Decodes the chunk payload held in frame_ into `chunk`.
  bool DecodeChunk(std::uint64_t process_bound, JournalChunk* chunk,
                   std::string* error) const;
  // Sequential pass: every hop of `chunk` names its link at the capacity its
  // process first named it at, in this chunk or an earlier one.
  bool CheckLinkCapacities(const JournalChunk& chunk, std::string* error);
  // Sequential pass: `chunk`'s ids are new and below what the file can hold.
  bool CheckIds(const JournalChunk& chunk, std::string* error);
  // Sequential pass: `chunk`'s process names and string-table entries are
  // valid UTF-8, so every export of the journal is valid JSON.
  bool CheckUtf8(const JournalChunk& chunk, std::string* error);

  std::filebuf file_;
  ByteBuf bytes_;
  std::istream in_{nullptr};  // over file_ or bytes_, once open
  std::string frame_;  // the last frame's payload, storage reused
  std::string path_;
  bool open_ = false;
  bool footer_seen_ = false;
  std::string error_;
  std::uint64_t offset_ = 0;
  std::uint64_t process_count_ = 0;
  JournalTotals seen_;    // accumulated over chunks read sequentially
  JournalTotals totals_;  // from the footer
  // Link capacities of the sequential pass: every link name seen, the
  // current chunk's string ids resolved to those (id + 1; 0: not yet), and
  // per process the capacity each link was first named at (0: not yet).
  CpStrings link_names_;
  std::vector<CpStrId> link_of_string_;
  std::vector<std::vector<double>> link_capacity_;
  // Request ids, node ids and edge seqs seen, one bit each. An id at or past
  // `limit`, the most the journal's bytes could hold, is refused before the
  // set grows to it, so the sets' memory is bounded by the input.
  struct SeenIds {
    std::uint64_t limit = 0;
    std::uint64_t end = 0;  // one past the largest id seen
    std::vector<std::uint64_t> bits;
  };
  std::array<SeenIds, 3> seen_ids_;  // requests, nodes, edge seqs
};

// --- whole-journal passes ---

struct JournalLintInfo {
  JournalTotals totals;
  std::uint64_t processes = 0;
};

// Reads the journal at `path` in one validating sequential pass, handing
// each chunk to `visit` in file order. False, with `error` set, unless the
// journal is valid to its footer. `info`, when given, gets the footer's
// totals (zero unless valid) and the number of processes read.
bool ForEachJournalChunk(const std::string& path,
                         const std::function<void(JournalChunk&)>& visit,
                         std::string* error, JournalLintInfo* info = nullptr);

// The same pass over `graph`'s own journal (CausalGraph::journal), which is
// valid by construction (DP_CHECKed). Returns the footer's totals.
JournalTotals ForEachGraphChunk(const CausalGraph& graph,
                                const std::function<void(JournalChunk&)>& visit);

// Writes `graph`'s own journal to `path`, its requests in retirement order.
// False, with `error` set, when the file cannot be written.
bool WriteGraphToJournal(const CausalGraph& graph, const std::string& path,
                         std::string* error);

// --- lint (trace_lint --journal) ---

// Walks the whole journal through the validating reader: header/version
// check, per-chunk CRC verification, record-level reference checks
// (including dangling-edge diagnosis), and footer/truncation diagnosis.
// Reports through check::SchemaChecker (num_events = requests seen).
check::TraceLintResult LintJournalFile(const std::string& path,
                                       JournalLintInfo* info = nullptr);

}  // namespace deepplan

#endif  // SRC_OBS_JOURNAL_STREAM_H_
