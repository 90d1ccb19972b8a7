#include "src/obs/journal_stream.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <tuple>

#include "src/obs/selfprof.h"
#include "src/util/logging.h"

namespace deepplan {

namespace {

// Corruption guard: a frame claiming a payload larger than this is treated
// as damage rather than data (real chunks flush at ~1 MiB).
constexpr std::uint64_t kMaxFramePayload = std::uint64_t{1} << 30;

// Fewest payload bytes each chunk record can encode in (every varint takes
// at least one byte): a string is its length; a node is ten fields; a
// request is seven header fields, its node and edge counts and at least one
// node; an edge is three deltas.
constexpr std::size_t kMinStringBytes = 1;
constexpr std::size_t kMinNodeBytes = 10;
constexpr std::size_t kMinRequestBytes = 7 + 2 + kMinNodeBytes;
constexpr std::size_t kMinEdgeBytes = 3;

std::string Hex32(std::uint32_t v) {
  char buf[11];
  std::snprintf(buf, sizeof(buf), "0x%08x", v);
  return buf;
}

void AppendU32Le(std::string* out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
}

std::uint32_t LoadU32Le(const char* p) {
  std::uint32_t v = 0;
  for (int i = 3; i >= 0; --i) {
    v = (v << 8) | static_cast<std::uint8_t>(p[i]);
  }
  return v;
}

bool ReadExact(std::ifstream& in, char* out, std::size_t n,
               std::size_t* got = nullptr) {
  in.read(out, static_cast<std::streamsize>(n));
  const auto count = static_cast<std::size_t>(in.gcount());
  if (got != nullptr) {
    *got = count;
  }
  return count == n;
}

}  // namespace

void AppendVarint(std::string* out, std::uint64_t v) {
  while (v >= 0x80) {
    out->push_back(static_cast<char>((v & 0x7F) | 0x80));
    v >>= 7;
  }
  out->push_back(static_cast<char>(v));
}

std::uint64_t ZigzagEncode(std::int64_t v) {
  return (static_cast<std::uint64_t>(v) << 1) ^
         static_cast<std::uint64_t>(v >> 63);
}

std::int64_t ZigzagDecode(std::uint64_t v) {
  return static_cast<std::int64_t>(v >> 1) ^
         -static_cast<std::int64_t>(v & 1);
}

void AppendZigzag(std::string* out, std::int64_t v) {
  AppendVarint(out, ZigzagEncode(v));
}

bool ReadVarint(std::string_view data, std::size_t* pos, std::uint64_t* out) {
  std::uint64_t v = 0;
  for (int i = 0; i < 10; ++i) {
    if (*pos >= data.size()) {
      return false;
    }
    const auto byte = static_cast<std::uint8_t>(data[*pos]);
    ++*pos;
    v |= static_cast<std::uint64_t>(byte & 0x7F) << (7 * i);
    if ((byte & 0x80) == 0) {
      *out = v;
      return true;
    }
  }
  return false;  // overlong encoding
}

bool ReadZigzag(std::string_view data, std::size_t* pos, std::int64_t* out) {
  std::uint64_t raw = 0;
  if (!ReadVarint(data, pos, &raw)) {
    return false;
  }
  *out = ZigzagDecode(raw);
  return true;
}

std::uint32_t Crc32(std::string_view data) {
  static const auto table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
      }
      t[i] = c;
    }
    return t;
  }();
  std::uint32_t crc = 0xFFFFFFFFu;
  for (const char ch : data) {
    crc = table[(crc ^ static_cast<std::uint8_t>(ch)) & 0xFF] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

// ------------------------------------------------------------- JournalWriter

JournalWriter::~JournalWriter() {
  Finish();  // no-op when never opened or already finished
}

bool JournalWriter::Open(const std::string& path,
                         const JournalWriterOptions& options,
                         MetricsRegistry* metrics) {
  MutexLock lock(mu_);
  DP_CHECK(!open_);
  DP_CHECK(options.chunk_requests > 0 && options.chunk_bytes > 0);
  out_.open(path, std::ios::binary | std::ios::trunc);
  if (!out_) {
    ok_ = false;
    error_ = "cannot open " + path + " for writing";
    return false;
  }
  options_ = options;
  metrics_ = metrics;
  std::string header(kJournalMagic, sizeof(kJournalMagic));
  AppendU32Le(&header, kJournalVersion);
  out_.write(header.data(), static_cast<std::streamsize>(header.size()));
  bytes_written_ = header.size();
  if (metrics_ != nullptr) {
    metrics_->AddCounter("journal.bytes",
                         static_cast<std::int64_t>(header.size()));
  }
  open_ = true;
  return static_cast<bool>(out_);
}

void JournalWriter::OnProcess(int id, const std::string& name) {
  MutexLock lock(mu_);
  DP_CHECK(open_ && !finished_);
  // Process ids are sequential registration order; the format stores only
  // names and reconstructs ids by position.
  DP_CHECK(id >= 0);
  pending_processes_.push_back(name);
}

std::uint64_t JournalWriter::Intern(const std::string& s) {
  const auto it = string_ids_.find(s);
  if (it != string_ids_.end()) {
    return it->second;
  }
  const std::uint64_t id = strings_.size();
  strings_.push_back(s);
  string_ids_.emplace(s, id);
  return id;
}

void JournalWriter::EncodeRecord(const CpRequestRecord& record) {
  std::string* b = &body_;
  const CpRequest& r = record.request;
  DP_CHECK(r.id >= 0);
  DP_CHECK(!record.nodes.empty());
  AppendZigzag(b, r.id);
  DP_CHECK(r.process >= 0);
  AppendVarint(b, static_cast<std::uint64_t>(r.process));
  AppendZigzag(b, r.instance);
  const bool completed = r.completion >= 0;
  const std::uint8_t flags = static_cast<std::uint8_t>((r.cold ? 1 : 0) |
                                                       (completed ? 2 : 0));
  b->push_back(static_cast<char>(flags));
  AppendZigzag(b, r.arrival);
  if (completed) {
    DP_CHECK(r.completion >= r.arrival);
    AppendVarint(b, static_cast<std::uint64_t>(r.completion - r.arrival));
  }
  AppendZigzag(b, r.arrival_node);
  AppendZigzag(b, r.terminal_node);

  AppendVarint(b, record.nodes.size());
  CpNodeId prev_id = 0;
  for (const CpNode& n : record.nodes) {
    AppendZigzag(b, static_cast<std::int64_t>(n.id) - prev_id);
    prev_id = n.id;
    b->push_back(static_cast<char>(static_cast<std::uint8_t>(n.kind)));
    AppendVarint(b, Intern(n.label));
    AppendVarint(b, Intern(n.resource));
    AppendZigzag(b, n.start - r.arrival);
    DP_CHECK(n.end >= n.start);
    AppendVarint(b, static_cast<std::uint64_t>(n.end - n.start));
    AppendZigzag(b, n.bytes);
    AppendZigzag(b, n.solo);
    DP_CHECK(n.dha_pcie >= 0);
    AppendVarint(b, static_cast<std::uint64_t>(n.dha_pcie));
    AppendVarint(b, n.path.size());
    for (const CpHop& hop : n.path) {
      AppendVarint(b, Intern(hop.link));
      // Raw IEEE-754 bits, so capacities round-trip exactly.
      std::uint64_t bits = 0;
      static_assert(sizeof(bits) == sizeof(hop.capacity));
      std::memcpy(&bits, &hop.capacity, sizeof(bits));
      for (int i = 0; i < 8; ++i) {
        b->push_back(static_cast<char>((bits >> (8 * i)) & 0xFF));
      }
    }
  }

  AppendVarint(b, record.edges.size());
  std::int64_t prev_seq = -1;
  const std::int64_t base = record.nodes.front().id;
  for (const CpEdgeRec& e : record.edges) {
    DP_CHECK(e.seq > prev_seq);
    AppendZigzag(b, e.seq - prev_seq);
    prev_seq = e.seq;
    AppendZigzag(b, static_cast<std::int64_t>(e.from) - base);
    AppendZigzag(b, static_cast<std::int64_t>(e.to) - base);
  }

  ++chunk_requests_;
  if (!completed) {
    ++chunk_incomplete_;
  }
  chunk_nodes_ += record.nodes.size();
  chunk_edges_ += record.edges.size();
}

void JournalWriter::OnRequestRetired(CpRequestRecord&& record) {
  MutexLock lock(mu_);
  DP_CHECK(open_ && !finished_);
  if (!ok_) {
    return;
  }
  EncodeRecord(record);
  if (chunk_requests_ >= options_.chunk_requests ||
      body_.size() >= options_.chunk_bytes) {
    FlushChunk();
  }
}

void JournalWriter::WriteFrame(std::uint8_t marker, const std::string& payload) {
  std::string head;
  head.push_back(static_cast<char>(marker));
  AppendVarint(&head, payload.size());
  AppendU32Le(&head, Crc32(payload));
  out_.write(head.data(), static_cast<std::streamsize>(head.size()));
  out_.write(payload.data(), static_cast<std::streamsize>(payload.size()));
  const std::uint64_t frame_bytes = head.size() + payload.size();
  bytes_written_ += frame_bytes;
  if (metrics_ != nullptr) {
    metrics_->AddCounter("journal.bytes",
                         static_cast<std::int64_t>(frame_bytes));
  }
  if (!out_) {
    ok_ = false;
    error_ = "journal write failed (disk full or file closed?)";
  }
}

void JournalWriter::FlushChunk() {
  if (pending_processes_.empty() && chunk_requests_ == 0) {
    return;
  }
  DP_SELFPROF_SCOPE(kJournalSerialize);
  std::string payload;
  AppendVarint(&payload, pending_processes_.size());
  for (const std::string& name : pending_processes_) {
    AppendVarint(&payload, name.size());
    payload += name;
  }
  AppendVarint(&payload, strings_.size());
  for (const std::string& s : strings_) {
    AppendVarint(&payload, s.size());
    payload += s;
  }
  AppendVarint(&payload, chunk_requests_);
  payload += body_;
  WriteFrame(kJournalChunkMarker, payload);

  ++totals_.chunks;
  totals_.requests += chunk_requests_;
  totals_.incomplete_requests += chunk_incomplete_;
  totals_.nodes += chunk_nodes_;
  totals_.edges += chunk_edges_;
  if (metrics_ != nullptr) {
    metrics_->AddCounter("journal.chunks");
    metrics_->AddCounter("journal.requests",
                         static_cast<std::int64_t>(chunk_requests_));
    if (chunk_incomplete_ > 0) {
      metrics_->AddCounter("journal.incomplete_requests",
                           static_cast<std::int64_t>(chunk_incomplete_));
    }
    metrics_->AddCounter("journal.nodes",
                         static_cast<std::int64_t>(chunk_nodes_));
    metrics_->AddCounter("journal.edges",
                         static_cast<std::int64_t>(chunk_edges_));
  }

  pending_processes_.clear();
  strings_.clear();
  string_ids_.clear();
  body_.clear();
  chunk_requests_ = 0;
  chunk_incomplete_ = 0;
  chunk_nodes_ = 0;
  chunk_edges_ = 0;
}

bool JournalWriter::Finish() {
  DP_SELFPROF_SCOPE(kJournalSerialize);
  MutexLock lock(mu_);
  if (!open_ || finished_) {
    return ok_;
  }
  FlushChunk();
  std::string footer;
  AppendVarint(&footer, totals_.requests);
  AppendVarint(&footer, totals_.incomplete_requests);
  AppendVarint(&footer, totals_.nodes);
  AppendVarint(&footer, totals_.edges);
  AppendVarint(&footer, totals_.chunks);
  WriteFrame(kJournalFooterMarker, footer);
  out_.close();
  if (!out_ && ok_) {
    ok_ = false;
    error_ = "journal close failed";
  }
  finished_ = true;
  return ok_;
}

// ------------------------------------------------------------- JournalReader

bool JournalReader::Fail(const std::string& message) {
  if (error_.empty()) {
    error_ = path_ + ": " + message;
  }
  return false;
}

bool JournalReader::Open(const std::string& path) {
  DP_CHECK(!open_);
  path_ = path;
  in_.open(path, std::ios::binary);
  if (!in_) {
    return Fail("cannot open file");
  }
  char header[8];
  std::size_t got = 0;
  if (!ReadExact(in_, header, sizeof(header), &got)) {
    return Fail("file too short to be a binary journal (" +
                std::to_string(got) +
                " bytes; an 8-byte DPJL header is required) — truncated file "
                "or not a journal");
  }
  if (std::memcmp(header, kJournalMagic, sizeof(kJournalMagic)) != 0) {
    if (header[0] == '{') {
      return Fail(
          "not a binary journal (content looks like JSON): causal journals "
          "are recorded as DPJL, and JSON is only an export "
          "(journal_convert --to-json) that no tool reads back; lint a JSON "
          "report with trace_lint --profile/--whatif");
    }
    return Fail("bad magic (want \"DPJL\"): not a DeepPlan binary journal");
  }
  const std::uint32_t version = LoadU32Le(header + 4);
  if (version != kJournalVersion) {
    return Fail("unsupported journal version " + std::to_string(version) +
                " (this build reads version " +
                std::to_string(kJournalVersion) +
                ") — re-record or convert with a matching build");
  }
  offset_ = sizeof(header);
  open_ = true;
  return true;
}

bool JournalReader::ReadFrame(std::uint8_t* marker, std::string* payload,
                              bool* at_eof) {
  *at_eof = false;
  const int first = in_.get();
  if (first == std::char_traits<char>::eof()) {
    *at_eof = true;
    return false;
  }
  *marker = static_cast<std::uint8_t>(first);
  if (*marker != kJournalChunkMarker && *marker != kJournalFooterMarker) {
    char mbuf[5];
    std::snprintf(mbuf, sizeof(mbuf), "0x%02x", *marker);
    return Fail("unknown frame marker " + std::string(mbuf) + " at offset " +
                std::to_string(offset_) + ": corrupt journal");
  }
  std::uint64_t size = 0;
  bool size_done = false;
  std::uint64_t header_bytes = 1;
  for (int i = 0; i < 10; ++i) {
    const int b = in_.get();
    if (b == std::char_traits<char>::eof()) {
      return Fail("frame header truncated at offset " +
                  std::to_string(offset_) + " — the file was cut mid-write");
    }
    ++header_bytes;
    size |= static_cast<std::uint64_t>(b & 0x7F) << (7 * i);
    if ((b & 0x80) == 0) {
      size_done = true;
      break;
    }
  }
  if (!size_done || size > kMaxFramePayload) {
    return Fail("implausible frame size at offset " + std::to_string(offset_) +
                ": corrupt journal");
  }
  char crc_bytes[4];
  if (!ReadExact(in_, crc_bytes, sizeof(crc_bytes))) {
    return Fail("frame header truncated at offset " + std::to_string(offset_) +
                " — the file was cut mid-write");
  }
  header_bytes += 4;
  const std::uint32_t stored_crc = LoadU32Le(crc_bytes);
  payload->assign(size, '\0');
  std::size_t got = 0;
  if (size > 0 && !ReadExact(in_, payload->data(), size, &got)) {
    return Fail("frame at offset " + std::to_string(offset_) + " declares " +
                std::to_string(size) + " payload bytes but only " +
                std::to_string(got) +
                " remain — the file was truncated mid-write; frames before "
                "this offset are intact");
  }
  const std::uint32_t computed = Crc32(*payload);
  if (computed != stored_crc) {
    const char* what =
        *marker == kJournalFooterMarker ? "footer" : "chunk";
    return Fail(std::string(what) + " " +
                std::to_string(seen_.chunks + 1) + " CRC mismatch (stored " +
                Hex32(stored_crc) + ", computed " + Hex32(computed) +
                "): corrupt or bit-flipped frame at offset " +
                std::to_string(offset_));
  }
  offset_ += header_bytes + size;
  return true;
}

JournalReadStatus JournalReader::Next(JournalChunk* chunk) {
  if (!error_.empty()) {
    return JournalReadStatus::kError;
  }
  if (!open_) {
    Fail("reader is not open");
    return JournalReadStatus::kError;
  }
  if (footer_seen_) {
    return JournalReadStatus::kFooter;
  }
  std::uint8_t marker = 0;
  std::string payload;
  bool at_eof = false;
  if (!ReadFrame(&marker, &payload, &at_eof)) {
    if (at_eof) {
      Fail("journal ends without a footer after chunk " +
           std::to_string(seen_.chunks) +
           ": the recording was interrupted before Finish() — the " +
           std::to_string(seen_.chunks) +
           " chunk(s) present are intact but the journal is incomplete");
    }
    return JournalReadStatus::kError;
  }
  if (marker == kJournalFooterMarker) {
    std::string_view data(payload);
    std::size_t pos = 0;
    JournalTotals footer;
    if (!ReadVarint(data, &pos, &footer.requests) ||
        !ReadVarint(data, &pos, &footer.incomplete_requests) ||
        !ReadVarint(data, &pos, &footer.nodes) ||
        !ReadVarint(data, &pos, &footer.edges) ||
        !ReadVarint(data, &pos, &footer.chunks) || pos != data.size()) {
      Fail("malformed footer payload: corrupt journal");
      return JournalReadStatus::kError;
    }
    if (footer != seen_) {
      Fail("footer totals disagree with the chunks present (footer: " +
           std::to_string(footer.requests) + " requests / " +
           std::to_string(footer.nodes) + " nodes / " +
           std::to_string(footer.edges) + " edges in " +
           std::to_string(footer.chunks) + " chunks; file holds " +
           std::to_string(seen_.requests) + " / " +
           std::to_string(seen_.nodes) + " / " + std::to_string(seen_.edges) +
           " in " + std::to_string(seen_.chunks) +
           "): chunks were lost or spliced");
      return JournalReadStatus::kError;
    }
    if (in_.peek() != std::char_traits<char>::eof()) {
      Fail("trailing data after the journal footer: corrupt journal");
      return JournalReadStatus::kError;
    }
    totals_ = footer;
    footer_seen_ = true;
    return JournalReadStatus::kFooter;
  }
  std::string decode_error;
  chunk->new_processes.clear();
  chunk->requests.clear();
  if (!DecodeChunk(payload, process_count_, chunk, &decode_error)) {
    Fail("chunk " + std::to_string(seen_.chunks + 1) + ": " + decode_error);
    return JournalReadStatus::kError;
  }
  process_count_ += chunk->new_processes.size();
  ++seen_.chunks;
  for (const CpRequestRecord& rec : chunk->requests) {
    ++seen_.requests;
    if (rec.request.completion < 0) {
      ++seen_.incomplete_requests;
    }
    seen_.nodes += rec.nodes.size();
    seen_.edges += rec.edges.size();
  }
  return JournalReadStatus::kChunk;
}

bool JournalReader::ReadChunkAt(std::uint64_t offset,
                                std::uint64_t process_bound,
                                JournalChunk* chunk) {
  DP_CHECK(open_);
  error_.clear();
  in_.clear();
  in_.seekg(static_cast<std::streamoff>(offset));
  const std::uint64_t saved_offset = offset_;
  offset_ = offset;
  std::uint8_t marker = 0;
  std::string payload;
  bool at_eof = false;
  const bool frame_ok = ReadFrame(&marker, &payload, &at_eof);
  offset_ = saved_offset;
  if (!frame_ok) {
    if (at_eof) {
      Fail("no frame at offset " + std::to_string(offset));
    }
    return false;
  }
  if (marker != kJournalChunkMarker) {
    return Fail("frame at offset " + std::to_string(offset) +
                " is not a chunk");
  }
  chunk->new_processes.clear();
  chunk->requests.clear();
  std::string decode_error;
  if (!DecodeChunk(payload, process_bound, chunk, &decode_error)) {
    return Fail("chunk at offset " + std::to_string(offset) + ": " +
                decode_error);
  }
  return true;
}

bool JournalReader::DecodeChunk(const std::string& payload,
                                std::uint64_t process_bound,
                                JournalChunk* chunk,
                                std::string* error) const {
  const std::string_view data(payload);
  std::size_t pos = 0;
  const auto fail = [error](const std::string& what) {
    *error = what;
    return false;
  };
  // A count read from the payload can claim at most as many records as the
  // bytes left could encode at `min_bytes` each. A larger count is corrupt,
  // and reserving it would throw length_error or bad_alloc.
  const auto fits = [&](std::uint64_t count, std::size_t min_bytes) {
    return count <= (data.size() - pos) / min_bytes;
  };
  const auto too_many = [](const std::string& what, std::uint64_t count) {
    return what + " count " + std::to_string(count) +
           " exceeds what the rest of the payload can hold";
  };
  const auto read_string = [&](std::string* out) {
    std::uint64_t len = 0;
    if (!ReadVarint(data, &pos, &len) || len > data.size() - pos) {
      return false;
    }
    out->assign(data.substr(pos, len));
    pos += len;
    return true;
  };

  std::uint64_t num_processes = 0;
  if (!ReadVarint(data, &pos, &num_processes)) {
    return fail("payload ends inside the process table");
  }
  for (std::uint64_t i = 0; i < num_processes; ++i) {
    std::string name;
    if (!read_string(&name)) {
      return fail("payload ends inside the process table");
    }
    chunk->new_processes.push_back(std::move(name));
  }
  const std::uint64_t total_processes =
      process_bound + chunk->new_processes.size();

  std::uint64_t num_strings = 0;
  if (!ReadVarint(data, &pos, &num_strings)) {
    return fail("payload ends inside the string table");
  }
  if (!fits(num_strings, kMinStringBytes)) {
    return fail(too_many("string", num_strings));
  }
  std::vector<std::string> strings;
  strings.reserve(num_strings);
  for (std::uint64_t i = 0; i < num_strings; ++i) {
    std::string s;
    if (!read_string(&s)) {
      return fail("payload ends inside the string table");
    }
    strings.push_back(std::move(s));
  }

  std::uint64_t num_requests = 0;
  if (!ReadVarint(data, &pos, &num_requests)) {
    return fail("payload ends before the request count");
  }
  if (!fits(num_requests, kMinRequestBytes)) {
    return fail(too_many("request", num_requests));
  }
  chunk->requests.reserve(num_requests);
  for (std::uint64_t ri = 0; ri < num_requests; ++ri) {
    CpRequestRecord rec;
    CpRequest& r = rec.request;
    std::int64_t id = 0;
    if (!ReadZigzag(data, &pos, &id) || id < 0 ||
        id > std::numeric_limits<int>::max()) {
      return fail("record " + std::to_string(ri) + ": bad request id");
    }
    r.id = static_cast<int>(id);
    const std::string ctx = "request " + std::to_string(r.id);
    std::uint64_t process = 0;
    if (!ReadVarint(data, &pos, &process)) {
      return fail(ctx + ": truncated record");
    }
    if (process >= total_processes) {
      return fail(ctx + ": references process " + std::to_string(process) +
                  " but only " + std::to_string(total_processes) +
                  " are defined");
    }
    r.process = static_cast<int>(process);
    std::int64_t instance = 0;
    if (!ReadZigzag(data, &pos, &instance)) {
      return fail(ctx + ": truncated record");
    }
    r.instance = static_cast<int>(instance);
    if (pos >= data.size()) {
      return fail(ctx + ": truncated record");
    }
    const auto flags = static_cast<std::uint8_t>(data[pos]);
    ++pos;
    if ((flags & ~0x3) != 0) {
      return fail(ctx + ": unknown request flag bits");
    }
    r.cold = (flags & 1) != 0;
    if (!ReadZigzag(data, &pos, &r.arrival)) {
      return fail(ctx + ": truncated record");
    }
    if ((flags & 2) != 0) {
      std::uint64_t latency = 0;
      if (!ReadVarint(data, &pos, &latency)) {
        return fail(ctx + ": truncated record");
      }
      r.completion = r.arrival + static_cast<Nanos>(latency);
    } else {
      r.completion = -1;
    }
    std::int64_t arrival_node = 0, terminal_node = 0;
    if (!ReadZigzag(data, &pos, &arrival_node) ||
        !ReadZigzag(data, &pos, &terminal_node)) {
      return fail(ctx + ": truncated record");
    }

    std::uint64_t num_nodes = 0;
    if (!ReadVarint(data, &pos, &num_nodes)) {
      return fail(ctx + ": truncated record");
    }
    if (num_nodes == 0) {
      return fail(ctx + ": has no nodes (every request roots at an arrival)");
    }
    if (!fits(num_nodes, kMinNodeBytes)) {
      return fail(ctx + ": " + too_many("node", num_nodes));
    }
    rec.nodes.reserve(num_nodes);
    std::int64_t prev_id = 0;
    for (std::uint64_t ni = 0; ni < num_nodes; ++ni) {
      CpNode n;
      n.request = r.id;
      std::int64_t delta = 0;
      if (!ReadZigzag(data, &pos, &delta)) {
        return fail(ctx + ": truncated node");
      }
      const std::int64_t node_id = prev_id + delta;
      if (node_id < 0 || node_id > std::numeric_limits<CpNodeId>::max() ||
          (ni > 0 && node_id <= prev_id)) {
        return fail(ctx + ": node ids are not strictly increasing");
      }
      prev_id = node_id;
      n.id = static_cast<CpNodeId>(node_id);
      if (pos >= data.size()) {
        return fail(ctx + ": truncated node");
      }
      const auto kind = static_cast<std::uint8_t>(data[pos]);
      ++pos;
      if (kind > static_cast<std::uint8_t>(CpKind::kExec)) {
        return fail(ctx + ": node " + std::to_string(node_id) +
                    " has unknown kind " + std::to_string(kind));
      }
      n.kind = static_cast<CpKind>(kind);
      std::uint64_t label_idx = 0, resource_idx = 0;
      if (!ReadVarint(data, &pos, &label_idx) ||
          !ReadVarint(data, &pos, &resource_idx)) {
        return fail(ctx + ": truncated node");
      }
      if (label_idx >= strings.size() || resource_idx >= strings.size()) {
        return fail(ctx + ": node " + std::to_string(node_id) +
                    " references a string outside the chunk string table");
      }
      n.label = strings[label_idx];
      n.resource = strings[resource_idx];
      std::int64_t start_delta = 0;
      std::uint64_t duration = 0;
      if (!ReadZigzag(data, &pos, &start_delta) ||
          !ReadVarint(data, &pos, &duration)) {
        return fail(ctx + ": truncated node");
      }
      n.start = r.arrival + start_delta;
      n.end = n.start + static_cast<Nanos>(duration);
      std::uint64_t dha = 0;
      if (!ReadZigzag(data, &pos, &n.bytes) ||
          !ReadZigzag(data, &pos, &n.solo) ||
          !ReadVarint(data, &pos, &dha)) {
        return fail(ctx + ": truncated node");
      }
      if (n.solo < -1) {
        return fail(ctx + ": node " + std::to_string(node_id) +
                    " has solo < -1");
      }
      n.dha_pcie = static_cast<Nanos>(dha);
      std::uint64_t num_hops = 0;
      if (!ReadVarint(data, &pos, &num_hops)) {
        return fail(ctx + ": truncated node");
      }
      if (num_hops > kCpMaxHops) {
        return fail(ctx + ": node " + std::to_string(node_id) + " has " +
                    std::to_string(num_hops) + " hops; a route has at most " +
                    std::to_string(kCpMaxHops));
      }
      n.path.reserve(num_hops);
      for (std::uint64_t hi = 0; hi < num_hops; ++hi) {
        CpHop hop;
        std::uint64_t link_idx = 0;
        if (!ReadVarint(data, &pos, &link_idx)) {
          return fail(ctx + ": truncated hop");
        }
        if (link_idx >= strings.size()) {
          return fail(ctx + ": hop references a string outside the chunk "
                            "string table");
        }
        hop.link = strings[link_idx];
        if (data.size() - pos < 8) {
          return fail(ctx + ": truncated hop");
        }
        std::uint64_t bits = 0;
        for (int bi = 7; bi >= 0; --bi) {
          bits = (bits << 8) |
                 static_cast<std::uint8_t>(data[pos + static_cast<std::size_t>(bi)]);
        }
        pos += 8;
        std::memcpy(&hop.capacity, &bits, sizeof(hop.capacity));
        if (!std::isfinite(hop.capacity) || hop.capacity <= 0.0) {
          return fail(ctx + ": hop \"" + hop.link +
                      "\" capacity must be a positive finite number");
        }
        n.path.push_back(std::move(hop));
      }
      rec.nodes.push_back(std::move(n));
    }

    const auto is_member = [&rec](std::int64_t node_id) {
      const auto it = std::lower_bound(
          rec.nodes.begin(), rec.nodes.end(), node_id,
          [](const CpNode& n, std::int64_t v) { return n.id < v; });
      return it != rec.nodes.end() && it->id == node_id;
    };
    if (!is_member(arrival_node)) {
      return fail(ctx + ": arrival_node " + std::to_string(arrival_node) +
                  " is not a node of the request");
    }
    if (terminal_node != -1 && !is_member(terminal_node)) {
      return fail(ctx + ": terminal_node " + std::to_string(terminal_node) +
                  " is not a node of the request");
    }
    r.arrival_node = static_cast<CpNodeId>(arrival_node);
    r.terminal_node = static_cast<CpNodeId>(terminal_node);

    std::uint64_t num_edges = 0;
    if (!ReadVarint(data, &pos, &num_edges)) {
      return fail(ctx + ": truncated record");
    }
    if (!fits(num_edges, kMinEdgeBytes)) {
      return fail(ctx + ": " + too_many("edge", num_edges));
    }
    rec.edges.reserve(num_edges);
    std::int64_t prev_seq = -1;
    const std::int64_t base = rec.nodes.front().id;
    for (std::uint64_t ei = 0; ei < num_edges; ++ei) {
      std::int64_t seq_delta = 0, from_delta = 0, to_delta = 0;
      if (!ReadZigzag(data, &pos, &seq_delta) ||
          !ReadZigzag(data, &pos, &from_delta) ||
          !ReadZigzag(data, &pos, &to_delta)) {
        return fail(ctx + ": truncated edge");
      }
      const std::int64_t seq = prev_seq + seq_delta;
      if (seq <= prev_seq || seq < 0) {
        return fail(ctx + ": edge seqs are not strictly increasing");
      }
      prev_seq = seq;
      const std::int64_t from = base + from_delta;
      const std::int64_t to = base + to_delta;
      if (!is_member(from) || !is_member(to)) {
        const std::int64_t dangling = is_member(from) ? to : from;
        return fail(ctx + ": edge (" + std::to_string(from) + " -> " +
                    std::to_string(to) + ") is dangling — node " +
                    std::to_string(dangling) +
                    " is not a node of this request (corrupt journal or "
                    "writer bug)");
      }
      rec.edges.push_back(CpEdgeRec{seq, static_cast<CpNodeId>(from),
                                    static_cast<CpNodeId>(to)});
    }
    chunk->requests.push_back(std::move(rec));
  }
  if (pos != data.size()) {
    return fail("chunk has " + std::to_string(data.size() - pos) +
                " trailing byte(s) after the last record");
  }
  return true;
}

// ---------------------------------------------------------------- converters

bool ReadJournalToGraph(const std::string& path, CausalGraph* out,
                        std::string* error) {
  std::string local_error;
  if (error == nullptr) {
    error = &local_error;
  }
  JournalReader reader;
  if (!reader.Open(path)) {
    *error = reader.error();
    return false;
  }
  std::vector<std::string> processes;
  std::vector<CpRequest> requests;
  std::vector<CpNode> nodes;
  std::vector<std::tuple<std::int64_t, CpNodeId, CpNodeId>> seq_edges;
  for (;;) {
    JournalChunk chunk;
    const JournalReadStatus status = reader.Next(&chunk);
    if (status == JournalReadStatus::kError) {
      *error = reader.error();
      return false;
    }
    if (status == JournalReadStatus::kFooter) {
      break;
    }
    for (std::string& name : chunk.new_processes) {
      processes.push_back(std::move(name));
    }
    for (CpRequestRecord& rec : chunk.requests) {
      requests.push_back(rec.request);
      for (CpNode& n : rec.nodes) {
        nodes.push_back(std::move(n));
      }
      for (const CpEdgeRec& e : rec.edges) {
        seq_edges.emplace_back(e.seq, e.from, e.to);
      }
    }
  }
  // Requests retire in completion order; node ids and edge seqs are global
  // append order. Sorting by id/seq reconstructs the exact in-memory layout,
  // which is what makes the JSON export byte-identical. Assemble() rejects
  // duplicate or missing ids.
  std::sort(requests.begin(), requests.end(),
            [](const CpRequest& a, const CpRequest& b) { return a.id < b.id; });
  std::sort(nodes.begin(), nodes.end(),
            [](const CpNode& a, const CpNode& b) { return a.id < b.id; });
  std::sort(seq_edges.begin(), seq_edges.end());
  std::vector<std::pair<CpNodeId, CpNodeId>> edges;
  edges.reserve(seq_edges.size());
  std::int64_t prev_seq = -1;
  for (const auto& [seq, from, to] : seq_edges) {
    if (seq <= prev_seq) {
      *error = path + ": duplicate edge sequence number " +
               std::to_string(seq);
      return false;
    }
    prev_seq = seq;
    edges.emplace_back(from, to);
  }
  if (!CausalGraph::Assemble(std::move(processes), std::move(requests),
                             std::move(nodes), std::move(edges), out, error)) {
    *error = path + ": " + *error;
    return false;
  }
  return true;
}

bool WriteGraphToJournal(const CausalGraph& graph, const std::string& path,
                         const JournalWriterOptions& options,
                         MetricsRegistry* metrics, std::string* error) {
  std::string local_error;
  if (error == nullptr) {
    error = &local_error;
  }
  DP_CHECK(!graph.streaming());
  const auto& requests = graph.requests();
  const auto& nodes = graph.nodes();
  std::vector<std::vector<std::size_t>> req_nodes(requests.size());
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const int r = nodes[i].request;
    if (r < 0 || r >= static_cast<int>(requests.size())) {
      *error = "node " + std::to_string(nodes[i].id) +
               " references unknown request " + std::to_string(r);
      return false;
    }
    req_nodes[static_cast<std::size_t>(r)].push_back(i);
  }
  std::vector<std::vector<CpEdgeRec>> req_edges(requests.size());
  const auto& edges = graph.edges();
  for (std::size_t seq = 0; seq < edges.size(); ++seq) {
    const auto [from, to] = edges[seq];
    const int owner = nodes[static_cast<std::size_t>(from)].request;
    if (nodes[static_cast<std::size_t>(to)].request != owner || owner < 0) {
      *error = "edge (" + std::to_string(from) + " -> " + std::to_string(to) +
               ") crosses requests; the chunked journal format requires "
               "intra-request edges";
      return false;
    }
    req_edges[static_cast<std::size_t>(owner)].push_back(
        CpEdgeRec{static_cast<std::int64_t>(seq), from, to});
  }
  JournalWriter writer;
  if (!writer.Open(path, options, metrics)) {
    *error = writer.error();
    return false;
  }
  const auto& processes = graph.processes();
  for (std::size_t p = 0; p < processes.size(); ++p) {
    writer.OnProcess(static_cast<int>(p), processes[p]);
  }
  for (const CpRequest& r : requests) {
    CpRequestRecord record;
    record.request = r;
    const auto ri = static_cast<std::size_t>(r.id);
    record.nodes.reserve(req_nodes[ri].size());
    for (const std::size_t ni : req_nodes[ri]) {
      record.nodes.push_back(nodes[ni]);
    }
    record.edges = std::move(req_edges[ri]);
    writer.OnRequestRetired(std::move(record));
  }
  if (!writer.Finish()) {
    *error = writer.error();
    return false;
  }
  return true;
}

// ---------------------------------------------------------------------- lint

check::TraceLintResult LintJournalFile(const std::string& path,
                                       JournalLintInfo* info,
                                       const check::TraceLintOptions& options) {
  check::TraceLintResult result;
  const auto add_error = [&result, &options](const std::string& message) {
    ++result.num_errors;
    if (result.errors.size() < options.max_reported_errors) {
      result.errors.push_back(message);
    }
  };
  JournalReader reader;
  if (!reader.Open(path)) {
    add_error(reader.error());
    return result;
  }
  for (;;) {
    JournalChunk chunk;
    const JournalReadStatus status = reader.Next(&chunk);
    if (status == JournalReadStatus::kError) {
      add_error(reader.error());
      break;
    }
    if (status == JournalReadStatus::kFooter) {
      break;
    }
    result.num_events += chunk.requests.size();
  }
  if (info != nullptr) {
    info->totals = reader.footer_seen() ? reader.totals() : JournalTotals{};
    info->processes = reader.num_processes();
  }
  return result;
}

}  // namespace deepplan
