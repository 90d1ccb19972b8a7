#include "src/obs/journal_stream.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>

#include "src/obs/selfprof.h"
#include "src/util/index.h"
#include "src/util/json.h"
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

// Longest LEB128 encoding of a 64-bit value.
constexpr std::size_t kMaxVarintBytes = 10;

// The ids the sequential pass keeps dense (JournalReader::seen_ids_): their
// name in a diagnostic, and the fewest payload bytes one takes.
struct IdKind {
  const char* name;
  std::size_t min_bytes;
};
constexpr IdKind kIdKinds[] = {{"request", kMinRequestBytes},
                               {"node", kMinNodeBytes},
                               {"edge seq", kMinEdgeBytes}};

std::string Hex32(std::uint32_t v) {
  char buf[11];
  std::snprintf(buf, sizeof(buf), "0x%08x", v);
  return buf;
}

// A number in a diagnostic, with every digit a double carries.
std::string Number(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// Raw-cursor encoders: each writes at `p`, into room the caller reserved,
// and returns the cursor past what it wrote.
char* PutVarint(char* p, std::uint64_t v) {
  while (v >= 0x80) {
    *p++ = static_cast<char>((v & 0x7F) | 0x80);
    v >>= 7;
  }
  *p++ = static_cast<char>(v);
  return p;
}

char* PutZigzag(char* p, std::int64_t v) { return PutVarint(p, ZigzagEncode(v)); }

char* PutLe(char* p, std::uint64_t v, int bytes) {
  for (int i = 0; i < bytes; ++i) {
    *p++ = static_cast<char>((v >> (8 * i)) & 0xFF);
  }
  return p;
}

char* PutBytes(char* p, std::string_view s) {
  if (!s.empty()) {
    std::memcpy(p, s.data(), s.size());
  }
  return p + s.size();
}

std::uint32_t LoadU32Le(const char* p) {
  std::uint32_t v = 0;
  for (int i = 3; i >= 0; --i) {
    v = (v << 8) | static_cast<std::uint8_t>(p[i]);
  }
  return v;
}

// The offset of the first byte of `s` that starts no well-formed UTF-8
// sequence (RFC 3629: no overlong forms, surrogates or code points past
// U+10FFFF), or npos when all of `s` is valid UTF-8.
std::size_t InvalidUtf8At(std::string_view s) {
  for (std::size_t i = 0; i < s.size();) {
    const auto lead = static_cast<unsigned char>(s[i]);
    // The sequence's length (0: no sequence starts so), and the range of its
    // second byte; the bytes after that are 0x80-0xBF.
    const std::size_t n = lead < 0x80   ? 1
                          : lead < 0xC2 ? 0
                          : lead < 0xE0 ? 2
                          : lead < 0xF0 ? 3
                          : lead < 0xF5 ? 4
                                        : 0;
    const unsigned lo = lead == 0xE0 ? 0xA0 : lead == 0xF0 ? 0x90 : 0x80;
    const unsigned hi = lead == 0xED ? 0x9F : lead == 0xF4 ? 0x8F : 0xBF;
    if (n == 0 || n > s.size() - i) {
      return i;
    }
    for (std::size_t k = 1; k < n; ++k) {
      const auto c = static_cast<unsigned char>(s[i + k]);
      if (c < (k == 1 ? lo : 0x80) || c > (k == 1 ? hi : 0xBF)) {
        return i;
      }
    }
    i += n;
  }
  return std::string_view::npos;
}

// `s` for a diagnostic: its first 80 bytes, those outside printable ASCII
// as \xHH.
std::string Printable(std::string_view s) {
  std::string out;
  for (const char c : s.substr(0, 80)) {
    const auto byte = static_cast<unsigned char>(c);
    char buf[8];
    std::snprintf(buf, sizeof(buf), byte < 0x20 || byte >= 0x7F ? "\\x%02x" : "%c",
                  byte);
    out += buf;
  }
  return s.size() > 80 ? out + "..." : out;
}

bool ReadExact(std::istream& in, char* out, std::size_t n,
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
  char buf[kMaxVarintBytes];
  out->append(buf, PutVarint(buf, v));
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

std::uint32_t Crc32(std::string_view data, std::uint32_t crc) {
  // Slicing-by-8: table[0] is the bytewise table, and table[k][b] advances
  // table[0][b] over k more zero bytes, so one step folds in eight bytes.
  static const auto table = [] {
    std::array<std::array<std::uint32_t, 256>, 8> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
      }
      t[0][i] = c;
    }
    for (std::size_t k = 1; k < 8; ++k) {
      for (std::size_t i = 0; i < 256; ++i) {
        t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFF];
      }
    }
    return t;
  }();
  const auto byte = [&data](std::size_t i) {
    return static_cast<std::uint32_t>(static_cast<std::uint8_t>(data[i]));
  };
  crc ^= 0xFFFFFFFFu;
  std::size_t i = 0;
  for (; i + 8 <= data.size(); i += 8) {
    const std::uint32_t lo = crc ^ (byte(i) | byte(i + 1) << 8 |
                                    byte(i + 2) << 16 | byte(i + 3) << 24);
    const std::uint32_t hi = byte(i + 4) | byte(i + 5) << 8 |
                             byte(i + 6) << 16 | byte(i + 7) << 24;
    crc = table[7][lo & 0xFF] ^ table[6][(lo >> 8) & 0xFF] ^
          table[5][(lo >> 16) & 0xFF] ^ table[4][lo >> 24] ^
          table[3][hi & 0xFF] ^ table[2][(hi >> 8) & 0xFF] ^
          table[1][(hi >> 16) & 0xFF] ^ table[0][hi >> 24];
  }
  for (; i < data.size(); ++i) {
    crc = table[0][(crc ^ byte(i)) & 0xFF] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

// ------------------------------------------------------------- JournalWriter

char* JournalWriter::Buffer::Reserve(std::size_t n) {
  if (capacity_ - size_ < n) {
    const std::size_t capacity = std::max(size_ + n, 2 * capacity_);
    auto grown = std::make_unique_for_overwrite<char[]>(capacity);
    if (size_ > 0) {
      std::memcpy(grown.get(), data_.get(), size_);
    }
    data_ = std::move(grown);
    capacity_ = capacity;
  }
  return data_.get() + size_;
}

JournalWriter::~JournalWriter() {
  Finish();  // no-op when never opened or already finished
}

bool JournalWriter::Open(const std::string& path,
                         const JournalWriterOptions& options) {
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
  WriteHeader();
  return static_cast<bool>(out_);
}

void JournalWriter::OpenInMemory() {
  MutexLock lock(mu_);
  DP_CHECK(!open_);
  in_memory_ = true;
  WriteHeader();
}

std::string JournalWriter::TakeBytes() {
  MutexLock lock(mu_);
  DP_CHECK(in_memory_ && finished_);
  return std::move(memory_);
}

void JournalWriter::WriteHeader() {
  char header[sizeof(kJournalMagic) + 4];
  PutLe(PutBytes(header, std::string_view(kJournalMagic, sizeof(kJournalMagic))),
        kJournalVersion, 4);
  Emit(std::string_view(header, sizeof(header)));
  bytes_written_ = sizeof(header);
  open_ = true;
}

void JournalWriter::Emit(std::string_view bytes) {
  if (in_memory_) {
    memory_.append(bytes);
  } else {
    out_.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
}

void JournalWriter::OnProcess(int id, const std::string& name) {
  MutexLock lock(mu_);
  DP_CHECK(open_ && !finished_);
  // Process ids are sequential registration order; the format stores only
  // names and reconstructs ids by position.
  DP_CHECK(id >= 0);
  pending_processes_.push_back(name);
}

std::uint64_t JournalWriter::ChunkString(CpStrId id, const CpStrings& strings) {
  if (id >= chunk_index_of_.size()) {
    DP_CHECK(id < strings.size());
    chunk_index_of_.resize(strings.size(), 0);
  }
  std::uint32_t& slot = chunk_index_of_[id];
  if (slot == 0) {
    const std::string& s = strings[id];
    char* p = string_table_.Reserve(kMaxVarintBytes + s.size());
    string_table_.Commit(PutBytes(PutVarint(p, s.size()), s));
    chunk_strings_.push_back(id);
    slot = static_cast<std::uint32_t>(chunk_strings_.size());
  }
  return slot - 1;
}

void JournalWriter::EncodeRecord(const CpRequestRecord& record,
                                 const CpStrings& strings) {
  const CpRequest& r = record.request;
  DP_CHECK(r.id >= 0);
  DP_CHECK(r.process >= 0);
  DP_CHECK(!record.nodes.empty());
  // The most bytes the record can take, every varint at its longest: the
  // request's ten header fields; per node nine varints, its kind byte, and
  // per hop a string index and eight capacity bytes; per edge three deltas.
  constexpr std::size_t kNodeBound =
      9 * kMaxVarintBytes + 1 + kCpMaxHops * (kMaxVarintBytes + 8);
  char* p = body_.Reserve(10 * kMaxVarintBytes +
                          record.nodes.size() * kNodeBound +
                          record.edges.size() * 3 * kMaxVarintBytes);
  p = PutZigzag(p, r.id);
  p = PutVarint(p, static_cast<std::uint64_t>(r.process));
  p = PutZigzag(p, r.instance);
  const bool completed = r.completion >= 0;
  *p++ = static_cast<char>((r.cold ? 1 : 0) | (completed ? 2 : 0));
  p = PutZigzag(p, r.arrival);
  if (completed) {
    DP_CHECK(r.completion >= r.arrival);
    p = PutVarint(p, static_cast<std::uint64_t>(r.completion - r.arrival));
  }
  p = PutZigzag(p, r.arrival_node);
  p = PutZigzag(p, r.terminal_node);

  p = PutVarint(p, record.nodes.size());
  CpNodeId prev_id = 0;
  for (const CpNode& n : record.nodes) {
    p = PutZigzag(p, static_cast<std::int64_t>(n.id) - prev_id);
    prev_id = n.id;
    *p++ = static_cast<char>(static_cast<std::uint8_t>(n.kind));
    p = PutVarint(p, ChunkString(n.label, strings));
    p = PutVarint(p, ChunkString(n.resource, strings));
    p = PutZigzag(p, n.start - r.arrival);
    DP_CHECK(n.end >= n.start);
    p = PutVarint(p, static_cast<std::uint64_t>(n.end - n.start));
    p = PutZigzag(p, n.bytes);
    p = PutZigzag(p, n.solo);
    DP_CHECK(n.dha_pcie >= 0);
    p = PutVarint(p, static_cast<std::uint64_t>(n.dha_pcie));
    p = PutVarint(p, n.path.size());
    for (const CpHop& hop : n.path) {
      p = PutVarint(p, ChunkString(hop.link, strings));
      // Raw IEEE-754 bits, so capacities round-trip exactly.
      std::uint64_t bits = 0;
      static_assert(sizeof(bits) == sizeof(hop.capacity));
      std::memcpy(&bits, &hop.capacity, sizeof(bits));
      p = PutLe(p, bits, 8);
    }
  }

  p = PutVarint(p, record.edges.size());
  std::int64_t prev_seq = -1;
  const std::int64_t base = record.nodes.front().id;
  for (const CpEdgeRec& e : record.edges) {
    DP_CHECK(e.seq > prev_seq);
    p = PutZigzag(p, e.seq - prev_seq);
    prev_seq = e.seq;
    p = PutZigzag(p, static_cast<std::int64_t>(e.from) - base);
    p = PutZigzag(p, static_cast<std::int64_t>(e.to) - base);
  }
  body_.Commit(p);

  ++chunk_requests_;
  if (!completed) {
    ++chunk_incomplete_;
  }
  chunk_nodes_ += record.nodes.size();
  chunk_edges_ += record.edges.size();
}

void JournalWriter::OnRequestRetired(const CpRequestRecord& record,
                                     const CpStrings& strings) {
  MutexLock lock(mu_);
  DP_CHECK(open_ && !finished_);
  if (!ok_) {
    return;
  }
  EncodeRecord(record, strings);
  if (chunk_requests_ >= options_.chunk_requests ||
      body_.size() >= options_.chunk_bytes) {
    FlushChunk();
  }
}

void JournalWriter::WriteFrame(std::uint8_t marker,
                               std::initializer_list<std::string_view> pieces) {
  std::uint64_t size = 0;
  std::uint32_t crc = 0;
  for (const std::string_view piece : pieces) {
    size += piece.size();
    crc = Crc32(piece, crc);
  }
  char head[1 + kMaxVarintBytes + 4];
  head[0] = static_cast<char>(marker);
  const auto head_size =
      static_cast<std::size_t>(PutLe(PutVarint(head + 1, size), crc, 4) - head);
  Emit(std::string_view(head, head_size));
  for (const std::string_view piece : pieces) {
    Emit(piece);
  }
  bytes_written_ += head_size + size;
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
  std::string head;  // the new processes and the string count
  AppendVarint(&head, pending_processes_.size());
  for (const std::string& name : pending_processes_) {
    AppendVarint(&head, name.size());
    head += name;
  }
  AppendVarint(&head, chunk_strings_.size());
  char count[kMaxVarintBytes];
  const std::string_view requests(
      count, static_cast<std::size_t>(PutVarint(count, chunk_requests_) - count));
  WriteFrame(kJournalChunkMarker,
             {head, string_table_.view(), requests, body_.view()});

  ++totals_.chunks;
  totals_.requests += chunk_requests_;
  totals_.incomplete_requests += chunk_incomplete_;
  totals_.nodes += chunk_nodes_;
  totals_.edges += chunk_edges_;

  pending_processes_.clear();
  string_table_.Clear();
  for (const CpStrId id : chunk_strings_) {
    chunk_index_of_[id] = 0;
  }
  chunk_strings_.clear();
  body_.Clear();
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
  WriteFrame(kJournalFooterMarker, {footer});
  if (!in_memory_) {
    out_.close();
    if (!out_ && ok_) {
      ok_ = false;
      error_ = "journal close failed";
    }
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

void JournalReader::ByteBuf::Reset(std::string_view bytes) {
  // The get area is only read: nothing puts characters back.
  char* begin = const_cast<char*>(bytes.data());
  setg(begin, begin, begin + bytes.size());
}

JournalReader::ByteBuf::pos_type JournalReader::ByteBuf::seekoff(
    off_type off, std::ios_base::seekdir dir, std::ios_base::openmode) {
  const off_type base = dir == std::ios_base::beg   ? 0
                        : dir == std::ios_base::cur ? gptr() - eback()
                                                    : egptr() - eback();
  if (base + off < 0 || base + off > egptr() - eback()) {
    return pos_type(off_type(-1));
  }
  setg(eback(), eback() + base + off, egptr());
  return pos_type(base + off);
}

bool JournalReader::Open(const std::string& path) {
  DP_CHECK(!open_);
  path_ = path;
  if (file_.open(path, std::ios::in | std::ios::binary) == nullptr) {
    return Fail("cannot open file");
  }
  in_.rdbuf(&file_);
  return ReadHeader();
}

bool JournalReader::OpenBytes(std::string_view bytes) {
  DP_CHECK(!open_);
  path_ = "in-memory journal";
  bytes_.Reset(bytes);
  in_.rdbuf(&bytes_);
  return ReadHeader();
}

bool JournalReader::ReadHeader() {
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
  // The journal's size bounds the ids it can hold; a pipe cannot be sized.
  const std::streamoff file_bytes = in_.seekg(0, std::ios::end).tellg();
  if (file_bytes < 0 || !in_.seekg(sizeof(header), std::ios::beg)) {
    return Fail("cannot size the file: a journal must be a regular file");
  }
  for (std::size_t k = 0; k < seen_ids_.size(); ++k) {
    seen_ids_[k].limit = Idx(file_bytes) / kIdKinds[k].min_bytes;
  }
  offset_ = sizeof(header);
  open_ = true;
  return true;
}

bool JournalReader::ReadFrame(std::uint8_t* marker, bool* at_eof) {
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
  frame_.resize(size);
  std::size_t got = 0;
  if (size > 0 && !ReadExact(in_, frame_.data(), size, &got)) {
    return Fail("frame at offset " + std::to_string(offset_) + " declares " +
                std::to_string(size) + " payload bytes but only " +
                std::to_string(got) +
                " remain — the file was truncated mid-write; frames before "
                "this offset are intact");
  }
  const std::uint32_t computed = Crc32(frame_);
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
  bool at_eof = false;
  if (!ReadFrame(&marker, &at_eof)) {
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
    std::string_view data(frame_);
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
    // As many unique ids as the total, none at or past it: dense from 0.
    const std::uint64_t totals[] = {footer.requests, footer.nodes, footer.edges};
    for (std::size_t k = 0; k < seen_ids_.size(); ++k) {
      if (seen_ids_[k].end > totals[k]) {
        Fail(std::string(kIdKinds[k].name) + " " +
             std::to_string(seen_ids_[k].end - 1) +
             " is not below the journal's " + kIdKinds[k].name + " total " +
             std::to_string(totals[k]));
        return JournalReadStatus::kError;
      }
    }
    totals_ = footer;
    footer_seen_ = true;
    return JournalReadStatus::kFooter;
  }
  std::string decode_error;
  if (!DecodeChunk(process_count_, chunk, &decode_error) ||
      !CheckLinkCapacities(*chunk, &decode_error) ||
      !CheckIds(*chunk, &decode_error) || !CheckUtf8(*chunk, &decode_error)) {
    Fail("chunk " + std::to_string(seen_.chunks + 1) + ": " + decode_error);
    return JournalReadStatus::kError;
  }
  process_count_ += chunk->new_processes.size();
  ++seen_.chunks;
  seen_.requests += chunk->requests.size();
  for (const JournalChunk::Record& rec : chunk->requests) {
    if (rec.request.completion < 0) {
      ++seen_.incomplete_requests;
    }
  }
  seen_.nodes += chunk->nodes.size();
  seen_.edges += chunk->edges.size();
  return JournalReadStatus::kChunk;
}

bool JournalReader::ReadChunkAt(std::uint64_t offset,
                                std::uint64_t process_bound,
                                JournalChunk* chunk) {
  DP_CHECK(open_);
  error_.clear();
  in_.clear();
  in_.seekg(static_cast<std::streamoff>(offset), std::ios::beg);
  const std::uint64_t saved_offset = offset_;
  offset_ = offset;
  std::uint8_t marker = 0;
  bool at_eof = false;
  const bool frame_ok = ReadFrame(&marker, &at_eof);
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
  std::string decode_error;
  if (!DecodeChunk(process_bound, chunk, &decode_error)) {
    return Fail("chunk at offset " + std::to_string(offset) + ": " +
                decode_error);
  }
  return true;
}

bool JournalReader::DecodeChunk(std::uint64_t process_bound,
                                JournalChunk* chunk, std::string* error) const {
  const std::string_view data(frame_);
  chunk->new_processes.clear();
  chunk->requests.clear();
  chunk->nodes.clear();
  chunk->edges.clear();
  chunk->text.clear();
  chunk->string_spans.clear();
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
  // The [offset, size) of a length-prefixed string at pos.
  const auto read_span = [&](std::pair<std::uint32_t, std::uint32_t>* span) {
    std::uint64_t len = 0;
    if (!ReadVarint(data, &pos, &len) || len > data.size() - pos) {
      return false;
    }
    *span = {static_cast<std::uint32_t>(pos), static_cast<std::uint32_t>(len)};
    pos += len;
    return true;
  };

  std::uint64_t num_processes = 0;
  if (!ReadVarint(data, &pos, &num_processes)) {
    return fail("payload ends inside the process table");
  }
  for (std::uint64_t i = 0; i < num_processes; ++i) {
    std::pair<std::uint32_t, std::uint32_t> span;
    if (!read_span(&span)) {
      return fail("payload ends inside the process table");
    }
    chunk->new_processes.emplace_back(data.substr(span.first, span.second));
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
  chunk->string_spans.resize(num_strings);
  for (auto& span : chunk->string_spans) {
    std::pair<std::uint32_t, std::uint32_t> in_frame;
    if (!read_span(&in_frame)) {
      return fail("payload ends inside the string table");
    }
    span = {static_cast<std::uint32_t>(chunk->text.size()), in_frame.second};
    chunk->text += data.substr(in_frame.first, in_frame.second);
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
    JournalChunk::Record& rec = chunk->requests.emplace_back();
    CpRequest& r = rec.request;
    std::int64_t id = 0;
    if (!ReadZigzag(data, &pos, &id) || id < 0 ||
        id > std::numeric_limits<int>::max()) {
      return fail("record " + std::to_string(ri) + ": bad request id");
    }
    r.id = static_cast<int>(id);
    // Names the record in a diagnostic; built only when a check fails.
    const auto ctx = [&r] { return "request " + std::to_string(r.id); };
    std::uint64_t process = 0;
    if (!ReadVarint(data, &pos, &process)) {
      return fail(ctx() + ": truncated record");
    }
    if (process >= total_processes) {
      return fail(ctx() + ": references process " + std::to_string(process) +
                  " but only " + std::to_string(total_processes) +
                  " are defined");
    }
    r.process = static_cast<int>(process);
    std::int64_t instance = 0;
    if (!ReadZigzag(data, &pos, &instance)) {
      return fail(ctx() + ": truncated record");
    }
    r.instance = static_cast<int>(instance);
    if (pos >= data.size()) {
      return fail(ctx() + ": truncated record");
    }
    const auto flags = static_cast<std::uint8_t>(data[pos]);
    ++pos;
    if ((flags & ~0x3) != 0) {
      return fail(ctx() + ": unknown request flag bits");
    }
    r.cold = (flags & 1) != 0;
    if (!ReadZigzag(data, &pos, &r.arrival)) {
      return fail(ctx() + ": truncated record");
    }
    if ((flags & 2) != 0) {
      std::uint64_t latency = 0;
      if (!ReadVarint(data, &pos, &latency)) {
        return fail(ctx() + ": truncated record");
      }
      r.completion = r.arrival + static_cast<Nanos>(latency);
    } else {
      r.completion = -1;
    }
    std::int64_t arrival_node = 0, terminal_node = 0;
    if (!ReadZigzag(data, &pos, &arrival_node) ||
        !ReadZigzag(data, &pos, &terminal_node)) {
      return fail(ctx() + ": truncated record");
    }

    std::uint64_t num_nodes = 0;
    if (!ReadVarint(data, &pos, &num_nodes)) {
      return fail(ctx() + ": truncated record");
    }
    if (num_nodes == 0) {
      return fail(ctx() + ": has no nodes (every request roots at an arrival)");
    }
    if (!fits(num_nodes, kMinNodeBytes)) {
      return fail(ctx() + ": " + too_many("node", num_nodes));
    }
    rec.first_node = static_cast<std::uint32_t>(chunk->nodes.size());
    rec.num_nodes = static_cast<std::uint32_t>(num_nodes);
    std::int64_t prev_id = 0;
    for (std::uint64_t ni = 0; ni < num_nodes; ++ni) {
      CpNode& n = chunk->nodes.emplace_back();
      n.request = r.id;
      std::int64_t delta = 0;
      if (!ReadZigzag(data, &pos, &delta)) {
        return fail(ctx() + ": truncated node");
      }
      const std::int64_t node_id = prev_id + delta;
      if (node_id < 0 || node_id > std::numeric_limits<CpNodeId>::max() ||
          (ni > 0 && node_id <= prev_id)) {
        return fail(ctx() + ": node ids are not strictly increasing");
      }
      prev_id = node_id;
      n.id = static_cast<CpNodeId>(node_id);
      if (pos >= data.size()) {
        return fail(ctx() + ": truncated node");
      }
      const auto kind = static_cast<std::uint8_t>(data[pos]);
      ++pos;
      if (kind > static_cast<std::uint8_t>(CpKind::kExec)) {
        return fail(ctx() + ": node " + std::to_string(node_id) +
                    " has unknown kind " + std::to_string(kind));
      }
      n.kind = static_cast<CpKind>(kind);
      // A request roots at one arrival node, its first (BeginRequest
      // creates it before anything else); the replay finishes that node at
      // the recorded arrival and would stall or finish twice on any other.
      if ((n.kind == CpKind::kArrival) != (ni == 0)) {
        return fail(ctx() + ": node " + std::to_string(node_id) +
                    (ni == 0 ? " is the request's first node but not an arrival"
                             : " is a second arrival node") +
                    "; a request roots at one arrival node, its first");
      }
      std::uint64_t label_idx = 0, resource_idx = 0;
      if (!ReadVarint(data, &pos, &label_idx) ||
          !ReadVarint(data, &pos, &resource_idx)) {
        return fail(ctx() + ": truncated node");
      }
      if (label_idx >= num_strings || resource_idx >= num_strings) {
        return fail(ctx() + ": node " + std::to_string(node_id) +
                    " references a string outside the chunk string table");
      }
      n.label = static_cast<CpStrId>(label_idx);
      n.resource = static_cast<CpStrId>(resource_idx);
      std::int64_t start_delta = 0;
      std::uint64_t duration = 0;
      if (!ReadZigzag(data, &pos, &start_delta) ||
          !ReadVarint(data, &pos, &duration)) {
        return fail(ctx() + ": truncated node");
      }
      n.start = r.arrival + start_delta;
      n.end = n.start + static_cast<Nanos>(duration);
      std::uint64_t dha = 0;
      if (!ReadZigzag(data, &pos, &n.bytes) ||
          !ReadZigzag(data, &pos, &n.solo) ||
          !ReadVarint(data, &pos, &dha)) {
        return fail(ctx() + ": truncated node");
      }
      if (n.solo < -1) {
        return fail(ctx() + ": node " + std::to_string(node_id) +
                    " has solo < -1");
      }
      n.dha_pcie = static_cast<Nanos>(dha);
      std::uint64_t num_hops = 0;
      if (!ReadVarint(data, &pos, &num_hops)) {
        return fail(ctx() + ": truncated node");
      }
      if (num_hops > kCpMaxHops) {
        return fail(ctx() + ": node " + std::to_string(node_id) + " has " +
                    std::to_string(num_hops) + " hops; a route has at most " +
                    std::to_string(kCpMaxHops));
      }
      for (std::uint64_t hi = 0; hi < num_hops; ++hi) {
        CpHop hop;
        std::uint64_t link_idx = 0;
        if (!ReadVarint(data, &pos, &link_idx)) {
          return fail(ctx() + ": truncated hop");
        }
        if (link_idx >= num_strings) {
          return fail(ctx() + ": hop references a string outside the chunk "
                              "string table");
        }
        hop.link = static_cast<CpStrId>(link_idx);
        if (data.size() - pos < 8) {
          return fail(ctx() + ": truncated hop");
        }
        std::uint64_t bits = 0;
        for (int bi = 7; bi >= 0; --bi) {
          bits = (bits << 8) |
                 static_cast<std::uint8_t>(data[pos + static_cast<std::size_t>(bi)]);
        }
        pos += 8;
        std::memcpy(&hop.capacity, &bits, sizeof(hop.capacity));
        if (!std::isfinite(hop.capacity) || hop.capacity <= 0.0) {
          return fail(ctx() + ": hop \"" + std::string(chunk->str(hop.link)) +
                      "\" capacity must be a positive finite number");
        }
        n.path.push_back(hop);
      }
    }

    // The index in `nodes` of the request's node `node_id`, or -1. The
    // search walks a few ids from position *at (and leaves the find there)
    // before bisecting: a recorder adds each edge into the node it just
    // created, mostly from one created shortly before, so walking from the
    // last edge's target finds nearly every endpoint in a step or two.
    const auto locate = [chunk, &rec](std::int64_t node_id,
                                      std::size_t* at) -> std::int64_t {
      const CpNode* nodes = chunk->nodes.data() + rec.first_node;
      const std::size_t size = rec.num_nodes;
      std::size_t i = std::min<std::size_t>(*at, size - 1);
      for (int step = 0; step < 8 && nodes[i].id != node_id; ++step) {
        if (nodes[i].id < node_id && i + 1 < size) {
          ++i;
        } else if (nodes[i].id > node_id && i > 0) {
          --i;
        } else {
          break;
        }
      }
      if (nodes[i].id != node_id) {
        const CpNode* it = std::lower_bound(
            nodes, nodes + size, node_id,
            [](const CpNode& n, std::int64_t v) { return n.id < v; });
        if (it == nodes + size || it->id != node_id) {
          return -1;
        }
        i = static_cast<std::size_t>(it - nodes);
      }
      *at = i;
      return rec.first_node + static_cast<std::int64_t>(i);
    };
    std::size_t at = 0;
    const std::int64_t arrival_index = locate(arrival_node, &at);
    if (arrival_index < 0) {
      return fail(ctx() + ": arrival_node " + std::to_string(arrival_node) +
                  " is not a node of the request");
    }
    if (arrival_index != rec.first_node) {
      return fail(ctx() + ": arrival_node " + std::to_string(arrival_node) +
                  " is not the request's first node");
    }
    rec.arrival_index = static_cast<std::uint32_t>(arrival_index);
    if (terminal_node != -1) {
      rec.terminal_index = locate(terminal_node, &at);
      if (rec.terminal_index < 0) {
        return fail(ctx() + ": terminal_node " + std::to_string(terminal_node) +
                    " is not a node of the request");
      }
    }
    r.arrival_node = static_cast<CpNodeId>(arrival_node);
    r.terminal_node = static_cast<CpNodeId>(terminal_node);

    std::uint64_t num_edges = 0;
    if (!ReadVarint(data, &pos, &num_edges)) {
      return fail(ctx() + ": truncated record");
    }
    if (!fits(num_edges, kMinEdgeBytes)) {
      return fail(ctx() + ": " + too_many("edge", num_edges));
    }
    rec.first_edge = static_cast<std::uint32_t>(chunk->edges.size());
    rec.num_edges = static_cast<std::uint32_t>(num_edges);
    std::size_t to_at = 0;
    std::int64_t prev_seq = -1;
    const std::int64_t base = chunk->nodes[rec.first_node].id;
    for (std::uint64_t ei = 0; ei < num_edges; ++ei) {
      std::int64_t seq_delta = 0, from_delta = 0, to_delta = 0;
      if (!ReadZigzag(data, &pos, &seq_delta) ||
          !ReadZigzag(data, &pos, &from_delta) ||
          !ReadZigzag(data, &pos, &to_delta)) {
        return fail(ctx() + ": truncated edge");
      }
      const std::int64_t seq = prev_seq + seq_delta;
      if (seq <= prev_seq || seq < 0) {
        return fail(ctx() + ": edge seqs are not strictly increasing");
      }
      prev_seq = seq;
      const std::int64_t from = base + from_delta;
      const std::int64_t to = base + to_delta;
      const std::int64_t to_index = locate(to, &to_at);
      std::size_t from_at = to_at;
      const std::int64_t from_index = locate(from, &from_at);
      if (from_index < 0 || to_index < 0) {
        const std::int64_t dangling = from_index >= 0 ? to : from;
        return fail(ctx() + ": edge (" + std::to_string(from) + " -> " +
                    std::to_string(to) + ") is dangling — node " +
                    std::to_string(dangling) +
                    " is not a node of this request (corrupt journal or "
                    "writer bug)");
      }
      if (from >= to) {
        return fail(ctx() + ": edge (" + std::to_string(from) + " -> " +
                    std::to_string(to) +
                    ") does not run from a lower node id to a higher one — "
                    "every recorder adds an edge into the node it just "
                    "created, so this one could close a cycle (corrupt "
                    "journal or writer bug)");
      }
      chunk->edges.push_back(JournalChunk::Edge{
          seq, static_cast<std::uint32_t>(from_index),
          static_cast<std::uint32_t>(to_index)});
    }
  }
  if (pos != data.size()) {
    return fail("chunk has " + std::to_string(data.size() - pos) +
                " trailing byte(s) after the last record");
  }
  return true;
}

bool JournalReader::CheckLinkCapacities(const JournalChunk& chunk,
                                        std::string* error) {
  link_of_string_.assign(chunk.num_strings(), 0);
  for (const JournalChunk::Record& rec : chunk.requests) {
    const auto process = static_cast<std::size_t>(rec.request.process);
    if (process >= link_capacity_.size()) {
      link_capacity_.resize(process + 1);
    }
    std::vector<double>& capacity_of = link_capacity_[process];
    for (std::uint32_t i = rec.first_node; i < rec.first_node + rec.num_nodes;
         ++i) {
      const CpNode& n = chunk.nodes[i];
      for (const CpHop& hop : n.path) {
        CpStrId& resolved = link_of_string_[hop.link];
        if (resolved == 0) {
          resolved = link_names_.Intern(chunk.str(hop.link)) + 1;
        }
        const CpStrId link = resolved - 1;
        if (link >= capacity_of.size()) {
          capacity_of.resize(link + 1, 0.0);
        }
        double& capacity = capacity_of[link];
        if (capacity == 0.0) {
          capacity = hop.capacity;
        } else if (capacity != hop.capacity) {
          *error = "request " + std::to_string(rec.request.id) + ": node " +
                   std::to_string(n.id) + " names link \"" +
                   link_names_[link] + "\" at capacity " +
                   Number(hop.capacity) + " B/s, but process " +
                   std::to_string(process) + " named it at " +
                   Number(capacity) +
                   " B/s before; the what-if replay builds one link per "
                   "process and name, so its hops must agree on the capacity";
          return false;
        }
      }
    }
  }
  return true;
}

bool JournalReader::CheckIds(const JournalChunk& chunk, std::string* error) {
  const auto mark = [this, error](std::size_t kind, std::uint64_t id) {
    SeenIds& seen = seen_ids_[kind];
    const char* name = kIdKinds[kind].name;
    if (id >= seen.limit) {
      *error = std::string(name) + " " + std::to_string(id) +
               " is not below the journal's " + name +
               " total: the file holds at most " + std::to_string(seen.limit);
      return false;
    }
    const auto word = static_cast<std::size_t>(id / 64);
    if (word >= seen.bits.size()) {
      seen.bits.resize(std::max(word + 1, 2 * seen.bits.size()));
    }
    const std::uint64_t bit = std::uint64_t{1} << (id % 64);
    if ((seen.bits[word] & bit) != 0) {
      *error = std::string(name) + " " + std::to_string(id) +
               " appears twice; each is recorded once";
      return false;
    }
    seen.bits[word] |= bit;
    seen.end = std::max(seen.end, id + 1);
    return true;
  };
  // Ids are non-negative (DecodeChunk checks them); && keeps the first error.
  bool ok = true;
  for (const JournalChunk::Record& rec : chunk.requests) {
    ok = ok && mark(0, static_cast<std::uint64_t>(rec.request.id));
  }
  for (const CpNode& n : chunk.nodes) {
    ok = ok && mark(1, static_cast<std::uint64_t>(n.id));
  }
  for (const JournalChunk::Edge& e : chunk.edges) {
    ok = ok && mark(2, static_cast<std::uint64_t>(e.seq));
  }
  return ok;
}

bool JournalReader::CheckUtf8(const JournalChunk& chunk, std::string* error) {
  // The new process names, then the string table.
  const std::size_t names = chunk.new_processes.size();
  for (std::size_t i = 0; i < names + chunk.num_strings(); ++i) {
    const std::string_view s =
        i < names ? chunk.new_processes[i] : chunk.str(static_cast<CpStrId>(i - names));
    const std::size_t at = InvalidUtf8At(s);
    if (at != std::string_view::npos) {
      *error = (i < names ? "process name " + std::to_string(process_count_ + i)
                          : "string-table entry " + std::to_string(i - names)) +
               " \"" + Printable(s) + "\" is not valid UTF-8 (byte " +
               std::to_string(at) +
               "); a journal's strings are UTF-8, as its JSON exports require";
      return false;
    }
  }
  return true;
}

// ---------------------------------------------------------------- converters

std::string CausalJournalJson(const std::vector<JournalChunk>& chunks) {
  DP_SELFPROF_SCOPE(kJournalSerialize);
  // Each request's, node's and edge's chunk and index there, by id or seq.
  using Place = std::pair<std::uint32_t, std::uint32_t>;
  std::vector<Place> request_at, node_at, edge_at;
  JsonArray processes;
  for (const JournalChunk& chunk : chunks) {
    for (const std::string& name : chunk.new_processes) {
      processes.Add(name);
    }
    request_at.resize(request_at.size() + chunk.requests.size(), {~0u, 0});
    node_at.resize(node_at.size() + chunk.nodes.size(), {~0u, 0});
    edge_at.resize(edge_at.size() + chunk.edges.size(), {~0u, 0});
  }
  // As many unique ids as places, each below their count: dense.
  const auto place = [](std::vector<Place>* at, std::int64_t id, std::size_t c,
                        std::size_t index) {
    DP_CHECK(id >= 0 && Idx(id) < at->size() && (*at)[Idx(id)].first == ~0u &&
             "ids are unique and dense");
    (*at)[Idx(id)] = {static_cast<std::uint32_t>(c),
                      static_cast<std::uint32_t>(index)};
  };
  for (std::size_t c = 0; c < chunks.size(); ++c) {
    const JournalChunk& chunk = chunks[c];
    for (std::size_t i = 0; i < chunk.requests.size(); ++i) {
      place(&request_at, chunk.requests[i].request.id, c, i);
    }
    for (std::size_t i = 0; i < chunk.nodes.size(); ++i) {
      place(&node_at, chunk.nodes[i].id, c, i);
    }
    for (std::size_t i = 0; i < chunk.edges.size(); ++i) {
      place(&edge_at, chunk.edges[i].seq, c, i);
    }
  }
  JsonArray requests;
  for (const auto& [c, i] : request_at) {
    const CpRequest& req = chunks[c].requests[i].request;
    requests.AddRaw(JsonObject()
                        .Set("id", req.id)
                        .Set("process", req.process)
                        .Set("instance", req.instance)
                        .Set("cold", req.cold)
                        .Set("arrival_ns", static_cast<std::int64_t>(req.arrival))
                        .Set("completion_ns",
                             static_cast<std::int64_t>(req.completion))
                        .Set("arrival_node", req.arrival_node)
                        .Set("terminal_node", req.terminal_node)
                        .Render());
  }
  JsonArray nodes;
  for (const auto& [c, i] : node_at) {
    const JournalChunk& chunk = chunks[c];
    const CpNode& node = chunk.nodes[i];
    JsonObject n;
    n.Set("id", node.id)
        .Set("request", node.request)
        .Set("kind", CpKindName(node.kind))
        .Set("label", std::string(chunk.str(node.label)))
        .Set("resource", std::string(chunk.str(node.resource)))
        .Set("start_ns", static_cast<std::int64_t>(node.start))
        .Set("end_ns", static_cast<std::int64_t>(node.end))
        .Set("bytes", node.bytes)
        .Set("solo_ns", static_cast<std::int64_t>(node.solo));
    // Optional fields, omitted when unset so journals recorded without them
    // export the same bytes.
    if (!node.path.empty()) {
      JsonArray hops;
      for (const CpHop& hop : node.path) {
        hops.AddRaw(JsonObject()
                        .Set("link", std::string(chunk.str(hop.link)))
                        .Set("capacity", hop.capacity)
                        .Render());
      }
      n.SetRaw("path", hops.Render());
    }
    if (node.dha_pcie != 0) {
      n.Set("dha_pcie_ns", static_cast<std::int64_t>(node.dha_pcie));
    }
    nodes.AddRaw(n.Render());
  }
  JsonArray edges;
  for (const auto& [c, i] : edge_at) {
    const JournalChunk& chunk = chunks[c];
    const JournalChunk::Edge& e = chunk.edges[i];
    edges.AddRaw(JsonArray()
                     .Add(chunk.nodes[e.from].id)
                     .Add(chunk.nodes[e.to].id)
                     .Render());
  }
  JsonObject journal;
  journal.SetRaw("processes", processes.Render())
      .SetRaw("requests", requests.Render())
      .SetRaw("nodes", nodes.Render())
      .SetRaw("edges", edges.Render());
  JsonObject doc;
  doc.SetRaw("causal_journal", journal.Render());
  return doc.Render();
}

bool ForEachJournalChunk(const std::string& path,
                         const std::function<void(JournalChunk&)>& visit,
                         std::string* error, JournalLintInfo* info) {
  JournalReader reader;
  JournalChunk chunk;
  if (reader.Open(path)) {
    while (reader.Next(&chunk) == JournalReadStatus::kChunk) {
      visit(chunk);
    }
  }
  if (info != nullptr) {
    info->totals = reader.totals();  // zero unless the footer was read
    info->processes = reader.num_processes();
  }
  *error = reader.error();
  return error->empty();
}

JournalTotals ForEachGraphChunk(const CausalGraph& graph,
                                const std::function<void(JournalChunk&)>& visit) {
  JournalReader reader;
  JournalChunk chunk;
  reader.OpenBytes(graph.journal());
  while (reader.Next(&chunk) == JournalReadStatus::kChunk) {
    visit(chunk);
  }
  DP_CHECK(reader.footer_seen() && "a graph's own journal is valid");
  return reader.totals();
}

bool WriteGraphToJournal(const CausalGraph& graph, const std::string& path,
                         std::string* error) {
  const std::string_view bytes = graph.journal();
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    *error = "cannot open " + path + " for writing";
    return false;
  }
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  out.close();
  if (!out) {
    *error = "journal write failed (disk full or file closed?)";
    return false;
  }
  return true;
}

// ---------------------------------------------------------------------- lint

check::TraceLintResult LintJournalFile(const std::string& path,
                                       JournalLintInfo* info) {
  check::TraceLintResult result;
  std::string error;
  if (!ForEachJournalChunk(
          path,
          [&result](JournalChunk& chunk) {
            result.num_events += chunk.requests.size();
          },
          &error, info)) {
    check::SchemaChecker(&result).Error(error);
  }
  return result;
}

}  // namespace deepplan
