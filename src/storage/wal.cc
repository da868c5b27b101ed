#include "storage/wal.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/clock.h"
#include "common/strings.h"

namespace olxp::storage {

namespace fs = std::filesystem;

// ---------------------------------------------------------------------------
// CRC-32
// ---------------------------------------------------------------------------

uint32_t Crc32(const void* data, size_t len) {
  // ISO-HDLC polynomial (same as zlib), table generated on first use.
  static const auto table = [] {
    std::array<uint32_t, 256> t{};
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[i] = c;
    }
    return t;
  }();
  uint32_t crc = 0xFFFFFFFFu;
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < len; ++i) {
    crc = table[(crc ^ p[i]) & 0xFF] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

// ---------------------------------------------------------------------------
// Binary encoding (little-endian fixed width; the WAL never crosses hosts)
// ---------------------------------------------------------------------------

namespace {

void PutU8(std::string* out, uint8_t v) {
  out->push_back(static_cast<char>(v));
}
void PutU32(std::string* out, uint32_t v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof v);
}
void PutU64(std::string* out, uint64_t v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof v);
}
void PutI64(std::string* out, int64_t v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof v);
}
void PutI32(std::string* out, int32_t v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof v);
}
void PutString(std::string* out, const std::string& s) {
  PutU32(out, static_cast<uint32_t>(s.size()));
  out->append(s);
}

/// Bounds-checked sequential reader over a decoded payload. Every Get
/// returns a sane default once `ok` drops; callers check `ok` at the end.
struct Cursor {
  const char* p;
  size_t left;
  bool ok = true;

  bool Take(void* dst, size_t n) {
    if (!ok || left < n) {
      ok = false;
      return false;
    }
    std::memcpy(dst, p, n);
    p += n;
    left -= n;
    return true;
  }
  uint8_t GetU8() {
    uint8_t v = 0;
    Take(&v, sizeof v);
    return v;
  }
  uint32_t GetU32() {
    uint32_t v = 0;
    Take(&v, sizeof v);
    return v;
  }
  uint64_t GetU64() {
    uint64_t v = 0;
    Take(&v, sizeof v);
    return v;
  }
  int64_t GetI64() {
    int64_t v = 0;
    Take(&v, sizeof v);
    return v;
  }
  int32_t GetI32() {
    int32_t v = 0;
    Take(&v, sizeof v);
    return v;
  }
  std::string GetString() {
    uint32_t n = GetU32();
    if (!ok || left < n) {
      ok = false;
      return {};
    }
    std::string s(p, n);
    p += n;
    left -= n;
    return s;
  }
};

void PutValue(std::string* out, const Value& v) {
  PutU8(out, static_cast<uint8_t>(v.type()));
  switch (v.type()) {
    case ValueType::kNull:
      break;
    case ValueType::kInt:
    case ValueType::kTimestamp:
      PutI64(out, v.AsInt());
      break;
    case ValueType::kDouble: {
      double d = v.AsDouble();
      uint64_t bits;
      std::memcpy(&bits, &d, sizeof bits);
      PutU64(out, bits);
      break;
    }
    case ValueType::kString:
      PutString(out, v.AsString());
      break;
  }
}

Value GetValue(Cursor* c) {
  switch (static_cast<ValueType>(c->GetU8())) {
    case ValueType::kNull:
      return Value::Null();
    case ValueType::kInt:
      return Value::Int(c->GetI64());
    case ValueType::kTimestamp:
      return Value::Timestamp(c->GetI64());
    case ValueType::kDouble: {
      uint64_t bits = c->GetU64();
      double d;
      std::memcpy(&d, &bits, sizeof d);
      return Value::Double(d);
    }
    case ValueType::kString:
      return Value::String(c->GetString());
    default:
      c->ok = false;
      return Value::Null();
  }
}

void PutRow(std::string* out, const Row& row) {
  PutU32(out, static_cast<uint32_t>(row.size()));
  for (const Value& v : row) PutValue(out, v);
}

Row GetRow(Cursor* c) {
  uint32_t n = c->GetU32();
  Row row;
  if (!c->ok || n > c->left) {  // each value takes >= 1 byte
    c->ok = false;
    return row;
  }
  row.reserve(n);
  for (uint32_t i = 0; i < n && c->ok; ++i) row.push_back(GetValue(c));
  return row;
}

void PutIntVec(std::string* out, const std::vector<int>& v) {
  PutU32(out, static_cast<uint32_t>(v.size()));
  for (int x : v) PutI32(out, x);
}

std::vector<int> GetIntVec(Cursor* c) {
  uint32_t n = c->GetU32();
  std::vector<int> v;
  if (!c->ok || n > c->left / sizeof(int32_t)) {
    c->ok = false;
    return v;
  }
  v.reserve(n);
  for (uint32_t i = 0; i < n; ++i) v.push_back(c->GetI32());
  return v;
}

void PutIndexDef(std::string* out, const IndexDef& def) {
  PutString(out, def.name);
  PutIntVec(out, def.column_idx);
  PutU8(out, def.unique ? 1 : 0);
}

IndexDef GetIndexDef(Cursor* c) {
  IndexDef def;
  def.name = c->GetString();
  def.column_idx = GetIntVec(c);
  def.unique = c->GetU8() != 0;
  return def;
}

void PutSchema(std::string* out, const TableSchema& schema) {
  PutString(out, schema.name());
  PutU32(out, static_cast<uint32_t>(schema.columns().size()));
  for (const ColumnDef& col : schema.columns()) {
    PutString(out, col.name);
    PutU8(out, static_cast<uint8_t>(col.type));
    PutU8(out, col.nullable ? 1 : 0);
  }
  PutIntVec(out, schema.pk_columns());
  PutU32(out, static_cast<uint32_t>(schema.indexes().size()));
  for (const IndexDef& idx : schema.indexes()) PutIndexDef(out, idx);
  PutU32(out, static_cast<uint32_t>(schema.foreign_keys().size()));
  for (const ForeignKeyDef& fk : schema.foreign_keys()) {
    PutIntVec(out, fk.column_idx);
    PutString(out, fk.ref_table);
    PutIntVec(out, fk.ref_column_idx);
  }
}

// A CRC match only proves the bytes we wrote are the bytes we read; a bug
// (or a hostile log) can still deliver structurally valid, semantically
// poisonous schemas. Everything recovery later trusts blindly — column type
// bytes, pk/index/fk column indices — is validated here, so a bad frame
// degrades to !c->ok (clean replay stop) instead of out-of-bounds indexing
// in ExtractPrimaryKey or an invalid ValueType reaching the type switches.
TableSchema GetSchema(Cursor* c) {
  std::string name = c->GetString();
  uint32_t ncols = c->GetU32();
  std::vector<ColumnDef> cols;
  if (!c->ok || ncols > c->left) {
    c->ok = false;
    return TableSchema();
  }
  cols.reserve(ncols);
  for (uint32_t i = 0; i < ncols && c->ok; ++i) {
    ColumnDef col;
    col.name = c->GetString();
    const uint8_t type_byte = c->GetU8();
    if (type_byte > static_cast<uint8_t>(ValueType::kTimestamp)) {
      c->ok = false;
      return TableSchema();
    }
    col.type = static_cast<ValueType>(type_byte);
    col.nullable = c->GetU8() != 0;
    cols.push_back(std::move(col));
  }
  std::vector<int> pk = GetIntVec(c);
  for (int idx : pk) {
    if (idx < 0 || static_cast<uint32_t>(idx) >= ncols) {
      c->ok = false;
      return TableSchema();
    }
  }
  TableSchema schema(std::move(name), std::move(cols), std::move(pk));
  uint32_t nidx = c->GetU32();
  for (uint32_t i = 0; i < nidx && c->ok; ++i) {
    // AddIndex bounds-checks the column indices against the schema; a
    // rejected index means a corrupt frame, not an ignorable detail.
    if (!schema.AddIndex(GetIndexDef(c)).ok()) c->ok = false;
  }
  uint32_t nfk = c->GetU32();
  for (uint32_t i = 0; i < nfk && c->ok; ++i) {
    ForeignKeyDef fk;
    fk.column_idx = GetIntVec(c);
    fk.ref_table = c->GetString();
    fk.ref_column_idx = GetIntVec(c);
    for (int idx : fk.column_idx) {
      if (idx < 0 || static_cast<uint32_t>(idx) >= ncols) c->ok = false;
    }
    if (!c->ok) break;
    schema.AddForeignKey(std::move(fk));
  }
  return schema;
}

void PutCommitBody(std::string* out, const CommitRecord& rec) {
  PutU64(out, rec.commit_ts);
  PutI64(out, rec.commit_wall_us);
  PutU32(out, static_cast<uint32_t>(rec.ops.size()));
  for (const LogOp& op : rec.ops) {
    PutU8(out, op.kind == LogOp::Kind::kDelete ? 1 : 0);
    PutI32(out, op.table_id);
    PutRow(out, op.pk);
    PutRow(out, op.data);
  }
}

CommitRecord GetCommitBody(Cursor* c) {
  CommitRecord rec;
  rec.commit_ts = c->GetU64();
  rec.commit_wall_us = c->GetI64();
  uint32_t nops = c->GetU32();
  if (!c->ok || nops > c->left) {
    c->ok = false;
    return rec;
  }
  rec.ops.reserve(nops);
  for (uint32_t i = 0; i < nops && c->ok; ++i) {
    LogOp op;
    op.kind = c->GetU8() != 0 ? LogOp::Kind::kDelete : LogOp::Kind::kUpsert;
    op.table_id = c->GetI32();
    op.pk = GetRow(c);
    op.data = GetRow(c);
    rec.ops.push_back(std::move(op));
  }
  return rec;
}

constexpr uint32_t kMaxFrameLen = 1u << 30;
constexpr uint64_t kCheckpointMagic = 0x4F4C585043503031ull;  // "OLXPCP01"
constexpr const char kCheckpointName[] = "checkpoint";
constexpr const char kSegmentPrefix[] = "wal-";
constexpr const char kSegmentSuffix[] = ".seg";

std::string SegmentName(uint64_t first_seq) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%s%020llu%s", kSegmentPrefix,
                static_cast<unsigned long long>(first_seq), kSegmentSuffix);
  return buf;
}

/// (first_seq, path) for every segment in `dir`, ascending.
std::vector<std::pair<uint64_t, std::string>> ListSegments(
    const std::string& dir) {
  std::vector<std::pair<uint64_t, std::string>> out;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind(kSegmentPrefix, 0) != 0 ||
        name.size() <= std::strlen(kSegmentPrefix) +
                           std::strlen(kSegmentSuffix) ||
        name.substr(name.size() - std::strlen(kSegmentSuffix)) !=
            kSegmentSuffix) {
      continue;
    }
    uint64_t seq = std::strtoull(name.c_str() + std::strlen(kSegmentPrefix),
                                 nullptr, 10);
    out.emplace_back(seq, entry.path().string());
  }
  std::sort(out.begin(), out.end());
  return out;
}

void FsyncDir(const std::string& dir) {
  int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd >= 0) {
    ::fsync(fd);
    ::close(fd);
  }
}

}  // namespace

void EncodeFrame(const WalFrame& frame, std::string* out) {
  std::string payload;
  PutU8(&payload, static_cast<uint8_t>(frame.type));
  PutU64(&payload, frame.seq);
  switch (frame.type) {
    case WalFrame::Type::kCommit:
      PutCommitBody(&payload, frame.commit);
      break;
    case WalFrame::Type::kCreateTable:
      PutI32(&payload, frame.table_id);
      PutSchema(&payload, frame.schema);
      break;
    case WalFrame::Type::kCreateIndex:
      PutString(&payload, frame.table_name);
      PutIndexDef(&payload, frame.index);
      break;
  }
  PutU32(out, static_cast<uint32_t>(payload.size()));
  PutU32(out, Crc32(payload.data(), payload.size()));
  out->append(payload);
}

bool DecodeFrame(const std::string& data, size_t* offset, WalFrame* frame) {
  size_t off = *offset;
  if (data.size() - off < 8) return false;
  uint32_t len, crc;
  std::memcpy(&len, data.data() + off, 4);
  std::memcpy(&crc, data.data() + off + 4, 4);
  if (len > kMaxFrameLen || data.size() - off - 8 < len) return false;
  const char* payload = data.data() + off + 8;
  if (Crc32(payload, len) != crc) return false;

  Cursor c{payload, len};
  WalFrame f;
  f.type = static_cast<WalFrame::Type>(c.GetU8());
  f.seq = c.GetU64();
  switch (f.type) {
    case WalFrame::Type::kCommit:
      f.commit = GetCommitBody(&c);
      break;
    case WalFrame::Type::kCreateTable:
      f.table_id = c.GetI32();
      f.schema = GetSchema(&c);
      break;
    case WalFrame::Type::kCreateIndex:
      f.table_name = c.GetString();
      f.index = GetIndexDef(&c);
      break;
    default:
      return false;
  }
  if (!c.ok || c.left != 0) return false;
  *frame = std::move(f);
  *offset = off + 8 + len;
  return true;
}

// ---------------------------------------------------------------------------
// DurabilityMode
// ---------------------------------------------------------------------------

const char* DurabilityModeName(DurabilityMode m) {
  switch (m) {
    case DurabilityMode::kOff:
      return "off";
    case DurabilityMode::kAsync:
      return "async";
    case DurabilityMode::kSync:
      return "sync";
    case DurabilityMode::kGroup:
      return "group";
  }
  return "?";
}

StatusOr<DurabilityMode> DurabilityModeByName(std::string_view name) {
  std::string n = ToLower(name);
  if (n == "off") return DurabilityMode::kOff;
  if (n == "async") return DurabilityMode::kAsync;
  if (n == "sync") return DurabilityMode::kSync;
  if (n == "group") return DurabilityMode::kGroup;
  return Status::InvalidArgument("unknown durability mode: " +
                                 std::string(name));
}

// ---------------------------------------------------------------------------
// WalWriter
// ---------------------------------------------------------------------------

WalWriter::WalWriter(WalOptions opts) : opts_(std::move(opts)) {}

StatusOr<std::unique_ptr<WalWriter>> WalWriter::Open(const WalOptions& opts,
                                                     uint64_t next_seq) {
  if (opts.dir.empty()) {
    return Status::InvalidArgument("WAL directory not set");
  }
  std::error_code ec;
  fs::create_directories(opts.dir, ec);
  if (ec) {
    return Status::Internal("cannot create WAL dir " + opts.dir + ": " +
                            ec.message());
  }
  std::unique_ptr<WalWriter> w(new WalWriter(opts));
  {
    sync::MutexLock lk(w->mu_);
    w->next_seq_ = next_seq;
  }
  w->durable_seq_.store(next_seq - 1, std::memory_order_relaxed);
  if (opts.metrics != nullptr) {
    w->m_appends_ = opts.metrics->GetCounter("wal.appends");
    w->m_fsyncs_ = opts.metrics->GetCounter("wal.fsyncs");
    w->m_bytes_ = opts.metrics->GetCounter("wal.bytes_written");
    w->m_rotations_ = opts.metrics->GetCounter("wal.segments_rotated");
    w->m_fsync_us_ = opts.metrics->GetHistogram("wal.fsync_us");
    w->m_batch_records_ =
        opts.metrics->GetHistogram("wal.group_batch_records");
  }
  {
    sync::MutexLock io(w->io_mu_);
    OLXP_RETURN_NOT_OK(w->OpenSegment(next_seq));
  }
  if (opts.mode == DurabilityMode::kAsync) {
    w->flusher_ = std::thread([p = w.get()] { p->FlusherLoop(); });
  }
  return w;
}

WalWriter::~WalWriter() {
  {
    sync::MutexLock lk(mu_);
    stop_ = true;
  }
  pending_cv_.NotifyAll();
  if (flusher_.joinable()) flusher_.join();
  // Sticky-error state is re-read by whoever cares; shutdown cannot
  // propagate it anywhere.
  (void)Flush();
  sync::MutexLock io(io_mu_);
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Status WalWriter::OpenSegment(uint64_t first_seq) {
  if (fd_ >= 0) ::close(fd_);
  const std::string path =
      (fs::path(opts_.dir) / SegmentName(first_seq)).string();
  // O_TRUNC: a file already at this name can only hold bytes replay could
  // not decode — any decodable frame in wal-N.seg has seq >= N, which
  // would have pushed next_seq past N. Concretely: a crash mid-write of a
  // segment's FIRST frame leaves a torn-only file; appending acked commits
  // behind that junk would lose them at the next replay, so discard it.
  fd_ = ::open(path.c_str(), O_CREAT | O_WRONLY | O_APPEND | O_TRUNC, 0644);
  if (fd_ < 0) {
    return Status::Internal("cannot open WAL segment " + path);
  }
  segment_size_ = 0;
  return Status::OK();
}

uint64_t WalWriter::AppendBody(WalFrame::Type type, const std::string& body,
                               bool force_durable) {
  uint64_t seq;
  {
    sync::MutexLock lk(mu_);
    seq = next_seq_++;
    // Frame wire format (must match EncodeFrame): [len][crc][type,seq,body].
    std::string payload;
    payload.reserve(9 + body.size());
    PutU8(&payload, static_cast<uint8_t>(type));
    PutU64(&payload, seq);
    payload.append(body);
    PutU32(&pending_, static_cast<uint32_t>(payload.size()));
    PutU32(&pending_, Crc32(payload.data(), payload.size()));
    pending_.append(payload);
    pending_last_seq_ = seq;
    ++pending_count_;
  }
  if (m_appends_ != nullptr) m_appends_->Add(1);
  if (opts_.mode == DurabilityMode::kSync || force_durable) {
    // Failure is sticky: Append returns a seq either way and the caller's
    // WaitDurable / last_error reports the I/O state.
    (void)Flush();
  } else if (opts_.mode == DurabilityMode::kAsync) {
    pending_cv_.NotifyOne();  // wake the write-behind flusher
  }
  // Group mode: nothing to wake — the first committer reaching WaitDurable
  // flushes the batch itself.
  return seq;
}

uint64_t WalWriter::AppendCommit(const CommitRecord& rec) {
  // Serialize straight from the caller's record — this runs inside the
  // engine-wide commit critical section, where deep-copying every row
  // image into a scratch frame would lengthen the serial path for nothing.
  std::string body;
  PutCommitBody(&body, rec);
  return AppendBody(WalFrame::Type::kCommit, body, /*force_durable=*/false);
}

uint64_t WalWriter::AppendCreateTable(int table_id,
                                      const TableSchema& schema) {
  std::string body;
  PutI32(&body, table_id);
  PutSchema(&body, schema);
  return AppendBody(WalFrame::Type::kCreateTable, body,
                    /*force_durable=*/true);
}

uint64_t WalWriter::AppendCreateIndex(const std::string& table_name,
                                      const IndexDef& def) {
  std::string body;
  PutString(&body, table_name);
  PutIndexDef(&body, def);
  return AppendBody(WalFrame::Type::kCreateIndex, body,
                    /*force_durable=*/true);
}

Status WalWriter::last_error() const {
  if (!io_failed_.load(std::memory_order_acquire)) return Status::OK();
  sync::MutexLock lk(mu_);
  return io_error_;
}

Status WalWriter::WaitDurable(uint64_t seq) {
  if (opts_.mode != DurabilityMode::kGroup || seq == 0) {
    // Sync already persisted (or failed) in Append; async never waits.
    // Either way the sticky state is the answer.
    return last_error();
  }
  if (durable_seq_.load(std::memory_order_acquire) >= seq) {
    // Durability first, like the loop below: a record synced before some
    // later failure is durable, and its commit must report success.
    return Status::OK();
  }
  sync::MutexLock lk(mu_);
  for (;;) {
    // Durability first: a record synced before a later failure is still
    // durable. Then the sticky error — never report success for a record
    // the log could not persist.
    if (durable_seq_.load(std::memory_order_acquire) >= seq) {
      return Status::OK();
    }
    if (io_failed_.load(std::memory_order_acquire)) return io_error_;
    if (!group_flush_in_progress_) {
      // Become the leader: fsync once for every record enqueued so far
      // (ours included — seq <= pending_last_seq_ by construction). While
      // the fsync sleeps in the kernel, other committers keep enqueueing;
      // the first of them to wake becomes the next leader. A batch forms
      // per fsync without any flusher-thread handoff on the commit path.
      group_flush_in_progress_ = true;
      lk.Unlock();
      if (opts_.group_commit_window_us > 0) {
        std::this_thread::sleep_for(
            std::chrono::microseconds(opts_.group_commit_window_us));
      }
      // Failure lands in the sticky state the loop re-reads below.
      (void)WriteBatch(/*sync=*/true);
      // Our record was enqueued before this call, so it was either in the
      // batch just synced or in an earlier completed flush; loop back to
      // report durable success — or the I/O failure the flush just hit.
      lk.Lock();
      group_flush_in_progress_ = false;
      lk.Unlock();
      durable_cv_.NotifyAll();
      lk.Lock();
      continue;
    }
    durable_cv_.Wait(lk);
  }
}

Status WalWriter::Flush() {
  OLXP_RETURN_NOT_OK(WriteBatch(/*sync=*/true));
  return last_error();
}

Status WalWriter::WriteBatch(bool sync) {
  // io_mu_ first, then a short mu_ hold to swap the buffer: the write is
  // outside mu_ (appends keep flowing), and no other flush can interleave
  // frames out of sequence order in the segment file.
  sync::MutexLock io(io_mu_);
  std::string buf;
  uint64_t last = 0;
  size_t records = 0;
  {
    sync::MutexLock lk(mu_);
    buf.swap(pending_);
    last = pending_last_seq_;
    records = pending_count_;
    pending_count_ = 0;
  }
  if (!buf.empty()) return WriteAndMaybeSync(buf, last, records, sync);
  if (sync && fd_ >= 0 && !io_failed_.load(std::memory_order_acquire) &&
      durable_seq_.load(std::memory_order_acquire) < last) {
    // Async mode may have written these bytes without syncing them.
    const int64_t t0 = NowMicros();
    if (::fsync(fd_) != 0) {
      return RecordIoError("WAL fsync failed");
    }
    fsyncs_.fetch_add(1, std::memory_order_relaxed);
    if (m_fsyncs_ != nullptr) {
      m_fsyncs_->Add(1);
      m_fsync_us_->Record(NowMicros() - t0);
    }
    durable_seq_.store(last, std::memory_order_release);
    durable_cv_.NotifyAll();
  }
  return Status::OK();
}

Status WalWriter::RecordIoError(const std::string& what) {
  Status st = Status::Internal(what);
  {
    sync::MutexLock lk(mu_);
    if (!io_failed_.load(std::memory_order_relaxed)) io_error_ = st;
    io_failed_.store(true, std::memory_order_release);
    st = io_error_;
  }
  durable_cv_.NotifyAll();  // waiters must observe the failure, not hang
  return st;
}

Status WalWriter::WriteAndMaybeSync(const std::string& buf, uint64_t last_seq,
                                    size_t records, bool sync) {
  if (fd_ < 0) {
    return RecordIoError("WAL segment unavailable after earlier failure");
  }
  const char* p = buf.data();
  size_t left = buf.size();
  while (left > 0) {
    ssize_t n = ::write(fd_, p, left);
    if (n <= 0) {
      if (errno == EINTR) continue;
      // Poison the segment: a partial write may have left a torn frame,
      // and replay stops at the first torn frame — any frame appended
      // after it would be unreachable, so nothing may ever be appended
      // (let alone acked durable) behind it.
      ::close(fd_);
      fd_ = -1;
      return RecordIoError("WAL write failed");
    }
    p += n;
    left -= static_cast<size_t>(n);
  }
  bytes_written_.fetch_add(buf.size(), std::memory_order_relaxed);
  segment_size_ += buf.size();
  if (m_bytes_ != nullptr) m_bytes_->Add(static_cast<int64_t>(buf.size()));

  const bool rotate = segment_size_ >= opts_.segment_bytes;
  if (sync || rotate) {
    const int64_t t0 = NowMicros();
    if (::fsync(fd_) != 0) {
      return RecordIoError("WAL fsync failed");
    }
    fsyncs_.fetch_add(1, std::memory_order_relaxed);
    if (m_fsyncs_ != nullptr) {
      m_fsyncs_->Add(1);
      m_fsync_us_->Record(NowMicros() - t0);
      // One fsync covered `records` commits/DDLs: the group-commit batch
      // size distribution the durability figure reasons about.
      m_batch_records_->Record(static_cast<int64_t>(records));
    }
    durable_seq_.store(last_seq, std::memory_order_release);
    {
      sync::MutexLock lk(mu_);  // pairs with WaitDurable's predicate check
    }
    durable_cv_.NotifyAll();
  }
  if (rotate) {
    if (m_rotations_ != nullptr) m_rotations_->Add(1);
    Status st = OpenSegment(last_seq + 1);
    if (!st.ok()) {
      fd_ = -1;  // OpenSegment closed the old fd; nothing usable remains
      return RecordIoError(st.message());
    }
  }
  return Status::OK();
}

void WalWriter::FlusherLoop() {
  // Async mode only: write behind on a coarse cadence, fsync on rotation.
  while (true) {
    {
      sync::MutexLock lk(mu_);
      // Explicit wait loop (not the predicate overload): the predicate
      // reads mu_-guarded state, and the analysis can only see the lock
      // held here, in this function's own scope.
      while (!stop_ && pending_.empty()) pending_cv_.Wait(lk);
      if (stop_) return;  // destructor flushes the remainder
    }
    std::this_thread::sleep_for(std::chrono::microseconds(500));
    // Write-behind: failure is sticky and reported by WaitDurable/Flush.
    (void)WriteBatch(/*sync=*/false);
  }
}

void WalWriter::DeleteSegmentsBefore(uint64_t seq) {
  sync::MutexLock io(io_mu_);
  auto segments = ListSegments(opts_.dir);
  // A segment is deletable when the NEXT segment starts at or below `seq`
  // (every frame it holds is then < seq). The newest segment is active.
  for (size_t i = 0; i + 1 < segments.size(); ++i) {
    if (segments[i + 1].first <= seq) {
      std::error_code ec;
      fs::remove(segments[i].second, ec);
    }
  }
  FsyncDir(opts_.dir);
}

uint64_t WalWriter::next_seq() const {
  sync::MutexLock lk(mu_);
  return next_seq_;
}

// ---------------------------------------------------------------------------
// Replay
// ---------------------------------------------------------------------------

Status ReplayWal(const std::string& dir, uint64_t from_seq,
                 const std::function<Status(WalFrame&&)>& cb,
                 uint64_t* max_seq_seen) {
  *max_seq_seen = 0;
  if (!fs::exists(dir)) return Status::OK();
  for (const auto& [start_seq, path] : ListSegments(dir)) {
    std::ifstream in(path, std::ios::binary);
    if (!in) return Status::Internal("cannot read WAL segment " + path);
    std::ostringstream ss;
    ss << in.rdbuf();
    const std::string data = ss.str();
    size_t offset = 0;
    WalFrame frame;
    while (DecodeFrame(data, &offset, &frame)) {
      if (frame.seq > *max_seq_seen) *max_seq_seen = frame.seq;
      if (frame.seq < from_seq) continue;
      OLXP_RETURN_NOT_OK(cb(std::move(frame)));
      frame = WalFrame();
    }
    // A decode failure is a torn tail: the record was mid-write at crash
    // time and never acknowledged, so recovery stops this segment here.
    // Later segments (opened fresh after a previous recovery) still replay.
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Checkpoints
// ---------------------------------------------------------------------------

Status WriteCheckpoint(const std::string& dir, const CheckpointImage& image) {
  std::string body;
  PutU64(&body, image.oracle_ts);
  PutU64(&body, image.wal_next_seq);
  PutU32(&body, static_cast<uint32_t>(image.tables.size()));
  for (const CheckpointTable& t : image.tables) {
    PutI32(&body, t.table_id);
    PutSchema(&body, t.schema);
    PutU64(&body, t.rows.size());
    for (const auto& [ts, row] : t.rows) {
      PutU64(&body, ts);
      PutRow(&body, row);
    }
  }

  std::string file;
  PutU64(&file, kCheckpointMagic);
  PutU32(&file, Crc32(body.data(), body.size()));
  PutU64(&file, body.size());
  file.append(body);

  std::error_code ec;
  fs::create_directories(dir, ec);
  const std::string tmp = (fs::path(dir) / "checkpoint.tmp").string();
  const std::string final_path = (fs::path(dir) / kCheckpointName).string();
  int fd = ::open(tmp.c_str(), O_CREAT | O_WRONLY | O_TRUNC, 0644);
  if (fd < 0) return Status::Internal("cannot create " + tmp);
  const char* p = file.data();
  size_t left = file.size();
  while (left > 0) {
    ssize_t n = ::write(fd, p, left);
    if (n <= 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      return Status::Internal("checkpoint write failed");
    }
    p += n;
    left -= static_cast<size_t>(n);
  }
  // The fsync must be verified BEFORE the rename installs the image: a
  // checkpoint that never reached disk must not let the caller delete the
  // WAL segments backing the same data.
  if (::fsync(fd) != 0) {
    ::close(fd);
    return Status::Internal("checkpoint fsync failed");
  }
  ::close(fd);
  fs::rename(tmp, final_path, ec);
  if (ec) return Status::Internal("checkpoint rename failed: " + ec.message());
  FsyncDir(dir);
  return Status::OK();
}

StatusOr<CheckpointImage> ReadCheckpoint(const std::string& dir) {
  const std::string path = (fs::path(dir) / kCheckpointName).string();
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::NotFound("no checkpoint in " + dir);
  std::ostringstream ss;
  ss << in.rdbuf();
  const std::string data = ss.str();

  Cursor header{data.data(), data.size()};
  if (header.GetU64() != kCheckpointMagic) {
    return Status::Internal("bad checkpoint magic in " + path);
  }
  uint32_t crc = header.GetU32();
  uint64_t body_len = header.GetU64();
  if (!header.ok || header.left < body_len) {
    return Status::Internal("truncated checkpoint " + path);
  }
  if (Crc32(header.p, body_len) != crc) {
    return Status::Internal("checkpoint CRC mismatch in " + path);
  }

  Cursor c{header.p, body_len};
  CheckpointImage image;
  image.oracle_ts = c.GetU64();
  image.wal_next_seq = c.GetU64();
  uint32_t ntables = c.GetU32();
  for (uint32_t i = 0; i < ntables && c.ok; ++i) {
    CheckpointTable t;
    t.table_id = c.GetI32();
    t.schema = GetSchema(&c);
    uint64_t nrows = c.GetU64();
    if (!c.ok || nrows > c.left) {
      c.ok = false;
      break;
    }
    t.rows.reserve(nrows);
    for (uint64_t r = 0; r < nrows && c.ok; ++r) {
      uint64_t ts = c.GetU64();
      Row row = GetRow(&c);
      // Recovery indexes these rows by the schema's pk columns without
      // further checks; reject arity mismatches here.
      if (c.ok && row.size() != t.schema.columns().size()) c.ok = false;
      t.rows.emplace_back(ts, std::move(row));
    }
    image.tables.push_back(std::move(t));
  }
  if (!c.ok) return Status::Internal("corrupt checkpoint body in " + path);
  return image;
}

// ---------------------------------------------------------------------------
// CommitLog
// ---------------------------------------------------------------------------

uint64_t CommitLog::Append(CommitRecord rec) {
  uint64_t ticket = 0;
  if (wal_ != nullptr) {
    uint64_t seq = wal_->AppendCommit(rec);
    if (wal_->mode() == DurabilityMode::kGroup) ticket = seq;
  }
  sync::MutexLock lk(mu_);
  if (retain_records_) {
    records_.push_back(std::move(rec));
  } else {
    ++base_seq_;  // keep size() counting appends with nothing retained
  }
  return ticket;
}

Status CommitLog::WaitDurable(uint64_t ticket) {
  if (wal_ == nullptr) return Status::OK();
  return wal_->WaitDurable(ticket);
}

uint64_t CommitLog::Fetch(uint64_t from_seq, int64_t max_wall_us,
                          std::vector<CommitRecord>* out) {
  sync::MutexLock lk(mu_);
  uint64_t seq = from_seq;
  if (seq < base_seq_) seq = base_seq_;
  const size_t first = seq - base_seq_;
  size_t count = 0;
  while (first + count < records_.size() &&
         records_[first + count].commit_wall_us <= max_wall_us) {
    ++count;
  }
  out->reserve(out->size() + count);
  for (size_t i = 0; i < count; ++i) {
    CommitRecord& rec = records_[first + i];
    CommitRecord drained;
    drained.commit_ts = rec.commit_ts;
    drained.commit_wall_us = rec.commit_wall_us;
    drained.ops = std::move(rec.ops);  // consumed; caller trims past us
    out->push_back(std::move(drained));
  }
  return seq + count;
}

void CommitLog::Trim(uint64_t up_to_seq) {
  sync::MutexLock lk(mu_);
  while (base_seq_ < up_to_seq && !records_.empty()) {
    records_.pop_front();
    ++base_seq_;
  }
}

uint64_t CommitLog::size() const {
  sync::MutexLock lk(mu_);
  return base_seq_ + records_.size();
}

uint64_t CommitLog::OldestPendingCommitTs(uint64_t from_seq) const {
  sync::MutexLock lk(mu_);
  size_t idx = from_seq > base_seq_ ? from_seq - base_seq_ : 0;
  if (idx >= records_.size()) return 0;
  return records_[idx].commit_ts;
}

}  // namespace olxp::storage
