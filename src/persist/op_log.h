#ifndef PNW_PERSIST_OP_LOG_H_
#define PNW_PERSIST_OP_LOG_H_

#include <cstdint>
#include <cstdio>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "src/persist/serializer.h"
#include "src/util/status.h"

namespace pnw::persist {

/// Operation kind of one op-log record. PUT and UPDATE replay identically
/// (PnwStore::Put upgrades to Update when the key exists) but are recorded
/// distinctly so a log is also a faithful trace of what the client did.
/// MIGRATE records a hot-bucket relocation the store performed on itself:
/// the key field holds the *logical bucket index* that was re-placed, and
/// replay re-runs the relocation deterministically (same victim content,
/// same pool state, hence the same destination) so wear histograms and
/// remapper registers come back bit-for-bit.
enum class OpType : uint8_t {
  kPut = 0,
  kUpdate = 1,
  kDelete = 2,
  kMigrate = 3,
};

/// One replayable record: the operation, the key, and (for PUT/UPDATE) the
/// full value bytes.
struct OpRecord {
  OpType op = OpType::kPut;
  uint64_t key = 0;
  std::vector<uint8_t> value;
};

/// One entry of an AppendBatch group: like OpRecord, but the value bytes
/// are borrowed from the caller (valid for the duration of the call), so
/// batching a MultiPut never copies payloads.
struct OpLogEntry {
  OpType op = OpType::kPut;
  uint64_t key = 0;
  std::span<const uint8_t> value;
};

/// Result of scanning an op-log file (see ReadOpLog).
struct OpLogContents {
  std::vector<OpRecord> records;
  /// Checkpoint epoch stamped in the header: the log is only valid on top
  /// of the snapshot carrying the same epoch. A log left over from a
  /// crash *between* a snapshot rename and the log reset carries the
  /// previous epoch, and recovery discards it instead of replaying
  /// records the snapshot already folded in.
  uint64_t epoch = 0;
  /// True when the file exists and starts with a valid header (a missing
  /// or zero-length log parses as `!has_header` with no records).
  bool has_header = false;
  /// Byte offset of the end of the last intact record (header included).
  /// Recovery truncates the file to this length before appending, so a
  /// torn tail is physically removed, not just skipped.
  uint64_t valid_bytes = 0;
  /// True when trailing bytes after `valid_bytes` were dropped (a record
  /// torn by a crash mid-append, or tail corruption).
  bool tail_truncated = false;
};

/// Append-only write-ahead log of PUT/UPDATE/DELETE between checkpoints
/// (the cheap half of the durability recipe; the snapshot in snapshot.h is
/// the expensive half).
///
/// File layout: a 16-byte header -- 8-byte magic ("PNWLOG1\n") plus the
/// u64 checkpoint epoch this log extends -- followed by records:
///
///     u32 crc32(body) | u32 body_length | body
///     body = u8 op | u64 key | value bytes (body_length - 9 of them)
///
/// Appends are buffered through stdio and flushed to the OS on every
/// record; fsync(2) is paid only every `sync_every` records (group
/// fsync) or on an explicit Sync(). A crash can therefore lose at most the
/// last un-synced group -- and can tear at most the final record, which
/// recovery detects by CRC and truncates (ReadOpLog::tail_truncated).
class OpLogWriter {
 public:
  /// Open `path` for appending, creating it (with a header stamping
  /// `epoch`) if absent or empty; an existing non-empty log keeps its
  /// header (callers verify its epoch via ReadOpLog before appending).
  /// `sync_every` = N means one fsync per N appended records
  /// (1 = sync every record; the durable-but-slow setting).
  static Result<std::unique_ptr<OpLogWriter>> Open(const std::string& path,
                                                   size_t sync_every,
                                                   uint64_t epoch);

  ~OpLogWriter();
  OpLogWriter(const OpLogWriter&) = delete;
  OpLogWriter& operator=(const OpLogWriter&) = delete;

  /// Append one record and flush it to the OS; every `sync_every`-th
  /// append also forces it to stable storage.
  Status Append(OpType op, uint64_t key, std::span<const uint8_t> value);

  /// Append a whole group of records with ONE buffer build, ONE fwrite and
  /// ONE flush to the OS -- the batched write path's amortization -- while
  /// the group-fsync policy stays record-based: the batch advances the
  /// sync counter by its size and pays at most one (deferred) fsync
  /// when it crosses `sync_every`, instead of one flush per record. The
  /// on-disk format is unchanged: a batch of N is byte-identical to N
  /// single Appends, so ReadOpLog replays either the same way. An empty
  /// batch is a no-op.
  Status AppendBatch(std::span<const OpLogEntry> entries);

  /// Force everything appended so far to stable storage.
  Status Sync();

  /// Truncate the log to empty and stamp a fresh header carrying `epoch`
  /// (called after a successful checkpoint captured everything the log
  /// held; the new epoch ties the emptied log to that snapshot).
  Status Reset(uint64_t epoch);

  /// Records appended through this writer (not counting pre-existing ones).
  uint64_t appended() const { return appended_; }

  const std::string& path() const { return path_; }

 private:
  OpLogWriter(std::string path, std::FILE* file, size_t sync_every)
      : path_(std::move(path)), file_(file), sync_every_(sync_every) {}

  Status WriteHeader(uint64_t epoch);

  std::string path_;
  std::FILE* file_;
  size_t sync_every_;
  size_t since_sync_ = 0;
  uint64_t appended_ = 0;
  /// Reusable framing scratch (capacity persists across appends, so the
  /// steady-state append path performs no heap allocation).
  BufferWriter body_scratch_;
  BufferWriter frame_scratch_;
};

/// Scan an op-log file, stopping at the first incomplete or checksum-failed
/// record (the torn tail a crash mid-append leaves behind). A missing file
/// parses as an empty log; a file whose header is not an op-log header is
/// Corruption. A nonzero `resume_offset` (a record boundary previously
/// observed, e.g. the log size at snapshot time) skips the records before
/// it and returns only the tail -- how a coordinated checkpoint carries
/// the operations that raced its snapshot into the next generation's log.
/// Only the header and the bytes from the resume point on are read, so
/// the cost follows the tail, not the file. An offset past the end is
/// clamped to it (no records, `valid_bytes` = the file size).
Result<OpLogContents> ReadOpLog(const std::string& path,
                                uint64_t resume_offset = 0);

/// Physically truncate `path` to `valid_bytes` (used by recovery to drop a
/// torn tail before re-attaching a writer).
Status TruncateOpLog(const std::string& path, uint64_t valid_bytes);

}  // namespace pnw::persist

#endif  // PNW_PERSIST_OP_LOG_H_
