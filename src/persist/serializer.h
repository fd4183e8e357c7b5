#ifndef PNW_PERSIST_SERIALIZER_H_
#define PNW_PERSIST_SERIALIZER_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "src/util/status.h"

namespace pnw::persist {

/// Little-endian binary encoder backing every persisted artifact. All
/// multi-byte fields are packed byte-by-byte (never memcpy'd structs), so
/// the on-disk format is independent of host endianness, padding, and
/// struct layout -- a snapshot written on one machine opens on any other.
class BufferWriter {
 public:
  void PutU8(uint8_t v) { buf_.push_back(v); }
  void PutBool(bool v) { PutU8(v ? 1 : 0); }
  void PutU16(uint16_t v);
  void PutU32(uint32_t v);
  void PutU64(uint64_t v);
  /// IEEE-754 bit pattern, little-endian.
  void PutFloat(float v);
  void PutDouble(double v);
  /// Raw bytes, no length prefix (caller frames them).
  void PutBytes(std::span<const uint8_t> bytes);
  /// u64 count followed by the raw bytes.
  void PutSizedBytes(std::span<const uint8_t> bytes);
  /// u64 count followed by the elements (fixed-width little-endian each).
  void PutU16Vec(const std::vector<uint16_t>& v);
  void PutU32Vec(const std::vector<uint32_t>& v);
  void PutU64Vec(const std::vector<uint64_t>& v);
  void PutFloatVec(const std::vector<float>& v);
  void PutDoubleVec(const std::vector<double>& v);

  const std::vector<uint8_t>& data() const { return buf_; }
  size_t size() const { return buf_.size(); }
  /// Drop the content but keep the capacity, so a writer reused as a
  /// per-record scratch (the op-log's append path) stops allocating once
  /// warm.
  void Clear() { buf_.clear(); }

 private:
  std::vector<uint8_t> buf_;
};

/// Bounds-checked little-endian decoder over a borrowed byte span. Every
/// getter fails with Status::Corruption instead of reading out of bounds,
/// and vector getters validate the element count against the remaining
/// bytes before allocating (a flipped length field must not OOM recovery).
class BufferReader {
 public:
  BufferReader() = default;
  explicit BufferReader(std::span<const uint8_t> data) : data_(data) {}

  Status GetU8(uint8_t* out);
  Status GetBool(bool* out);
  Status GetU16(uint16_t* out);
  Status GetU32(uint32_t* out);
  Status GetU64(uint64_t* out);
  Status GetFloat(float* out);
  Status GetDouble(double* out);
  /// Copy exactly out.size() bytes.
  Status GetBytes(std::span<uint8_t> out);
  /// Read a u64 count then that many bytes.
  Status GetSizedBytes(std::vector<uint8_t>* out);
  Status GetU16Vec(std::vector<uint16_t>* out);
  Status GetU32Vec(std::vector<uint32_t>* out);
  Status GetU64Vec(std::vector<uint64_t>* out);
  Status GetFloatVec(std::vector<float>* out);
  Status GetDoubleVec(std::vector<double>* out);

  /// Advance past `n` bytes without copying them.
  Status Skip(size_t n);

  size_t remaining() const { return data_.size() - pos_; }
  bool AtEnd() const { return remaining() == 0; }
  size_t position() const { return pos_; }

 private:
  Status Need(size_t n);
  /// Validates `count * elem_size <= remaining` before any allocation.
  Status CheckedCount(uint64_t count, size_t elem_size);

  std::span<const uint8_t> data_;
  size_t pos_ = 0;
};

/// A file opened read-only for positional reads (pread). Its size is taken
/// once, by fstat at Open; the descriptor closes with the object.
class ReadOnlyFile {
 public:
  /// NotFound if `path` does not exist.
  static Result<ReadOnlyFile> Open(const std::string& path);

  ReadOnlyFile() = default;
  ReadOnlyFile(ReadOnlyFile&& other) noexcept;
  ReadOnlyFile& operator=(ReadOnlyFile&&) = delete;
  ~ReadOnlyFile();

  /// File size as fstat reported it at Open.
  uint64_t size() const { return size_; }

  /// Bytes [offset, offset + n), clamped to size(), in one buffer allocated
  /// once at that length. A file that turns out shorter than size() is
  /// returned as far as it goes; an offset at or past size() reads nothing.
  Result<std::vector<uint8_t>> Read(uint64_t offset, uint64_t n) const;

 private:
  int fd_ = -1;
  uint64_t size_ = 0;
  std::string path_;
};

/// Read an entire file into memory (one fstat-sized allocation). NotFound
/// if the file does not exist.
Result<std::vector<uint8_t>> ReadFileBytes(const std::string& path);

/// Crash-safe file replacement: write to `path + ".tmp"`, fsync the file,
/// rename over `path`, fsync the directory. A crash at any point leaves
/// either the old file or the new one -- never a torn mix.
Status AtomicWriteFile(const std::string& path,
                       std::span<const uint8_t> bytes);

/// Same guarantee, writing `parts` back to back. Lets a snapshot stream
/// its (large) section payloads straight from their owning buffers
/// instead of concatenating the whole container in memory first.
Status AtomicWriteFileParts(
    const std::string& path,
    std::span<const std::span<const uint8_t>> parts);

/// fsync the directory containing `path`, persisting a newly created
/// directory entry (a freshly created file whose *content* is fsync'd can
/// still vanish on power loss if its directory entry never hit disk).
void SyncParentDir(const std::string& path);

}  // namespace pnw::persist

#endif  // PNW_PERSIST_SERIALIZER_H_
