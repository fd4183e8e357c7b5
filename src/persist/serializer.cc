#include "src/persist/serializer.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <utility>

namespace pnw::persist {

void BufferWriter::PutU16(uint16_t v) {
  PutU8(static_cast<uint8_t>(v));
  PutU8(static_cast<uint8_t>(v >> 8));
}

void BufferWriter::PutU32(uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    PutU8(static_cast<uint8_t>(v >> (8 * i)));
  }
}

void BufferWriter::PutU64(uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    PutU8(static_cast<uint8_t>(v >> (8 * i)));
  }
}

void BufferWriter::PutFloat(float v) { PutU32(std::bit_cast<uint32_t>(v)); }

void BufferWriter::PutDouble(double v) { PutU64(std::bit_cast<uint64_t>(v)); }

void BufferWriter::PutBytes(std::span<const uint8_t> bytes) {
  buf_.insert(buf_.end(), bytes.begin(), bytes.end());
}

void BufferWriter::PutSizedBytes(std::span<const uint8_t> bytes) {
  PutU64(bytes.size());
  PutBytes(bytes);
}

void BufferWriter::PutU16Vec(const std::vector<uint16_t>& v) {
  PutU64(v.size());
  for (uint16_t x : v) {
    PutU16(x);
  }
}

void BufferWriter::PutU32Vec(const std::vector<uint32_t>& v) {
  PutU64(v.size());
  for (uint32_t x : v) {
    PutU32(x);
  }
}

void BufferWriter::PutU64Vec(const std::vector<uint64_t>& v) {
  PutU64(v.size());
  for (uint64_t x : v) {
    PutU64(x);
  }
}

void BufferWriter::PutFloatVec(const std::vector<float>& v) {
  PutU64(v.size());
  for (float x : v) {
    PutFloat(x);
  }
}

void BufferWriter::PutDoubleVec(const std::vector<double>& v) {
  PutU64(v.size());
  for (double x : v) {
    PutDouble(x);
  }
}

Status BufferReader::Need(size_t n) {
  if (remaining() < n) {
    return Status::Corruption("serialized buffer truncated");
  }
  return Status::OK();
}

Status BufferReader::CheckedCount(uint64_t count, size_t elem_size) {
  if (elem_size != 0 && count > remaining() / elem_size) {
    return Status::Corruption("serialized element count exceeds buffer");
  }
  return Status::OK();
}

Status BufferReader::Skip(size_t n) {
  PNW_RETURN_IF_ERROR(Need(n));
  pos_ += n;
  return Status::OK();
}

Status BufferReader::GetU8(uint8_t* out) {
  PNW_RETURN_IF_ERROR(Need(1));
  *out = data_[pos_++];
  return Status::OK();
}

Status BufferReader::GetBool(bool* out) {
  uint8_t v = 0;
  PNW_RETURN_IF_ERROR(GetU8(&v));
  if (v > 1) {
    return Status::Corruption("serialized bool out of range");
  }
  *out = v != 0;
  return Status::OK();
}

Status BufferReader::GetU16(uint16_t* out) {
  PNW_RETURN_IF_ERROR(Need(2));
  *out = static_cast<uint16_t>(data_[pos_] |
                               (static_cast<uint16_t>(data_[pos_ + 1]) << 8));
  pos_ += 2;
  return Status::OK();
}

Status BufferReader::GetU32(uint32_t* out) {
  PNW_RETURN_IF_ERROR(Need(4));
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(data_[pos_ + i]) << (8 * i);
  }
  pos_ += 4;
  *out = v;
  return Status::OK();
}

Status BufferReader::GetU64(uint64_t* out) {
  PNW_RETURN_IF_ERROR(Need(8));
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(data_[pos_ + i]) << (8 * i);
  }
  pos_ += 8;
  *out = v;
  return Status::OK();
}

Status BufferReader::GetFloat(float* out) {
  uint32_t bits = 0;
  PNW_RETURN_IF_ERROR(GetU32(&bits));
  *out = std::bit_cast<float>(bits);
  return Status::OK();
}

Status BufferReader::GetDouble(double* out) {
  uint64_t bits = 0;
  PNW_RETURN_IF_ERROR(GetU64(&bits));
  *out = std::bit_cast<double>(bits);
  return Status::OK();
}

Status BufferReader::GetBytes(std::span<uint8_t> out) {
  PNW_RETURN_IF_ERROR(Need(out.size()));
  std::memcpy(out.data(), data_.data() + pos_, out.size());
  pos_ += out.size();
  return Status::OK();
}

Status BufferReader::GetSizedBytes(std::vector<uint8_t>* out) {
  uint64_t n = 0;
  PNW_RETURN_IF_ERROR(GetU64(&n));
  PNW_RETURN_IF_ERROR(CheckedCount(n, 1));
  out->resize(n);
  return GetBytes(*out);
}

Status BufferReader::GetU16Vec(std::vector<uint16_t>* out) {
  uint64_t n = 0;
  PNW_RETURN_IF_ERROR(GetU64(&n));
  PNW_RETURN_IF_ERROR(CheckedCount(n, 2));
  out->resize(n);
  for (auto& x : *out) {
    PNW_RETURN_IF_ERROR(GetU16(&x));
  }
  return Status::OK();
}

Status BufferReader::GetU32Vec(std::vector<uint32_t>* out) {
  uint64_t n = 0;
  PNW_RETURN_IF_ERROR(GetU64(&n));
  PNW_RETURN_IF_ERROR(CheckedCount(n, 4));
  out->resize(n);
  for (auto& x : *out) {
    PNW_RETURN_IF_ERROR(GetU32(&x));
  }
  return Status::OK();
}

Status BufferReader::GetU64Vec(std::vector<uint64_t>* out) {
  uint64_t n = 0;
  PNW_RETURN_IF_ERROR(GetU64(&n));
  PNW_RETURN_IF_ERROR(CheckedCount(n, 8));
  out->resize(n);
  for (auto& x : *out) {
    PNW_RETURN_IF_ERROR(GetU64(&x));
  }
  return Status::OK();
}

Status BufferReader::GetFloatVec(std::vector<float>* out) {
  uint64_t n = 0;
  PNW_RETURN_IF_ERROR(GetU64(&n));
  PNW_RETURN_IF_ERROR(CheckedCount(n, 4));
  out->resize(n);
  for (auto& x : *out) {
    PNW_RETURN_IF_ERROR(GetFloat(&x));
  }
  return Status::OK();
}

Status BufferReader::GetDoubleVec(std::vector<double>* out) {
  uint64_t n = 0;
  PNW_RETURN_IF_ERROR(GetU64(&n));
  PNW_RETURN_IF_ERROR(CheckedCount(n, 8));
  out->resize(n);
  for (auto& x : *out) {
    PNW_RETURN_IF_ERROR(GetDouble(&x));
  }
  return Status::OK();
}

Result<ReadOnlyFile> ReadOnlyFile::Open(const std::string& path) {
  ReadOnlyFile file;
  file.path_ = path;
  file.fd_ = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (file.fd_ < 0) {
    if (errno == ENOENT) {
      return Status::NotFound("no such file: " + path);
    }
    return Status::Internal("open failed for " + path + ": " +
                            std::strerror(errno));
  }
  struct stat st {};
  if (::fstat(file.fd_, &st) != 0) {
    return Status::Internal("fstat failed for " + path + ": " +
                            std::strerror(errno));
  }
  file.size_ = static_cast<uint64_t>(st.st_size);
  return file;
}

ReadOnlyFile::ReadOnlyFile(ReadOnlyFile&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)),
      size_(other.size_),
      path_(std::move(other.path_)) {}

ReadOnlyFile::~ReadOnlyFile() {
  if (fd_ >= 0) {
    // status-dropped: read-only descriptor, nothing buffered to lose.
    (void)::close(fd_);
  }
}

Result<std::vector<uint8_t>> ReadOnlyFile::Read(uint64_t offset,
                                                uint64_t n) const {
  const uint64_t begin = std::min(offset, size_);
  std::vector<uint8_t> bytes(std::min(n, size_ - begin));
  size_t got = 0;
  while (got < bytes.size()) {
    const ssize_t r = ::pread(fd_, bytes.data() + got, bytes.size() - got,
                              static_cast<off_t>(begin + got));
    if (r < 0) {
      if (errno == EINTR) {
        continue;
      }
      return Status::Internal("read failed for " + path_ + ": " +
                              std::strerror(errno));
    }
    if (r == 0) {
      break;  // the file shrank after fstat: keep what is there
    }
    got += static_cast<size_t>(r);
  }
  bytes.resize(got);
  return bytes;
}

Result<std::vector<uint8_t>> ReadFileBytes(const std::string& path) {
  auto file = ReadOnlyFile::Open(path);
  if (!file.ok()) {
    return file.status();
  }
  return file.value().Read(0, file.value().size());
}

Status AtomicWriteFile(const std::string& path,
                       std::span<const uint8_t> bytes) {
  const std::span<const uint8_t> parts[] = {bytes};
  return AtomicWriteFileParts(path, parts);
}

Status AtomicWriteFileParts(
    const std::string& path,
    std::span<const std::span<const uint8_t>> parts) {
  const std::string tmp = path + ".tmp";
  const int fd =
      ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) {
    return Status::Internal("open failed for " + tmp + ": " +
                            std::strerror(errno));
  }
  for (const auto& bytes : parts) {
    size_t written = 0;
    while (written < bytes.size()) {
      const ssize_t n =
          ::write(fd, bytes.data() + written, bytes.size() - written);
      if (n < 0) {
        if (errno == EINTR) {
          continue;
        }
        const std::string err = std::strerror(errno);
        ::close(fd);
        ::unlink(tmp.c_str());
        return Status::Internal("write failed for " + tmp + ": " + err);
      }
      written += static_cast<size_t>(n);
    }
  }
  if (::fsync(fd) != 0) {
    const std::string err = std::strerror(errno);
    ::close(fd);
    ::unlink(tmp.c_str());
    return Status::Internal("fsync failed for " + tmp + ": " + err);
  }
  ::close(fd);
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    const std::string err = std::strerror(errno);
    ::unlink(tmp.c_str());
    return Status::Internal("rename failed for " + path + ": " + err);
  }
  // Persist the rename itself.
  SyncParentDir(path);
  return Status::OK();
}

void SyncParentDir(const std::string& path) {
  const std::string dir =
      std::filesystem::path(path).parent_path().string();
  const int dirfd = ::open(dir.empty() ? "." : dir.c_str(),
                           O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (dirfd >= 0) {
    // status-dropped: directory fsync is best-effort hardening (some
    // filesystems refuse it); the data-file fsync is the durability point.
    (void)::fsync(dirfd);
    // status-dropped: read-only descriptor, nothing buffered to lose.
    (void)::close(dirfd);
  }
}

}  // namespace pnw::persist
