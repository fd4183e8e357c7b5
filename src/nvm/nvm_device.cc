#include "src/nvm/nvm_device.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <type_traits>

#include "src/util/atomic_bytes.h"
#include "src/util/hamming.h"
#include "src/util/simd.h"

namespace pnw::nvm {

namespace {

util::Arena::Options DeviceArenaOptions(const NvmConfig& config) {
  util::Arena::Options options;
  options.huge_pages = config.huge_pages;
  return options;
}

}  // namespace

NvmDevice::NvmDevice(const NvmConfig& config)
    : config_(config),
      latency_model_(config.latency),
      arena_(DeviceArenaOptions(config)),
      word_write_counts_((config.size_bytes + config.word_bytes - 1) /
                             config.word_bytes,
                         0),
      line_write_counts_(
          (config.size_bytes + config.cache_line_bytes - 1) /
              config.cache_line_bytes,
          0) {
  size_ = config_.size_bytes;
  // Whole words, so the word-granular accesses of util/atomic_bytes.h that
  // cover the last bytes never leave the allocation.
  const size_t alloc_bytes =
      std::max<size_t>(util::kAtomicWordBytes,
                       (size_ + util::kAtomicWordBytes - 1) &
                           ~(util::kAtomicWordBytes - 1));
  data_ = static_cast<uint8_t*>(arena_.Allocate(alloc_bytes, /*align=*/4096));
  std::memset(data_, 0, alloc_bytes);  // mmap zeroes, the fallback may not
  if (config_.track_bit_wear) {
    bit_write_counts_.assign(config_.size_bytes * 8, 0);
  }
}

Status NvmDevice::CheckRange(uint64_t addr, size_t len) const {
  if (addr + len > size_ || addr + len < addr) {
    return Status::InvalidArgument("NVM access out of bounds");
  }
  return Status::OK();
}

Status NvmDevice::ConsumeWriteFault() {
  if (fault_count_ == 0) {
    return Status::OK();
  }
  if (fault_skip_ > 0) {
    --fault_skip_;
    return Status::OK();
  }
  --fault_count_;
  return Status::Internal("injected NVM write fault");
}

Status NvmDevice::Read(uint64_t addr, std::span<uint8_t> out) {
  PNW_RETURN_IF_ERROR(CheckRange(addr, out.size()));
  std::memcpy(out.data(), data_ + addr, out.size());
  const uint64_t first_line = addr / config_.cache_line_bytes;
  const uint64_t last_line =
      out.empty() ? first_line
                  : (addr + out.size() - 1) / config_.cache_line_bytes;
  const uint64_t lines = last_line - first_line + 1;
  counters_.total_lines_read += lines;
  counters_.total_read_ops += 1;
  counters_.total_latency_ns += latency_model_.NvmReadCostNs(lines);
  return Status::OK();
}

std::span<const uint8_t> NvmDevice::Peek(uint64_t addr, size_t len) const {
  if (!CheckRange(addr, len).ok()) {
    return {};
  }
  return std::span<const uint8_t>(data_ + addr, len);
}

double NvmDevice::ReadCostNs(uint64_t addr, size_t len) const {
  // Same line-spanning arithmetic as Read(), so a Peek+ReadCostNs pair is
  // accounted identically to the serialized Read() path.
  const uint64_t first_line = addr / config_.cache_line_bytes;
  const uint64_t last_line =
      len == 0 ? first_line : (addr + len - 1) / config_.cache_line_bytes;
  return latency_model_.NvmReadCostNs(last_line - first_line + 1);
}

Result<WriteResult> NvmDevice::WriteConventional(
    uint64_t addr, std::span<const uint8_t> data) {
  PNW_RETURN_IF_ERROR(CheckRange(addr, data.size()));
  PNW_RETURN_IF_ERROR(ConsumeWriteFault());
  WriteResult result;
  result.bits_written = data.size() * 8;

  // Every word and line covered by the range is rewritten.
  const uint64_t first_word = addr / config_.word_bytes;
  const uint64_t last_word = data.empty()
                                 ? first_word
                                 : (addr + data.size() - 1) / config_.word_bytes;
  const uint64_t first_line = addr / config_.cache_line_bytes;
  const uint64_t last_line =
      data.empty() ? first_line
                   : (addr + data.size() - 1) / config_.cache_line_bytes;
  result.words_written = data.empty() ? 0 : last_word - first_word + 1;
  result.lines_written = data.empty() ? 0 : last_line - first_line + 1;

  if (!data.empty()) {
    for (uint64_t w = first_word; w <= last_word; ++w) {
      ++word_write_counts_[w];
    }
    for (uint64_t l = first_line; l <= last_line; ++l) {
      ++line_write_counts_[l];
    }
    if (config_.track_bit_wear) {
      // Bulk increment of the contiguous bit range -- a conventional write
      // wears every covered cell, so no per-bit predicate is needed and
      // the loop reduces to += 1 over a dense slice (auto-vectorizable).
      const auto first = bit_write_counts_.begin() +
                         static_cast<ptrdiff_t>(addr * 8);
      const auto last = first + static_cast<ptrdiff_t>(data.size() * 8);
      for (auto it = first; it != last; ++it) {
        ++*it;
      }
    }
  }
  util::AtomicStoreBytes(data_ + addr, data.data(), data.size());

  result.latency_ns = latency_model_.NvmWriteCostNs(result.lines_written);
  counters_.total_bits_written += result.bits_written;
  counters_.total_words_written += result.words_written;
  counters_.total_lines_written += result.lines_written;
  counters_.total_write_ops += 1;
  counters_.total_payload_bits += data.size() * 8;
  counters_.total_latency_ns += result.latency_ns;
  return result;
}

void NvmDevice::AttributeBitWear(uint64_t addr, const uint8_t* incoming,
                                 size_t len) {
  // Rare, memory-heavy mode: attribute changed bits bytewise (endian-
  // independent) before the resident bytes are overwritten.
  for (size_t j = 0; j < len; ++j) {
    uint8_t d = static_cast<uint8_t>(data_[addr + j] ^ incoming[j]);
    while (d) {
      const int bit = std::countr_zero(d);
      ++bit_write_counts_[(addr + j) * 8 + static_cast<uint64_t>(bit)];
      d = static_cast<uint8_t>(d & (d - 1));
    }
  }
}

void NvmDevice::DiffWords(uint64_t addr, std::span<const uint8_t> data,
                          WriteResult* result) {
  // Word-at-a-time on the device's absolute 8-byte grid (data_ is page
  // aligned): the fully covered words go through the fused
  // diff_store_words kernel in blocks of up to 64, which XORs, popcounts,
  // reports one dirty bit per word and stores every word as one relaxed
  // atomic (the seqlock contract of util/atomic_bytes.h). A partial head or
  // tail word is merged into a copy of its resident word and sent through
  // the same kernel as a one-word block, so equal bytes XOR to zero and the
  // kernel's whole-word store is the read-modify-write. Because a word
  // never straddles a cache line here (8 | cache_line_bytes), per-word line
  // attribution is exact, and because blocks and the words of a mask are
  // visited in address order the `prev_line` dedup reproduces the byte
  // loop's line counting.
  constexpr size_t kWord = util::kAtomicWordBytes;
  constexpr size_t kBlockWords = 64;  // one bit per word of a dirty mask
  const auto diff_store = simd::Kernels().diff_store_words;
  auto* const words = reinterpret_cast<uint64_t*>(data_);
  const uint64_t end = addr + data.size();
  uint64_t prev_line = UINT64_MAX;

  // Diff-and-store `count` words from word index `first`, then account the
  // dirty ones.
  auto store_block = [&](uint64_t first, const uint8_t* incoming,
                         size_t count) {
    if (config_.track_bit_wear) {
      AttributeBitWear(first * kWord, incoming, count * kWord);
    }
    uint64_t mask = 0;
    result->bits_written += diff_store(words + first, incoming, count, &mask);
    for (; mask != 0; mask &= mask - 1) {
      const uint64_t w = first + static_cast<uint64_t>(std::countr_zero(mask));
      ++result->words_written;
      ++word_write_counts_[w];
      const uint64_t line = w * kWord / config_.cache_line_bytes;
      if (line != prev_line) {
        ++result->lines_written;
        ++line_write_counts_[line];
        prev_line = line;
      }
    }
  };
  // Bytes [lo, hi) of one word: merge them into the resident word.
  auto store_partial = [&](uint64_t lo, uint64_t hi) {
    const uint64_t w = lo / kWord;
    uint64_t merged = words[w];
    std::memcpy(reinterpret_cast<uint8_t*>(&merged) + (lo - w * kWord),
                data.data() + (lo - addr), hi - lo);
    store_block(w, reinterpret_cast<const uint8_t*>(&merged), 1);
  };

  // Word grid split: at most one partial head word, a run of fully covered
  // words, at most one partial tail word. A range inside a single word
  // (full_begin > full_end) is one partial word.
  const uint64_t full_begin = (addr + kWord - 1) / kWord;
  const uint64_t full_end = end / kWord;
  if (full_begin > full_end) {
    store_partial(addr, end);
    return;
  }
  if (addr < full_begin * kWord) {
    store_partial(addr, full_begin * kWord);
  }
  for (uint64_t w = full_begin; w < full_end; w += kBlockWords) {
    store_block(w, data.data() + (w * kWord - addr),
                std::min<uint64_t>(kBlockWords, full_end - w));
  }
  if (full_end * kWord < end) {
    store_partial(full_end * kWord, end);
  }
}

void NvmDevice::DiffBytesReference(uint64_t addr,
                                   std::span<const uint8_t> data,
                                   WriteResult* result) {
  // The track_bit_wear branch is hoisted out of the per-byte loop: the
  // shared loop body is stamped out twice via a compile-time flag, so the
  // common (untracked) configuration never tests the predicate per byte.
  auto diff_bytes = [&](auto track_bits) {
    uint64_t prev_word = UINT64_MAX;
    uint64_t prev_line = UINT64_MAX;
    for (size_t i = 0; i < data.size(); ++i) {
      const uint8_t old_byte = data_[addr + i];
      const uint8_t new_byte = data[i];
      const uint8_t diff = old_byte ^ new_byte;
      if (diff == 0) {
        continue;
      }
      result->bits_written += std::popcount(diff);
      const uint64_t word = (addr + i) / config_.word_bytes;
      if (word != prev_word) {
        ++result->words_written;
        ++word_write_counts_[word];
        prev_word = word;
      }
      const uint64_t line = (addr + i) / config_.cache_line_bytes;
      if (line != prev_line) {
        ++result->lines_written;
        ++line_write_counts_[line];
        prev_line = line;
      }
      if constexpr (track_bits.value) {
        uint8_t d = diff;
        while (d) {
          const int bit = std::countr_zero(d);
          ++bit_write_counts_[(addr + i) * 8 + static_cast<uint64_t>(bit)];
          d = static_cast<uint8_t>(d & (d - 1));
        }
      }
      util::AtomicStoreBytes(&data_[addr + i], &new_byte, 1);
    }
  };
  if (config_.track_bit_wear) {
    diff_bytes(std::true_type{});
  } else {
    diff_bytes(std::false_type{});
  }
}

Result<WriteResult> NvmDevice::WriteDifferential(
    uint64_t addr, std::span<const uint8_t> data) {
  PNW_RETURN_IF_ERROR(CheckRange(addr, data.size()));
  PNW_RETURN_IF_ERROR(ConsumeWriteFault());
  WriteResult result;
  if (data.empty()) {
    return result;
  }

  const uint64_t first_line = addr / config_.cache_line_bytes;
  const uint64_t last_line = (addr + data.size() - 1) / config_.cache_line_bytes;
  // Read-before-write: the old content of every covered line is read once.
  result.lines_read = last_line - first_line + 1;

  if (config_.word_diff_writes && config_.word_bytes == 8 &&
      config_.cache_line_bytes % 8 == 0 && config_.cache_line_bytes >= 8) {
    DiffWords(addr, data, &result);
  } else {
    DiffBytesReference(addr, data, &result);
  }

  result.latency_ns = latency_model_.NvmReadCostNs(result.lines_read) +
                      latency_model_.NvmWriteCostNs(result.lines_written);
  counters_.total_bits_written += result.bits_written;
  counters_.total_words_written += result.words_written;
  counters_.total_lines_written += result.lines_written;
  counters_.total_lines_read += result.lines_read;
  counters_.total_write_ops += 1;
  counters_.total_payload_bits += data.size() * 8;
  counters_.total_latency_ns += result.latency_ns;
  return result;
}

Status NvmDevice::RestoreState(std::span<const uint8_t> contents,
                               const NvmCounters& counters,
                               std::span<const uint32_t> word_counts,
                               std::span<const uint32_t> line_counts,
                               std::span<const uint16_t> bit_counts) {
  if (contents.size() != size_ ||
      word_counts.size() != word_write_counts_.size() ||
      line_counts.size() != line_write_counts_.size() ||
      bit_counts.size() != bit_write_counts_.size()) {
    return Status::Corruption(
        "checkpointed device state does not match this device's geometry");
  }
  util::AtomicStoreBytes(data_, contents.data(), contents.size());
  std::copy(word_counts.begin(), word_counts.end(),
            word_write_counts_.begin());
  std::copy(line_counts.begin(), line_counts.end(),
            line_write_counts_.begin());
  std::copy(bit_counts.begin(), bit_counts.end(), bit_write_counts_.begin());
  counters_ = counters;
  return Status::OK();
}

void NvmDevice::ResetCounters() {
  counters_ = NvmCounters{};
  std::fill(word_write_counts_.begin(), word_write_counts_.end(), 0);
  std::fill(line_write_counts_.begin(), line_write_counts_.end(), 0);
  std::fill(bit_write_counts_.begin(), bit_write_counts_.end(), 0);
}

}  // namespace pnw::nvm
