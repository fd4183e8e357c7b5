// Word-granular relaxed-atomic memcpy helpers for memory that seqlock
// optimistic readers may scan while a (lock-serialized) writer mutates it.
//
// Under the seqlock protocol the *values* a racing reader observes are
// discarded by the failed sequence validation -- but the C++ memory model
// still calls a plain-load/plain-store overlap a data race (undefined
// behavior, and a TSan report). Routing both sides through relaxed
// std::atomic_ref<uint64_t> accesses makes the race defined with zero
// fencing cost: on x86-64 and AArch64 a relaxed aligned 8-byte access
// compiles to the same mov/ldr/str as a plain one (Boehm, "Can seqlocks get
// along with programming language memory models?", MSPC'12).
//
// The contract is an *absolute 8-byte grid*: every racing access is one
// aligned word, so no mixed-size atomic access exists anywhere.
//   * A writer covering only part of a word (a head or tail) reads the whole
//     word, merges its bytes in and stores the whole word back. That
//     read-modify-write is safe because writers hold the exclusive lock --
//     no second writer can interleave -- and it rewrites the neighbouring
//     bytes with the values they already hold.
//   * A reader loads each aligned word that overlaps its range and extracts
//     the bytes it needs.
// Both sides may therefore touch up to 7 bytes on either side of the range,
// so the memory must be allocated out to whole words (NvmDevice rounds its
// array up to a multiple of 8 and aligns it to a page).
//
// Writers inside an exclusive section never race with each other, so only
// the stores (and reader-side loads) of seqlock-visible memory need these
// helpers; writer-side *loads* of that memory can stay plain.
#ifndef PNW_UTIL_ATOMIC_BYTES_H_
#define PNW_UTIL_ATOMIC_BYTES_H_

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>

namespace pnw::util {

inline constexpr size_t kAtomicWordBytes = sizeof(uint64_t);

/// Relaxed atomic load of an aligned word. (atomic_ref of a const type is a
/// C++26 feature; the const_cast is safe because load() never writes.)
inline uint64_t AtomicLoadWord(const uint64_t* word) {
  return std::atomic_ref<uint64_t>(*const_cast<uint64_t*>(word))
      .load(std::memory_order_relaxed);
}

/// Relaxed atomic store of an aligned word.
inline void AtomicStoreWord(uint64_t* word, uint64_t value) {
  std::atomic_ref<uint64_t>(*word).store(value, std::memory_order_relaxed);
}

/// Overwrite dst[0, n) -- which must lie inside one aligned word -- with
/// src[0, n) by a whole-word read-modify-write. Writer side only.
inline void AtomicStorePartialWord(uint8_t* dst, const uint8_t* src,
                                   size_t n) {
  const size_t offset =
      reinterpret_cast<uintptr_t>(dst) & (kAtomicWordBytes - 1);
  auto* word = reinterpret_cast<uint64_t*>(dst - offset);
  uint64_t merged = AtomicLoadWord(word);
  std::memcpy(reinterpret_cast<uint8_t*>(&merged) + offset, src, n);
  AtomicStoreWord(word, merged);
}

/// memcpy(dst, src, n) where dst is seqlock-visible memory: every store is
/// one aligned relaxed-atomic word.
inline void AtomicStoreBytes(uint8_t* dst, const uint8_t* src, size_t n) {
  if (n == 0) {
    return;
  }
  const size_t offset =
      reinterpret_cast<uintptr_t>(dst) & (kAtomicWordBytes - 1);
  if (offset != 0) {
    const size_t head = std::min(n, kAtomicWordBytes - offset);
    AtomicStorePartialWord(dst, src, head);
    dst += head;
    src += head;
    n -= head;
  }
  for (; n >= kAtomicWordBytes; n -= kAtomicWordBytes) {
    uint64_t word;
    std::memcpy(&word, src, kAtomicWordBytes);
    AtomicStoreWord(reinterpret_cast<uint64_t*>(dst), word);
    dst += kAtomicWordBytes;
    src += kAtomicWordBytes;
  }
  if (n != 0) {
    AtomicStorePartialWord(dst, src, n);
  }
}

/// memcpy(dst, src, n) where src is seqlock-visible memory: every load is
/// one aligned relaxed-atomic word, of which only the bytes inside
/// [src, src + n) reach dst.
inline void AtomicLoadBytes(uint8_t* dst, const uint8_t* src, size_t n) {
  if (n == 0) {
    return;
  }
  const size_t offset =
      reinterpret_cast<uintptr_t>(src) & (kAtomicWordBytes - 1);
  if (offset != 0) {
    const size_t head = std::min(n, kAtomicWordBytes - offset);
    const uint64_t word =
        AtomicLoadWord(reinterpret_cast<const uint64_t*>(src - offset));
    std::memcpy(dst, reinterpret_cast<const uint8_t*>(&word) + offset, head);
    dst += head;
    src += head;
    n -= head;
  }
  for (; n >= kAtomicWordBytes; n -= kAtomicWordBytes) {
    const uint64_t word =
        AtomicLoadWord(reinterpret_cast<const uint64_t*>(src));
    std::memcpy(dst, &word, kAtomicWordBytes);
    dst += kAtomicWordBytes;
    src += kAtomicWordBytes;
  }
  if (n != 0) {
    const uint64_t word =
        AtomicLoadWord(reinterpret_cast<const uint64_t*>(src));
    std::memcpy(dst, &word, n);
  }
}

}  // namespace pnw::util

#endif  // PNW_UTIL_ATOMIC_BYTES_H_
