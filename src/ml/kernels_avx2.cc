// AVX2 kernels. This translation unit is compiled with -mavx2 on x86 (see
// src/CMakeLists.txt) and must therefore only be entered through the
// dispatch table: Avx2KernelTable() returns nullptr unless the *running*
// CPU reports AVX2, so no AVX2 instruction is ever reached on a host
// without it. On non-x86 targets the whole TU collapses to the nullptr
// stub.
//
// Bit-identity with the scalar reference (see src/util/simd.h): the float
// kernels use separate _mm256_mul_ps/_mm256_add_ps (never FMA -- one
// rounding per op, exactly like the scalar striped loop, which is compiled
// with -ffp-contract=off), vector lane l accumulates exactly the elements
// scalar stripe l accumulates, and both reduce through the shared
// ReduceDotLanes/ReduceCenteredLanes trees. The integer kernels are exact.
//
// The CRC-32 kernel needs PCLMULQDQ as well (the TU is compiled with
// -mpclmul next to -mavx2); it is reached only through a table the CPU's
// pclmul bit selects, and the table without it carries the scalar CRC.

#include "src/util/simd.h"

#if defined(__AVX2__)

#include <immintrin.h>

#include <bit>
#include <cstring>
#include <limits>

#include "src/util/atomic_bytes.h"

namespace pnw::simd {

namespace {

float DotAvx2(const float* a, const float* b, size_t n) {
  __m256 acc = _mm256_setzero_ps();
  const size_t main = n - n % 8;
  size_t i = 0;
  for (; i < main; i += 8) {
    const __m256 prod =
        _mm256_mul_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i));
    acc = _mm256_add_ps(acc, prod);
  }
  alignas(32) float lanes[8];
  _mm256_store_ps(lanes, acc);
  for (; i < n; ++i) {
    lanes[i - main] += a[i] * b[i];
  }
  return ReduceDotLanes(lanes);
}

size_t ArgminCentroidsAvx2(const float* x, const float* centroids,
                           const float* norms, size_t k, size_t dims,
                           float* best_score) {
  size_t best = 0;
  float best_val = std::numeric_limits<float>::max();
  for (size_t c = 0; c < k; ++c) {
    const float score =
        norms[c] - 2.0f * DotAvx2(x, centroids + c * dims, dims);
    if (score < best_val) {
      best_val = score;
      best = c;
    }
  }
  *best_score = best_val;
  return best;
}

double DotCenteredAvx2(const float* a, const float* b, size_t n) {
  __m256d acc = _mm256_setzero_pd();
  const size_t main = n - n % 4;
  size_t i = 0;
  for (; i < main; i += 4) {
    // Multiply in float (rounds exactly like the scalar reference), then
    // widen the 4 products to double and accumulate per stripe.
    const __m128 prod =
        _mm_mul_ps(_mm_loadu_ps(a + i), _mm_loadu_ps(b + i));
    acc = _mm256_add_pd(acc, _mm256_cvtps_pd(prod));
  }
  alignas(32) double lanes[4];
  _mm256_store_pd(lanes, acc);
  for (; i < n; ++i) {
    lanes[i - main] += static_cast<double>(a[i] * b[i]);
  }
  return ReduceCenteredLanes(lanes);
}

void EncodeAccumulateAvx2(const uint8_t* value, size_t count, size_t stride,
                          size_t num_slots, uint64_t* lanes) {
  // The vector form processes one full round (all slots) at a time, four
  // slots per gather+add. Narrow folds have no room for that; integer adds
  // are exact either way, so any split is bit-identical.
  const auto* spread =
      reinterpret_cast<const long long*>(kBitSpread.data());
  size_t t = 0;
  if (num_slots >= 4) {
    const size_t rounds = count / num_slots;
    const size_t slots4 = num_slots - num_slots % 4;
    for (size_t r = 0; r < rounds; ++r) {
      const size_t base = r * num_slots;
      size_t s = 0;
      for (; s < slots4; s += 4) {
        const size_t v = (base + s) * stride;
        const __m128i idx = _mm_set_epi32(
            value[v + 3 * stride], value[v + 2 * stride], value[v + stride],
            value[v]);
        const __m256i gathered = _mm256_i32gather_epi64(spread, idx, 8);
        __m256i* lane_ptr = reinterpret_cast<__m256i*>(lanes + s);
        _mm256_storeu_si256(
            lane_ptr,
            _mm256_add_epi64(_mm256_loadu_si256(lane_ptr), gathered));
      }
      for (; s < num_slots; ++s) {
        lanes[s] += kBitSpread[value[(base + s) * stride]];
      }
    }
    t = rounds * num_slots;
  }
  // Partial tail round (and the whole stream when num_slots < 4).
  size_t slot = t % num_slots;
  for (; t < count; ++t) {
    lanes[slot] += kBitSpread[value[t * stride]];
    if (++slot == num_slots) {
      slot = 0;
    }
  }
}

/// Horizontal sum of the 4 uint64 lanes of a __m256i.
uint64_t HorizontalSum64(__m256i v) {
  alignas(32) uint64_t lanes[4];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), v);
  return lanes[0] + lanes[1] + lanes[2] + lanes[3];
}

/// Mula's nibble-LUT popcount of a 32-byte vector, accumulated per 64-bit
/// lane via SAD against zero.
__m256i PopcountLanes(__m256i v) {
  const __m256i lut = _mm256_setr_epi8(
      0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,
      0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4);
  const __m256i low_mask = _mm256_set1_epi8(0x0f);
  const __m256i lo = _mm256_and_si256(v, low_mask);
  const __m256i hi = _mm256_and_si256(_mm256_srli_epi16(v, 4), low_mask);
  const __m256i counts = _mm256_add_epi8(_mm256_shuffle_epi8(lut, lo),
                                         _mm256_shuffle_epi8(lut, hi));
  return _mm256_sad_epu8(counts, _mm256_setzero_si256());
}

uint64_t PopcountBytesAvx2(const uint8_t* p, size_t n) {
  __m256i acc = _mm256_setzero_si256();
  size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    const __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p + i));
    acc = _mm256_add_epi64(acc, PopcountLanes(v));
  }
  uint64_t total = HorizontalSum64(acc);
  for (; i + 8 <= n; i += 8) {
    uint64_t w;
    std::memcpy(&w, p + i, 8);
    total += static_cast<uint64_t>(std::popcount(w));
  }
  for (; i < n; ++i) {
    total += static_cast<uint64_t>(std::popcount(p[i]));
  }
  return total;
}

uint64_t HammingBytesAvx2(const uint8_t* a, const uint8_t* b, size_t n) {
  __m256i acc = _mm256_setzero_si256();
  size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    const __m256i va =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    const __m256i vb =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i));
    acc = _mm256_add_epi64(acc, PopcountLanes(_mm256_xor_si256(va, vb)));
  }
  uint64_t total = HorizontalSum64(acc);
  for (; i + 8 <= n; i += 8) {
    uint64_t wa;
    uint64_t wb;
    std::memcpy(&wa, a + i, 8);
    std::memcpy(&wb, b + i, 8);
    total += static_cast<uint64_t>(std::popcount(wa ^ wb));
  }
  for (; i < n; ++i) {
    total += static_cast<uint64_t>(
        std::popcount(static_cast<uint8_t>(a[i] ^ b[i])));
  }
  return total;
}

uint64_t DiffStoreWordsAvx2(uint64_t* resident, const uint8_t* incoming,
                            size_t words, uint64_t* dirty_mask) {
  const __m256i zero = _mm256_setzero_si256();
  __m256i acc = zero;
  uint64_t mask = 0;
  size_t w = 0;
  // Four words per step: one XOR, the nibble-LUT popcount into per-word
  // lanes, and a 64-bit compare whose movemask yields the four clean bits.
  // The stores stay four scalar relaxed-atomic words (a vector store is not
  // an atomic access racing readers may overlap).
  for (; w + 4 <= words; w += 4) {
    const __m256i r =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(resident + w));
    const __m256i in =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(incoming + w * 8));
    const __m256i diff = _mm256_xor_si256(r, in);
    acc = _mm256_add_epi64(acc, PopcountLanes(diff));
    const auto clean = static_cast<uint64_t>(_mm256_movemask_pd(
        _mm256_castsi256_pd(_mm256_cmpeq_epi64(diff, zero))));
    mask |= (~clean & 0xFu) << w;
    for (size_t j = w; j < w + 4; ++j) {
      uint64_t next;
      std::memcpy(&next, incoming + j * 8, 8);
      util::AtomicStoreWord(resident + j, next);
    }
  }
  uint64_t bits = HorizontalSum64(acc);
  for (; w < words; ++w) {
    uint64_t next;
    std::memcpy(&next, incoming + w * 8, 8);
    const uint64_t diff = resident[w] ^ next;
    bits += static_cast<uint64_t>(std::popcount(diff));
    mask |= uint64_t{diff != 0} << w;
    util::AtomicStoreWord(resident + w, next);
  }
  *dirty_mask = mask;
  return bits;
}

/// Folds the 128-bit accumulator `acc` forward onto the 16 data bytes that
/// lie a fixed distance ahead: each 64-bit half is carry-less multiplied by
/// its constant in `k` (low half by k's low word, high by high) and both
/// products are XORed into the data. The constants are the bit-reflected
/// x^e mod P for the fold distance (Gopal et al., reflected variant).
__m128i Fold(__m128i acc, __m128i k, __m128i data) {
  const __m128i lo = _mm_clmulepi64_si128(acc, k, 0x00);
  const __m128i hi = _mm_clmulepi64_si128(acc, k, 0x11);
  return _mm_xor_si128(_mm_xor_si128(lo, hi), data);
}

__m128i Load16(const uint8_t* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

/// Carry-less-multiply CRC-32 after Gopal et al., "Fast CRC Computation for
/// Generic Polynomials Using PCLMULQDQ" (Intel, 2009), in the bit-reflected
/// domain: four 128-bit accumulators fold 64 bytes per round, collapse into
/// one, fold the remaining 16-byte blocks, shrink 128 -> 64 -> 32 bits and
/// finish with a Barrett reduction. Fewer than 64 bytes, and the last
/// n % 16 bytes, go through the scalar slice-by-8.
uint32_t Crc32Clmul(uint32_t state, const uint8_t* p, size_t n) {
  if (n < 64) {
    return Crc32Slice8(state, p, n);
  }
  // Fold constants for a 512-bit distance (four lanes) and a 128-bit one.
  const __m128i k_by4 = _mm_set_epi64x(0x01c6e41596, 0x0154442bd4);
  const __m128i k_by1 = _mm_set_epi64x(0x00ccaa009e, 0x01751997d0);
  // Constant for the 64 -> 32 step.
  const __m128i k_64 = _mm_set_epi64x(0, 0x0163cd6124);
  // Barrett reduction: P' (low) and mu = floor(x^64 / P)' (high).
  const __m128i barrett = _mm_set_epi64x(0x01f7011641, 0x01db710641);
  const __m128i low32 = _mm_setr_epi32(-1, 0, -1, 0);
  constexpr size_t kPrefetchAhead = 2048;

  __m128i a0 = _mm_xor_si128(Load16(p),
                             _mm_cvtsi32_si128(static_cast<int>(state)));
  __m128i a1 = Load16(p + 16);
  __m128i a2 = Load16(p + 32);
  __m128i a3 = Load16(p + 48);
  p += 64;
  n -= 64;
  for (; n >= 64; p += 64, n -= 64) {
    // Snapshot sections stream from DRAM, where the fold outruns the
    // hardware prefetcher: asking 2 KiB ahead doubled throughput on a
    // 64 MiB buffer (5 -> 10 GB/s, Xeon VM). Only in-buffer lines are
    // requested; the last 2 KiB were requested by earlier rounds.
    if (n >= kPrefetchAhead + 64) {
      _mm_prefetch(reinterpret_cast<const char*>(p + kPrefetchAhead),
                   _MM_HINT_T0);
    }
    a0 = Fold(a0, k_by4, Load16(p));
    a1 = Fold(a1, k_by4, Load16(p + 16));
    a2 = Fold(a2, k_by4, Load16(p + 32));
    a3 = Fold(a3, k_by4, Load16(p + 48));
  }
  __m128i acc = Fold(a0, k_by1, a1);
  acc = Fold(acc, k_by1, a2);
  acc = Fold(acc, k_by1, a3);
  for (; n >= 16; p += 16, n -= 16) {
    acc = Fold(acc, k_by1, Load16(p));
  }

  // 128 -> 64 bits: the low half times x^128 folds onto the high half.
  acc = _mm_xor_si128(_mm_srli_si128(acc, 8),
                      _mm_clmulepi64_si128(acc, k_by1, 0x10));
  // 64 -> 32 bits.
  acc = _mm_xor_si128(
      _mm_srli_si128(acc, 4),
      _mm_clmulepi64_si128(_mm_and_si128(acc, low32), k_64, 0x00));
  // Barrett: q = floor(acc * mu), crc = acc ^ q * P, in the upper word.
  __m128i q = _mm_clmulepi64_si128(_mm_and_si128(acc, low32), barrett, 0x10);
  q = _mm_clmulepi64_si128(_mm_and_si128(q, low32), barrett, 0x00);
  state = static_cast<uint32_t>(_mm_extract_epi32(_mm_xor_si128(acc, q), 1));
  return Crc32Slice8(state, p, n);
}

constexpr KernelTable MakeAvx2Table(
    uint32_t (*crc32_update)(uint32_t, const uint8_t*, size_t)) {
  return {
      Isa::kAvx2,        DotAvx2,          ArgminCentroidsAvx2,
      DotCenteredAvx2,   EncodeAccumulateAvx2,
      PopcountBytesAvx2, HammingBytesAvx2, DiffStoreWordsAvx2,
      crc32_update,
  };
}

constexpr KernelTable kAvx2Table = MakeAvx2Table(Crc32Clmul);
constexpr KernelTable kAvx2SliceCrcTable = MakeAvx2Table(Crc32Slice8);

}  // namespace

const KernelTable* Avx2KernelTable() {
  // Compile-time AVX2 (this TU) is necessary but not sufficient: the
  // binary may run on an older CPU, so gate on the runtime check too.
  static const bool supported = __builtin_cpu_supports("avx2");
  if (!supported) {
    return nullptr;
  }
  static const bool clmul = __builtin_cpu_supports("pclmul");
  return clmul ? &kAvx2Table : &kAvx2SliceCrcTable;
}

}  // namespace pnw::simd

#else  // !defined(__AVX2__)

namespace pnw::simd {

const KernelTable* Avx2KernelTable() { return nullptr; }

}  // namespace pnw::simd

#endif  // defined(__AVX2__)
