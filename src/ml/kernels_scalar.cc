// Scalar reference kernels + the runtime dispatch machinery.
//
// This translation unit is compiled with vectorization disabled and
// -ffp-contract=off (see src/CMakeLists.txt): the striped-lane loops below
// ARE the semantics every SIMD kernel must reproduce bit-for-bit, so the
// compiler must not fuse the multiply-adds (an FMA rounds once where the
// reference rounds twice) and should not silently re-vectorize the
// reference the SIMD tables are benchmarked against.

#include "src/util/simd.h"

#include <atomic>
#include <bit>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string_view>

#include "src/util/atomic_bytes.h"

namespace pnw::simd {

namespace {

constexpr std::array<uint64_t, 256> MakeBitSpread() {
  std::array<uint64_t, 256> table{};
  for (unsigned v = 0; v < 256; ++v) {
    uint64_t spread = 0;
    for (unsigned b = 0; b < 8; ++b) {
      spread |= static_cast<uint64_t>((v >> b) & 1) << (8 * b);
    }
    table[v] = spread;
  }
  return table;
}

float DotScalar(const float* a, const float* b, size_t n) {
  float lanes[8] = {0, 0, 0, 0, 0, 0, 0, 0};
  const size_t main = n - n % 8;
  size_t i = 0;
  for (; i < main; i += 8) {
    for (size_t l = 0; l < 8; ++l) {
      lanes[l] += a[i + l] * b[i + l];
    }
  }
  for (; i < n; ++i) {
    lanes[i - main] += a[i] * b[i];
  }
  return ReduceDotLanes(lanes);
}

size_t ArgminCentroidsScalar(const float* x, const float* centroids,
                             const float* norms, size_t k, size_t dims,
                             float* best_score) {
  size_t best = 0;
  float best_val = std::numeric_limits<float>::max();
  for (size_t c = 0; c < k; ++c) {
    const float score = norms[c] - 2.0f * DotScalar(x, centroids + c * dims,
                                                    dims);
    if (score < best_val) {
      best_val = score;
      best = c;
    }
  }
  *best_score = best_val;
  return best;
}

double DotCenteredScalar(const float* a, const float* b, size_t n) {
  double lanes[4] = {0, 0, 0, 0};
  const size_t main = n - n % 4;
  size_t i = 0;
  for (; i < main; i += 4) {
    for (size_t l = 0; l < 4; ++l) {
      // Product rounds in float (both operands are float), accumulation
      // is double: the exact promotion the historical PCA loop performed.
      lanes[l] += static_cast<double>(a[i + l] * b[i + l]);
    }
  }
  for (; i < n; ++i) {
    lanes[i - main] += static_cast<double>(a[i] * b[i]);
  }
  return ReduceCenteredLanes(lanes);
}

void EncodeAccumulateScalar(const uint8_t* value, size_t count, size_t stride,
                            size_t num_slots, uint64_t* lanes) {
  size_t slot = 0;
  for (size_t t = 0; t < count; ++t) {
    lanes[slot] += kBitSpread[value[t * stride]];
    if (++slot == num_slots) {
      slot = 0;
    }
  }
}

uint64_t PopcountBytesScalar(const uint8_t* p, size_t n) {
  uint64_t total = 0;
  size_t i = 0;
  // 8-byte strides via memcpy keep this alignment-safe.
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

uint64_t HammingBytesScalar(const uint8_t* a, const uint8_t* b, size_t n) {
  uint64_t total = 0;
  size_t i = 0;
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

uint64_t DiffStoreWordsScalar(uint64_t* resident, const uint8_t* incoming,
                              size_t words, uint64_t* dirty_mask) {
  uint64_t bits = 0;
  uint64_t mask = 0;
  for (size_t w = 0; w < words; ++w) {
    uint64_t next;
    std::memcpy(&next, incoming + w * 8, 8);
    const uint64_t diff = resident[w] ^ next;
    if (diff != 0) {
      bits += static_cast<uint64_t>(std::popcount(diff));
      mask |= uint64_t{1} << w;
    }
    util::AtomicStoreWord(resident + w, next);
  }
  *dirty_mask = mask;
  return bits;
}

/// table[0] is the classic byte-at-a-time CRC table; table[k][b] is the
/// register contribution of byte b followed by k zero bytes, so eight
/// lookups advance the register by a whole 8-byte word.
using Crc32Tables = std::array<std::array<uint32_t, 256>, 8>;

constexpr Crc32Tables MakeCrc32Tables() {
  Crc32Tables t{};
  for (uint32_t b = 0; b < 256; ++b) {
    uint32_t crc = b;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1u) ? 0xEDB88320u : 0u);
    }
    t[0][b] = crc;
  }
  for (size_t k = 1; k < 8; ++k) {
    for (uint32_t b = 0; b < 256; ++b) {
      t[k][b] = (t[k - 1][b] >> 8) ^ t[0][t[k - 1][b] & 0xFFu];
    }
  }
  return t;
}

constexpr Crc32Tables kCrc32Tables = MakeCrc32Tables();

/// Little-endian 32-bit load regardless of host byte order.
uint32_t LoadLe32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 | static_cast<uint32_t>(p[3]) << 24;
}

constexpr KernelTable kScalarTable = {
    Isa::kScalar,        DotScalar,          ArgminCentroidsScalar,
    DotCenteredScalar,   EncodeAccumulateScalar,
    PopcountBytesScalar, HammingBytesScalar, DiffStoreWordsScalar,
    Crc32Slice8,
};

/// Startup selection: PNW_KERNEL_ISA override first, then the best ISA the
/// host supports. Runs once (function-local static).
const KernelTable* SelectStartupTable() {
  if (const char* env = std::getenv("PNW_KERNEL_ISA")) {
    const std::string_view want(env);
    for (const Isa isa : {Isa::kScalar, Isa::kAvx2, Isa::kNeon}) {
      if (want == IsaName(isa)) {
        if (const KernelTable* table = TableFor(isa)) {
          return table;
        }
        break;  // named but unreachable: fall through to auto-selection
      }
    }
  }
  if (const KernelTable* avx2 = TableFor(Isa::kAvx2)) {
    return avx2;
  }
  if (const KernelTable* neon = TableFor(Isa::kNeon)) {
    return neon;
  }
  return &kScalarTable;
}

std::atomic<const KernelTable*>& ActiveTable() {
  static std::atomic<const KernelTable*> active{SelectStartupTable()};
  return active;
}

}  // namespace

const std::array<uint64_t, 256> kBitSpread = MakeBitSpread();

uint32_t Crc32Slice8(uint32_t state, const uint8_t* p, size_t n) {
  const Crc32Tables& t = kCrc32Tables;
  for (; n >= 8; p += 8, n -= 8) {
    const uint32_t lo = LoadLe32(p) ^ state;
    const uint32_t hi = LoadLe32(p + 4);
    state = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
            t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
            t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^
            t[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) {
    state = (state >> 8) ^ t[0][(state ^ *p) & 0xFFu];
  }
  return state;
}

const char* IsaName(Isa isa) {
  switch (isa) {
    case Isa::kScalar:
      return "scalar";
    case Isa::kAvx2:
      return "avx2";
    case Isa::kNeon:
      return "neon";
  }
  return "unknown";
}

// Defined by kernels_avx2.cc / kernels_neon.cc; each returns nullptr when
// its ISA is not compiled in or the running CPU lacks it.
const KernelTable* Avx2KernelTable();
const KernelTable* NeonKernelTable();

const KernelTable& ScalarKernels() { return kScalarTable; }

const KernelTable* TableFor(Isa isa) {
  switch (isa) {
    case Isa::kScalar:
      return &kScalarTable;
    case Isa::kAvx2:
      return Avx2KernelTable();
    case Isa::kNeon:
      return NeonKernelTable();
  }
  return nullptr;
}

const KernelTable& Kernels() {
  return *ActiveTable().load(std::memory_order_relaxed);
}

Isa ActiveIsa() { return Kernels().isa; }

std::vector<Isa> AvailableIsas() {
  std::vector<Isa> out;
  for (const Isa isa : {Isa::kScalar, Isa::kAvx2, Isa::kNeon}) {
    if (TableFor(isa) != nullptr) {
      out.push_back(isa);
    }
  }
  return out;
}

bool PinIsa(Isa isa) {
  const KernelTable* table = TableFor(isa);
  if (table == nullptr) {
    return false;
  }
  ActiveTable().store(table, std::memory_order_relaxed);
  return true;
}

void UnpinIsa() {
  ActiveTable().store(SelectStartupTable(), std::memory_order_relaxed);
}

}  // namespace pnw::simd
