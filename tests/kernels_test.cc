// Property suite for the runtime-dispatched SIMD kernels: every table
// reachable on this host (AvailableIsas) must be BIT-IDENTICAL to the
// striped-lane scalar reference, over random lengths and unaligned
// heads/tails. This equivalence is the load-bearing contract of the
// dispatch layer -- model predictions must not depend on the machine the
// binary happens to run on (see src/util/simd.h).
#include "src/util/simd.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <cstring>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "src/persist/crc32.h"

namespace pnw::simd {
namespace {

// Non-scalar tables reachable on this host (empty on a plain machine --
// the suite then still validates the scalar table against the byte
// references below).
std::vector<const KernelTable*> SimdTables() {
  std::vector<const KernelTable*> tables;
  for (const Isa isa : AvailableIsas()) {
    if (isa != Isa::kScalar) {
      tables.push_back(TableFor(isa));
    }
  }
  return tables;
}

// Deterministic fill helpers. Floats get a mix of magnitudes so lane
// reassociation errors (the bug class this suite exists to catch) would
// actually surface in the low mantissa bits.
void FillFloats(std::mt19937& rng, std::vector<float>& v) {
  std::uniform_real_distribution<float> dist(-8.0f, 8.0f);
  for (auto& x : v) {
    x = dist(rng) * (rng() % 7 == 0 ? 1024.0f : 1.0f);
  }
}

void FillBytes(std::mt19937& rng, std::vector<uint8_t>& v) {
  for (auto& b : v) {
    b = static_cast<uint8_t>(rng());
  }
}

TEST(KernelsTest, DotBitIdenticalAcrossIsas) {
  std::mt19937 rng(7);
  const auto& ref = ScalarKernels();
  for (const KernelTable* table : SimdTables()) {
    for (size_t n : {0, 1, 3, 7, 8, 9, 15, 16, 17, 31, 64, 100, 255, 512}) {
      for (size_t offset : {0, 1, 2, 3}) {
        std::vector<float> a(n + offset), b(n + offset);
        FillFloats(rng, a);
        FillFloats(rng, b);
        const float got = table->dot(a.data() + offset, b.data() + offset, n);
        const float want = ref.dot(a.data() + offset, b.data() + offset, n);
        // Bit-exact, not approximately-equal: compare representations.
        EXPECT_EQ(std::bit_cast<uint32_t>(got), std::bit_cast<uint32_t>(want))
            << IsaName(table->isa) << " dot n=" << n << " offset=" << offset;
      }
    }
  }
}

TEST(KernelsTest, ArgminCentroidsMatchesScalarAndBreaksTiesFirst) {
  std::mt19937 rng(11);
  const auto& ref = ScalarKernels();
  for (const KernelTable* table : SimdTables()) {
    for (size_t k : {1, 2, 3, 8, 17}) {
      for (size_t dims : {1, 4, 8, 9, 33, 128, 256}) {
        std::vector<float> x(dims), centroids(k * dims), norms(k);
        FillFloats(rng, x);
        FillFloats(rng, centroids);
        FillFloats(rng, norms);
        float got_score = 0.0f;
        float want_score = 0.0f;
        const size_t got = table->argmin_centroids(
            x.data(), centroids.data(), norms.data(), k, dims, &got_score);
        const size_t want = ref.argmin_centroids(
            x.data(), centroids.data(), norms.data(), k, dims, &want_score);
        EXPECT_EQ(got, want) << IsaName(table->isa) << " k=" << k
                             << " dims=" << dims;
        EXPECT_EQ(std::bit_cast<uint32_t>(got_score),
                  std::bit_cast<uint32_t>(want_score));
      }
    }
    // Exact ties must resolve to the FIRST index -- KMeansModel::Predict's
    // semantics, which placement replay depends on. All four rows are the
    // same centroid with the same norm, so every score is bit-identical.
    const size_t dims = 16;
    std::vector<float> x(dims), row(dims);
    FillFloats(rng, x);
    FillFloats(rng, row);
    std::vector<float> centroids;
    for (int r = 0; r < 4; ++r) {
      centroids.insert(centroids.end(), row.begin(), row.end());
    }
    std::vector<float> norms(4, 2.25f);
    float score = 0.0f;
    EXPECT_EQ(table->argmin_centroids(x.data(), centroids.data(),
                                      norms.data(), 4, dims, &score),
              0u)
        << IsaName(table->isa);
  }
}

TEST(KernelsTest, DotCenteredBitIdenticalAcrossIsas) {
  std::mt19937 rng(13);
  const auto& ref = ScalarKernels();
  for (const KernelTable* table : SimdTables()) {
    for (size_t n : {0, 1, 2, 3, 4, 5, 7, 8, 11, 16, 63, 130, 511}) {
      for (size_t offset : {0, 1, 3}) {
        std::vector<float> a(n + offset), b(n + offset);
        FillFloats(rng, a);
        FillFloats(rng, b);
        const double got =
            table->dot_centered(a.data() + offset, b.data() + offset, n);
        const double want =
            ref.dot_centered(a.data() + offset, b.data() + offset, n);
        EXPECT_EQ(std::bit_cast<uint64_t>(got), std::bit_cast<uint64_t>(want))
            << IsaName(table->isa) << " dot_centered n=" << n
            << " offset=" << offset;
      }
    }
  }
}

TEST(KernelsTest, EncodeAccumulateMatchesScalarAndBitSpread) {
  std::mt19937 rng(17);
  const auto& ref = ScalarKernels();
  for (const KernelTable* table : SimdTables()) {
    for (size_t num_slots : {1, 2, 3, 8, 51}) {
      for (size_t stride : {1, 2, 4}) {
        // Stay within the caller contract: count <= 255 * num_slots, and
        // the stream must cover (count-1)*stride + 1 bytes.
        const size_t count =
            std::min<size_t>(255 * num_slots, 37 + rng() % 300);
        std::vector<uint8_t> value((count == 0 ? 0 : (count - 1) * stride) +
                                   1);
        FillBytes(rng, value);
        std::vector<uint64_t> got(num_slots, 0), want(num_slots, 0);
        table->encode_accumulate(value.data(), count, stride, num_slots,
                                 got.data());
        ref.encode_accumulate(value.data(), count, stride, num_slots,
                              want.data());
        EXPECT_EQ(got, want) << IsaName(table->isa)
                             << " num_slots=" << num_slots
                             << " stride=" << stride;
      }
    }
  }
  // The scalar reference itself against first principles: one accumulation
  // of byte 0b10100001 into one slot puts a 1-byte in lanes 0, 5, and 7.
  std::vector<uint64_t> lanes(1, 0);
  const uint8_t byte = 0xA1;
  ref.encode_accumulate(&byte, 1, 1, 1, lanes.data());
  EXPECT_EQ(lanes[0], kBitSpread[0xA1]);
  for (int bit = 0; bit < 8; ++bit) {
    const uint64_t lane_byte = (lanes[0] >> (8 * bit)) & 0xFF;
    EXPECT_EQ(lane_byte, (byte >> bit) & 1 ? 1u : 0u) << "bit " << bit;
  }
}

TEST(KernelsTest, PopcountAndHammingMatchByteReference) {
  std::mt19937 rng(19);
  const auto isas = AvailableIsas();
  for (const Isa isa : isas) {
    const KernelTable* table = TableFor(isa);
    ASSERT_NE(table, nullptr);
    for (size_t n : {0, 1, 7, 8, 31, 32, 33, 64, 100, 257, 1024}) {
      for (size_t offset : {0, 1, 5}) {
        std::vector<uint8_t> a(n + offset), b(n + offset);
        FillBytes(rng, a);
        FillBytes(rng, b);
        uint64_t pop_ref = 0;
        uint64_t ham_ref = 0;
        for (size_t i = 0; i < n; ++i) {
          pop_ref += std::popcount(unsigned{a[offset + i]});
          ham_ref += std::popcount(unsigned(a[offset + i] ^ b[offset + i]));
        }
        EXPECT_EQ(table->popcount_bytes(a.data() + offset, n), pop_ref)
            << IsaName(isa) << " n=" << n << " offset=" << offset;
        EXPECT_EQ(
            table->hamming_bytes(a.data() + offset, b.data() + offset, n),
            ham_ref)
            << IsaName(isa) << " n=" << n << " offset=" << offset;
      }
    }
  }
}

TEST(KernelsTest, DiffStoreWordsMatchesReferenceOnEveryIsa) {
  // Every table against a byte loop: total flipped bits, one dirty-mask
  // bit per word whose bytes changed, resident bytes equal to the incoming
  // ones afterwards, and the guard word past the range untouched. Ranges
  // longer than 64 words go through the kernel in 64-word blocks, the way
  // NvmDevice::DiffWords calls it.
  constexpr size_t kBlockWords = 64;
  std::mt19937 rng(23);
  for (const Isa isa : AvailableIsas()) {
    const KernelTable* table = TableFor(isa);
    for (size_t words = 0; words <= 130; ++words) {
      for (size_t offset : {0, 1, 5}) {  // incoming may be unaligned
        std::vector<uint8_t> before(words * 8);
        FillBytes(rng, before);
        std::vector<uint8_t> incoming(offset + words * 8);
        std::copy(before.begin(), before.end(), incoming.begin() + offset);
        // About a third of the words dirty, one to eight bytes each.
        for (size_t w = 0; w < words; ++w) {
          if (rng() % 3 != 0) {
            continue;
          }
          for (size_t flips = 1 + rng() % 8; flips > 0; --flips) {
            incoming[offset + w * 8 + rng() % 8] ^=
                static_cast<uint8_t>(1u << (rng() % 8));
          }
        }
        constexpr uint64_t kGuard = 0xA5A5A5A5A5A5A5A5u;
        std::vector<uint64_t> resident(words + 1, kGuard);
        std::copy(before.begin(), before.end(),
                  reinterpret_cast<uint8_t*>(resident.data()));

        uint64_t ref_bits = 0;
        std::vector<uint64_t> ref_masks((words + kBlockWords - 1) /
                                        kBlockWords);
        for (size_t i = 0; i < before.size(); ++i) {
          const auto diff =
              static_cast<uint8_t>(before[i] ^ incoming[offset + i]);
          ref_bits += static_cast<uint64_t>(std::popcount(diff));
          if (diff != 0) {
            const size_t w = i / 8;
            ref_masks[w / kBlockWords] |= uint64_t{1} << (w % kBlockWords);
          }
        }

        uint64_t bits = 0;
        if (words == 0) {
          uint64_t mask = ~uint64_t{0};
          EXPECT_EQ(table->diff_store_words(resident.data(),
                                            incoming.data(), 0, &mask),
                    0u);
          EXPECT_EQ(mask, 0u) << IsaName(isa);
        }
        for (size_t w = 0; w < words; w += kBlockWords) {
          uint64_t mask = ~uint64_t{0};
          bits += table->diff_store_words(
              resident.data() + w, incoming.data() + offset + w * 8,
              std::min(kBlockWords, words - w), &mask);
          EXPECT_EQ(mask, ref_masks[w / kBlockWords])
              << IsaName(isa) << " words=" << words << " block=" << w;
        }
        EXPECT_EQ(bits, ref_bits) << IsaName(isa) << " words=" << words;
        const auto* stored = reinterpret_cast<const uint8_t*>(resident.data());
        EXPECT_TRUE(std::equal(stored, stored + words * 8,
                               incoming.begin() + offset))
            << IsaName(isa) << " words=" << words;
        EXPECT_EQ(resident[words], kGuard) << IsaName(isa);
      }
    }
  }
}

// Byte-at-a-time reflected CRC-32 (0xEDB88320): the textbook definition
// every crc32_update version must reproduce exactly.
uint32_t ReferenceCrc32Update(uint32_t state, const uint8_t* p, size_t n) {
  static const std::array<uint32_t, 256> table = [] {
    std::array<uint32_t, 256> t{};
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t crc = i;
      for (int bit = 0; bit < 8; ++bit) {
        crc = (crc >> 1) ^ ((crc & 1u) ? 0xEDB88320u : 0u);
      }
      t[i] = crc;
    }
    return t;
  }();
  for (size_t i = 0; i < n; ++i) {
    state = (state >> 8) ^ table[(state ^ p[i]) & 0xFFu];
  }
  return state;
}

TEST(KernelsTest, Crc32KnownAnswers) {
  const uint8_t check[] = {'1', '2', '3', '4', '5', '6', '7', '8', '9'};
  for (const Isa isa : AvailableIsas()) {
    const KernelTable* table = TableFor(isa);
    EXPECT_EQ(persist::Crc32Finish(
                  table->crc32_update(persist::kCrc32Init, nullptr, 0)),
              0u)
        << IsaName(isa);
    EXPECT_EQ(persist::Crc32Finish(
                  table->crc32_update(persist::kCrc32Init, check, 9)),
              0xCBF43926u)
        << IsaName(isa);
  }
  EXPECT_EQ(persist::Crc32({}), 0u);
  EXPECT_EQ(persist::Crc32(check), 0xCBF43926u);
}

TEST(KernelsTest, Crc32MatchesByteReferenceOnEveryIsa) {
  std::mt19937 rng(23);
  constexpr size_t kMaxLen = 70000;
  constexpr size_t kMaxOffset = 15;
  std::vector<uint8_t> buf(kMaxLen + kMaxOffset);
  FillBytes(rng, buf);
  // Short inputs, exact multiples of the 64-byte fold block, every 1..63
  // byte tail behind a folded body, and random lengths up to kMaxLen.
  std::vector<size_t> lengths;
  for (size_t n = 0; n <= 130; ++n) {
    lengths.push_back(n);
  }
  for (size_t blocks : {1, 2, 3, 16, 75, 1093}) {
    lengths.push_back(blocks * 64);
  }
  for (size_t tail = 1; tail < 64; ++tail) {
    lengths.push_back(5 * 64 + tail);
  }
  for (int i = 0; i < 60; ++i) {
    lengths.push_back(rng() % (kMaxLen + 1));
  }
  for (const size_t n : lengths) {
    const size_t offset = rng() % (kMaxOffset + 1);
    const uint8_t* p = buf.data() + offset;
    const uint32_t seed = static_cast<uint32_t>(rng());
    const uint32_t want = ReferenceCrc32Update(seed, p, n);
    for (const Isa isa : AvailableIsas()) {
      EXPECT_EQ(TableFor(isa)->crc32_update(seed, p, n), want)
          << IsaName(isa) << " crc32 n=" << n << " offset=" << offset;
    }
  }
}

TEST(KernelsTest, Crc32UpdateSplitEqualsOneCall) {
  std::mt19937 rng(29);
  std::vector<uint8_t> buf(20000);
  FillBytes(rng, buf);
  const std::span<const uint8_t> all(buf);
  const uint32_t whole = persist::Crc32(all);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<size_t> cuts(1 + rng() % 6);
    for (auto& cut : cuts) {
      cut = rng() % (buf.size() + 1);
    }
    std::sort(cuts.begin(), cuts.end());
    uint32_t state = persist::kCrc32Init;
    size_t from = 0;
    for (const size_t cut : cuts) {
      state = persist::Crc32Update(state, all.subspan(from, cut - from));
      from = cut;
    }
    state = persist::Crc32Update(state, all.subspan(from));
    EXPECT_EQ(persist::Crc32Finish(state), whole) << "trial " << trial;
  }
}

TEST(KernelsTest, PinIsaControlsDispatch) {
  ASSERT_TRUE(PinIsa(Isa::kScalar));
  EXPECT_EQ(ActiveIsa(), Isa::kScalar);
  EXPECT_EQ(Kernels().isa, Isa::kScalar);
  for (const Isa isa : AvailableIsas()) {
    EXPECT_TRUE(PinIsa(isa));
    EXPECT_EQ(ActiveIsa(), isa);
  }
  UnpinIsa();
  // Whatever startup selected, the table is live and consistent.
  EXPECT_EQ(Kernels().isa, ActiveIsa());
  // An ISA the host cannot reach must be refused without changing state.
  const Isa before = ActiveIsa();
  const auto isas = AvailableIsas();
  for (const Isa probe : {Isa::kAvx2, Isa::kNeon}) {
    if (std::find(isas.begin(), isas.end(), probe) == isas.end()) {
      EXPECT_FALSE(PinIsa(probe));
      EXPECT_EQ(ActiveIsa(), before);
    }
  }
}

}  // namespace
}  // namespace pnw::simd
