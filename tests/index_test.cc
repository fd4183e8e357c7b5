#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "src/index/dram_hash_index.h"
#include "src/index/key_index.h"
#include "src/index/path_hash_index.h"
#include "src/nvm/nvm_device.h"
#include "src/util/random.h"

namespace pnw::index {
namespace {

enum class IndexKind { kDram, kPath };

struct IndexFixture {
  explicit IndexFixture(IndexKind kind) {
    if (kind == IndexKind::kPath) {
      nvm::NvmConfig config;
      config.size_bytes = PathHashIndex::StorageBytes(1024, 8);
      device = std::make_unique<nvm::NvmDevice>(config);
      index = std::make_unique<PathHashIndex>(device.get(), 0, 1024, 8);
    } else {
      index = std::make_unique<DramHashIndex>();
    }
  }
  std::unique_ptr<nvm::NvmDevice> device;
  std::unique_ptr<KeyIndex> index;
};

class KeyIndexTest : public ::testing::TestWithParam<IndexKind> {};

TEST_P(KeyIndexTest, PutGetRoundTrip) {
  IndexFixture fx(GetParam());
  ASSERT_TRUE(fx.index->Put(42, 0xdead).ok());
  auto addr = fx.index->Get(42);
  ASSERT_TRUE(addr.ok());
  EXPECT_EQ(addr.value(), 0xdeadu);
}

TEST_P(KeyIndexTest, GetMissingIsNotFound) {
  IndexFixture fx(GetParam());
  EXPECT_TRUE(fx.index->Get(7).status().IsNotFound());
}

TEST_P(KeyIndexTest, PutOverwrites) {
  IndexFixture fx(GetParam());
  ASSERT_TRUE(fx.index->Put(1, 100).ok());
  ASSERT_TRUE(fx.index->Put(1, 200).ok());
  EXPECT_EQ(fx.index->Get(1).value(), 200u);
  EXPECT_EQ(fx.index->size(), 1u);
}

TEST_P(KeyIndexTest, DeleteRemovesAndIsFlagBased) {
  IndexFixture fx(GetParam());
  ASSERT_TRUE(fx.index->Put(5, 50).ok());
  ASSERT_TRUE(fx.index->Delete(5).ok());
  EXPECT_TRUE(fx.index->Get(5).status().IsNotFound());
  EXPECT_EQ(fx.index->size(), 0u);
  EXPECT_TRUE(fx.index->Delete(5).IsNotFound());
}

TEST_P(KeyIndexTest, ReinsertAfterDelete) {
  IndexFixture fx(GetParam());
  ASSERT_TRUE(fx.index->Put(5, 50).ok());
  ASSERT_TRUE(fx.index->Delete(5).ok());
  ASSERT_TRUE(fx.index->Put(5, 70).ok());
  EXPECT_EQ(fx.index->Get(5).value(), 70u);
  EXPECT_EQ(fx.index->size(), 1u);
}

TEST_P(KeyIndexTest, ManyKeys) {
  IndexFixture fx(GetParam());
  Rng rng(77);
  std::vector<std::pair<uint64_t, uint64_t>> entries;
  for (int i = 0; i < 500; ++i) {
    entries.emplace_back(rng.Next(), rng.Next());
  }
  for (const auto& [k, v] : entries) {
    ASSERT_TRUE(fx.index->Put(k, v).ok());
  }
  for (const auto& [k, v] : entries) {
    auto got = fx.index->Get(k);
    ASSERT_TRUE(got.ok()) << "key " << k;
    EXPECT_EQ(got.value(), v);
  }
}

INSTANTIATE_TEST_SUITE_P(
    BothPlacements, KeyIndexTest,
    ::testing::Values(IndexKind::kDram, IndexKind::kPath),
    [](const ::testing::TestParamInfo<IndexKind>& info) {
      return info.param == IndexKind::kDram ? "Dram" : "PathHash";
    });

// ---------------------------------------------------------- DRAM specifics

// Memory must track peak *live* keys, not keys ever seen: a window of 2048
// keys slides over 1M fresh keys (put the newest, delete the oldest, like a
// recorder's retention window), and the arena must stay within a small
// fixed multiple of what the full window alone needed.
TEST(DramHashIndexTest, MemoryBoundedByPeakLiveKeysUnderFreshKeyChurn) {
  constexpr uint64_t kWindow = 2048;
  constexpr uint64_t kChurn = uint64_t{1} << 20;
  DramHashIndex index;
  for (uint64_t k = 0; k < kWindow; ++k) {
    ASSERT_TRUE(index.Put(k, k * 3).ok());
  }
  const util::ArenaStats peak = index.arena_stats();
  for (uint64_t k = 0; k < kChurn; ++k) {
    ASSERT_TRUE(index.Put(k + kWindow, (k + kWindow) * 3).ok());
    ASSERT_TRUE(index.Delete(k).ok());
  }
  const util::ArenaStats after = index.arena_stats();
  EXPECT_LE(after.slab_bytes, 2 * peak.slab_bytes);
  EXPECT_LE(after.live_bytes, 2 * peak.live_bytes);

  EXPECT_EQ(index.size(), kWindow);
  EXPECT_EQ(index.LiveEntries().size(), kWindow);
  for (uint64_t k = kChurn; k < kChurn + kWindow; ++k) {
    auto got = index.Get(k);
    ASSERT_TRUE(got.ok()) << "key " << k;
    EXPECT_EQ(got.value(), k * 3);
  }
  for (uint64_t k = kChurn - kWindow; k < kChurn; ++k) {
    EXPECT_TRUE(index.Get(k).status().IsNotFound()) << "key " << k;
  }
}

// ----------------------------------------------------- path-hash specifics

TEST(PathHashIndexTest, DeleteIsSingleBitFlip) {
  nvm::NvmConfig config;
  config.size_bytes = PathHashIndex::StorageBytes(256, 8);
  nvm::NvmDevice device(config);
  PathHashIndex index(&device, 0, 256, 8);
  ASSERT_TRUE(index.Put(99, 1234).ok());
  const uint64_t before = device.counters().total_bits_written;
  ASSERT_TRUE(index.Delete(99).ok());
  // Flag reset flips exactly one bit (write-friendliness of path hashing).
  EXPECT_EQ(device.counters().total_bits_written - before, 1u);
}

TEST(PathHashIndexTest, CollisionsResolveAlongPaths) {
  // A tiny root level forces heavy collisions; paths must absorb them.
  nvm::NvmConfig config;
  config.size_bytes = PathHashIndex::StorageBytes(16, 5);
  nvm::NvmDevice device(config);
  PathHashIndex index(&device, 0, 16, 5);
  size_t inserted = 0;
  for (uint64_t k = 0; k < 24; ++k) {
    if (index.Put(k, k * 10).ok()) {
      ++inserted;
    }
  }
  // Root alone holds 16; paths must have absorbed beyond-root inserts.
  EXPECT_GT(inserted, 16u);
  for (uint64_t k = 0; k < 24; ++k) {
    auto got = index.Get(k);
    if (got.ok()) {
      EXPECT_EQ(got.value(), k * 10);
    }
  }
}

TEST(PathHashIndexTest, ReportsOutOfSpaceWhenSaturated) {
  nvm::NvmConfig config;
  config.size_bytes = PathHashIndex::StorageBytes(4, 2);
  nvm::NvmDevice device(config);
  PathHashIndex index(&device, 0, 4, 2);  // at most 6 cells
  bool saw_out_of_space = false;
  for (uint64_t k = 0; k < 32 && !saw_out_of_space; ++k) {
    saw_out_of_space = index.Put(k, k).IsOutOfSpace();
  }
  EXPECT_TRUE(saw_out_of_space);
}

TEST(PathHashIndexTest, WritesLandOnDevice) {
  nvm::NvmConfig config;
  config.size_bytes = PathHashIndex::StorageBytes(256, 8);
  nvm::NvmDevice device(config);
  PathHashIndex index(&device, 0, 256, 8);
  ASSERT_TRUE(index.Put(1, 2).ok());
  EXPECT_GT(device.counters().total_bits_written, 0u);
  EXPECT_GT(device.counters().total_lines_written, 0u);
}

}  // namespace
}  // namespace pnw::index
