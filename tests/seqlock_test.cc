// Seqlock optimistic-read path: single-threaded semantics (accounting
// identity, fallback conditions) plus the torture tests the TSan CI job
// runs (the suite name carries "Concurrency" for that job's -R filter).
//
// Torture invariant: writers only ever store values whose bytes are all
// equal, so ANY mixed-byte value returned by a reader is a torn read the
// seqlock validation failed to discard. Readers additionally check the key
// round-trip (the value's fill byte is derived from the key), catching a
// lookup that validated against the wrong bucket.
#include <algorithm>
#include <atomic>
#include <cstdint>
#include <optional>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/pnw_store.h"
#include "src/core/sharded_store.h"
#include "src/util/mutex.h"

namespace pnw::core {
namespace {

constexpr size_t kValueBytes = 32;

PnwOptions SmallOptions() {
  PnwOptions options;
  options.value_bytes = kValueBytes;
  options.initial_buckets = 128;
  options.capacity_buckets = 256;
  options.num_clusters = 2;
  options.max_features = 0;
  options.training_sample_cap = 64;
  return options;
}

// All bytes equal; the fill encodes (key, version) so readers can vet both.
std::vector<uint8_t> SolidValue(uint64_t key, uint64_t version,
                                size_t value_bytes = kValueBytes) {
  return std::vector<uint8_t>(value_bytes,
                              static_cast<uint8_t>(key * 31 + version));
}

std::unique_ptr<PnwStore> BootstrappedStore(PnwOptions options, size_t n) {
  auto store = PnwStore::Open(options).value();
  std::vector<uint64_t> keys(n);
  std::vector<std::vector<uint8_t>> values(n);
  for (size_t i = 0; i < n; ++i) {
    keys[i] = i;
    values[i] = SolidValue(i, 0, options.value_bytes);
  }
  util::WriterLock lock(store->mu());
  EXPECT_TRUE(store->Bootstrap(keys, values).ok());
  return store;
}

TEST(OptimisticConcurrencyTest, OptimisticGetMatchesLockedGet) {
  auto store = BootstrappedStore(SmallOptions(), 64);
  for (uint64_t key = 0; key < 64; ++key) {
    auto fast = store->TryGetOptimistic(key);
    ASSERT_TRUE(fast.has_value()) << "uncontended optimistic Get fell back";
    ASSERT_TRUE(fast->ok());
    util::ReaderLock lock(store->mu());
    auto locked = store->Get(key);
    ASSERT_TRUE(locked.ok());
    EXPECT_EQ(fast->value(), locked.value());
  }
  // A validated miss is a real miss, accounted as one.
  auto miss = store->TryGetOptimistic(9999);
  ASSERT_TRUE(miss.has_value());
  EXPECT_TRUE(miss->status().IsNotFound());

  util::ReaderLock lock(store->mu());
  const StoreMetrics& m = store->metrics();
  EXPECT_EQ(m.gets.load(), m.optimistic_gets.load() + m.locked_gets.load());
  EXPECT_EQ(m.optimistic_gets.load(), 64u);
  EXPECT_EQ(m.locked_gets.load(), 64u);
  EXPECT_EQ(m.get_misses.load(), 1u);
}

TEST(OptimisticConcurrencyTest, FallsBackWhenUnsupportedOrDisabled) {
  // NVM path-hash index: no lock-free lookup, must decline.
  PnwOptions nvm_options = SmallOptions();
  nvm_options.index_placement = IndexPlacement::kNvmPathHash;
  auto nvm_store = BootstrappedStore(nvm_options, 32);
  EXPECT_FALSE(nvm_store->TryGetOptimistic(1).has_value());

  // Knob off: must decline even with the DRAM index.
  PnwOptions off_options = SmallOptions();
  off_options.optimistic_reads = false;
  auto off_store = BootstrappedStore(off_options, 32);
  EXPECT_FALSE(off_store->TryGetOptimistic(1).has_value());
  {
    util::ReaderLock lock(off_store->mu());
    EXPECT_EQ(off_store->metrics().optimistic_gets.load(), 0u);
  }
}

TEST(OptimisticConcurrencyTest, RefreshArenaStatsPopulatesGauges) {
  auto store = BootstrappedStore(SmallOptions(), 64);
  util::ReaderLock lock(store->mu());
  store->RefreshArenaStats();
  const StoreMetrics& m = store->metrics();
  EXPECT_GT(m.arena_slabs.load(), 0u);
  EXPECT_GE(m.arena_slab_bytes.load(), m.arena_high_water_bytes.load());
  EXPECT_GE(m.arena_high_water_bytes.load(), m.arena_live_bytes.load());
  // The device's data array alone puts the live gauge past the zone size.
  EXPECT_GE(m.arena_live_bytes.load(),
            SmallOptions().capacity_buckets * kValueBytes);
}

// Readers hammer the lock-free path while a writer churns values; torn
// reads must never validate. Also exercised: Start-Gap translation racing
// gap moves, and index replacement (SimulateCrashAndRecover) racing
// traversals of the retired index.
void RunTorture(PnwOptions options, bool crash_recover) {
  constexpr size_t kKeys = 64;
  constexpr uint64_t kWriterOps = 1500;
  auto store = BootstrappedStore(options, kKeys);

  std::atomic<bool> done{false};
  std::atomic<uint64_t> torn{0};

  const auto reader = [&]() {
    uint64_t key = 1;
    while (!done.load(std::memory_order_acquire)) {
      key = (key * 2654435761u + 1) % kKeys;
      auto fast = store->TryGetOptimistic(key);
      if (!fast.has_value()) {
        util::ReaderLock lock(store->mu());
        fast = store->Get(key);
      }
      if (!fast->ok()) {
        continue;  // transiently deleted
      }
      const std::vector<uint8_t>& value = fast->value();
      for (const uint8_t byte : value) {
        if (byte != value[0]) {
          torn.fetch_add(1);
          break;
        }
      }
    }
  };

  std::thread r1(reader), r2(reader);
  uint64_t version = 0;
  for (uint64_t op = 0; op < kWriterOps; ++op) {
    const uint64_t key = (op * 7) % kKeys;
    if (crash_recover && op % 500 == 499) {
      util::WriterLock lock(store->mu());
      ASSERT_TRUE(store->SimulateCrashAndRecover().ok());
      continue;
    }
    util::WriterLock lock(store->mu());
    if (op % 13 == 12) {
      // status-dropped: NotFound when racing a prior delete of this key
      // is part of the churn, not a failure.
      (void)store->Delete(key);
    } else {
      ++version;
      ASSERT_TRUE(
          store->Put(key, SolidValue(key, version, options.value_bytes))
              .ok());
    }
  }
  done.store(true, std::memory_order_release);
  r1.join();
  r2.join();

  EXPECT_EQ(torn.load(), 0u) << "seqlock validated a torn value";
  util::ReaderLock lock(store->mu());
  const StoreMetrics& m = store->metrics();
  EXPECT_EQ(m.gets.load(), m.optimistic_gets.load() + m.locked_gets.load());
}

TEST(OptimisticConcurrencyTest, TortureReadersVsWriter) {
  RunTorture(SmallOptions(), /*crash_recover=*/false);
}

TEST(OptimisticConcurrencyTest, TortureWithStartGapRotation) {
  PnwOptions options = SmallOptions();
  options.start_gap_wear_leveling = true;
  options.gap_write_interval = 8;  // rotate aggressively under the readers
  RunTorture(options, /*crash_recover=*/false);
}

TEST(OptimisticConcurrencyTest, TortureAcrossIndexReplacement) {
  RunTorture(SmallOptions(), /*crash_recover=*/true);
}

// 13-byte values make 21-byte buckets (8-byte key prefix + value), so most
// buckets start and end mid-word: a writer's edge-word read-modify-write
// rewrites a neighbouring bucket's bytes while optimistic readers copy that
// neighbour. The neighbour's bytes must come back intact (solid) and every
// access stays one aligned atomic word.
TEST(OptimisticConcurrencyTest, TortureOddValueSize) {
  PnwOptions options = SmallOptions();
  options.value_bytes = 13;
  RunTorture(options, /*crash_recover=*/false);
}

// Index node recycling under the readers: every writer step deletes the
// oldest key k and puts the fresh key k + kWindow, so the DRAM index keeps
// handing a just-unlinked node to a different key while optimistic lookups
// may still stand on it. Each value spells its own key in every 8-byte
// word, so a validated hit carrying any other key's value (or a torn mix)
// is caught.
TEST(OptimisticConcurrencyTest, TortureFreshKeysRecycleIndexNodes) {
  constexpr uint64_t kWindow = 64;
  constexpr uint64_t kWriterOps = 2000;
  const auto key_value = [](uint64_t key) {
    std::vector<uint8_t> value(kValueBytes);
    for (size_t i = 0; i < value.size(); ++i) {
      value[i] = static_cast<uint8_t>(key >> (8 * (i % 8)));
    }
    return value;
  };
  auto store = PnwStore::Open(SmallOptions()).value();
  {
    std::vector<uint64_t> keys(kWindow);
    std::vector<std::vector<uint8_t>> values(kWindow);
    for (uint64_t k = 0; k < kWindow; ++k) {
      keys[k] = k;
      values[k] = key_value(k);
    }
    util::WriterLock lock(store->mu());
    ASSERT_TRUE(store->Bootstrap(keys, values).ok());
  }

  std::atomic<uint64_t> oldest{0};  // window is [oldest, oldest + kWindow)
  std::atomic<bool> done{false};
  std::atomic<uint64_t> wrong{0};
  std::atomic<uint64_t> hits{0};
  const auto reader = [&](uint64_t salt) {
    uint64_t x = salt;
    uint64_t my_hits = 0;
    while (!done.load(std::memory_order_acquire) || my_hits == 0) {
      x = x * 6364136223846793005ull + 1442695040888963407ull;
      // Mostly live keys, some just expired.
      const uint64_t lo = oldest.load(std::memory_order_relaxed);
      const uint64_t key = lo + (x >> 33) % (kWindow + 8) -
                           std::min<uint64_t>(lo, 8);
      auto fast = store->TryGetOptimistic(key);
      if (!fast.has_value() || fast->status().IsNotFound()) {
        continue;
      }
      if (!fast->ok() || fast->value() != key_value(key)) {
        wrong.fetch_add(1);
        continue;
      }
      ++my_hits;
    }
    hits.fetch_add(my_hits);
  };

  std::thread r1(reader, 1), r2(reader, 2);
  for (uint64_t k = 0; k < kWriterOps; ++k) {
    util::WriterLock lock(store->mu());
    ASSERT_TRUE(store->Delete(k).ok());
    ASSERT_TRUE(store->Put(k + kWindow, key_value(k + kWindow)).ok());
    oldest.store(k + 1, std::memory_order_relaxed);
  }
  done.store(true, std::memory_order_release);
  r1.join();
  r2.join();

  EXPECT_EQ(wrong.load(), 0u) << "a validated hit carried another value";
  EXPECT_GT(hits.load(), 0u);
  util::ReaderLock lock(store->mu());
  EXPECT_EQ(store->size(), kWindow);
  const StoreMetrics& m = store->metrics();
  EXPECT_EQ(m.gets.load(), m.optimistic_gets.load() + m.locked_gets.load());
}

TEST(OptimisticConcurrencyTest, ShardedGetUsesOptimisticPath) {
  ShardedOptions options;
  options.num_shards = 2;
  options.store = SmallOptions();
  auto store = ShardedPnwStore::Open(options).value();
  std::vector<uint64_t> keys(96);
  std::vector<std::vector<uint8_t>> values(96);
  for (size_t i = 0; i < keys.size(); ++i) {
    keys[i] = i;
    values[i] = SolidValue(i, 0);
  }
  ASSERT_TRUE(store->Bootstrap(keys, values).ok());

  for (uint64_t key = 0; key < 96; ++key) {
    auto got = store->Get(key);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got.value(), SolidValue(key, 0));
  }
  auto multi = store->MultiGet(keys);
  for (size_t i = 0; i < keys.size(); ++i) {
    ASSERT_TRUE(multi[i].ok());
    EXPECT_EQ(multi[i].value(), SolidValue(keys[i], 0));
  }
  const auto agg = store->AggregatedMetrics();
  EXPECT_EQ(agg.totals.gets.load(),
            agg.totals.optimistic_gets.load() +
                agg.totals.locked_gets.load());
  // Uncontended single-thread reads: everything should have gone
  // optimistic (no writer ever raced these lookups).
  EXPECT_EQ(agg.totals.locked_gets.load(), 0u);
  EXPECT_EQ(agg.totals.optimistic_gets.load(), 2u * 96u);
  EXPECT_GT(agg.totals.arena_slabs.load(), 0u);
}

// The full public-API churn the satellite asks for: optimistic readers
// (MultiGet) vs a writer vs Checkpoint's two-phase exclusive snapshots vs
// the paced background migrator, all live at once.
TEST(OptimisticConcurrencyTest, ShardedTortureThroughPublicApi) {
  ShardedOptions options;
  options.num_shards = 2;
  options.store = SmallOptions();
  // Endurance churn under the readers: Start-Gap rotation plus the paced
  // background migrator with thresholds low enough to actually relocate.
  options.store.start_gap_wear_leveling = true;
  options.store.gap_write_interval = 8;
  options.store.migration_min_writes = 4;
  options.store.migration_hot_multiplier = 2.0;
  options.background_migration = true;
  options.migration_interval_ms = 1;
  auto store = ShardedPnwStore::Open(options).value();
  constexpr size_t kKeys = 64;
  std::vector<uint64_t> keys(kKeys);
  std::vector<std::vector<uint8_t>> values(kKeys);
  for (size_t i = 0; i < kKeys; ++i) {
    keys[i] = i;
    values[i] = SolidValue(i, 0);
  }
  ASSERT_TRUE(store->Bootstrap(keys, values).ok());
  const std::string checkpoint_dir =
      ::testing::TempDir() + "/seqlock_torture_ckpt";

  std::atomic<bool> done{false};
  std::atomic<uint64_t> torn{0};
  const auto reader = [&]() {
    uint64_t key = 3;
    std::vector<uint64_t> batch(4);
    while (!done.load(std::memory_order_acquire)) {
      for (auto& k : batch) {
        key = (key * 2654435761u + 1) % kKeys;
        k = key;
      }
      for (auto& result : store->MultiGet(batch)) {
        if (!result.ok()) {
          continue;
        }
        const auto& value = result.value();
        for (const uint8_t byte : value) {
          if (byte != value[0]) {
            torn.fetch_add(1);
            break;
          }
        }
      }
    }
  };
  std::thread r1(reader), r2(reader);
  for (uint64_t op = 0; op < 1200; ++op) {
    const uint64_t key = (op * 11) % kKeys;
    if (op % 400 == 399) {
      ASSERT_TRUE(store->Checkpoint(checkpoint_dir).ok());
      continue;
    }
    ASSERT_TRUE(store->Put(key, SolidValue(key, op + 1)).ok());
  }
  done.store(true, std::memory_order_release);
  r1.join();
  r2.join();
  store->StopBackgroundMigration();
  EXPECT_EQ(torn.load(), 0u);
  const auto agg = store->AggregatedMetrics();
  EXPECT_EQ(agg.totals.gets.load(),
            agg.totals.optimistic_gets.load() +
                agg.totals.locked_gets.load());
}

}  // namespace
}  // namespace pnw::core
