#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <string>
#include <span>
#include <thread>
#include <vector>

#include "src/core/pnw_store.h"
#include "src/util/bitvec.h"
#include "src/util/random.h"

namespace pnw::core {
namespace {

PnwOptions SmallOptions() {
  PnwOptions options;
  options.value_bytes = 16;
  options.initial_buckets = 64;
  options.capacity_buckets = 128;
  options.num_clusters = 2;
  options.max_features = 0;
  options.training_sample_cap = 64;
  return options;
}

std::vector<uint8_t> GroupValue(int group, uint8_t tweak) {
  std::vector<uint8_t> v(16, group == 0 ? 0x00 : 0xff);
  v[0] ^= tweak;
  return v;
}

/// Bootstrap with two obvious content groups under keys 0..n-1.
std::unique_ptr<PnwStore> MakeBootstrappedStore(PnwOptions options,
                                                size_t n = 32) {
  auto store = PnwStore::Open(options).value();
  std::vector<uint64_t> keys(n);
  std::vector<std::vector<uint8_t>> values(n);
  for (size_t i = 0; i < n; ++i) {
    keys[i] = i;
    values[i] = GroupValue(i % 2, static_cast<uint8_t>(i / 2));
  }
  EXPECT_TRUE(store->Bootstrap(keys, values).ok());
  return store;
}

TEST(PnwStoreTest, OpenValidatesOptions) {
  PnwOptions bad = SmallOptions();
  bad.value_bytes = 0;
  EXPECT_TRUE(PnwStore::Open(bad).status().IsInvalidArgument());
  bad = SmallOptions();
  bad.capacity_buckets = 8;  // < initial_buckets
  EXPECT_TRUE(PnwStore::Open(bad).status().IsInvalidArgument());
  bad = SmallOptions();
  bad.load_factor = 1.5;
  EXPECT_TRUE(PnwStore::Open(bad).status().IsInvalidArgument());
}

TEST(PnwStoreTest, OpsRequireBootstrap) {
  auto store = PnwStore::Open(SmallOptions()).value();
  const std::vector<uint8_t> v(16, 0);
  EXPECT_TRUE(store->Put(1, v).IsFailedPrecondition());
  EXPECT_TRUE(store->Delete(1).IsFailedPrecondition());
}

TEST(PnwStoreTest, BootstrapTrainsModelAndIndexesKeys) {
  auto store = MakeBootstrappedStore(SmallOptions());
  EXPECT_NE(store->model(), nullptr);
  EXPECT_EQ(store->size(), 32u);
  auto value = store->Get(3);
  ASSERT_TRUE(value.ok());
  EXPECT_EQ(value.value(), GroupValue(1, 1));
}

TEST(PnwStoreTest, PutGetDeleteLifecycle) {
  auto store = MakeBootstrappedStore(SmallOptions());
  const auto v = GroupValue(0, 0x55);
  ASSERT_TRUE(store->Put(100, v).ok());
  EXPECT_EQ(store->Get(100).value(), v);
  ASSERT_TRUE(store->Delete(100).ok());
  EXPECT_TRUE(store->Get(100).status().IsNotFound());
  EXPECT_TRUE(store->Delete(100).IsNotFound());
}

TEST(PnwStoreTest, ValueSizeValidated) {
  auto store = MakeBootstrappedStore(SmallOptions());
  const std::vector<uint8_t> wrong(8, 0);
  EXPECT_TRUE(store->Put(100, wrong).IsInvalidArgument());
}

TEST(PnwStoreTest, PutOfExistingKeyActsAsUpdate) {
  auto store = MakeBootstrappedStore(SmallOptions());
  const auto v1 = GroupValue(0, 1);
  const auto v2 = GroupValue(1, 2);
  ASSERT_TRUE(store->Put(200, v1).ok());
  ASSERT_TRUE(store->Put(200, v2).ok());
  EXPECT_EQ(store->Get(200).value(), v2);
  EXPECT_GE(store->metrics().updates, 1u);
}

TEST(PnwStoreTest, SimilarValueLandsOnSimilarResidue) {
  // Delete a group-0 key and a group-1 key, then put a group-0 value: the
  // model must steer it onto the freed group-0 bucket, flipping few bits.
  auto store = MakeBootstrappedStore(SmallOptions());
  store->ResetWearAndMetrics();
  ASSERT_TRUE(store->Delete(0).ok());  // group 0 residue freed
  ASSERT_TRUE(store->Delete(1).ok());  // group 1 residue freed
  ASSERT_TRUE(store->Put(300, GroupValue(0, 0x01)).ok());
  // 16-byte value over a same-group residue: only tweak bits + key bits
  // differ. Group mismatch would flip ~16*8=128 value bits.
  EXPECT_LT(store->metrics().put_bits_written, 60u);
  EXPECT_EQ(store->metrics().pool_fallbacks, 0u);
}

TEST(PnwStoreTest, EnduranceUpdateRelocates) {
  PnwOptions options = SmallOptions();
  options.update_mode = UpdateMode::kEnduranceFirst;
  auto store = MakeBootstrappedStore(options);
  ASSERT_TRUE(store->Put(400, GroupValue(0, 3)).ok());
  ASSERT_TRUE(store->Update(400, GroupValue(1, 3)).ok());
  EXPECT_EQ(store->Get(400).value(), GroupValue(1, 3));
}

TEST(PnwStoreTest, LatencyFirstUpdateWritesInPlace) {
  PnwOptions options = SmallOptions();
  options.update_mode = UpdateMode::kLatencyFirst;
  auto store = MakeBootstrappedStore(options);
  ASSERT_TRUE(store->Put(500, GroupValue(0, 1)).ok());
  const uint64_t deletes_before = store->metrics().deletes;
  ASSERT_TRUE(store->Update(500, GroupValue(0, 2)).ok());
  EXPECT_EQ(store->metrics().deletes, deletes_before);  // no delete+put
  EXPECT_EQ(store->Get(500).value(), GroupValue(0, 2));
}

TEST(PnwStoreTest, ExtendsDataZoneWhenLoadFactorCrossed) {
  PnwOptions options = SmallOptions();
  options.initial_buckets = 32;
  options.capacity_buckets = 128;
  options.load_factor = 0.75;
  auto store = MakeBootstrappedStore(options, 16);
  // Fill past the threshold: extension must kick in rather than failing.
  for (uint64_t k = 0; k < 60; ++k) {
    ASSERT_TRUE(store->Put(1000 + k, GroupValue(k % 2, 7)).ok()) << k;
  }
  EXPECT_GT(store->active_buckets(), 32u);
  EXPECT_GE(store->metrics().extensions, 1u);
  EXPECT_EQ(store->size(), 16u + 60u);
}

TEST(PnwStoreTest, OutOfSpaceAtCapacity) {
  PnwOptions options = SmallOptions();
  options.initial_buckets = 16;
  options.capacity_buckets = 16;
  auto store = MakeBootstrappedStore(options, 16);
  // Every bucket is occupied and nothing was deleted.
  EXPECT_TRUE(
      store->Put(999, GroupValue(0, 1)).IsOutOfSpace());
}

TEST(PnwStoreTest, DeleteRecyclesAddressForReuse) {
  PnwOptions options = SmallOptions();
  options.initial_buckets = 16;
  options.capacity_buckets = 16;
  auto store = MakeBootstrappedStore(options, 16);
  ASSERT_TRUE(store->Delete(5).ok());
  EXPECT_TRUE(store->Put(999, GroupValue(1, 1)).ok());
}

TEST(PnwStoreTest, MetricsTrackOperations) {
  auto store = MakeBootstrappedStore(SmallOptions());
  store->ResetWearAndMetrics();
  ASSERT_TRUE(store->Put(600, GroupValue(0, 9)).ok());
  // status-dropped: only the metrics side effect matters here.
  (void)store->Get(600);
  ASSERT_TRUE(store->Delete(600).ok());
  const auto& m = store->metrics();
  EXPECT_EQ(m.puts, 1u);
  EXPECT_EQ(m.gets, 1u);
  EXPECT_EQ(m.deletes, 1u);
  EXPECT_GT(m.put_payload_bits, 0u);
  EXPECT_GT(m.put_device_ns, 0.0);
  EXPECT_GT(m.BitUpdatesPer512(), 0.0);
}

TEST(PnwStoreTest, GetMissCountsAsMissNotFailure) {
  auto store = MakeBootstrappedStore(SmallOptions());
  store->ResetWearAndMetrics();
  EXPECT_TRUE(store->Get(9999).status().IsNotFound());
  EXPECT_TRUE(store->Get(9998).status().IsNotFound());
  ASSERT_TRUE(store->Get(1).ok());
  const auto& m = store->metrics();
  EXPECT_EQ(m.gets, 1u);
  EXPECT_EQ(m.get_misses, 2u);
  // Misses are an expected workload outcome, not an operation failure:
  // failed_ops stays with the write path.
  EXPECT_EQ(m.failed_ops, 0u);
  // An index miss never touched the device, so no read time is charged.
  EXPECT_GT(m.get_device_ns, 0.0);  // the hit paid its bucket read
}

TEST(PnwStoreTest, KeyMismatchGetChargesDeviceAndCountsMiss) {
  // Corrupt the stored key bytes of key 0's bucket so the index points at
  // a bucket whose resident key no longer matches: the GET must surface
  // Internal, count a miss, and still charge the device read it performed.
  auto store = MakeBootstrappedStore(SmallOptions());
  store->ResetWearAndMetrics();
  const uint64_t wrong_key = 0xdeadbeefULL;
  std::vector<uint8_t> key_bytes(8);
  std::memcpy(key_bytes.data(), &wrong_key, 8);
  ASSERT_TRUE(
      store->device().WriteConventional(store->BucketAddr(0), key_bytes).ok());
  const auto got = store->Get(0);
  EXPECT_TRUE(got.status().IsInternal());
  const auto& m = store->metrics();
  EXPECT_EQ(m.gets, 0u);
  EXPECT_EQ(m.get_misses, 1u);
  EXPECT_GT(m.get_device_ns, 0.0);  // the mismatch path already paid the read
}

TEST(PnwStoreTest, MultiGetMatchesGetAndAccountsPerKey) {
  auto store = MakeBootstrappedStore(SmallOptions());
  store->ResetWearAndMetrics();

  // Empty batch: no results, no accounting.
  EXPECT_TRUE(store->MultiGet({}).empty());
  EXPECT_EQ(store->metrics().gets, 0u);

  // Mixed batch with duplicates and misses, results in key order.
  const std::vector<uint64_t> keys = {1, 9999, 2, 1, 12345};
  const auto results = store->MultiGet(keys);
  ASSERT_EQ(results.size(), keys.size());
  EXPECT_EQ(results[0].value(), GroupValue(1, 0));
  EXPECT_TRUE(results[1].status().IsNotFound());
  EXPECT_EQ(results[2].value(), GroupValue(0, 1));
  EXPECT_EQ(results[3].value(), GroupValue(1, 0));
  EXPECT_TRUE(results[4].status().IsNotFound());
  EXPECT_EQ(store->metrics().gets, 3u);
  EXPECT_EQ(store->metrics().get_misses, 2u);
}

// --- PR 5: the batched write path.

TEST(PnwStoreTest, MultiPutMatchesSequentialPutsExactly) {
  // The same (key, value) stream through MultiPut and through per-op Puts
  // must produce identical stores: same placements, same device wear, same
  // operation metrics. Batch prediction is the same model over the same
  // values, so placement is deterministic either way.
  auto batch_store = MakeBootstrappedStore(SmallOptions());
  auto serial_store = MakeBootstrappedStore(SmallOptions());

  std::vector<uint64_t> keys;
  std::vector<std::vector<uint8_t>> values;
  for (size_t i = 0; i < 20; ++i) {
    // Mix of fresh keys and overwrites of bootstrapped keys (upgrade to
    // endurance-first UPDATE), plus an in-batch duplicate below.
    keys.push_back(i % 3 == 0 ? i : 200 + i);
    values.push_back(GroupValue(static_cast<int>(i % 2),
                                static_cast<uint8_t>(40 + i)));
  }
  keys.push_back(keys[4]);  // duplicate within the batch -> second is UPDATE
  values.push_back(GroupValue(1, 0x77));

  const auto statuses = batch_store->MultiPut(keys, values);
  ASSERT_EQ(statuses.size(), keys.size());
  for (size_t i = 0; i < statuses.size(); ++i) {
    EXPECT_TRUE(statuses[i].ok()) << "slot " << i;
    EXPECT_TRUE(serial_store->Put(keys[i], values[i]).ok()) << "slot " << i;
  }

  for (size_t i = 0; i < keys.size(); ++i) {
    auto got = batch_store->Get(keys[i]);
    ASSERT_TRUE(got.ok());
    // The duplicate key's final value is the last slot's.
    if (keys[i] != keys[4] || i == keys.size() - 1) {
      EXPECT_EQ(got.value(), values[i]);
    }
  }
  const StoreMetrics& bm = batch_store->metrics();
  const StoreMetrics& sm = serial_store->metrics();
  EXPECT_EQ(bm.puts, sm.puts);
  EXPECT_EQ(bm.updates, sm.updates);
  EXPECT_EQ(bm.deletes, sm.deletes);
  EXPECT_EQ(bm.put_bits_written, sm.put_bits_written);
  EXPECT_EQ(bm.put_lines_written, sm.put_lines_written);
  EXPECT_EQ(bm.put_words_written, sm.put_words_written);
  EXPECT_TRUE(bm.PlacementAttributionConsistent());
  EXPECT_EQ(batch_store->device().counters().total_bits_written,
            serial_store->device().counters().total_bits_written);
}

TEST(PnwStoreTest, MultiPutSlotStatuses) {
  auto store = MakeBootstrappedStore(SmallOptions());
  const std::vector<uint64_t> keys = {300, 301, 302};
  std::vector<std::vector<uint8_t>> values = {
      GroupValue(0, 1), std::vector<uint8_t>(7, 0xaa),  // wrong size
      GroupValue(1, 2)};
  const auto statuses = store->MultiPut(keys, values);
  ASSERT_EQ(statuses.size(), 3u);
  EXPECT_TRUE(statuses[0].ok());
  EXPECT_TRUE(statuses[1].IsInvalidArgument());
  EXPECT_TRUE(statuses[2].ok());
  EXPECT_TRUE(store->Get(300).ok());
  EXPECT_TRUE(store->Get(301).status().IsNotFound());
  EXPECT_TRUE(store->Get(302).ok());
}

TEST(PnwStoreTest, MultiPutSizeMismatchAndEmptyBatch) {
  auto store = MakeBootstrappedStore(SmallOptions());
  const std::vector<uint64_t> keys = {1, 2};
  const std::vector<std::vector<uint8_t>> one_value = {GroupValue(0, 0)};
  const auto mismatched = store->MultiPut(keys, one_value);
  ASSERT_EQ(mismatched.size(), 2u);
  EXPECT_TRUE(mismatched[0].IsInvalidArgument());
  EXPECT_TRUE(store->MultiPut({}, std::span<const std::vector<uint8_t>>{})
                  .empty());
}

TEST(PnwStoreTest, MultiPutRequiresBootstrap) {
  auto store = PnwStore::Open(SmallOptions()).value();
  const std::vector<uint64_t> keys = {1};
  const std::vector<std::vector<uint8_t>> values = {GroupValue(0, 0)};
  const auto statuses = store->MultiPut(keys, values);
  ASSERT_EQ(statuses.size(), 1u);
  EXPECT_TRUE(statuses[0].IsFailedPrecondition());
}

TEST(PnwStoreTest, MultiPutFaultInjectionFailsSlotAndRollsBack) {
  auto store = MakeBootstrappedStore(SmallOptions());
  const size_t free_before = store->pool().FreeCount();
  // Fail the payload write of the second slot only (slot 1's first device
  // write); slots 0 and 2 must land normally and the acquired address of
  // slot 1 must return to the pool.
  store->device().InjectWriteFaults(/*skip=*/3, /*count=*/1);
  const std::vector<uint64_t> keys = {400, 401, 402};
  const std::vector<std::vector<uint8_t>> values = {
      GroupValue(0, 3), GroupValue(0, 4), GroupValue(1, 5)};
  const auto statuses = store->MultiPut(keys, values);
  store->device().InjectWriteFaults(0, 0);
  ASSERT_EQ(statuses.size(), 3u);
  EXPECT_TRUE(statuses[0].ok());
  EXPECT_FALSE(statuses[1].ok());
  EXPECT_TRUE(statuses[2].ok());
  EXPECT_EQ(store->metrics().failed_ops, 1u);
  EXPECT_TRUE(store->Get(401).status().IsNotFound());
  // Two slots consumed a free address; the failed one was reinserted.
  EXPECT_EQ(store->pool().FreeCount(), free_before - 2);
  EXPECT_TRUE(store->metrics().PlacementAttributionConsistent());
}

TEST(PnwStoreTest, CrashRecoveryRestoresDramIndex) {
  auto store = MakeBootstrappedStore(SmallOptions());
  ASSERT_TRUE(store->Put(700, GroupValue(0, 4)).ok());
  ASSERT_TRUE(store->Delete(3).ok());
  const size_t size_before = store->size();
  ASSERT_TRUE(store->SimulateCrashAndRecover().ok());
  EXPECT_EQ(store->size(), size_before);
  EXPECT_EQ(store->Get(700).value(), GroupValue(0, 4));
  EXPECT_TRUE(store->Get(3).status().IsNotFound());
  EXPECT_NE(store->model(), nullptr);
  // Freed bucket is usable again post-recovery.
  EXPECT_TRUE(store->Put(701, GroupValue(1, 4)).ok());
}

TEST(PnwStoreTest, NvmIndexPlacementChargesIndexWrites) {
  PnwOptions dram = SmallOptions();
  PnwOptions nvm_index = SmallOptions();
  nvm_index.index_placement = IndexPlacement::kNvmPathHash;
  auto store_dram = MakeBootstrappedStore(dram);
  auto store_nvm = MakeBootstrappedStore(nvm_index);
  store_dram->ResetWearAndMetrics();
  store_nvm->ResetWearAndMetrics();
  for (uint64_t k = 0; k < 8; ++k) {
    ASSERT_TRUE(store_dram->Delete(k).ok());
    ASSERT_TRUE(store_dram->Put(800 + k, GroupValue(k % 2, 5)).ok());
    ASSERT_TRUE(store_nvm->Delete(k).ok());
    ASSERT_TRUE(store_nvm->Put(800 + k, GroupValue(k % 2, 5)).ok());
  }
  // The paper's "worst case" setup pays index write amplification in PCM.
  EXPECT_GT(store_nvm->metrics().put_bits_written,
            store_dram->metrics().put_bits_written);
}

TEST(PnwStoreTest, BackgroundRetrainSwapsModelEventually) {
  PnwOptions options = SmallOptions();
  options.background_retrain = true;
  options.initial_buckets = 32;
  options.capacity_buckets = 64;
  options.load_factor = 0.5;
  options.retrain_min_interval = 4;
  auto store = MakeBootstrappedStore(options, 24);
  const uint64_t retrains_before = store->metrics().retrains;
  for (uint64_t k = 0; k < 64; ++k) {
    // FIFO: delete the oldest still-live key.
    const uint64_t victim = k < 24 ? k : 2000 + (k - 24);
    ASSERT_TRUE(store->Delete(victim).ok()) << k;
    ASSERT_TRUE(store->Put(2000 + k, GroupValue(k % 2, 6)).ok());
  }
  // Let any in-flight training finish and be collected by the next op.
  for (int spin = 0; spin < 200; ++spin) {
    if (!store->model_manager().background_training_in_progress()) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_TRUE(store->Delete(2063).ok());  // newest key is definitely live
  EXPECT_GE(store->metrics().retrains + store->metrics().extensions,
            retrains_before);
}

TEST(PnwStoreTest, PlacementsAttributedToModelWhenTrained) {
  auto store = MakeBootstrappedStore(SmallOptions());
  ASSERT_NE(store->model(), nullptr);
  for (uint64_t k = 0; k < 8; ++k) {
    ASSERT_TRUE(store->Put(1000 + k, GroupValue(k % 2, 3)).ok());
  }
  const auto& m = store->metrics();
  // Every placement went through the trained model; none fell back to the
  // model-less DCW path.
  EXPECT_EQ(m.predicted_placements, 8u);
  EXPECT_EQ(m.fallback_placements, 0u);
}

TEST(PnwStoreTest, ModelLessStoreCountsFallbackPlacements) {
  // The state a store lands in when its bootstrap model never trains
  // (train_on_bootstrap=false models a bootstrap-time training failure):
  // it serves DCW placements, and the metrics must say so instead of
  // letting the operator read DCW numbers as PNW numbers.
  PnwOptions options = SmallOptions();
  options.train_on_bootstrap = false;
  options.auto_retrain = false;
  auto store = MakeBootstrappedStore(options);
  ASSERT_EQ(store->model(), nullptr);
  for (uint64_t k = 0; k < 8; ++k) {
    ASSERT_TRUE(store->Put(1000 + k, GroupValue(k % 2, 3)).ok());
  }
  EXPECT_EQ(store->metrics().predicted_placements, 0u);
  EXPECT_EQ(store->metrics().fallback_placements, 8u);
  EXPECT_EQ(store->metrics().predict_wall_ns, 0.0);

  // TrainModel() recovers the store into predicted placements.
  ASSERT_TRUE(store->TrainModel().ok());
  ASSERT_NE(store->model(), nullptr);
  ASSERT_TRUE(store->Put(2000, GroupValue(0, 4)).ok());
  EXPECT_EQ(store->metrics().predicted_placements, 1u);
  EXPECT_EQ(store->metrics().fallback_placements, 8u);
}

TEST(PnwStoreTest, FailedBackgroundRetrainSurfacesInMetrics) {
  auto store = MakeBootstrappedStore(SmallOptions());
  EXPECT_EQ(store->metrics().failed_retrains, 0u);
  // Force a failing background run through the manager (mismatched sample
  // size), as a training failure inside the store would.
  std::vector<std::vector<uint8_t>> bad(4, std::vector<uint8_t>(4, 0x55));
  ASSERT_TRUE(store->model_manager().StartBackgroundTrain(bad));
  for (int spin = 0; spin < 500; ++spin) {
    if (!store->model_manager().background_training_in_progress()) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_FALSE(store->model_manager().background_training_in_progress());
  EXPECT_TRUE(
      store->model_manager().last_background_status().IsInvalidArgument());
  // The next operation polls the background trainer and folds the failure
  // into the store's metrics; the stale model stays in service.
  auto model_before = store->model();
  ASSERT_TRUE(store->Delete(0).ok());
  EXPECT_EQ(store->metrics().failed_retrains, 1u);
  EXPECT_EQ(store->model(), model_before);
}

// -------------------------------------------- failure-path accounting

TEST(PnwStoreTest, FailedPutPayloadWriteReinsertsAcquiredAddress) {
  // Regression: a PUT whose payload write fails used to leak the acquired
  // address out of the pool forever (and never count as a failed op).
  PnwOptions options = SmallOptions();
  options.initial_buckets = 16;
  options.capacity_buckets = 16;
  auto store = MakeBootstrappedStore(options, 16);
  ASSERT_TRUE(store->Delete(5).ok());  // the only free address
  const size_t free_before = store->pool().FreeCount();
  ASSERT_EQ(free_before, 1u);

  store->device().InjectWriteFaults(/*skip=*/0, /*count=*/1);
  EXPECT_TRUE(store->Put(999, GroupValue(0, 1)).IsInternal());
  EXPECT_EQ(store->metrics().failed_ops, 1u);
  EXPECT_EQ(store->pool().FreeCount(), free_before);
  EXPECT_TRUE(store->Get(999).status().IsNotFound());
  EXPECT_TRUE(store->metrics().PlacementAttributionConsistent());

  // Without the reinsert this Put would OutOfSpace: the one free address
  // would have leaked with every bucket flagged occupied.
  EXPECT_TRUE(store->Put(999, GroupValue(0, 1)).ok());
  EXPECT_EQ(store->Get(999).value(), GroupValue(0, 1));
}

TEST(PnwStoreTest, FailedPutFlagWriteRollsBackAndReinserts) {
  // Same leak via the second write of the PUT sequence (the occupancy-flag
  // bit): the payload landed, so the address must be reinserted under the
  // label of the *new* resident bits and the flag must stay clear.
  PnwOptions options = SmallOptions();
  options.initial_buckets = 16;
  options.capacity_buckets = 16;
  auto store = MakeBootstrappedStore(options, 16);
  ASSERT_TRUE(store->Delete(5).ok());
  const size_t free_before = store->pool().FreeCount();

  store->device().InjectWriteFaults(/*skip=*/1, /*count=*/1);
  EXPECT_TRUE(store->Put(999, GroupValue(0, 1)).IsInternal());
  EXPECT_EQ(store->metrics().failed_ops, 1u);
  EXPECT_EQ(store->pool().FreeCount(), free_before);
  EXPECT_TRUE(store->Get(999).status().IsNotFound());

  // The address is still placeable and the store fully recovers.
  EXPECT_TRUE(store->Put(999, GroupValue(0, 1)).ok());
  EXPECT_EQ(store->size(), 16u);
}

TEST(PnwStoreTest, InPlaceUpdateKeepsAttributionInvariant) {
  // Regression: latency-first updates bumped `puts` without landing in
  // either placement bucket, breaking predicted + fallback (+ inplace)
  // == puts.
  PnwOptions options = SmallOptions();
  options.update_mode = UpdateMode::kLatencyFirst;
  auto store = MakeBootstrappedStore(options);
  store->ResetWearAndMetrics();
  ASSERT_TRUE(store->Put(500, GroupValue(0, 1)).ok());
  ASSERT_TRUE(store->Update(500, GroupValue(0, 2)).ok());
  ASSERT_TRUE(store->Update(500, GroupValue(1, 3)).ok());
  const auto& m = store->metrics();
  EXPECT_EQ(m.puts, 3u);
  EXPECT_EQ(m.inplace_updates, 2u);
  EXPECT_EQ(m.predicted_placements, 1u);
  EXPECT_EQ(m.fallback_placements, 0u);
  EXPECT_TRUE(m.PlacementAttributionConsistent());
}

TEST(PnwStoreTest, AttributionInvariantHoldsAcrossMixedTraffic) {
  for (UpdateMode mode :
       {UpdateMode::kEnduranceFirst, UpdateMode::kLatencyFirst}) {
    PnwOptions options = SmallOptions();
    options.update_mode = mode;
    auto store = MakeBootstrappedStore(options);
    for (uint64_t k = 0; k < 24; ++k) {
      ASSERT_TRUE(store->Put(1000 + (k % 8), GroupValue(k % 2, 2)).ok());
      if (k % 5 == 0) {
        ASSERT_TRUE(store->Delete(k / 5).ok());
      }
      // status-dropped: only the metrics side effect matters here.
      (void)store->Get(1000 + (k % 8));
    }
    EXPECT_TRUE(store->metrics().PlacementAttributionConsistent())
        << store->metrics().ToString();
  }
}

TEST(PnwStoreTest, ResetWearAndMetricsClearsRetrainPacing) {
  // Regression: puts_since_retrain_ survived the reset, so a post-warm-up
  // bench inherited the warm-up's retrain pacing.
  PnwOptions options = SmallOptions();
  options.retrain_min_interval = 1000;  // pacing never fires in this test
  auto store = MakeBootstrappedStore(options);
  for (uint64_t k = 0; k < 6; ++k) {
    ASSERT_TRUE(store->Put(1000 + k, GroupValue(k % 2, 1)).ok());
  }
  EXPECT_EQ(store->puts_since_retrain(), 6u);
  store->ResetWearAndMetrics();
  EXPECT_EQ(store->puts_since_retrain(), 0u);
}

TEST(PnwStoreTest, ResetWearAndMetricsSettlesBackgroundFailures) {
  // A background-training failure pending at reset time belongs to the
  // warm-up epoch: it must not be re-folded into the fresh metrics after
  // the reset zeroes failed_retrains.
  auto store = MakeBootstrappedStore(SmallOptions());
  std::vector<std::vector<uint8_t>> bad(4, std::vector<uint8_t>(4, 0x55));
  ASSERT_TRUE(store->model_manager().StartBackgroundTrain(bad));
  for (int spin = 0; spin < 500; ++spin) {
    if (!store->model_manager().background_training_in_progress()) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_FALSE(store->model_manager().background_training_in_progress());
  store->ResetWearAndMetrics();
  EXPECT_EQ(store->metrics().failed_retrains, 0u);
  // Post-reset operations must not rediscover the pre-reset failure.
  ASSERT_TRUE(store->Delete(0).ok());
  EXPECT_EQ(store->metrics().failed_retrains, 0u);
}

// ------------------------------------------------------- Table II example

PnwOptions EnduranceOptions() {
  PnwOptions options = SmallOptions();
  options.start_gap_wear_leveling = true;
  options.gap_write_interval = 4;
  options.update_mode = UpdateMode::kLatencyFirst;  // in-place: buckets run hot
  options.migration_min_writes = 4;
  options.migration_hot_multiplier = 2.0;
  return options;
}

TEST(PnwStoreTest, StartGapServesKeysAcrossRotations) {
  auto store = MakeBootstrappedStore(EnduranceOptions());
  ASSERT_NE(store->remapper(), nullptr);
  // Hammer in-place updates until the start pointer has swept the data
  // zone at least once: every logical bucket's physical home has moved,
  // yet every key must keep serving its latest value through Translate().
  const size_t writes_per_rotation =
      (store->remapper()->num_blocks() + 1) *
      store->remapper()->gap_write_interval();
  size_t writes = 0;
  uint8_t round = 0;
  while (store->remapper()->rotations() < 1) {
    ++round;
    for (uint64_t key = 0; key < 32; ++key) {
      ASSERT_TRUE(store->Update(key, GroupValue(key % 2, round)).ok());
      ++writes;
    }
    ASSERT_LT(writes, 4 * writes_per_rotation) << "rotation never completed";
  }
  for (uint64_t key = 0; key < 32; ++key) {
    EXPECT_EQ(store->Get(key).value(), GroupValue(key % 2, round));
  }
  EXPECT_GT(store->metrics().gap_moves, 0u);
  EXPECT_GT(store->metrics().wear_device_ns, 0.0);
}

TEST(PnwStoreTest, MigrateHotBucketsRelocatesAndReconciles) {
  auto store = MakeBootstrappedStore(EnduranceOptions());
  // Concentrate writes on a handful of keys: their buckets blow past the
  // hot threshold while the rest of the zone stays cold.
  for (int round = 0; round < 16; ++round) {
    for (uint64_t key = 0; key < 4; ++key) {
      ASSERT_TRUE(
          store->Update(key, GroupValue(key % 2, static_cast<uint8_t>(round)))
              .ok());
    }
  }
  const uint32_t hottest_before = store->wear_tracker().MaxBucketWrites();
  ASSERT_GE(hottest_before, 16u);
  auto migrated = store->MigrateHotBuckets(8);
  ASSERT_TRUE(migrated.ok()) << migrated.status();
  EXPECT_GT(migrated.value(), 0u);
  EXPECT_EQ(store->metrics().migrations, migrated.value());
  // The hot keys moved to cold addresses and still serve their values.
  for (uint64_t key = 0; key < 4; ++key) {
    EXPECT_EQ(store->Get(key).value(), GroupValue(key % 2, 15));
  }
  // Accounting invariant of the endurance layer: every physical bucket
  // write is a client placement, a migration copy, or a gap-move copy.
  EXPECT_EQ(store->wear_tracker().TotalPhysicalWrites(),
            store->metrics().puts + store->metrics().migrations +
                store->metrics().gap_moves);
}

TEST(PnwStoreTest, MigrationRequiresKeysInDataZone) {
  PnwOptions options = EnduranceOptions();
  options.store_keys_in_data_zone = false;
  auto store = MakeBootstrappedStore(options);
  EXPECT_TRUE(store->MigrateHotBuckets(4).status().IsFailedPrecondition());
}

TEST(PnwStoreTest, MigrationSkipsWhenNoColderDestination) {
  // A store with zero free addresses has nowhere to relocate to: the pass
  // must report 0 moved buckets and leave no trace (no metrics, no pool
  // mutation) -- the property replay determinism rests on.
  PnwOptions options = EnduranceOptions();
  options.initial_buckets = 32;
  options.capacity_buckets = 32;
  options.load_factor = 1.0;
  options.auto_retrain = false;
  auto store = MakeBootstrappedStore(options, /*n=*/32);
  for (int round = 0; round < 8; ++round) {
    for (uint64_t key = 0; key < 4; ++key) {
      ASSERT_TRUE(
          store->Update(key, GroupValue(key % 2, static_cast<uint8_t>(round)))
              .ok());
    }
  }
  ASSERT_EQ(store->pool().FreeCount(), 0u);
  auto migrated = store->MigrateHotBuckets(8);
  ASSERT_TRUE(migrated.ok()) << migrated.status();
  EXPECT_EQ(migrated.value(), 0u);
  EXPECT_EQ(store->metrics().migrations, 0u);
}

TEST(PnwStoreTest, WearLevelingDisabledKeepsIdentityTranslation) {
  auto store = MakeBootstrappedStore(SmallOptions());
  EXPECT_EQ(store->remapper(), nullptr);
  for (size_t b = 0; b < 8; ++b) {
    EXPECT_EQ(store->PhysBucketAddr(b), b * (8 + 16));  // key + value bytes
  }
  // Physical and logical wear histograms coincide without the remapper.
  ASSERT_TRUE(store->Put(100, GroupValue(0, 1)).ok());
  EXPECT_EQ(store->wear_tracker().TotalPhysicalWrites(),
            store->metrics().puts);
}

TEST(PnwStoreTest, Table2WorkedExample) {
  // The paper's Table II: six 8-bit locations in three natural groups.
  // After clustering with k=3, writing d1=00001111 and d2=11110000 must
  // land each on its closest group, flipping exactly 1 data bit each.
  const char* contents[6] = {
      "00000111",  // index 0, cluster {0,1}
      "00001011",  // index 1
      "00101100",  // index 2, cluster {2,3}
      "00111100",  // index 3
      "11010000",  // index 4, cluster {4,5}
      "01110000",  // index 5
  };
  PnwOptions options;
  options.value_bytes = 1;
  options.initial_buckets = 6;
  options.capacity_buckets = 6;
  options.num_clusters = 3;
  options.max_features = 0;
  options.training_sample_cap = 6;
  options.seed = 13;
  auto store = PnwStore::Open(options).value();
  std::vector<uint64_t> keys = {0, 1, 2, 3, 4, 5};
  std::vector<std::vector<uint8_t>> values;
  for (const char* c : contents) {
    pnw::BitVector bv = pnw::BitVector::FromString(c);
    values.push_back({bv.bytes()[0]});
  }
  ASSERT_TRUE(store->Bootstrap(keys, values).ok());

  // d1 is Hamming-close to cluster {0,1}; d2 to cluster {4,5}.
  const uint8_t d1 = pnw::BitVector::FromString("00001111").bytes()[0];
  const uint8_t d2 = pnw::BitVector::FromString("11110000").bytes()[0];

  // Free one location from each group, then write d1 and d2.
  ASSERT_TRUE(store->Delete(1).ok());  // frees 00001011 (d1's group)
  ASSERT_TRUE(store->Delete(3).ok());  // frees 00111100
  ASSERT_TRUE(store->Delete(5).ok());  // frees 01110000 (d2's group)
  store->ResetWearAndMetrics();

  const std::vector<uint8_t> d1_value = {d1};
  const std::vector<uint8_t> d2_value = {d2};
  ASSERT_TRUE(store->Put(10, d1_value).ok());
  const uint64_t d1_bits = store->metrics().put_bits_written;
  ASSERT_TRUE(store->Put(11, d2_value).ok());
  const uint64_t d2_bits = store->metrics().put_bits_written - d1_bits;

  // Value-bit cost must be tiny (the paper's worked example: 1 data bit per
  // item, plus our key/flag overhead). A pool fallback is permitted --
  // k-means on 6 points does not always match the paper's hand grouping --
  // but the Hamming-nearest placement property must still bound the cost.
  EXPECT_LE(d1_bits, 2u + 16u);  // <=2 value bits + key/flag bits
  EXPECT_LE(d2_bits, 2u + 16u);
  EXPECT_EQ(store->Get(10).value()[0], d1);
  EXPECT_EQ(store->Get(11).value()[0], d2);
}

// ------------------------------------------- pool labels vs resident content

/// Algorithm 1/3's pool invariant: every free address sits in the cluster
/// its resident (stale) content predicts to under the served model. A
/// DELETE or migration that freed an address under a stale cached label
/// -- computed by a replaced model, or for content an in-place update has
/// since overwritten -- breaks it.
void ExpectPoolLabelsMatchResidentContent(PnwStore& store,
                                          const std::string& phase) {
  const auto model = store.model();
  const size_t key_bytes = store.options().store_keys_in_data_zone ? 8 : 0;
  size_t checked = 0;
  for (size_t c = 0; c < store.pool().num_clusters(); ++c) {
    for (const uint64_t addr : store.pool().FreeList(c)) {
      const size_t bucket = addr / store.bucket_bytes();
      const auto value = store.device().Peek(
          store.PhysBucketAddr(bucket) + key_bytes, store.options().value_bytes);
      const size_t want = model != nullptr ? model->Predict(value) : 0;
      EXPECT_EQ(want, c) << phase << ": free bucket " << bucket;
      ++checked;
    }
  }
  EXPECT_GT(checked, 0u) << phase;
}

/// Delete every key in [first, last) that is live.
void DeleteLive(PnwStore& store, uint64_t first, uint64_t last) {
  for (uint64_t key = first; key < last; ++key) {
    if (store.Get(key).ok()) {
      ASSERT_TRUE(store.Delete(key).ok()) << key;
    }
  }
}

TEST(PnwStoreTest, PoolLabelsMatchResidentContent) {
  // Endurance-first store under Start-Gap: every update below moves its key
  // to the other content group, so a label cached for the old content
  // would file the freed address under the wrong cluster.
  PnwOptions options = SmallOptions();
  options.start_gap_wear_leveling = true;
  options.gap_write_interval = 4;
  auto store = MakeBootstrappedStore(options);
  ExpectPoolLabelsMatchResidentContent(*store, "bootstrap");
  for (int round = 0; round < 6; ++round) {
    for (uint64_t key = 0; key < 8; ++key) {
      ASSERT_TRUE(store->Update(key, GroupValue((key + round) % 2,
                                                static_cast<uint8_t>(round)))
                      .ok());
    }
  }
  ExpectPoolLabelsMatchResidentContent(*store, "endurance-first updates");
  DeleteLive(*store, 0, 16);
  ExpectPoolLabelsMatchResidentContent(*store, "deletes");
  EXPECT_GT(store->metrics().gap_moves, 0u);

  // A MultiPut whose early slots cross the load factor: the synchronous
  // extension + retrain installs a new model mid-batch, and the later
  // slots are placed with hints from the replaced one.
  const uint64_t retrains_before = store->metrics().retrains;
  std::vector<uint64_t> keys;
  std::vector<std::vector<uint8_t>> values;
  for (uint64_t i = 0; i < 48; ++i) {
    keys.push_back(300 + i);
    values.push_back(GroupValue(i % 3 == 0, static_cast<uint8_t>(i)));
  }
  for (const Status& s : store->MultiPut(keys, values)) {
    ASSERT_TRUE(s.ok()) << s;
  }
  ASSERT_GT(store->metrics().retrains, retrains_before);
  ExpectPoolLabelsMatchResidentContent(*store, "MultiPut mid-batch retrain");
  DeleteLive(*store, 300, 348);
  ExpectPoolLabelsMatchResidentContent(*store, "deletes after MultiPut");

  // Injected write faults: a failed PUT rolls back, a failed in-place
  // write leaves whatever landed.
  ASSERT_TRUE(store->Put(500, GroupValue(0, 1)).ok());
  store->device().InjectWriteFaults(/*skip=*/0, /*count=*/1);
  EXPECT_FALSE(store->Put(501, GroupValue(1, 1)).ok());
  store->device().InjectWriteFaults(/*skip=*/0, /*count=*/1);
  EXPECT_FALSE(store->Update(500, GroupValue(1, 2)).ok());
  store->device().InjectWriteFaults(0, 0);
  ExpectPoolLabelsMatchResidentContent(*store, "write faults");
  DeleteLive(*store, 500, 502);
  ExpectPoolLabelsMatchResidentContent(*store, "deletes after faults");

  // Checkpoint, more churn into the op-log, reopen by replay: the reopened
  // store starts with no cached labels and rebuilds them while replaying.
  const auto dir = std::filesystem::temp_directory_path() /
                   "pnw_core_pool_labels";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string snap = (dir / "store.snap").string();
  ASSERT_TRUE(store->Checkpoint(snap).ok());
  for (uint64_t key = 600; key < 616; ++key) {
    ASSERT_TRUE(store->Put(key, GroupValue(key % 2, 3)).ok());
  }
  for (uint64_t key = 600; key < 608; ++key) {
    ASSERT_TRUE(store->Update(key, GroupValue((key + 1) % 2, 4)).ok());
  }
  DeleteLive(*store, 604, 612);
  auto reopened = PnwStore::Open(snap);
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  ExpectPoolLabelsMatchResidentContent(*reopened.value(), "Open replay");
  DeleteLive(*reopened.value(), 16, 32);
  DeleteLive(*reopened.value(), 600, 616);
  ExpectPoolLabelsMatchResidentContent(*reopened.value(),
                                       "deletes after Open");
  std::filesystem::remove_all(dir);

  // Latency-first: in-place updates flip a key's group without touching
  // the pool -- including keys whose PUT cached a label for the old
  // content -- then migration relocates the hot buckets and deletes free
  // both the migrated copies and the ones left behind.
  PnwOptions latency = EnduranceOptions();
  auto hot = MakeBootstrappedStore(latency);
  for (uint64_t key = 700; key < 708; ++key) {
    ASSERT_TRUE(hot->Put(key, GroupValue(key % 2, 1)).ok());
    ASSERT_TRUE(hot->Update(key, GroupValue((key + 1) % 2, 2)).ok());
  }
  DeleteLive(*hot, 700, 708);
  ExpectPoolLabelsMatchResidentContent(*hot, "latency-first updates");
  for (int round = 0; round < 16; ++round) {
    for (uint64_t key = 0; key < 4; ++key) {
      ASSERT_TRUE(hot->Update(key, GroupValue((key + round) % 2,
                                              static_cast<uint8_t>(round)))
                      .ok());
    }
  }
  auto migrated = hot->MigrateHotBuckets(8);
  ASSERT_TRUE(migrated.ok()) << migrated.status();
  ASSERT_GT(migrated.value(), 0u);
  ExpectPoolLabelsMatchResidentContent(*hot, "latency-first + migration");
  DeleteLive(*hot, 0, 32);
  ExpectPoolLabelsMatchResidentContent(*hot, "deletes after migration");

  // Background retrain: the new model is adopted by a later operation
  // while keys placed under the old one are still live.
  PnwOptions background = SmallOptions();
  background.background_retrain = true;
  background.initial_buckets = 32;
  background.capacity_buckets = 64;
  background.load_factor = 0.5;
  background.retrain_min_interval = 4;
  auto bg = MakeBootstrappedStore(background, 24);
  for (uint64_t k = 0; k < 64; ++k) {
    const uint64_t victim = k < 24 ? k : 2000 + (k - 24);
    ASSERT_TRUE(bg->Delete(victim).ok()) << k;
    ASSERT_TRUE(bg->Put(2000 + k, GroupValue(k % 3 == 0, 6)).ok());
  }
  for (int spin = 0; spin < 200; ++spin) {
    if (!bg->model_manager().background_training_in_progress()) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_TRUE(bg->Delete(2063).ok());  // also collects a finished model
  ExpectPoolLabelsMatchResidentContent(*bg, "background retrain");
  DeleteLive(*bg, 2040, 2063);
  ExpectPoolLabelsMatchResidentContent(*bg, "deletes after retrain");
}

}  // namespace
}  // namespace pnw::core
