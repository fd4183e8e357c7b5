// Recovery edge cases for the durability subsystem (src/persist/ +
// PnwStore::Checkpoint/Open + ShardedPnwStore::Checkpoint/Open): empty
// store, kill-point round trips with metrics/wear/model equality, op-log
// replay, torn log tails, corrupted checksums, snapshot version mismatch,
// and the ResetWearAndMetrics <-> Checkpoint interplay.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "src/core/pnw_store.h"
#include "src/core/sharded_store.h"
#include "src/persist/op_log.h"
#include "src/persist/serializer.h"
#include "src/persist/snapshot.h"

namespace pnw::core {
namespace {

namespace fs = std::filesystem;

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

/// Fresh per-test scratch directory under the system temp dir.
class PersistTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = fs::temp_directory_path() /
           (std::string("pnw_persist_") + info->name());
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string Path(const std::string& name) const {
    return (dir_ / name).string();
  }

  fs::path dir_;
};

void ExpectMetricsEqual(const StoreMetrics& a, const StoreMetrics& b) {
  EXPECT_EQ(a.puts, b.puts);
  EXPECT_EQ(a.gets, b.gets);
  EXPECT_EQ(a.optimistic_gets, b.optimistic_gets);
  EXPECT_EQ(a.locked_gets, b.locked_gets);
  EXPECT_EQ(a.optimistic_retries, b.optimistic_retries);
  EXPECT_EQ(a.get_misses, b.get_misses);
  EXPECT_EQ(a.deletes, b.deletes);
  EXPECT_EQ(a.updates, b.updates);
  EXPECT_EQ(a.failed_ops, b.failed_ops);
  EXPECT_EQ(a.put_bits_written, b.put_bits_written);
  EXPECT_EQ(a.put_payload_bits, b.put_payload_bits);
  EXPECT_EQ(a.put_lines_written, b.put_lines_written);
  EXPECT_EQ(a.put_words_written, b.put_words_written);
  EXPECT_DOUBLE_EQ(a.put_device_ns, b.put_device_ns);
  EXPECT_DOUBLE_EQ(a.get_device_ns, b.get_device_ns);
  EXPECT_DOUBLE_EQ(a.delete_device_ns, b.delete_device_ns);
  EXPECT_EQ(a.predicted_placements, b.predicted_placements);
  EXPECT_EQ(a.fallback_placements, b.fallback_placements);
  EXPECT_EQ(a.inplace_updates, b.inplace_updates);
  EXPECT_EQ(a.pool_fallbacks, b.pool_fallbacks);
  EXPECT_EQ(a.retrains, b.retrains);
  EXPECT_EQ(a.failed_retrains, b.failed_retrains);
  EXPECT_EQ(a.extensions, b.extensions);
}

TEST_F(PersistTest, EmptyStoreRoundTrips) {
  auto store = PnwStore::Open(SmallOptions()).value();
  // Bootstrapping with zero items is legal (the data zone is all zeros);
  // checkpoint both the never-bootstrapped and the empty-bootstrapped
  // state.
  ASSERT_TRUE(store->Checkpoint(Path("fresh.snap")).ok());
  auto fresh = PnwStore::Open(Path("fresh.snap"));
  ASSERT_TRUE(fresh.ok()) << fresh.status();
  EXPECT_EQ(fresh.value()->size(), 0u);
  // Ops on the recovered-but-never-bootstrapped store still demand
  // Bootstrap, exactly like the original.
  const std::vector<uint8_t> v(16, 0);
  EXPECT_TRUE(fresh.value()->Put(1, v).IsFailedPrecondition());

  ASSERT_TRUE(
      store->Bootstrap(std::span<const uint64_t>(),
                       std::span<const std::vector<uint8_t>>()).ok());
  ASSERT_TRUE(store->Checkpoint(Path("empty.snap")).ok());
  auto empty = PnwStore::Open(Path("empty.snap"));
  ASSERT_TRUE(empty.ok()) << empty.status();
  EXPECT_EQ(empty.value()->size(), 0u);
  // And the recovered empty store serves writes.
  EXPECT_TRUE(empty.value()->Put(7, GroupValue(0, 1)).ok());
  EXPECT_EQ(empty.value()->Get(7).value(), GroupValue(0, 1));
}

// The acceptance scenario: N puts, checkpoint, "kill", reopen -- every key
// served, wear counters identical, placement predictions identical (no
// retrain).
TEST_F(PersistTest, KillPointRoundTripPreservesEverything) {
  auto store = MakeBootstrappedStore(SmallOptions());
  for (size_t i = 0; i < 24; ++i) {
    ASSERT_TRUE(
        store->Put(100 + i, GroupValue(i % 2, static_cast<uint8_t>(i))).ok());
  }
  ASSERT_TRUE(store->Update(100, GroupValue(1, 0x7e)).ok());
  ASSERT_TRUE(store->Delete(101).ok());
  ASSERT_TRUE(store->Get(5).ok());

  ASSERT_TRUE(store->Checkpoint(Path("store.snap")).ok());
  auto reopened_result = PnwStore::Open(Path("store.snap"));
  ASSERT_TRUE(reopened_result.ok()) << reopened_result.status();
  auto& reopened = *reopened_result.value();

  EXPECT_EQ(reopened.size(), store->size());
  EXPECT_EQ(reopened.active_buckets(), store->active_buckets());
  EXPECT_EQ(reopened.puts_since_retrain(), store->puts_since_retrain());

  // Every key serves the same bytes.
  for (uint64_t key = 0; key < 32; ++key) {
    auto want = store->Get(key);
    auto got = reopened.Get(key);
    ASSERT_EQ(want.ok(), got.ok()) << "key " << key;
    if (want.ok()) {
      EXPECT_EQ(want.value(), got.value());
    }
  }
  // Probe the deleted key on *both* stores: misses count (get_misses), so
  // the metrics comparison below needs symmetric read traffic.
  EXPECT_TRUE(reopened.Get(101).status().IsNotFound());
  EXPECT_TRUE(store->Get(101).status().IsNotFound());

  // Wear counters come back verbatim, at bucket and device granularity.
  EXPECT_EQ(reopened.wear_tracker().bucket_write_counts(),
            store->wear_tracker().bucket_write_counts());
  EXPECT_EQ(reopened.device().counters().total_bits_written,
            store->device().counters().total_bits_written);
  EXPECT_EQ(reopened.device().counters().total_write_ops,
            store->device().counters().total_write_ops);

  // The model was deserialized, not retrained: identical centroids,
  // identical predictions, and the retrain counter did not move. (The two
  // extra Gets above were absorbed into the pre-checkpoint metrics.)
  ASSERT_NE(reopened.model(), nullptr);
  ASSERT_NE(store->model(), nullptr);
  EXPECT_EQ(reopened.model()->kmeans().centroids().data(),
            store->model()->kmeans().centroids().data());
  for (int g = 0; g < 2; ++g) {
    for (uint8_t t = 0; t < 8; ++t) {
      const auto probe = GroupValue(g, t);
      EXPECT_EQ(reopened.model()->Predict(probe), store->model()->Predict(probe));
    }
  }

  // Pool state (free counts per cluster) round-trips.
  EXPECT_EQ(reopened.pool().FreeCount(), store->pool().FreeCount());
  for (size_t c = 0; c < store->pool().num_clusters(); ++c) {
    EXPECT_EQ(reopened.pool().FreeList(c), store->pool().FreeList(c));
  }

  // Metrics equality -- every post-checkpoint Get above (hits and the
  // deleted-key miss) was issued symmetrically to both stores.
  ExpectMetricsEqual(reopened.metrics(), store->metrics());
}

TEST_F(PersistTest, OpLogReplayRecoversPostCheckpointWrites) {
  auto store = MakeBootstrappedStore(SmallOptions());
  ASSERT_TRUE(store->Checkpoint(Path("store.snap")).ok());
  EXPECT_TRUE(store->op_log_attached());

  // Post-checkpoint traffic: inserts, an update, a delete.
  for (size_t i = 0; i < 8; ++i) {
    ASSERT_TRUE(
        store->Put(200 + i, GroupValue(i % 2, static_cast<uint8_t>(i))).ok());
  }
  ASSERT_TRUE(store->Update(200, GroupValue(1, 0x3c)).ok());
  ASSERT_TRUE(store->Delete(201).ok());

  // "Kill" the process: reopen from disk only.
  auto reopened_result = PnwStore::Open(Path("store.snap"));
  ASSERT_TRUE(reopened_result.ok()) << reopened_result.status();
  auto& reopened = *reopened_result.value();

  // Replay re-applies the ops through the same deterministic placement
  // path, so even the wear counters and metrics match the pre-crash store.
  // (Compared before the verification Gets below move them.)
  ExpectMetricsEqual(reopened.metrics(), store->metrics());
  EXPECT_EQ(reopened.wear_tracker().bucket_write_counts(),
            store->wear_tracker().bucket_write_counts());

  EXPECT_EQ(reopened.size(), store->size());
  EXPECT_EQ(reopened.Get(200).value(), GroupValue(1, 0x3c));
  EXPECT_TRUE(reopened.Get(201).status().IsNotFound());
  for (size_t i = 2; i < 8; ++i) {
    EXPECT_EQ(reopened.Get(200 + i).value(),
              GroupValue(i % 2, static_cast<uint8_t>(i)));
  }
}

PnwOptions EnduranceOptions() {
  PnwOptions options = SmallOptions();
  options.start_gap_wear_leveling = true;
  options.gap_write_interval = 4;
  options.update_mode = UpdateMode::kLatencyFirst;
  options.migration_min_writes = 4;
  options.migration_hot_multiplier = 2.0;
  return options;
}

/// Endurance state the v4 snapshot must reproduce exactly: Start-Gap
/// registers, both wear histograms, and the migration/gap-move counters.
void ExpectEnduranceStateEqual(PnwStore& a, PnwStore& b) {
  ASSERT_NE(a.remapper(), nullptr);
  ASSERT_NE(b.remapper(), nullptr);
  const nvm::StartGapRegisters ra = a.remapper()->registers();
  const nvm::StartGapRegisters rb = b.remapper()->registers();
  EXPECT_EQ(ra.start, rb.start);
  EXPECT_EQ(ra.gap, rb.gap);
  EXPECT_EQ(ra.writes_since_move, rb.writes_since_move);
  EXPECT_EQ(ra.gap_moves, rb.gap_moves);
  EXPECT_EQ(ra.rotations, rb.rotations);
  EXPECT_EQ(a.wear_tracker().bucket_write_counts(),
            b.wear_tracker().bucket_write_counts());
  EXPECT_EQ(a.wear_tracker().physical_write_counts(),
            b.wear_tracker().physical_write_counts());
  EXPECT_EQ(a.metrics().migrations, b.metrics().migrations);
  EXPECT_EQ(a.metrics().gap_moves, b.metrics().gap_moves);
  EXPECT_DOUBLE_EQ(a.metrics().wear_device_ns, b.metrics().wear_device_ns);
  EXPECT_EQ(a.device().counters().total_bits_written,
            b.device().counters().total_bits_written);
  EXPECT_EQ(a.device().counters().total_write_ops,
            b.device().counters().total_write_ops);
}

// Acceptance scenario of the endurance layer: traffic + migrations,
// Checkpoint, crash, Open -- the remapper registers, migration counters,
// and both wear histograms come back bit-for-bit from the snapshot alone.
TEST_F(PersistTest, EnduranceSnapshotRoundTripsBitForBit) {
  auto store = MakeBootstrappedStore(EnduranceOptions());
  for (int round = 0; round < 16; ++round) {
    for (uint64_t key = 0; key < 4; ++key) {
      ASSERT_TRUE(
          store->Update(key, GroupValue(key % 2, static_cast<uint8_t>(round)))
              .ok());
    }
  }
  auto migrated = store->MigrateHotBuckets(8);
  ASSERT_TRUE(migrated.ok()) << migrated.status();
  ASSERT_GT(migrated.value(), 0u);
  ASSERT_GT(store->metrics().gap_moves, 0u);

  ASSERT_TRUE(store->Checkpoint(Path("endurance.snap")).ok());
  auto reopened = PnwStore::Open(Path("endurance.snap"));
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  ExpectEnduranceStateEqual(*reopened.value(), *store);
  for (uint64_t key = 0; key < 32; ++key) {
    EXPECT_EQ(reopened.value()->Get(key).value(), store->Get(key).value());
  }
}

// The same scenario with the migrations *after* the checkpoint: recovery
// must re-run the kMigrate op-log records through the deterministic
// relocation path and land on the identical endurance state.
TEST_F(PersistTest, MigrationReplayReproducesEnduranceStateBitForBit) {
  auto store = MakeBootstrappedStore(EnduranceOptions());
  ASSERT_TRUE(store->Checkpoint(Path("endurance.snap")).ok());
  ASSERT_TRUE(store->op_log_attached());

  // Post-checkpoint: hot traffic, a migration pass (logged as kMigrate
  // records), and more traffic on top of the relocated buckets.
  for (int round = 0; round < 16; ++round) {
    for (uint64_t key = 0; key < 4; ++key) {
      ASSERT_TRUE(
          store->Update(key, GroupValue(key % 2, static_cast<uint8_t>(round)))
              .ok());
    }
  }
  auto migrated = store->MigrateHotBuckets(8);
  ASSERT_TRUE(migrated.ok()) << migrated.status();
  ASSERT_GT(migrated.value(), 0u);
  for (uint64_t key = 0; key < 4; ++key) {
    ASSERT_TRUE(store->Update(key, GroupValue(key % 2, 0x5a)).ok());
  }
  ASSERT_TRUE(store->Put(500, GroupValue(0, 0x11)).ok());

  // Crash: reopen from the pre-migration snapshot plus the op-log.
  auto reopened_result = PnwStore::Open(Path("endurance.snap"));
  ASSERT_TRUE(reopened_result.ok()) << reopened_result.status();
  auto& reopened = *reopened_result.value();
  ExpectEnduranceStateEqual(reopened, *store);
  ExpectMetricsEqual(reopened.metrics(), store->metrics());
  EXPECT_EQ(reopened.pool().FreeCount(), store->pool().FreeCount());
  for (size_t c = 0; c < store->pool().num_clusters(); ++c) {
    EXPECT_EQ(reopened.pool().FreeList(c), store->pool().FreeList(c));
  }
  for (uint64_t key = 0; key < 4; ++key) {
    EXPECT_EQ(reopened.Get(key).value(), GroupValue(key % 2, 0x5a));
  }
  EXPECT_EQ(reopened.Get(500).value(), GroupValue(0, 0x11));
}

TEST_F(PersistTest, TornLogTailIsTruncatedNotFatal) {
  auto store = MakeBootstrappedStore(SmallOptions());
  ASSERT_TRUE(store->Checkpoint(Path("store.snap")).ok());
  for (size_t i = 0; i < 4; ++i) {
    ASSERT_TRUE(
        store->Put(300 + i, GroupValue(0, static_cast<uint8_t>(i))).ok());
  }
  const std::string log_path =
      Path("store.snap") + PnwStore::kOpLogSuffix;

  // Tear the final record: chop 5 bytes off the log, as a crash mid-append
  // would.
  const auto full_size = fs::file_size(log_path);
  fs::resize_file(log_path, full_size - 5);

  auto reopened = PnwStore::Open(Path("store.snap"));
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  // First three records replay; the torn fourth is gone.
  EXPECT_TRUE(reopened.value()->Get(300).ok());
  EXPECT_TRUE(reopened.value()->Get(301).ok());
  EXPECT_TRUE(reopened.value()->Get(302).ok());
  EXPECT_TRUE(reopened.value()->Get(303).status().IsNotFound());
  // The tail was physically truncated, and the re-attached log appends
  // cleanly after it: a new write then a second recovery must see it.
  ASSERT_TRUE(reopened.value()->Put(400, GroupValue(1, 1)).ok());
  auto again = PnwStore::Open(Path("store.snap"));
  ASSERT_TRUE(again.ok()) << again.status();
  EXPECT_EQ(again.value()->Get(400).value(), GroupValue(1, 1));
  EXPECT_TRUE(again.value()->Get(303).status().IsNotFound());
}

TEST_F(PersistTest, CorruptedSnapshotChecksumIsCleanError) {
  auto store = MakeBootstrappedStore(SmallOptions());
  ASSERT_TRUE(store->Checkpoint(Path("store.snap")).ok());

  // Flip one byte deep in the payload (past the 16-byte header and the
  // first section frame) and expect Corruption, not a crash or a
  // half-restored store.
  auto bytes = persist::ReadFileBytes(Path("store.snap")).value();
  bytes[bytes.size() / 2] ^= 0xff;
  std::ofstream out(Path("store.snap"), std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  out.close();

  auto reopened = PnwStore::Open(Path("store.snap"));
  ASSERT_FALSE(reopened.ok());
  EXPECT_TRUE(reopened.status().IsCorruption()) << reopened.status();
}

TEST_F(PersistTest, SnapshotVersionMismatchIsCleanError) {
  auto store = MakeBootstrappedStore(SmallOptions());
  ASSERT_TRUE(store->Checkpoint(Path("store.snap")).ok());

  // Byte 8 is the low byte of the little-endian payload version.
  auto bytes = persist::ReadFileBytes(Path("store.snap")).value();
  bytes[8] = static_cast<uint8_t>(PnwStore::kSnapshotVersion + 1);
  std::ofstream out(Path("store.snap"), std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  out.close();

  auto reopened = PnwStore::Open(Path("store.snap"));
  ASSERT_FALSE(reopened.ok());
  EXPECT_TRUE(reopened.status().IsInvalidArgument()) << reopened.status();
  EXPECT_NE(reopened.status().message().find("version mismatch"),
            std::string::npos);
}

TEST_F(PersistTest, NotASnapshotIsCleanError) {
  std::ofstream out(Path("junk.snap"), std::ios::binary);
  out << "this is not a snapshot";
  out.close();
  auto reopened = PnwStore::Open(Path("junk.snap"));
  ASSERT_FALSE(reopened.ok());
  EXPECT_TRUE(reopened.status().IsCorruption()) << reopened.status();
  EXPECT_TRUE(
      PnwStore::Open(Path("missing.snap")).status().IsNotFound());
}

// Satellite fix: the ResetWearAndMetrics / Checkpoint interplay is
// well-defined. A checkpoint is a pure read of the current epoch:
// checkpointing right after a reset persists the zeroed counters, and the
// recovered store starts the fresh epoch with its data intact.
TEST_F(PersistTest, CheckpointAfterResetPersistsTheFreshEpoch) {
  auto store = MakeBootstrappedStore(SmallOptions());
  for (size_t i = 0; i < 8; ++i) {
    ASSERT_TRUE(
        store->Put(500 + i, GroupValue(i % 2, static_cast<uint8_t>(i))).ok());
  }
  store->ResetWearAndMetrics();
  ASSERT_TRUE(store->Checkpoint(Path("store.snap")).ok());

  auto reopened = PnwStore::Open(Path("store.snap"));
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  EXPECT_EQ(reopened.value()->metrics().puts, 0u);
  EXPECT_EQ(reopened.value()->wear_tracker().MaxBucketWrites(), 0u);
  EXPECT_EQ(reopened.value()->device().counters().total_bits_written, 0u);
  EXPECT_EQ(reopened.value()->puts_since_retrain(), 0u);
  // The data survived the reset: only the accounting epoch restarted.
  EXPECT_EQ(reopened.value()->size(), store->size());
  EXPECT_TRUE(reopened.value()->Get(500).ok());
}

// The other direction of the interplay: a reset is a DRAM-side epoch
// operation and is NOT an op-log record, so a reset that follows the
// checkpoint is forgotten by recovery -- the replayed ops land on the
// *checkpointed* epoch. Durable epoch boundaries require a checkpoint.
TEST_F(PersistTest, ResetWithoutCheckpointIsNotDurable) {
  auto store = MakeBootstrappedStore(SmallOptions());
  ASSERT_TRUE(store->Checkpoint(Path("store.snap")).ok());
  const uint64_t checkpoint_puts = store->metrics().puts;

  ASSERT_TRUE(store->Put(600, GroupValue(0, 1)).ok());
  store->ResetWearAndMetrics();  // live store now reads zero
  ASSERT_TRUE(store->Put(601, GroupValue(1, 2)).ok());
  EXPECT_EQ(store->metrics().puts, 1u);

  auto reopened = PnwStore::Open(Path("store.snap"));
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  // Recovery = checkpoint epoch + both replayed puts; the mid-stream
  // reset never happened as far as durability is concerned.
  EXPECT_EQ(reopened.value()->metrics().puts, checkpoint_puts + 2);
  EXPECT_TRUE(reopened.value()->Get(600).ok());
  EXPECT_TRUE(reopened.value()->Get(601).ok());
}

TEST_F(PersistTest, RecoveryWithoutReplayServesCheckpointOnly) {
  auto store = MakeBootstrappedStore(SmallOptions());
  ASSERT_TRUE(store->Checkpoint(Path("store.snap")).ok());
  ASSERT_TRUE(store->Put(700, GroupValue(0, 3)).ok());

  persist::RecoveryOptions recovery;
  recovery.replay_op_log = false;
  recovery.attach_op_log = false;
  auto reopened = PnwStore::Open(Path("store.snap"), recovery);
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  EXPECT_TRUE(reopened.value()->Get(700).status().IsNotFound());
  EXPECT_FALSE(reopened.value()->op_log_attached());
}

TEST_F(PersistTest, NvmIndexAndBitWearRoundTrip) {
  PnwOptions options = SmallOptions();
  options.index_placement = IndexPlacement::kNvmPathHash;
  options.track_bit_wear = true;
  auto store = MakeBootstrappedStore(options);
  for (size_t i = 0; i < 8; ++i) {
    ASSERT_TRUE(
        store->Put(800 + i, GroupValue(i % 2, static_cast<uint8_t>(i))).ok());
  }
  ASSERT_TRUE(store->Checkpoint(Path("store.snap")).ok());

  auto reopened = PnwStore::Open(Path("store.snap"));
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  // The NVM-resident index came back with the device contents, including
  // its DRAM-side size counter.
  EXPECT_EQ(reopened.value()->size(), store->size());
  for (size_t i = 0; i < 8; ++i) {
    EXPECT_EQ(reopened.value()->Get(800 + i).value(),
              GroupValue(i % 2, static_cast<uint8_t>(i)));
  }
  // Per-bit wear histograms round-trip too (Fig. 13 survives restarts).
  EXPECT_EQ(reopened.value()->device().bit_write_counts(),
            store->device().bit_write_counts());
}

TEST_F(PersistTest, ShardedCheckpointRoundTripsInParallel) {
  ShardedOptions options;
  options.num_shards = 4;
  options.store = SmallOptions();
  options.store.initial_buckets = 128;
  options.store.capacity_buckets = 256;
  auto store = ShardedPnwStore::Open(options).value();

  std::vector<uint64_t> keys(96);
  std::vector<std::vector<uint8_t>> values(96);
  for (size_t i = 0; i < keys.size(); ++i) {
    keys[i] = i;
    values[i] = GroupValue(i % 2, static_cast<uint8_t>(i / 2));
  }
  ASSERT_TRUE(store->Bootstrap(keys, values).ok());
  for (size_t i = 0; i < 32; ++i) {
    ASSERT_TRUE(
        store->Put(1000 + i, GroupValue(i % 2, static_cast<uint8_t>(i))).ok());
  }

  ASSERT_TRUE(store->Checkpoint(Path("ckpt")).ok());
  // Post-checkpoint traffic lands in the per-shard op-logs.
  for (size_t i = 0; i < 16; ++i) {
    ASSERT_TRUE(
        store->Put(2000 + i, GroupValue(i % 2, static_cast<uint8_t>(i))).ok());
  }
  ASSERT_TRUE(store->Delete(1000).ok());

  auto reopened_result = ShardedPnwStore::Open(Path("ckpt"));
  ASSERT_TRUE(reopened_result.ok()) << reopened_result.status();
  auto& reopened = *reopened_result.value();

  // Aggregate metrics match the pre-crash store (compared before the
  // verification Gets below move them).
  const auto want = store->AggregatedMetrics();
  const auto got = reopened.AggregatedMetrics();
  ExpectMetricsEqual(got.totals, want.totals);
  EXPECT_EQ(got.MaxBucketWrites(), want.MaxBucketWrites());

  // Same shard count and routing as the checkpointed store.
  EXPECT_EQ(reopened.num_shards(), store->num_shards());
  for (uint64_t key = 0; key < 64; ++key) {
    EXPECT_EQ(reopened.ShardOf(key), store->ShardOf(key));
  }
  EXPECT_EQ(reopened.size(), store->size());
  for (uint64_t key : keys) {
    EXPECT_EQ(reopened.Get(key).value(), store->Get(key).value());
  }
  for (size_t i = 0; i < 16; ++i) {
    EXPECT_TRUE(reopened.Get(2000 + i).ok());
  }
  EXPECT_TRUE(reopened.Get(1000).status().IsNotFound());
}

// Live backup drill: writer threads keep hammering the store while the
// main thread takes repeated checkpoints of it. Every checkpoint must
// succeed (per-shard locking, no global pause), and recovering the last
// one plus the per-shard op-logs must serve every key the writers wrote.
// Runs under TSan in CI (the "Sharded" name filter), machine-checking the
// checkpoint path's locking discipline.
TEST_F(PersistTest, ShardedLiveCheckpointUnderConcurrentTraffic) {
  ShardedOptions options;
  options.num_shards = 4;
  options.store = SmallOptions();
  options.store.initial_buckets = 2048;
  options.store.capacity_buckets = 4096;
  auto store = ShardedPnwStore::Open(options).value();
  ASSERT_TRUE(store
                  ->Bootstrap(std::span<const uint64_t>(),
                              std::span<const std::vector<uint8_t>>())
                  .ok());

  // Enough writer work that the checkpoints below genuinely race the
  // writers -- operations landing between a shard's snapshot and its log
  // switch are exactly the records the carry logic must preserve.
  constexpr size_t kWriters = 4;
  constexpr size_t kPerWriter = 384;
  std::vector<std::thread> writers;
  writers.reserve(kWriters);
  for (size_t w = 0; w < kWriters; ++w) {
    writers.emplace_back([&store, w] {
      for (size_t i = 0; i < kPerWriter; ++i) {
        const uint64_t key = w * 1000 + i;
        ASSERT_TRUE(
            store->Put(key, GroupValue(i % 2, static_cast<uint8_t>(i))).ok());
      }
    });
  }
  // Checkpoints race the writers; each one locks shards one at a time.
  for (int c = 0; c < 3; ++c) {
    EXPECT_TRUE(store->Checkpoint(Path("live")).ok());
  }
  for (auto& writer : writers) {
    writer.join();
  }
  // Post-join ops land in the attached per-shard op-logs too.
  ASSERT_TRUE(store->Put(9999, GroupValue(1, 0x11)).ok());

  auto reopened = ShardedPnwStore::Open(Path("live"));
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  EXPECT_EQ(reopened.value()->size(), store->size());
  for (size_t w = 0; w < kWriters; ++w) {
    for (size_t i = 0; i < kPerWriter; ++i) {
      const uint64_t key = w * 1000 + i;
      EXPECT_EQ(reopened.value()->Get(key).value(), store->Get(key).value());
    }
  }
  EXPECT_EQ(reopened.value()->Get(9999).value(), GroupValue(1, 0x11));
}

TEST_F(PersistTest, ShardedOpenRejectsUnfinishedCheckpoint) {
  // A directory with shard snapshots but no MANIFEST (the crash window of
  // Checkpoint) must be rejected cleanly.
  fs::create_directories(Path("partial"));
  std::ofstream(Path("partial") + "/" +
                ShardedPnwStore::ShardSnapshotName(0))
      << "half a shard";
  auto reopened = ShardedPnwStore::Open(Path("partial"));
  ASSERT_FALSE(reopened.ok());
  EXPECT_TRUE(reopened.status().IsNotFound()) << reopened.status();
  EXPECT_NE(reopened.status().message().find("MANIFEST"), std::string::npos);
}

// Low-level op-log properties: group fsync bookkeeping and torn-tail
// detection straight through the persist API.
TEST_F(PersistTest, OpLogReadBackAndTornTailDetection) {
  const std::string path = Path("ops.oplog");
  {
    auto writer =
        persist::OpLogWriter::Open(path, /*sync_every=*/2, /*epoch=*/7)
            .value();
    const std::vector<uint8_t> v1{1, 2, 3};
    const std::vector<uint8_t> v2{4, 5};
    ASSERT_TRUE(writer->Append(persist::OpType::kPut, 10, v1).ok());
    ASSERT_TRUE(writer->Append(persist::OpType::kUpdate, 11, v2).ok());
    ASSERT_TRUE(writer->Append(persist::OpType::kDelete, 12, {}).ok());
    EXPECT_EQ(writer->appended(), 3u);
  }
  auto contents = persist::ReadOpLog(path).value();
  ASSERT_EQ(contents.records.size(), 3u);
  EXPECT_TRUE(contents.has_header);
  EXPECT_EQ(contents.epoch, 7u);
  EXPECT_FALSE(contents.tail_truncated);
  EXPECT_EQ(contents.records[0].op, persist::OpType::kPut);
  EXPECT_EQ(contents.records[0].key, 10u);
  EXPECT_EQ(contents.records[0].value, (std::vector<uint8_t>{1, 2, 3}));
  EXPECT_EQ(contents.records[2].op, persist::OpType::kDelete);
  EXPECT_TRUE(contents.records[2].value.empty());

  // Corrupt the second record's payload: the scan stops there (the rest
  // of the file is untrusted once one CRC fails) and reports truncation.
  auto bytes = persist::ReadFileBytes(path).value();
  // 16B header | 8B frame 1 | 12B body 1 | 8B frame 2 | into body 2.
  bytes[16 + 8 + 12 + 8 + 5] ^= 0xff;
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  out.close();
  auto damaged = persist::ReadOpLog(path).value();
  EXPECT_EQ(damaged.records.size(), 1u);
  EXPECT_TRUE(damaged.tail_truncated);
}

// ReadOpLog's resume offset: the records from a boundary on, with the
// header (epoch) still read and valid_bytes always an absolute offset.
TEST_F(PersistTest, OpLogResumeOffsetReadsOnlyTheTail) {
  const std::string path = Path("resume.oplog");
  std::vector<uint64_t> ends;  // file size after the header, then each record
  {
    auto writer =
        persist::OpLogWriter::Open(path, /*sync_every=*/8, /*epoch=*/9)
            .value();
    ends.push_back(fs::file_size(path));
    const std::vector<uint8_t> v1{1, 2, 3};
    const std::vector<uint8_t> v2{4, 5};
    ASSERT_TRUE(writer->Append(persist::OpType::kPut, 10, v1).ok());
    ends.push_back(fs::file_size(path));
    ASSERT_TRUE(writer->Append(persist::OpType::kUpdate, 11, v2).ok());
    ends.push_back(fs::file_size(path));
    ASSERT_TRUE(writer->Append(persist::OpType::kDelete, 12, {}).ok());
    ends.push_back(fs::file_size(path));
  }
  const uint64_t size = fs::file_size(path);
  ASSERT_EQ(ends.front(), 16u);
  ASSERT_EQ(ends.back(), size);

  const auto read = [&](uint64_t offset) {
    auto contents = persist::ReadOpLog(path, offset);
    EXPECT_TRUE(contents.ok()) << contents.status();
    EXPECT_TRUE(contents.value().has_header);
    EXPECT_EQ(contents.value().epoch, 9u);
    return contents.value();
  };

  // At the header (and below it, clamped up): every record.
  for (const uint64_t offset : {uint64_t{0}, uint64_t{16}}) {
    const auto all = read(offset);
    ASSERT_EQ(all.records.size(), 3u) << offset;
    EXPECT_EQ(all.valid_bytes, size);
    EXPECT_FALSE(all.tail_truncated);
  }

  // On a mid-log record boundary: the records after it, nothing before.
  const auto mid = read(ends[1]);
  ASSERT_EQ(mid.records.size(), 2u);
  EXPECT_EQ(mid.records[0].op, persist::OpType::kUpdate);
  EXPECT_EQ(mid.records[0].key, 11u);
  EXPECT_EQ(mid.records[0].value, (std::vector<uint8_t>{4, 5}));
  EXPECT_EQ(mid.records[1].op, persist::OpType::kDelete);
  EXPECT_EQ(mid.valid_bytes, size);
  EXPECT_FALSE(mid.tail_truncated);

  // Equal to the file size, and past EOF (clamped): no records, and the
  // valid prefix is the whole file.
  for (const uint64_t offset : {size, size + 1000}) {
    const auto none = read(offset);
    EXPECT_TRUE(none.records.empty()) << offset;
    EXPECT_EQ(none.valid_bytes, size) << offset;
    EXPECT_FALSE(none.tail_truncated) << offset;
  }

  // Before a torn record: tear the last record, resume at the boundary
  // before the second one.
  fs::resize_file(path, size - 3);
  const auto torn = read(ends[1]);
  ASSERT_EQ(torn.records.size(), 1u);
  EXPECT_EQ(torn.records[0].key, 11u);
  EXPECT_EQ(torn.valid_bytes, ends[2]);
  EXPECT_TRUE(torn.tail_truncated);
  // Resuming right at the torn record yields nothing but the truncation.
  const auto at_tear = read(ends[2]);
  EXPECT_TRUE(at_tear.records.empty());
  EXPECT_EQ(at_tear.valid_bytes, ends[2]);
  EXPECT_TRUE(at_tear.tail_truncated);
}

// The two-phase checkpoint's carry, deterministically: operations issued
// between WriteCheckpoint and FinishCheckpoint land in the old log after
// the snapshot mark, and FinishCheckpoint must move exactly those -- no
// more, no fewer -- into the new generation's log, so that Open of the new
// snapshot replays them to the same state, wear and metrics.
TEST_F(PersistTest, CheckpointCarriesOnlyTheOpsThatRacedTheSnapshot) {
  for (const bool same_path : {false, true}) {
    SCOPED_TRACE(same_path ? "same path" : "new path");
    auto store = MakeBootstrappedStore(SmallOptions());
    const std::string first = Path(same_path ? "same.snap" : "first.snap");
    const std::string second = Path(same_path ? "same.snap" : "second.snap");
    ASSERT_TRUE(store->Checkpoint(first).ok());
    // Logged before the snapshot: folded into it, never carried.
    for (uint64_t i = 0; i < 6; ++i) {
      ASSERT_TRUE(store->Put(100 + i, GroupValue(i % 2, 1)).ok());
    }
    ASSERT_TRUE(store->Delete(0).ok());

    ASSERT_TRUE(store->WriteCheckpoint(second).ok());
    // N = 8 ops racing the snapshot: puts, an update, deletes.
    for (uint64_t i = 0; i < 4; ++i) {
      ASSERT_TRUE(store->Put(200 + i, GroupValue((i + 1) % 2, 2)).ok());
    }
    ASSERT_TRUE(store->Update(100, GroupValue(1, 3)).ok());
    ASSERT_TRUE(store->Delete(101).ok());
    ASSERT_TRUE(store->Delete(201).ok());
    ASSERT_TRUE(store->Delete(1).ok());
    ASSERT_TRUE(store->FinishCheckpoint(second).ok());

    const auto log =
        persist::ReadOpLog(second + PnwStore::kOpLogSuffix).value();
    ASSERT_EQ(log.records.size(), 8u);
    EXPECT_FALSE(log.tail_truncated);
    EXPECT_EQ(log.records.front().key, 200u);
    EXPECT_EQ(log.records[4].op, persist::OpType::kUpdate);
    EXPECT_EQ(log.records.back().op, persist::OpType::kDelete);
    EXPECT_EQ(log.records.back().key, 1u);

    auto reopened_result = PnwStore::Open(second);
    ASSERT_TRUE(reopened_result.ok()) << reopened_result.status();
    auto& reopened = *reopened_result.value();
    ExpectMetricsEqual(reopened.metrics(), store->metrics());
    EXPECT_EQ(reopened.wear_tracker().bucket_write_counts(),
              store->wear_tracker().bucket_write_counts());
    EXPECT_EQ(reopened.device().counters().total_bits_written,
              store->device().counters().total_bits_written);
    EXPECT_EQ(reopened.device().counters().total_write_ops,
              store->device().counters().total_write_ops);
    EXPECT_DOUBLE_EQ(reopened.device().counters().total_latency_ns,
                     store->device().counters().total_latency_ns);
    EXPECT_EQ(reopened.device().word_write_counts(),
              store->device().word_write_counts());
    for (size_t c = 0; c < store->pool().num_clusters(); ++c) {
      EXPECT_EQ(reopened.pool().FreeList(c), store->pool().FreeList(c));
    }
    EXPECT_EQ(reopened.size(), store->size());
    for (const uint64_t key : {0, 1, 100, 101, 200, 201, 203}) {
      const auto want = store->Get(key);
      const auto got = reopened.Get(key);
      ASSERT_EQ(want.ok(), got.ok()) << key;
      if (want.ok()) {
        EXPECT_EQ(want.value(), got.value()) << key;
      }
    }
  }
}

// The crash window between a snapshot's rename and the op-log reset: the
// durable state is then a NEW snapshot paired with the PREVIOUS epoch's
// log. Those records are already folded into the snapshot, so recovery
// must discard them -- replaying would double-apply puts (skewing wear
// and metrics) and fail outright on deletes of already-deleted keys.
TEST_F(PersistTest, StaleOpLogFromPreviousEpochIsIgnored) {
  auto store = MakeBootstrappedStore(SmallOptions());
  ASSERT_TRUE(store->Checkpoint(Path("store.snap")).ok());
  ASSERT_TRUE(store->Put(900, GroupValue(0, 1)).ok());
  ASSERT_TRUE(store->Delete(900).ok());
  const std::string log_path = Path("store.snap") + PnwStore::kOpLogSuffix;
  const auto stale_log = persist::ReadFileBytes(log_path).value();

  // Second checkpoint folds those ops into the snapshot and resets the
  // log; simulate the crash-before-reset by putting the old log back.
  ASSERT_TRUE(store->Checkpoint(Path("store.snap")).ok());
  std::ofstream out(log_path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(stale_log.data()),
            static_cast<std::streamsize>(stale_log.size()));
  out.close();

  auto reopened = PnwStore::Open(Path("store.snap"));
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  // The stale records were not replayed: state matches the second
  // checkpoint exactly (900 stays deleted, wear/metrics as checkpointed).
  // Metrics first -- the miss probe below would move get_misses.
  ExpectMetricsEqual(reopened.value()->metrics(), store->metrics());
  EXPECT_TRUE(reopened.value()->Get(900).status().IsNotFound());
  EXPECT_EQ(reopened.value()->wear_tracker().bucket_write_counts(),
            store->wear_tracker().bucket_write_counts());
  // And the re-attached log was re-stamped: a write after recovery is
  // replayable by the next open.
  ASSERT_TRUE(reopened.value()->Put(901, GroupValue(1, 2)).ok());
  auto again = PnwStore::Open(Path("store.snap"));
  ASSERT_TRUE(again.ok()) << again.status();
  EXPECT_TRUE(again.value()->Get(901).ok());
}

// Repeated checkpoints into the same directory write fresh epoch
// generations with the MANIFEST as commit point: a crash mid-checkpoint
// (partial generation, manifest still pointing at the previous one) must
// recover the previous complete checkpoint, and committed checkpoints
// garbage-collect superseded generations.
TEST_F(PersistTest, ShardedRepeatedCheckpointsAndCrashFallback) {
  ShardedOptions options;
  options.num_shards = 2;
  options.store = SmallOptions();
  auto store = ShardedPnwStore::Open(options).value();
  ASSERT_TRUE(store
                  ->Bootstrap(std::span<const uint64_t>(),
                              std::span<const std::vector<uint8_t>>())
                  .ok());
  ASSERT_TRUE(store->Put(1, GroupValue(0, 1)).ok());
  ASSERT_TRUE(store->Checkpoint(Path("ckpt")).ok());
  ASSERT_TRUE(store->Put(2, GroupValue(1, 2)).ok());
  ASSERT_TRUE(store->Checkpoint(Path("ckpt")).ok());

  // The superseded generation was garbage-collected after the commit.
  EXPECT_FALSE(fs::exists(Path("ckpt") + "/epoch-000001"));
  EXPECT_TRUE(fs::exists(Path("ckpt") + "/epoch-000002"));

  // Simulate a checkpoint that crashed before its manifest commit: a
  // partial next generation lying around must not be opened.
  fs::create_directories(Path("ckpt") + "/epoch-000003");
  std::ofstream(Path("ckpt") + "/epoch-000003/" +
                ShardedPnwStore::ShardSnapshotName(0))
      << "torn half-written shard";
  auto reopened = ShardedPnwStore::Open(Path("ckpt"));
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  EXPECT_TRUE(reopened.value()->Get(1).ok());
  EXPECT_TRUE(reopened.value()->Get(2).ok());

  // The recovered store checkpoints into the next generation and GCs the
  // partial one.
  ASSERT_TRUE(reopened.value()->Put(3, GroupValue(0, 3)).ok());
  ASSERT_TRUE(reopened.value()->Checkpoint(Path("ckpt")).ok());
  EXPECT_FALSE(fs::exists(Path("ckpt") + "/epoch-000002"));
  auto latest = ShardedPnwStore::Open(Path("ckpt"));
  ASSERT_TRUE(latest.ok()) << latest.status();
  EXPECT_TRUE(latest.value()->Get(3).ok());
}

// --- PR 5: batched op-log capture.

TEST_F(PersistTest, AppendBatchIsByteIdenticalToSingleAppends) {
  // A batch of N must leave exactly the bytes N single Appends leave --
  // same framing, same CRCs -- so recovery replays either identically.
  const std::vector<uint8_t> v1 = GroupValue(0, 1);
  const std::vector<uint8_t> v2 = GroupValue(1, 2);
  {
    auto single =
        persist::OpLogWriter::Open(Path("single.oplog"), 32, 7).value();
    ASSERT_TRUE(single->Append(persist::OpType::kPut, 10, v1).ok());
    ASSERT_TRUE(single->Append(persist::OpType::kUpdate, 11, v2).ok());
    ASSERT_TRUE(single->Append(persist::OpType::kDelete, 12, {}).ok());
  }
  {
    auto batched =
        persist::OpLogWriter::Open(Path("batched.oplog"), 32, 7).value();
    const std::vector<persist::OpLogEntry> entries = {
        {persist::OpType::kPut, 10, v1},
        {persist::OpType::kUpdate, 11, v2},
        {persist::OpType::kDelete, 12, {}},
    };
    ASSERT_TRUE(batched->AppendBatch(entries).ok());
    EXPECT_EQ(batched->appended(), 3u);
  }
  const auto single_bytes = persist::ReadFileBytes(Path("single.oplog"));
  const auto batched_bytes = persist::ReadFileBytes(Path("batched.oplog"));
  ASSERT_TRUE(single_bytes.ok());
  ASSERT_TRUE(batched_bytes.ok());
  EXPECT_EQ(single_bytes.value(), batched_bytes.value());
}

TEST_F(PersistTest, MultiPutBatchCaptureReplaysOnRecovery) {
  auto store = MakeBootstrappedStore(SmallOptions());
  ASSERT_TRUE(store->Checkpoint(Path("mp.snap")).ok());

  // One MultiPut batch mixing fresh keys, an overwrite of a bootstrapped
  // key (endurance-first UPDATE), and an in-batch duplicate. Everything it
  // applies must come back from snapshot + group-appended log replay.
  const std::vector<uint64_t> keys = {100, 3, 101, 100};
  const std::vector<std::vector<uint8_t>> values = {
      GroupValue(0, 0x11), GroupValue(1, 0x22), GroupValue(0, 0x33),
      GroupValue(1, 0x44)};
  const auto statuses = store->MultiPut(keys, values);
  for (size_t i = 0; i < statuses.size(); ++i) {
    ASSERT_TRUE(statuses[i].ok()) << "slot " << i;
  }
  // The group append captured one record per applied operation, already
  // flushed to the OS.
  auto log = persist::ReadOpLog(Path("mp.snap") + PnwStore::kOpLogSuffix);
  ASSERT_TRUE(log.ok());
  EXPECT_EQ(log.value().records.size(), 4u);
  EXPECT_FALSE(log.value().tail_truncated);
  // Slot 0 inserted a fresh key (PUT); slot 3 overwrote it (UPDATE).
  EXPECT_EQ(log.value().records[0].op, persist::OpType::kPut);
  EXPECT_EQ(log.value().records[3].op, persist::OpType::kUpdate);
  EXPECT_GT(store->metrics().log_wall_ns, 0.0);

  auto reopened = PnwStore::Open(Path("mp.snap"));
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  EXPECT_EQ(reopened.value()->Get(100).value(), GroupValue(1, 0x44));
  EXPECT_EQ(reopened.value()->Get(3).value(), GroupValue(1, 0x22));
  EXPECT_EQ(reopened.value()->Get(101).value(), GroupValue(0, 0x33));
  EXPECT_EQ(reopened.value()->size(), store->size());
  EXPECT_EQ(reopened.value()->device().counters().total_bits_written,
            store->device().counters().total_bits_written);
}

TEST_F(PersistTest, LogWallTimeRoundTripsInSnapshot) {
  auto store = MakeBootstrappedStore(SmallOptions());
  ASSERT_TRUE(store->Checkpoint(Path("wall.snap")).ok());
  ASSERT_TRUE(store->Put(70, GroupValue(0, 9)).ok());
  ASSERT_GT(store->metrics().log_wall_ns, 0.0);
  // Re-checkpoint so the accrued log wall time lands in the snapshot.
  ASSERT_TRUE(store->Checkpoint(Path("wall.snap")).ok());
  auto reopened = PnwStore::Open(Path("wall.snap"));
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  EXPECT_DOUBLE_EQ(reopened.value()->metrics().log_wall_ns,
                   store->metrics().log_wall_ns);
}

}  // namespace
}  // namespace pnw::core
