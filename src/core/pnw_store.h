#ifndef PNW_CORE_PNW_STORE_H_
#define PNW_CORE_PNW_STORE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "src/core/dynamic_address_pool.h"
#include "src/core/metrics.h"
#include "src/core/model_manager.h"
#include "src/core/pnw_options.h"
#include "src/index/key_index.h"
#include "src/nvm/nvm_device.h"
#include "src/util/arena.h"
#include "src/nvm/start_gap.h"
#include "src/nvm/wear_tracker.h"
#include "src/persist/op_log.h"
#include "src/persist/recovery.h"
#include "src/util/mutex.h"
#include "src/util/status.h"
#include "src/util/thread_annotations.h"

namespace pnw::persist {
class SnapshotReader;
}  // namespace pnw::persist

namespace pnw::index {
class DramHashIndex;
}  // namespace pnw::index

namespace pnw::core {

/// Predict-and-Write K/V store (the paper's contribution, Section V).
///
/// Components (Fig. 2): a K-means `ValueModel` and the `DynamicAddressPool`
/// on DRAM; a hash index (DRAM or NVM-resident path hashing, per
/// `PnwOptions::index_placement`); and the K/V *data zone* on simulated PCM.
/// A PUT predicts the cluster of the incoming value, acquires a free
/// address whose resident (stale) data is similar, and writes
/// differentially so only the Hamming-different bits cost endurance.
///
/// Data-zone bucket layout: [8-byte key][value_bytes value]; bucket
/// occupancy flags live in a separate NVM bitmap, and deletes reset a
/// single flag bit (paper Section V-B2).
///
/// Thread-safety contract, machine-checked by Clang Thread Safety Analysis
/// (see src/util/thread_annotations.h and ARCHITECTURE.md "Concurrency
/// contracts"): every store owns a reader-writer capability `mu_`,
/// reachable through mu(). Mutating operations (Put/Delete/Update/
/// Bootstrap/TrainModel/Checkpoint/...) require it exclusively; Get/
/// MultiGet and the metrics/geometry accessors require it at least shared
/// -- the read path is index lookup (const) + device Peek + relaxed-atomic
/// metrics, mutating nothing else, so any number of readers proceed in
/// parallel (matching the paper's single-writer evaluation per shard).
/// Background retraining runs on its own thread and is integrated via an
/// atomic model swap. Single-threaded callers (tests, benches) take
/// util::WriterLock/ReaderLock guards, which are uncontended one-atomic-op
/// acquisitions; the concurrent entry point is ShardedPnwStore
/// (src/core/sharded_store.h), which routes keys across N independent
/// PnwStore shards and locks exactly one shard per operation.
class PnwStore {
 public:
  /// Bumped whenever the snapshot section layout changes; a snapshot
  /// written under any other version is rejected with a clean
  /// InvalidArgument ("snapshot version mismatch") instead of a misparse.
  /// v2: StoreMetrics gained `get_misses` (PR 4 read-accounting overhaul).
  /// v3: StoreMetrics gained `log_wall_ns` (PR 5 write-path cost split).
  /// v4: endurance layer -- PnwOptions gained the Start-Gap/migration
  ///     knobs, StoreMetrics gained migrations/gap_moves/wear_device_ns,
  ///     the wear section carries the physical-slot histogram, and a new
  ///     remap section serializes the Start-Gap registers.
  /// v5: raw-speed ceiling -- StoreMetrics gained the optimistic-read
  ///     split (optimistic_gets/locked_gets/optimistic_retries). The
  ///     arena gauges are snapshots of process RAM and are NOT serialized.
  static constexpr uint32_t kSnapshotVersion = 5;
  /// The op-log of a checkpoint at `path` lives at `path + kOpLogSuffix`.
  static constexpr const char* kOpLogSuffix = ".oplog";

  /// Validates options and sizes the simulated device.
  static Result<std::unique_ptr<PnwStore>> Open(const PnwOptions& options);

  /// Reopen a checkpointed store: parse + checksum-verify the snapshot at
  /// `path`, rebuild every DRAM and NVM structure exactly as checkpointed
  /// (no retraining -- the K-means centroids, PCA basis, pool labels, and
  /// wear counters come back verbatim), then replay the op-log at
  /// `path + kOpLogSuffix` (truncating a torn tail first) and re-attach it
  /// for subsequent writes, per `recovery`. Errors are clean Statuses:
  /// NotFound (no such snapshot), Corruption (checksum/structural damage),
  /// InvalidArgument (snapshot version mismatch).
  static Result<std::unique_ptr<PnwStore>> Open(
      const std::string& path,
      const persist::RecoveryOptions& recovery = persist::RecoveryOptions{});

  /// Write a crash-consistent snapshot of the entire store to `path`
  /// (atomically: temp file + fsync + rename, so a crash mid-checkpoint
  /// preserves the previous one), then reset + (re)attach the op-log at
  /// `path + kOpLogSuffix` so every later PUT/UPDATE/DELETE is captured
  /// for replay. Serialized state: options, data zone + occupancy flags,
  /// device wear histograms and counters, per-bucket wear, the key index,
  /// the trained model (encoder + PCA + centroids), the dynamic address
  /// pool (labels and pop order), and all operation metrics.
  ///
  /// Interplay with ResetWearAndMetrics(): a checkpoint is a pure read of
  /// the current epoch, so checkpointing right after a reset persists the
  /// zeroed counters (and an open of that snapshot starts the fresh
  /// epoch). The reset itself is NOT an op-log record: recovering a
  /// checkpoint taken *before* the reset replays the logged ops on the
  /// old epoch, i.e. a reset is durable only once a checkpoint follows it.
  ///
  /// A background training run in flight is deliberately not captured
  /// (the snapshot holds the currently-served model); after a crash the
  /// run is simply lost and retraining re-triggers by the usual pacing.
  Status Checkpoint(const std::string& path) PNW_REQUIRES(mu_);

  /// Two-phase form of Checkpoint() for coordinated multi-store commits
  /// (ShardedPnwStore): WriteCheckpoint writes the snapshot only, leaving
  /// the live op-log untouched -- operations keep being captured against
  /// the *previous* checkpoint until the coordinator reaches its commit
  /// point -- and FinishCheckpoint then resets + re-attaches the log at
  /// `path + kOpLogSuffix` under the new epoch. Checkpoint(path) is
  /// exactly WriteCheckpoint(path) + FinishCheckpoint(path).
  Status WriteCheckpoint(const std::string& path) PNW_REQUIRES(mu_);
  Status FinishCheckpoint(const std::string& path) PNW_REQUIRES(mu_);

  /// True while an op-log is attached and healthy (Checkpoint/Open attach
  /// one; an append failure detaches it and surfaces Internal on the op
  /// that could not be captured).
  bool op_log_attached() const PNW_REQUIRES_SHARED(mu_) {
    return op_log_ != nullptr;
  }

  /// The store's reader-writer capability. Exposed so callers (and the
  /// thread-safety analysis) name the lock they hold: ShardedPnwStore's
  /// entry points and single-threaded harnesses alike take
  /// util::WriterLock/ReaderLock guards on shard.mu().
  util::SharedMutex& mu() const PNW_RETURN_CAPABILITY(mu_) { return mu_; }

  ~PnwStore();
  PnwStore(const PnwStore&) = delete;
  PnwStore& operator=(const PnwStore&) = delete;

  /// Warm-up (paper Section VI-A: "we store some items as old data before
  /// starting our tests"): writes values[i] under keys[i] into the first
  /// buckets, then runs Algorithm 1 (train + build the dynamic address
  /// pool). Must be called on a fresh store.
  Status Bootstrap(std::span<const uint64_t> keys,
                   std::span<const std::vector<uint8_t>> values)
      PNW_REQUIRES(mu_);

  /// Algorithm 2. `value.size()` must equal options.value_bytes. A PUT of
  /// an existing key behaves as UPDATE under the configured update mode.
  Status Put(uint64_t key, std::span<const uint8_t> value) PNW_REQUIRES(mu_);

  /// Batched write: one Status per (key, value) slot, in slot order
  /// (duplicate keys allowed; later slots observe earlier ones, so the
  /// second occurrence of a key is an UPDATE). Semantically each slot
  /// behaves exactly like Put(keys[i], values[i]); the batch form buys
  /// the amortizations of the write hot path:
  ///   - the whole batch is predicted up front through the scratch-backed
  ///     batch encoder path (one wall-clock timing scope, zero
  ///     steady-state allocations);
  ///   - the attached op-log receives ONE group append for every applied
  ///     operation (one buffer build + one flush + at most one deferred
  ///     group fsync) instead of a flush per record. If that single group
  ///     append fails, every applied-but-uncaptured slot reports Internal
  ///     (mirroring Put's contract) and the log is detached.
  /// A mid-batch model swap (a retrain triggered by an earlier slot) keeps
  /// serving the remaining slots with their batch-time predictions: labels
  /// steer placement quality, never correctness.
  std::vector<Status> MultiPut(std::span<const uint64_t> keys,
                               std::span<const std::span<const uint8_t>> values)
      PNW_REQUIRES(mu_);

  /// Convenience overload for callers holding owned values.
  std::vector<Status> MultiPut(std::span<const uint64_t> keys,
                               std::span<const std::vector<uint8_t>> values)
      PNW_REQUIRES(mu_);

  /// Section V-B4: index lookup + data-zone read. One copy, straight from
  /// device memory into the returned vector. Hits bump `gets` and
  /// `locked_gets`, misses (index NotFound, or a key-mismatched bucket ->
  /// Internal) bump `get_misses`; the simulated device time lands in
  /// `get_device_ns` on every exit that read the device, mismatches
  /// included. Safe to call concurrently with other Get/MultiGet calls
  /// (see class comment).
  Result<std::vector<uint8_t>> Get(uint64_t key) PNW_REQUIRES_SHARED(mu_);

  /// Seqlock optimistic Get: the same read as Get(), performed WITHOUT
  /// taking mu_ -- the reader snapshots the shard's sequence word
  /// (SharedMutex::OptimisticSeq), runs the lock-free index lookup +
  /// byte-wise-atomic bucket copy, and only trusts the result if the
  /// sequence validates (no writer entered in between). Returns
  /// std::nullopt when the caller must fall back to the locked path:
  /// optimistic reads disabled, the index has no lock-free lookup
  /// (NVM path hashing), or the conflict-retry budget was exhausted.
  /// A returned value carries full Get() accounting (hits bump `gets` and
  /// `optimistic_gets`; validated misses bump `get_misses`); discarded
  /// conflicting attempts bump only `optimistic_retries`.
  ///
  /// Safe to call with NO lock held, concurrently with writers -- that is
  /// its whole point. ShardedPnwStore::Get/MultiGet try it first and fall
  /// back to ReaderLock + Get().
  std::optional<Result<std::vector<uint8_t>>> TryGetOptimistic(uint64_t key)
      PNW_NO_THREAD_SAFETY_ANALYSIS;

  /// Batched Get: one Result per key, in key order. Same accounting and
  /// concurrency contract as Get; ShardedPnwStore builds its shard-grouped
  /// MultiGet on top of this.
  std::vector<Result<std::vector<uint8_t>>> MultiGet(
      std::span<const uint64_t> keys) PNW_REQUIRES_SHARED(mu_);

  /// Algorithm 3: reset flag bit, re-label the freed address by its
  /// resident content, recycle it into the pool.
  Status Delete(uint64_t key) PNW_REQUIRES(mu_);

  /// Section V-B3, honoring options.update_mode.
  Status Update(uint64_t key, std::span<const uint8_t> value)
      PNW_REQUIRES(mu_);

  /// Algorithm 1: sample the data zone, train a fresh model synchronously,
  /// swap it in, and re-label the pool's free addresses.
  Status TrainModel() PNW_REQUIRES(mu_);

  /// Endurance maintenance: re-place up to `max_buckets` of the
  /// hottest-worn resident buckets into colder free addresses, choosing
  /// each destination in the stored value's ranked-cluster order (the
  /// pool's min-wear acquire) so placement quality survives relocation. A
  /// bucket qualifies as a victim when its K/V write count reaches both
  /// options().migration_min_writes and migration_hot_multiplier times
  /// the active-zone mean; a victim with no colder free destination is
  /// skipped without side effects. Each performed relocation is op-logged
  /// (OpType::kMigrate, keyed by the logical bucket index) and replayed
  /// deterministically on recovery. Requires store_keys_in_data_zone (the
  /// index entry is re-pointed via the bucket's key prefix). Callers
  /// serialize like any mutating op (ShardedPnwStore's migrator holds the
  /// shard's exclusive lock). Returns the number of buckets relocated.
  Result<size_t> MigrateHotBuckets(size_t max_buckets) PNW_REQUIRES(mu_);

  /// Drop all DRAM state (index if DRAM-resident, model, pool) and rebuild
  /// it from the NVM data zone -- the recovery path of the Fig. 2a design.
  Status SimulateCrashAndRecover() PNW_REQUIRES(mu_);

  /// Number of K/V pairs currently stored.
  size_t size() const PNW_REQUIRES_SHARED(mu_) { return used_buckets_; }
  /// Buckets activated so far (the data zone grows toward
  /// options().capacity_buckets by extension).
  size_t active_buckets() const PNW_REQUIRES_SHARED(mu_) {
    return active_buckets_;
  }
  /// Occupied fraction of the active data zone (the load factor input).
  double UsedFraction() const PNW_REQUIRES_SHARED(mu_) {
    return active_buckets_ == 0
               ? 0.0
               : static_cast<double>(used_buckets_) /
                     static_cast<double>(active_buckets_);
  }

  /// The validated configuration this store was opened with.
  const PnwOptions& options() const { return options_; }
  /// Operation counters and latency attribution since the last reset.
  const StoreMetrics& metrics() const PNW_REQUIRES_SHARED(mu_) {
    return metrics_;
  }
  /// PUTs since the last (re)training, i.e. the retrain-pacing state that
  /// gates load-factor-triggered retraining (zeroed by ResetWearAndMetrics
  /// so a measured epoch never inherits warm-up pacing).
  size_t puts_since_retrain() const PNW_REQUIRES_SHARED(mu_) {
    return puts_since_retrain_;
  }
  /// The simulated PCM device backing the data zone (and, per options,
  /// the occupancy bitmap and NVM-resident index). The mutable overload
  /// hands out write access, so it demands the exclusive capability;
  /// shared holders get the inspect-only view.
  nvm::NvmDevice& device() PNW_REQUIRES(mu_) { return *device_; }
  const nvm::NvmDevice& device() const PNW_REQUIRES_SHARED(mu_) {
    return *device_;
  }
  /// Per-bucket K/V write counts (paper Fig. 12 input).
  const nvm::WearTracker& wear_tracker() const PNW_REQUIRES_SHARED(mu_) {
    return *wear_;
  }
  /// The Start-Gap remapper in front of the data zone; null unless
  /// options().start_gap_wear_leveling.
  const nvm::StartGapRemapper* remapper() const PNW_REQUIRES_SHARED(mu_) {
    return remapper_.get();
  }
  /// The dynamic address pool: one free-list per predicted cluster. Same
  /// split as device(): mutation demands the exclusive capability.
  DynamicAddressPool& pool() PNW_REQUIRES(mu_) { return pool_; }
  const DynamicAddressPool& pool() const PNW_REQUIRES_SHARED(mu_) {
    return pool_;
  }
  /// Currently served model; null while the store places model-less (DCW).
  std::shared_ptr<const ValueModel> model() const PNW_REQUIRES_SHARED(mu_) {
    return model_;
  }
  /// The (re)training owner, for inspecting background-run status (the
  /// manager serializes its own state internally).
  ModelManager& model_manager() PNW_REQUIRES_SHARED(mu_) { return *manager_; }

  /// Zero all wear counters and operation metrics (benches call this after
  /// warm-up so only measured traffic is scored).
  void ResetWearAndMetrics() PNW_REQUIRES(mu_);

  /// Re-snapshot the arena gauges (metrics().arena_*) from the store's
  /// arenas: the device's data array, the DRAM index's nodes/tables (when
  /// DRAM-resident), and the bucket staging buffer. Gauges are written as
  /// relaxed counters, so shared suffices; ShardedPnwStore's
  /// AggregatedMetrics refreshes every shard before summing.
  void RefreshArenaStats() PNW_REQUIRES_SHARED(mu_);

  /// Data-zone bucket geometry (exposed for tests and benches). Addresses
  /// everywhere above the device -- index entries, pool free-lists, the
  /// occupancy bitmap, the per-bucket wear histogram -- are *logical*
  /// (BucketAddr); only the final device access translates, through
  /// PhysBucketAddr.
  size_t bucket_bytes() const { return bucket_bytes_; }
  uint64_t BucketAddr(size_t bucket) const { return bucket * bucket_bytes_; }
  /// Physical device address currently backing `bucket`: the Start-Gap
  /// translation when wear leveling is on, the identity otherwise. Shared
  /// suffices -- the remapper registers only move under the exclusive
  /// capability (AdvanceGapAfterBlockWrite), so readers translate stably.
  uint64_t PhysBucketAddr(size_t bucket) const PNW_REQUIRES_SHARED(mu_) {
    return remapper_ != nullptr ? remapper_->Translate(bucket)
                                : BucketAddr(bucket);
  }

 private:
  /// Lock-free translation for TryGetOptimistic. The remapper_ pointer
  /// itself is set once in Init and never reseated, so dereferencing it
  /// without the capability is safe; the *registers* it reads are relaxed
  /// atomics whose possibly-stale value the seqlock validation vets.
  uint64_t PhysBucketAddrOptimistic(size_t bucket) const
      PNW_NO_THREAD_SAFETY_ANALYSIS {
    return remapper_ != nullptr ? remapper_->TranslateOptimistic(bucket)
                                : BucketAddr(bucket);
  }
  explicit PnwStore(const PnwOptions& options);

  Status Init() PNW_REQUIRES(mu_);

  /// A cluster label MultiPut's batch predict already computed for a slot's
  /// value, with the generation of the (trained) model that computed it.
  struct LabelHint {
    size_t label = 0;
    uint64_t model_generation = 0;
  };

  /// With a null `hint` the label is predicted here; a hint was predicted
  /// by a trained model, which decides placement attribution.
  Status PutInternal(uint64_t key, std::span<const uint8_t> value,
                     const LabelHint* hint = nullptr) PNW_REQUIRES(mu_);
  Status DeleteInternal(uint64_t key) PNW_REQUIRES(mu_);
  /// Shared Put/MultiPut slot body: upgrade to Update when the key exists,
  /// otherwise PutInternal + op-log capture (deferred while batching).
  Status PutOne(uint64_t key, std::span<const uint8_t> value,
                const LabelHint* hint) PNW_REQUIRES(mu_);
  /// Update under the configured mode, reusing `hint` for the
  /// endurance-first re-placement.
  Status UpdateInternal(uint64_t key, std::span<const uint8_t> value,
                        const LabelHint* hint) PNW_REQUIRES(mu_);

  /// Predicted-cluster ranking with wall-clock accounting; returns {0} when
  /// no model is trained yet (the store then degenerates to DCW placement,
  /// exactly the paper's k=1 behaviour). The returned span aliases
  /// per-store scratch, valid until the next predict/rank call. With
  /// `just_predicted` (`value` is what PredictTimed labeled last) it ranks
  /// the features that call left in the scratch instead of encoding again.
  std::span<const size_t> RankClustersTimed(std::span<const uint8_t> value,
                                            bool just_predicted)
      PNW_REQUIRES(mu_);
  /// Single-label prediction with wall-clock accounting (the PUT fast path).
  size_t PredictTimed(std::span<const uint8_t> value) PNW_REQUIRES(mu_);
  /// Batch prediction with one wall-clock scope for the whole batch; fills
  /// batch_labels_. No-op (labels cleared) when no model is trained.
  void PredictBatchTimed(std::span<const std::span<const uint8_t>> values)
      PNW_REQUIRES(mu_);

  /// Occupancy flag bitmap ops (each is a 1-byte differential NVM write).
  bool GetBucketFlag(size_t bucket) const PNW_REQUIRES_SHARED(mu_);
  Status SetBucketFlag(size_t bucket, bool occupied) PNW_REQUIRES(mu_);

  /// Value bytes resident in a bucket (stale or live), no accounting.
  std::span<const uint8_t> PeekBucketValue(size_t bucket) const
      PNW_REQUIRES_SHARED(mu_);

  /// Uniform sample of data-zone contents for training.
  std::vector<std::vector<uint8_t>> CollectTrainingSamples() const
      PNW_REQUIRES_SHARED(mu_);

  /// Swap in `model` and re-label every free address under it.
  void AdoptModel(std::shared_ptr<const ValueModel> model) PNW_REQUIRES(mu_);

  /// Serve `model` from now on: bumps model_generation_ and forgets every
  /// cached bucket label (they were computed by the model being replaced).
  /// The one place model_ changes.
  void InstallModel(std::shared_ptr<const ValueModel> model)
      PNW_REQUIRES(mu_);

  /// Cluster label of `value` under the served model (0 while model-less),
  /// untimed: re-labeling stored content is not client-facing predict time.
  size_t LabelOf(std::span<const uint8_t> value) PNW_REQUIRES(mu_);

  /// Cluster label of the content resident in `bucket`: the cached label
  /// when known, else LabelOf(value), `value` being that content.
  size_t ResidentLabel(size_t bucket, std::span<const uint8_t> value)
      PNW_REQUIRES(mu_);

  /// Grow the active data zone (new free addresses labeled under the
  /// current model) and trigger retraining per options.
  Status MaybeExtendAndRetrain() PNW_REQUIRES(mu_);

  /// After a (successful, already accounted) data-zone block write:
  /// advance the Start-Gap interval, charging a resulting gap move to
  /// metrics_.wear_device_ns / gap_moves and the physical histogram.
  /// No-op without wear leveling.
  void AdvanceGapAfterBlockWrite() PNW_REQUIRES(mu_);

  /// Relocate one resident bucket to a colder free address (the shared
  /// body of MigrateHotBuckets and kMigrate replay). Decision phase is
  /// Peek-only, so "no colder destination" returns false with zero state
  /// or accounting side effects -- only performed (hence logged)
  /// relocations touch anything, which is what keeps replay bit-for-bit.
  Result<bool> MigrateBucket(size_t bucket) PNW_REQUIRES(mu_);

  /// Collect a finished background model, if any.
  void PollBackgroundModel() PNW_REQUIRES(mu_);

  /// Restore every serialized section of `snap` into this freshly-Init'd
  /// store (geometry mismatches fail with Corruption).
  Status RestoreFrom(const persist::SnapshotReader& snap) PNW_REQUIRES(mu_);

  /// Open (and optionally truncate + re-stamp with the current checkpoint
  /// epoch) the op-log at `path` and attach it so LogOp captures
  /// subsequent operations.
  Status AttachOpLog(const std::string& path, bool truncate)
      PNW_REQUIRES(mu_);

  /// Append one record to the attached op-log (no-op when none is
  /// attached or while replaying). While a MultiPut batch is open the
  /// record is deferred into pending_log_ instead -- FlushBatchLog turns
  /// the whole batch into one group append. On (immediate) append failure
  /// the log is detached -- it no longer matches the store -- and Internal
  /// is returned.
  Status LogOp(persist::OpType op, uint64_t key,
               std::span<const uint8_t> value) PNW_REQUIRES(mu_);

  /// Group-append every deferred record of the open batch (one flush, at
  /// most one deferred fsync). On failure the log is detached and the
  /// slots whose operations were applied but not captured are overwritten
  /// with Internal in `statuses`.
  void FlushBatchLog(std::span<Status> statuses) PNW_REQUIRES(mu_);

  /// The store's reader-writer capability (see mu()). Mutable so const
  /// read paths can acquire it shared through RAII guards.
  mutable util::SharedMutex mu_;

  // Immutable after construction (set in the constructor from validated
  // options): safe to read without the capability.
  PnwOptions options_;
  size_t key_bytes_;  // 8 when keys live in the data zone, else 0
  size_t bucket_bytes_;

  uint64_t flags_base_ PNW_GUARDED_BY(mu_);
  uint64_t index_base_ PNW_GUARDED_BY(mu_);

  std::unique_ptr<nvm::NvmDevice> device_ PNW_GUARDED_BY(mu_);
  std::unique_ptr<nvm::WearTracker> wear_ PNW_GUARDED_BY(mu_);
  /// Logical->physical indirection over the data zone (one spare bucket
  /// slot at the top); null unless options_.start_gap_wear_leveling. Its
  /// registers are position state, not metrics: ResetWearAndMetrics leaves
  /// them alone and checkpoints serialize them (kSectionRemap).
  std::unique_ptr<nvm::StartGapRemapper> remapper_ PNW_GUARDED_BY(mu_);
  std::unique_ptr<index::KeyIndex> index_ PNW_GUARDED_BY(mu_);
  /// Lock-free mirror of index_ for the optimistic read path: points at
  /// index_'s object when it is the arena-backed DRAM index (whose
  /// TryGetOptimistic is safe against concurrent mutators), nullptr when
  /// it is NVM path hashing (optimistic reads unsupported -> callers fall
  /// back to the locked path). Reseated only under the exclusive lock.
  std::atomic<index::DramHashIndex*> opt_index_{nullptr};
  /// Indexes replaced by SimulateCrashAndRecover are retired here instead
  /// of freed: a concurrent optimistic reader may still be traversing the
  /// old one, and its seqlock validation (not a use-after-free crash) is
  /// what must reject the stale lookup. Bounded by the number of simulated
  /// crashes in the store's lifetime.
  std::vector<std::unique_ptr<index::KeyIndex>> index_graveyard_
      PNW_GUARDED_BY(mu_);
  std::unique_ptr<ModelManager> manager_ PNW_GUARDED_BY(mu_);
  std::shared_ptr<const ValueModel> model_ PNW_GUARDED_BY(mu_);
  /// Bumped by every InstallModel. A label computed under another
  /// generation (a MultiPut hint that outlived a mid-batch retrain) is
  /// never cached.
  uint64_t model_generation_ PNW_GUARDED_BY(mu_) = 0;
  /// DRAM-only cluster label of each bucket's resident content under the
  /// served model, set when a PUT or migration places it, so a DELETE
  /// returns the address to the pool without predicting again (Algorithm 3
  /// line 3). kUnknownLabel when not known: InstallModel, an in-place
  /// update, a rollback or Bootstrap. Never serialized; a reopened store
  /// starts with every label unknown.
  static constexpr uint16_t kUnknownLabel = 0xFFFF;
  std::vector<uint16_t> bucket_labels_ PNW_GUARDED_BY(mu_);
  DynamicAddressPool pool_ PNW_GUARDED_BY(mu_);

  size_t active_buckets_ PNW_GUARDED_BY(mu_) = 0;
  size_t used_buckets_ PNW_GUARDED_BY(mu_) = 0;
  size_t puts_since_retrain_ PNW_GUARDED_BY(mu_) = 0;
  /// ModelManager::background_failures() already folded into
  /// metrics_.failed_retrains (see PollBackgroundModel).
  uint64_t background_failures_seen_ PNW_GUARDED_BY(mu_) = 0;
  /// DRAM-side occupancy bitmap, used when !options_.occupancy_flags_on_nvm.
  std::vector<uint8_t> dram_flags_ PNW_GUARDED_BY(mu_);
  bool bootstrapped_ PNW_GUARDED_BY(mu_) = false;
  /// Deliberately NOT PNW_GUARDED_BY(mu_): the analysis guards members
  /// whole, but StoreMetrics splits per field -- its read-side slots
  /// (gets/get_misses/get_device_ns) are RelaxedCounter atomics bumped by
  /// Get/MultiGet under the *shared* capability, while every non-atomic
  /// field is only touched under the exclusive one. Annotating the struct
  /// would force the read path to take the writer lock it exists to avoid;
  /// the per-field discipline is enforced by the TSan CI job and the
  /// metrics-reconcile lint instead.
  StoreMetrics metrics_;
  /// Attached write-ahead log (null until Checkpoint/Open attaches one).
  std::unique_ptr<persist::OpLogWriter> op_log_ PNW_GUARDED_BY(mu_);
  /// Group-fsync interval for (re)attached logs; set by Open's
  /// RecoveryOptions and reused by later Checkpoints so an operator's
  /// durability setting survives re-checkpointing.
  size_t op_log_sync_every_ PNW_GUARDED_BY(mu_) =
      persist::RecoveryOptions{}.op_log_sync_every;
  /// Monotonic checkpoint generation. Stamped into every snapshot and
  /// into the op-log header, tying each log to exactly one snapshot: a
  /// log left behind by a crash between snapshot rename and log reset
  /// carries the previous epoch and is discarded on recovery instead of
  /// replaying records the snapshot already contains.
  uint64_t checkpoint_epoch_ PNW_GUARDED_BY(mu_) = 0;
  /// Between WriteCheckpoint and FinishCheckpoint: the previous log and
  /// its size at snapshot time. Operations logged past that mark raced
  /// the snapshot (sharded phase-1 runs shard by shard while the others
  /// keep serving); FinishCheckpoint re-appends them to the fresh log so
  /// they stay durable even though the new snapshot predates them.
  std::string carry_log_path_ PNW_GUARDED_BY(mu_);
  uint64_t carry_log_mark_ PNW_GUARDED_BY(mu_) = 0;
  /// Set when WriteCheckpoint already attached the new generation's log
  /// (no previous log existed to carry from -- first checkpoint or a
  /// degraded store); FinishCheckpoint then has nothing left to switch.
  bool log_switched_in_write_ PNW_GUARDED_BY(mu_) = false;
  /// True while Open() replays the log: replayed ops must not re-append.
  bool replaying_ PNW_GUARDED_BY(mu_) = false;

  /// Hot-path scratch (all mutating operations run under the exclusive
  /// lock, so one set per store suffices): prediction pipeline buffers,
  /// the [key|value] bucket staging buffer, batch-predicted labels, and
  /// the deferred op-log records (+ their batch slots) of an open
  /// MultiPut. Capacity persists across operations -- the steady-state
  /// write path allocates nothing.
  FeatureScratch predict_scratch_ PNW_GUARDED_BY(mu_);
  /// [key|value] bucket staging, carved from the staging arena at Init
  /// (fixed bucket_bytes_ size, 64-byte aligned) -- the write path's last
  /// per-op heap allocation moved into arena memory like the device array
  /// and the index nodes.
  util::Arena staging_arena_ PNW_GUARDED_BY(mu_){
      util::Arena::Options{.slab_bytes = 4096}};
  std::span<uint8_t> bucket_scratch_ PNW_GUARDED_BY(mu_);
  std::vector<size_t> batch_labels_ PNW_GUARDED_BY(mu_);
  std::vector<persist::OpLogEntry> pending_log_ PNW_GUARDED_BY(mu_);
  std::vector<size_t> pending_log_slots_ PNW_GUARDED_BY(mu_);
  /// Index of the MultiPut slot currently executing (drives
  /// pending_log_slots_); SIZE_MAX outside a batch.
  size_t batch_slot_ PNW_GUARDED_BY(mu_) = SIZE_MAX;
  bool batch_logging_ PNW_GUARDED_BY(mu_) = false;
};

}  // namespace pnw::core

#endif  // PNW_CORE_PNW_STORE_H_
