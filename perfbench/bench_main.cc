// pnw_perfbench: the end-to-end benchmark program of the PNW store.
//
//   pnw_perfbench --workload <cctv_ingest|road_readmostly|mnist_remote>
//                 --seed <n> --seconds <s> --trace <0|1>
//                 [--workdir <dir>] [--trace-out <file>]
//
// --trace 0 reports the end-to-end metrics; --trace 1 reports the per-layer
// metrics (spans around the benchmark's own calls into the store, the client
// and checkpoint/open, program counters, and layer replays). Human-readable
// lines come first; the last stdout line is one JSON object. Any oracle or
// reconcile failure sets "correct": false and exits 1. NOTES.md explains
// the workloads and the noise evidence behind their sizes.
#include <pthread.h>
#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/bench_stats.h"
#include "perfbench/replay.h"
#include "src/core/sharded_store.h"
#include "src/server/client.h"
#include "src/server/server.h"
#include "src/util/random.h"
#include "src/workloads/image_dataset.h"
#include "src/workloads/road_network.h"
#include "src/workloads/video_frames.h"
#include "src/workloads/ycsb.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using pnw::core::PnwStore;
using pnw::core::ShardedMetrics;
using pnw::core::ShardedOptions;
using pnw::core::ShardedPnwStore;
using pnw::core::StoreMetrics;
using Values = std::vector<std::vector<uint8_t>>;

int64_t Now() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Seconds(int64_t ns) { return static_cast<double>(ns) * 1e-9; }

/// Set-up and reopen are each repeated this many times per run; setup_s
/// and recovery_s are their medians.
constexpr int kSetupReps = 5;
constexpr int kReopenReps = 5;

// ---- Failure ledger: every oracle / reconcile mismatch lands here. ----

uint64_t g_failures = 0;

void Fail(const char* fmt, ...) {
  ++g_failures;
  if (g_failures > 20) {
    return;
  }
  std::va_list args;
  va_start(args, fmt);
  std::fputs("FAIL: ", stderr);
  std::vfprintf(stderr, fmt, args);
  std::fputc('\n', stderr);
  va_end(args);
}

void Must(const pnw::Status& s, const char* what) {
  if (!s.ok()) {
    std::fprintf(stderr, "%s: %s\n", what, s.ToString().c_str());
    std::exit(2);
  }
}

template <typename T>
T Must(pnw::Result<T> r, const char* what) {
  Must(r.status(), what);
  return std::move(r).value();
}

uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Pool index of version `version` of `key`'s value: the shadow copy of a
/// key is just its version number.
uint32_t ValueIndex(uint64_t key, uint32_t version, size_t pool) {
  return static_cast<uint32_t>(Mix64(Mix64(key) ^ version) % pool);
}

double RssBytes() {
  std::ifstream statm("/proc/self/statm");
  uint64_t pages = 0, resident = 0;
  statm >> pages >> resident;
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE));
}

/// Pins the calling thread, and every thread it starts while pinned, to the
/// CPU it runs on; the destructor restores the previous mask.
class CpuPin {
 public:
  CpuPin() {
    CPU_ZERO(&saved_);
    const int cpu = sched_getcpu();
    if (cpu < 0 ||
        pthread_getaffinity_np(pthread_self(), sizeof(saved_), &saved_) != 0) {
      return;
    }
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    pinned_ = pthread_setaffinity_np(pthread_self(), sizeof(one), &one) == 0;
  }
  ~CpuPin() {
    if (pinned_) {
      pthread_setaffinity_np(pthread_self(), sizeof(saved_), &saved_);
    }
  }
  CpuPin(const CpuPin&) = delete;
  CpuPin& operator=(const CpuPin&) = delete;

 private:
  cpu_set_t saved_;
  bool pinned_ = false;
};

// ---- Tracing: spans kept in memory, written out when the run ends. ----

enum SpanName : uint32_t {
  kStep,
  kPut,
  kGet,
  kDelete,
  kCheckpoint,
  kTrain,
  kBatch,
  kNumSpanNames
};
constexpr const char* kSpanNames[kNumSpanNames] = {
    "step",          "core.put", "core.get",    "core.delete",
    "persist.checkpoint", "ml.train", "server.batch"};

class Tracer {
 public:
  /// Spans beyond this are still timed into the per-name histograms but
  /// not kept individually (bounds the traced run's memory).
  static constexpr size_t kMaxSpans = size_t{1} << 20;

  Tracer() : hists_(kNumSpanNames) {}

  /// Starts a parent span; returns its id (0 once the buffer is full).
  uint32_t Open(SpanName name, uint64_t op, int64_t start) {
    if (spans_.size() >= kMaxSpans) {
      return 0;
    }
    spans_.push_back({name, 0, op, start, start});
    return static_cast<uint32_t>(spans_.size());
  }
  void Close(uint32_t id, SpanName name, int64_t start, int64_t end) {
    if (id != 0) {
      spans_[id - 1].end_ns = end;
    }
    hists_[name].Add(static_cast<uint64_t>(end - start));
  }
  void Record(SpanName name, uint32_t parent, uint64_t op, int64_t start,
              int64_t end) {
    if (spans_.size() < kMaxSpans) {
      spans_.push_back({name, parent, op, start, end});
    }
    hists_[name].Add(static_cast<uint64_t>(end - start));
  }

  void Merge(const Tracer& other) {
    const auto base = static_cast<uint32_t>(spans_.size());
    for (Span s : other.spans_) {
      if (spans_.size() >= kMaxSpans) {
        break;
      }
      s.parent = s.parent == 0 ? 0 : s.parent + base;
      spans_.push_back(s);
    }
    for (size_t i = 0; i < kNumSpanNames; ++i) {
      hists_[i].Merge(other.hists_[i]);
    }
  }

  LatencyHistogram& hist(SpanName name) { return hists_[name]; }

  /// One line per kept span: name, parent id, op id, start, end, self time.
  bool Write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      return false;
    }
    const std::vector<int64_t> self = SelfTimes(spans_);
    std::fprintf(f, "id\tname\tparent\top\tstart_ns\tend_ns\tself_ns\n");
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f, "%zu\t%s\t%u\t%llu\t%lld\t%lld\t%lld\n", i + 1,
                   kSpanNames[s.name], s.parent,
                   static_cast<unsigned long long>(s.op),
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns),
                   static_cast<long long>(self[i]));
    }
    return std::fclose(f) == 0;
  }

 private:
  std::vector<Span> spans_;
  std::vector<LatencyHistogram> hists_;
};

// ---- One timed phase's client-side tallies. ----

struct Phase {
  static constexpr int64_t kWindowNs = 1'000'000'000;

  Tracer* tracer = nullptr;           // null: untraced
  std::vector<RecOp>* record = nullptr;  // null: inputs not recorded
  uint64_t reads = 0;
  uint64_t writes = 0;
  uint64_t deletes = 0;
  uint64_t failed = 0;
  /// Windows of kWindowNs from start_ns, indexed by op completion time.
  int64_t start_ns = 0;
  std::vector<Window> windows;
  double wall_s = 0.0;
  /// Ops completed inside wall_s (a traced remote run adds direct ops
  /// after its wall-clock window; those count in the tallies only).
  uint64_t wall_ops = 0;
  /// Device-count snapshot taken at a fixed op count, when the workload
  /// takes one (deterministic wear figures); else the phase end is used.
  bool has_device_snapshot = false;
  ShardedMetrics device_snapshot;
  /// Hottest bucket's K/V writes in each of a run of fixed-size device
  /// windows, when the workload takes them; max_bucket_writes is then
  /// their median instead of the snapshot's all-time maximum.
  std::vector<double> window_max_bucket_writes;

  uint64_t ops() const { return reads + writes + deletes; }

  void Read(int64_t t0, int64_t t1) {
    At(t1).read.Add(static_cast<uint64_t>(t1 - t0));
    ++reads;
  }
  void Write(int64_t t0, int64_t t1) {
    At(t1).write.Add(static_cast<uint64_t>(t1 - t0));
    ++writes;
  }

  void Absorb(const Phase& other) {
    reads += other.reads;
    writes += other.writes;
    deletes += other.deletes;
    failed += other.failed;
    if (windows.size() < other.windows.size()) {
      windows.resize(other.windows.size());
    }
    for (size_t i = 0; i < other.windows.size(); ++i) {
      windows[i].Merge(other.windows[i]);
    }
  }

  /// The complete windows of the phase (all windows if none is complete).
  std::span<const Window> FullWindows() const {
    const auto full = static_cast<size_t>(wall_s * 1e9 / kWindowNs);
    return std::span(windows).first(
        full == 0 ? windows.size() : std::min(full, windows.size()));
  }

  /// Trimmed mean (TrimmedMean) over the complete windows of quantile `q`
  /// of their `which` latencies: the median for q = 0.5, else the tail
  /// percentile. Windows holding too few samples for a tail percentile are
  /// left out, such as one a checkpoint stalled throughout.
  double WindowAverage(LatencyHistogram Window::*which, double q) const {
    std::vector<double> v;
    for (const Window& w : FullWindows()) {
      const LatencyHistogram& h = w.*which;
      if (h.count() > kTailSamplesBeyond) {
        v.push_back(q == 0.5 ? h.Median() : h.Tail(q));
      }
    }
    return TrimmedMean(std::move(v), kWindowTrimShare);
  }

 private:
  Window& At(int64_t t) {
    const auto i = static_cast<size_t>(std::max<int64_t>(t - start_ns, 0) /
                                       kWindowNs);
    if (i >= windows.size()) {
      windows.resize(i + 1);
    }
    return windows[i];
  }
};

void MaybeRecord(Phase* phase, uint8_t type, uint64_t key, uint32_t value) {
  if (phase->record != nullptr) {
    phase->record->push_back({type, key, value});
  }
}

/// Server-side counter deltas over a remote phase (STATS).
struct ServerDeltas {
  uint64_t store_batches = 0;
  uint64_t batched_keys = 0;
  uint64_t bytes = 0;
  uint64_t frames = 0;
  uint64_t overload_rejects = 0;
};

// ---- Workloads ----

class Workload {
 public:
  virtual ~Workload() = default;
  virtual void Generate(uint64_t seed) = 0;
  /// Open + bootstrap + train + preload (+ first checkpoint) into `dir`.
  virtual void Setup(const std::string& dir, Tracer* tracer) = 0;
  virtual void Run(double seconds, Phase* phase) = 0;
  /// Checks the store against the shadow copies, restarts it from its
  /// checkpoint directory, checks the recovered store, and returns the
  /// reopen time in seconds.
  virtual double VerifyAndRecover(Tracer* tracer) = 0;
  virtual void Teardown() = 0;

  virtual ShardedPnwStore& store() = 0;
  virtual size_t value_bytes() const = 0;
  virtual uint64_t live_keys() const = 0;
  virtual size_t zone_buckets() const = 0;
  virtual const Values& pool() const = 0;
  virtual std::vector<std::pair<uint64_t, uint32_t>> LiveSet() const = 0;
  /// Op-log records the last reopen replayed.
  virtual uint64_t replayed_records() const { return 0; }
  /// Bytes of the last checkpoint's snapshot files (op-log excluded).
  double snapshot_bytes() const { return snapshot_bytes_; }
  virtual ServerDeltas server_deltas() const { return {}; }
  virtual size_t append_batch() const { return 16; }

 protected:
  static double SnapshotBytes(const std::string& dir) {
    double bytes = 0;
    std::error_code ec;
    for (const auto& e : fs::recursive_directory_iterator(dir, ec)) {
      if (e.is_regular_file() && e.path().extension() != ".oplog") {
        bytes += static_cast<double>(e.file_size());
      }
    }
    return bytes;
  }

  /// The store keeps its default K-means seed: it is configuration, not
  /// input, so --seed changes only the generated data.
  static ShardedOptions StoreOptions(size_t shards, size_t value_bytes,
                                     size_t buckets) {
    ShardedOptions o;
    o.num_shards = shards;
    o.store.value_bytes = value_bytes;
    o.store.initial_buckets = buckets;
    o.store.capacity_buckets = buckets;
    o.store.train_on_bootstrap = false;  // trained separately, under a span
    return o;
  }

  /// Open + Bootstrap + TrainModel, the common head of every Setup.
  static std::unique_ptr<ShardedPnwStore> OpenAndTrain(
      const ShardedOptions& options, std::span<const uint64_t> keys,
      std::span<const std::vector<uint8_t>> values, Tracer* tracer) {
    auto store = Must(ShardedPnwStore::Open(options), "Open");
    Must(store->Bootstrap(keys, values), "Bootstrap");
    const int64_t t0 = Now();
    Must(store->TrainModel(), "TrainModel");
    if (tracer != nullptr) {
      tracer->Record(kTrain, 0, 0, t0, Now());
    }
    return store;
  }

  static void Checkpoint(ShardedPnwStore& store, const std::string& dir,
                         Tracer* tracer) {
    const int64_t t0 = Now();
    Must(store.Checkpoint(dir), "Checkpoint");
    if (tracer != nullptr) {
      tracer->Record(kCheckpoint, 0, 0, t0, Now());
    }
  }

  /// Recovery options of every reopen. The checkout this benchmark may
  /// write to sits on a virtual disk where one fdatasync costs ~250 us at
  /// the median and over 1 ms at p99, and that cost swings with other
  /// tenants' I/O; with the store's default group sync (every 32 records)
  /// it made two of the three workloads unsteady. On tmpfs, where the
  /// workloads were specified, fdatasync is nearly free, so the op-log runs
  /// without group syncs here: what is measured is the log's own work
  /// (record framing, CRC, write). Checkpoints keep their fsyncs.
  static pnw::persist::RecoveryOptions LogOptions() {
    pnw::persist::RecoveryOptions r;
    r.op_log_sync_every = std::numeric_limits<size_t>::max();
    return r;
  }

  /// First checkpoint of a logged workload: writes it, then reopens it so
  /// the op-log is attached with LogOptions().
  static void AttachLog(std::unique_ptr<ShardedPnwStore>* store,
                        const std::string& dir, Tracer* tracer) {
    Checkpoint(**store, dir, tracer);
    store->reset();
    *store = Must(ShardedPnwStore::Open(dir, LogOptions()), "open log");
  }

  /// Reopens `dir` kReopenReps times (each replays the same op-log onto the
  /// same snapshot), keeps the last store, and returns the median reopen
  /// time in seconds.
  static double Reopen(const std::string& dir,
                       std::unique_ptr<ShardedPnwStore>* store) {
    std::vector<double> times;
    for (int rep = 0; rep < kReopenReps; ++rep) {
      store->reset();
      const int64_t t0 = Now();
      *store = Must(ShardedPnwStore::Open(dir, LogOptions()), "reopen");
      times.push_back(Seconds(Now() - t0));
    }
    return Median(times);
  }

  double snapshot_bytes_ = 0.0;
};

/// The paper's headline use: a CCTV recorder keeping a retention window of
/// 2048 80x60 frames (4800 B) from 32 cameras on one shard, one frame in
/// and one out per step under fresh keys, with periodic checkpoints and an
/// op-log.
class CctvIngest final : public Workload {
 public:
  static constexpr size_t kWindow = 2048;
  static constexpr size_t kStreamFrames = 4096;
  /// One camera's scene made bits_per_512b move 9-15 across seeds; 32
  /// interleaved cameras (64 frames each in the window) bring that to
  /// about +-4%.
  static constexpr size_t kCameras = 32;
  static constexpr uint64_t kGetEvery = 8;
  /// About every 4.5 s. A checkpoint (20 MB snapshot plus fsync) stalls
  /// the recorder for most of a second, so it lands in a minority of the
  /// 1-s windows, and the op-log it truncates stays under 500 MB.
  static constexpr uint64_t kCheckpointEvery = 100000;
  /// Steps logged after the final checkpoint, replayed by the reopen.
  static constexpr uint64_t kRecoveryTailSteps = 4096;
  /// Device counts are taken at this step: a fixed op count, so they
  /// repeat exactly for a seed (reached in about 1.5 s on a 4-vCPU guest).
  static constexpr uint64_t kDeviceSteps = 40000;

  void Generate(uint64_t seed) override {
    // Frames of kCameras independent scenes, interleaved as a recorder
    // receives them: pool_[0, kWindow) seeds the window, the rest streams.
    std::vector<pnw::workloads::Dataset> cams;
    for (size_t c = 0; c < kCameras; ++c) {
      pnw::workloads::VideoFramesOptions o;
      o.num_old = kWindow / kCameras;
      o.num_new = kStreamFrames / kCameras;
      o.seed = seed * kCameras + c;
      cams.push_back(pnw::workloads::GenerateVideoFrames(o));
    }
    value_bytes_ = cams[0].value_bytes;
    pool_.clear();
    for (size_t i = 0; i < kWindow / kCameras; ++i) {
      for (const auto& cam : cams) {
        pool_.push_back(cam.old_data[i]);
      }
    }
    for (size_t i = 0; i < kStreamFrames / kCameras; ++i) {
      for (const auto& cam : cams) {
        pool_.push_back(cam.new_data[i]);
      }
    }
    seed_ = seed;
  }

  void Setup(const std::string& dir, Tracer* tracer) override {
    dir_ = dir;
    std::vector<uint64_t> keys(kWindow);
    for (size_t i = 0; i < kWindow; ++i) {
      keys[i] = i;
    }
    store_ = OpenAndTrain(StoreOptions(1, value_bytes_, 2 * kWindow),
                          keys, std::span(pool_).first(kWindow), tracer);
    AttachLog(&store_, dir_, tracer);
    store_->ResetWearAndMetrics();
    frame_of_.assign(kWindow, 0);
    for (size_t i = 0; i < kWindow; ++i) {
      frame_of_[i] = static_cast<uint32_t>(i);
    }
    step_ = 0;
    rng_ = pnw::Rng(seed_ * 0x2545f4914f6cdd1dull + 1);
  }

  void Run(double seconds, Phase* phase) override {
    const int64_t start = Now();
    const int64_t deadline = start + static_cast<int64_t>(seconds * 1e9);
    phase->start_ns = start;
    uint64_t ops = 0;
    for (;;) {
      ops += Step(phase, /*periodic_checkpoint=*/true);
      if (step_ == kDeviceSteps) {
        phase->device_snapshot = store_->AggregatedMetrics();
        phase->has_device_snapshot = true;
      }
      const int64_t end = Now();
      if (end >= deadline &&
          (step_ >= kDeviceSteps || phase->tracer != nullptr)) {
        phase->wall_s = Seconds(end - start);
        phase->wall_ops = ops;
        return;
      }
    }
  }

  double VerifyAndRecover(Tracer* tracer) override {
    // A fixed op-log tail after a fresh checkpoint, so the reopen replays
    // the same number of records on every run.
    Checkpoint(*store_, dir_, tracer);
    Phase tail;
    tail.start_ns = Now();
    for (uint64_t i = 0; i < kRecoveryTailSteps; ++i) {
      Step(&tail, /*periodic_checkpoint=*/false);
    }
    CheckFrames("live");
    snapshot_bytes_ = SnapshotBytes(dir_);
    store_.reset();
    const double recovery = Reopen(dir_, &store_);
    replayed_ = 2 * kRecoveryTailSteps;
    CheckFrames("recovered");
    const uint64_t first_live = frame_of_.size() - kWindow;
    for (uint64_t k = 0; k < first_live; ++k) {
      const auto got = store_->Get(k);
      if (!got.status().IsNotFound()) {
        Fail("cctv recovered store still holds expired frame %llu",
             static_cast<unsigned long long>(k));
      }
    }
    if (store_->size() != kWindow) {
      Fail("cctv recovered store holds %zu frames, want %zu", store_->size(),
           kWindow);
    }
    return recovery;
  }

  void Teardown() override {
    store_.reset();
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  ShardedPnwStore& store() override { return *store_; }
  size_t value_bytes() const override { return value_bytes_; }
  uint64_t live_keys() const override { return kWindow; }
  size_t zone_buckets() const override { return 2 * kWindow; }
  const Values& pool() const override { return pool_; }
  std::vector<std::pair<uint64_t, uint32_t>> LiveSet() const override {
    std::vector<std::pair<uint64_t, uint32_t>> live;
    for (uint64_t k = frame_of_.size() - kWindow; k < frame_of_.size(); ++k) {
      live.emplace_back(k, frame_of_[k]);
    }
    return live;
  }
  uint64_t replayed_records() const override { return replayed_; }

 private:
  /// One ingest step: PUT the next frame under a fresh key, DELETE the
  /// frame leaving the window, every kGetEvery-th step GET a retained frame.
  /// Returns the ops it issued.
  uint64_t Step(Phase* phase, bool periodic_checkpoint) {
    Tracer* tr = phase->tracer;
    const uint64_t key = frame_of_.size();
    const auto idx = static_cast<uint32_t>(kWindow + step_ % kStreamFrames);
    const int64_t t0 = Now();
    const uint32_t step_span = tr ? tr->Open(kStep, step_, t0) : 0;
    const pnw::Status put = store_->Put(key, pool_[idx]);
    const int64_t t1 = Now();
    phase->Write(t0, t1);
    if (!put.ok()) {
      ++phase->failed;
      Fail("cctv put %llu: %s", static_cast<unsigned long long>(key),
           put.ToString().c_str());
    }
    frame_of_.push_back(idx);
    MaybeRecord(phase, RecOp::kPut, key, idx);

    const uint64_t expired = key - kWindow;
    const pnw::Status del = store_->Delete(expired);
    const int64_t t2 = Now();
    ++phase->deletes;  // DELETEs count in throughput only
    if (!del.ok()) {
      ++phase->failed;
      Fail("cctv delete %llu: %s", static_cast<unsigned long long>(expired),
           del.ToString().c_str());
    }
    MaybeRecord(phase, RecOp::kDelete, expired, 0);
    if (tr) {
      tr->Record(kPut, step_span, step_, t0, t1);
      tr->Record(kDelete, step_span, step_, t1, t2);
    }
    uint64_t ops = 2;

    if (step_ % kGetEvery == 0) {
      const uint64_t k = key - rng_.NextBelow(kWindow);
      const int64_t t3 = Now();
      const auto got = store_->Get(k);
      const int64_t t4 = Now();
      phase->Read(t3, t4);
      ++ops;
      if (!got.ok() || got.value() != pool_[frame_of_[k]]) {
        ++phase->failed;
        Fail("cctv get %llu returned a wrong frame",
             static_cast<unsigned long long>(k));
      }
      MaybeRecord(phase, RecOp::kGet, k, frame_of_[k]);
      if (tr) {
        tr->Record(kGet, step_span, step_, t3, t4);
      }
    }
    ++step_;
    if (periodic_checkpoint && step_ % kCheckpointEvery == 0) {
      const int64_t c0 = Now();
      Must(store_->Checkpoint(dir_), "Checkpoint");
      if (tr) {
        tr->Record(kCheckpoint, step_span, step_, c0, Now());
      }
    }
    if (tr) {
      tr->Close(step_span, kStep, t0, Now());
    }
    return ops;
  }

  void CheckFrames(const char* which) {
    for (uint64_t k = frame_of_.size() - kWindow; k < frame_of_.size(); ++k) {
      const auto got = store_->Get(k);
      if (!got.ok() || got.value() != pool_[frame_of_[k]]) {
        Fail("cctv %s store: frame %llu is not byte-identical", which,
             static_cast<unsigned long long>(k));
      }
    }
  }

  uint64_t seed_ = 0;
  size_t value_bytes_ = 0;
  Values pool_;
  std::unique_ptr<ShardedPnwStore> store_;
  std::string dir_;
  /// Shadow copy: the pool index of every key ever written (keys are dense
  /// from 0; the last kWindow are live).
  std::vector<uint32_t> frame_of_;
  uint64_t step_ = 0;
  uint64_t replayed_ = 0;
  pnw::Rng rng_;
};

/// Read-mostly contention: three threads of YCSB-B (Zipf 0.99, scrambled
/// keys) over 1M 24-B road records (vehicle positions) on four shards, no
/// op-log. Each thread
/// updates only keys == its index mod 3, so every GET has an exact oracle.
class RoadReadMostly final : public Workload {
 public:
  static constexpr size_t kKeys = size_t{1} << 20;
  static constexpr size_t kThreads = 3;
  /// Each key is a vehicle on one of kRoads roads; version v of its record
  /// is step (start + v) of that road's trajectory, so an update moves it
  /// one step along its road. With values drawn from the whole pool
  /// instead, which bucket the hottest key kept rewriting depended on
  /// cluster coincidences of the seed, and max_bucket_writes moved from
  /// 2100 to 5400 across seeds.
  static constexpr size_t kRoads = 256;
  static constexpr size_t kRoadSteps = 512;

  void Generate(uint64_t seed) override {
    // One trajectory per road: pool_[r * kRoadSteps + i] is step i of a
    // random walk along road r.
    pool_.clear();
    for (size_t r = 0; r < kRoads; ++r) {
      pnw::workloads::RoadNetworkOptions o;
      o.num_roads = 1;
      o.num_old = kRoadSteps;
      o.num_new = 0;
      o.seed = seed * kRoads + r;
      auto ds = pnw::workloads::GenerateRoadNetwork(o);
      value_bytes_ = ds.value_bytes;
      pool_.insert(pool_.end(), ds.old_data.begin(), ds.old_data.end());
    }
    keys_.resize(kKeys);
    boot_values_.resize(kKeys);
    for (size_t k = 0; k < kKeys; ++k) {
      keys_[k] = k;
      boot_values_[k] = pool_[Idx(k, 0)];
    }
    versions_ = std::make_unique<std::atomic<uint32_t>[]>(kKeys);
    seed_ = seed;
  }

  void Setup(const std::string& dir, Tracer* tracer) override {
    dir_ = dir;
    store_ = OpenAndTrain(StoreOptions(4, value_bytes_, 2 * kKeys),
                          keys_, boot_values_, tracer);
    store_->ResetWearAndMetrics();
    for (size_t k = 0; k < kKeys; ++k) {
      versions_[k].store(0, std::memory_order_relaxed);
    }
    runs_ = 0;
  }

  void Run(double seconds, Phase* phase) override {
    std::vector<Phase> local(kThreads);
    std::vector<Tracer> tracers(phase->tracer ? kThreads : 0);
    std::vector<std::vector<RecOp>> records(phase->record ? kThreads : 0);
    std::vector<int64_t> ends(kThreads, 0);
    std::atomic<size_t> ready{0};
    std::atomic<bool> go{false};
    int64_t start = 0;
    DeviceWindow device{phase, phase->tracer == nullptr};
    std::vector<std::thread> threads;
    const uint64_t run = runs_++;
    for (size_t t = 0; t < kThreads; ++t) {
      if (phase->tracer) {
        local[t].tracer = &tracers[t];
      }
      if (phase->record) {
        local[t].record = &records[t];
      }
      threads.emplace_back([&, t] {
        pnw::workloads::YcsbOptions yo;
        yo.workload = pnw::workloads::YcsbWorkload::kB;
        yo.record_count = kKeys;
        yo.zipf_theta = 0.99;
        yo.seed = Mix64(seed_ * 1000003 + run * 16 + t);
        pnw::workloads::YcsbGenerator gen(yo);
        ready.fetch_add(1);
        while (!go.load(std::memory_order_acquire)) {
        }
        const int64_t deadline =
            start + static_cast<int64_t>(seconds * 1e9);
        local[t].start_ns = start;
        ends[t] = Worker(t, deadline, gen, &local[t], &device);
      });
    }
    while (ready.load() < kThreads) {
    }
    start = Now();
    go.store(true, std::memory_order_release);
    for (auto& th : threads) {
      th.join();
    }
    for (size_t t = 0; t < kThreads; ++t) {
      phase->Absorb(local[t]);
      if (phase->tracer) {
        phase->tracer->Merge(tracers[t]);
      }
      if (phase->record) {
        phase->record->insert(phase->record->end(), records[t].begin(),
                              records[t].end());
      }
    }
    phase->start_ns = start;
    phase->wall_s =
        Seconds(*std::max_element(ends.begin(), ends.end()) - start);
    phase->wall_ops = phase->ops();
  }

  double VerifyAndRecover(Tracer* tracer) override {
    Checkpoint(*store_, dir_, tracer);
    snapshot_bytes_ = SnapshotBytes(dir_);
    store_.reset();
    const double recovery = Reopen(dir_, &store_);
    constexpr size_t kBatch = 4096;
    std::vector<uint64_t> batch(kBatch);
    for (size_t base = 0; base < kKeys; base += kBatch) {
      for (size_t i = 0; i < kBatch; ++i) {
        batch[i] = base + i;
      }
      const auto got = store_->MultiGet(batch);
      for (size_t i = 0; i < kBatch; ++i) {
        const uint64_t k = base + i;
        const uint32_t v = versions_[k].load(std::memory_order_relaxed);
        if (!got[i].ok() ||
            got[i].value() != pool_[Idx(k, v)]) {
          Fail("road recovered key %llu differs from its shadow",
               static_cast<unsigned long long>(k));
        }
      }
    }
    return recovery;
  }

  void Teardown() override {
    store_.reset();
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  ShardedPnwStore& store() override { return *store_; }
  size_t value_bytes() const override { return value_bytes_; }
  uint64_t live_keys() const override { return kKeys; }
  size_t zone_buckets() const override { return 2 * kKeys; }
  const Values& pool() const override { return pool_; }
  std::vector<std::pair<uint64_t, uint32_t>> LiveSet() const override {
    std::vector<std::pair<uint64_t, uint32_t>> live(kKeys);
    for (uint64_t k = 0; k < kKeys; ++k) {
      live[k] = {k, Idx(k, versions_[k].load())};
    }
    return live;
  }

 private:
  /// Device counts are taken once the threads together completed this
  /// many ops (about 3 s on a 4-vCPU guest), so they cover a fixed amount
  /// of work rather than the host's speed.
  static constexpr uint64_t kDeviceOps = 5'000'000;

  /// Progress shared by the client threads; thread 0 takes the snapshot.
  struct DeviceWindow {
    Phase* phase;
    bool wanted;
    std::atomic<uint64_t> ops{0};
    std::atomic<bool> taken{false};
  };

  /// Pool index of version `v` of key `k`'s record.
  uint32_t Idx(uint64_t k, uint32_t v) const {
    const uint64_t h = Mix64(k);
    return static_cast<uint32_t>((h % kRoads) * kRoadSteps +
                                 ((h >> 32) + v) % kRoadSteps);
  }

  /// One client thread; returns the time its last op completed.
  int64_t Worker(size_t t, int64_t deadline,
                 pnw::workloads::YcsbGenerator& gen, Phase* phase,
                 DeviceWindow* device) {
    uint64_t op_id = t << 48;
    for (;;) {
      const auto op = gen.Next();
      int64_t t0 = 0, t1 = 0;
      if (op.type == pnw::workloads::YcsbOp::Type::kRead) {
        const uint64_t k = op.key;
        const uint32_t a = versions_[k].load(std::memory_order_acquire);
        t0 = Now();
        const auto got = store_->Get(k);
        t1 = Now();
        const uint32_t b = versions_[k].load(std::memory_order_acquire);
        phase->Read(t0, t1);
        // A concurrent writer may have applied version b + 1 but not yet
        // published it; a key this thread owns has no concurrent writer.
        const uint32_t hi = k % kThreads == t ? a : b + 1;
        bool match = false;
        for (uint32_t v = a; got.ok() && !match && v <= hi; ++v) {
          match = got.value() == pool_[Idx(k, v)];
        }
        if (!match) {
          ++phase->failed;
          Fail("road get %llu does not match its shadow (versions %u..%u)",
               static_cast<unsigned long long>(k), a, hi);
        }
        MaybeRecord(phase, RecOp::kGet, k, Idx(k, a));
        if (phase->tracer) {
          phase->tracer->Record(kGet, 0, op_id, t0, t1);
        }
      } else {
        uint64_t k = op.key - op.key % kThreads + t;
        if (k >= kKeys) {
          k -= kThreads;
        }
        const uint32_t v = versions_[k].load(std::memory_order_relaxed) + 1;
        const uint32_t idx = Idx(k, v);
        t0 = Now();
        const pnw::Status s = store_->Update(k, pool_[idx]);
        t1 = Now();
        versions_[k].store(v, std::memory_order_release);
        phase->Write(t0, t1);
        if (!s.ok()) {
          ++phase->failed;
          Fail("road update %llu: %s", static_cast<unsigned long long>(k),
               s.ToString().c_str());
        }
        MaybeRecord(phase, RecOp::kPut, k, idx);
        if (phase->tracer) {
          phase->tracer->Record(kPut, 0, op_id, t0, t1);
        }
      }
      ++op_id;
      if ((op_id & 1023) == 0) {
        const uint64_t done = device->ops.fetch_add(1024) + 1024;
        if (t == 0 && device->wanted && done >= kDeviceOps &&
            !device->taken.load()) {
          device->phase->device_snapshot = store_->AggregatedMetrics();
          device->phase->has_device_snapshot = true;
          device->taken.store(true);
        }
      }
      if (t1 >= deadline && (!device->wanted || device->taken.load())) {
        return t1;
      }
    }
  }

  uint64_t seed_ = 0;
  size_t value_bytes_ = 0;
  Values pool_;
  std::vector<uint64_t> keys_;
  Values boot_values_;
  /// Shadow copy: each key's current version (its value is a pure
  /// function of key and version).
  std::unique_ptr<std::atomic<uint32_t>[]> versions_;
  std::unique_ptr<ShardedPnwStore> store_;
  std::string dir_;
  uint64_t runs_ = 0;
};

/// The serve path: an in-process PnwServer over a 4-shard store of 16384
/// MNIST-like 784-B images with an op-log; one client connection pipelines
/// YCSB-A (Zipf 0.99) at depth 16.
class MnistRemote final : public Workload {
 public:
  static constexpr size_t kKeys = 16384;
  static constexpr size_t kDepth = 16;
  /// Direct (in-process) ops a traced run adds after its remote window, so
  /// the core spans exist on this workload too.
  static constexpr size_t kDirectOps = 100000;
  /// Updates logged after the final checkpoint, replayed by the reopen
  /// (with 8192 the reopen took under 0.1 s and spread 33% across runs).
  static constexpr uint64_t kRecoveryTailWrites = 32768;
  /// Ops between checkpoints (about 9 s), which bound the op-log.
  static constexpr uint64_t kCheckpointEvery = 1'000'000;
  /// Device counts are taken over kDeviceWindows windows of
  /// kDeviceWindowOps ops each (about 30 s on a 4-vCPU guest): a fixed
  /// amount of work, and the op sequence is one client's, so they repeat
  /// for a seed. The free lists are LIFO, so the hottest bucket is the top
  /// of a busy cluster's stack and its count is a noisy maximum: over the
  /// first 300000 ops alone it spread 0.28 (quartiles over median) across
  /// 10 seeds. max_bucket_writes is the median of the windows' maxima, and
  /// the other device counts cover all the windows.
  static constexpr uint64_t kDeviceWindowOps = 300'000;
  static constexpr size_t kDeviceWindows = 12;

  void Generate(uint64_t seed) override {
    pnw::workloads::ImageDatasetOptions o;
    o.profile = pnw::workloads::ImageProfile::kMnist;
    o.num_old = kKeys;
    o.num_new = kKeys;
    o.seed = seed;
    auto ds = pnw::workloads::GenerateImages(o);
    value_bytes_ = ds.value_bytes;
    pool_ = std::move(ds.old_data);
    pool_.insert(pool_.end(), ds.new_data.begin(), ds.new_data.end());
    keys_.resize(kKeys);
    boot_values_.resize(kKeys);
    for (size_t k = 0; k < kKeys; ++k) {
      keys_[k] = k;
      boot_values_[k] = pool_[ValueIndex(k, 0, pool_.size())];
    }
    seed_ = seed;
  }

  void Setup(const std::string& dir, Tracer* tracer) override {
    dir_ = dir;
    store_ = OpenAndTrain(StoreOptions(4, value_bytes_, 2 * kKeys),
                          keys_, boot_values_, tracer);
    AttachLog(&store_, dir_, tracer);
    store_->ResetWearAndMetrics();
    // The client and the server's event loop share one CPU, so a request
    // hand-off is a context switch on that CPU. Across CPUs every batch
    // waited twice for a sleeping vCPU to wake; when the host was busy that
    // took milliseconds and read p99 moved from 0.2 to 2.6 ms between runs.
    pin_ = std::make_unique<CpuPin>();
    server_ = Must(pnw::server::PnwServer::Start(store_.get(), {}),
                   "server start");
    client_ = Must(pnw::server::Client::Connect("127.0.0.1", server_->port()),
                   "connect");
    versions_.assign(kKeys, 0);
    pnw::workloads::YcsbOptions yo;
    yo.workload = pnw::workloads::YcsbWorkload::kA;
    yo.record_count = kKeys;
    yo.zipf_theta = 0.99;
    yo.seed = Mix64(seed_ + 17);
    gen_ = std::make_unique<pnw::workloads::YcsbGenerator>(yo);
    ops_since_checkpoint_ = 0;
    bucket_writes_.clear();
  }

  void Run(double seconds, Phase* phase) override {
    const auto before = Must(client_->Stats(), "STATS");
    const size_t n = pool_.size();
    struct Sent {
      uint64_t id;
      uint64_t key;
      uint32_t idx;
      bool read;
    };
    Sent sent[kDepth];
    Tracer* tr = phase->tracer;
    const int64_t start = Now();
    const int64_t deadline = start + static_cast<int64_t>(seconds * 1e9);
    phase->start_ns = start;
    const bool want_device = tr == nullptr;
    uint64_t batch_no = 0;
    int64_t end = start;
    while (end < deadline || (want_device && !phase->has_device_snapshot)) {
      for (size_t j = 0; j < kDepth; ++j) {
        const auto op = gen_->Next();
        const uint64_t k = op.key;
        if (op.type == pnw::workloads::YcsbOp::Type::kRead) {
          sent[j] = {client_->SendGet(k), k, ValueIndex(k, versions_[k], n),
                     true};
        } else {
          const uint32_t idx = ValueIndex(k, ++versions_[k], n);
          sent[j] = {client_->SendPut(k, pool_[idx]), k, idx, false};
        }
        MaybeRecord(phase, sent[j].read ? RecOp::kGet : RecOp::kPut, k,
                    sent[j].idx);
      }
      const int64_t tf = Now();
      Must(client_->Flush(), "flush");
      for (size_t j = 0; j < kDepth; ++j) {
        const auto resp = client_->Receive();
        end = Now();
        const Sent& s = sent[j];
        if (s.read) {
          phase->Read(tf, end);
        } else {
          phase->Write(tf, end);
        }
        const bool ok = resp.ok() && resp.value().request_id == s.id &&
                        resp.value().status == pnw::Status::Code::kOk &&
                        (!s.read || resp.value().value == pool_[s.idx]);
        if (!ok) {
          ++phase->failed;
          Fail("mnist %s of key %llu: wrong or failed response",
               s.read ? "get" : "put", static_cast<unsigned long long>(s.key));
        }
      }
      if (tr) {
        tr->Record(kBatch, 0, batch_no, tf, end);
      }
      ++batch_no;
      if (want_device && !phase->has_device_snapshot &&
          phase->ops() >= kDeviceWindowOps *
                              (phase->window_max_bucket_writes.size() + 1)) {
        EndDeviceWindow(phase);
      }
      ops_since_checkpoint_ += kDepth;
      if (ops_since_checkpoint_ >= kCheckpointEvery) {
        Checkpoint(*store_, dir_, tr);
        ops_since_checkpoint_ = 0;
      }
    }
    phase->wall_s = Seconds(end - start);
    phase->wall_ops = phase->ops();

    const auto after = Must(client_->Stats(), "STATS");
    ReconcileThreeWay(before, after, *phase);
    if (tr != nullptr) {
      RunDirect(phase);
    }
  }

  double VerifyAndRecover(Tracer* tracer) override {
    client_.reset();
    server_->Stop();
    server_.reset();
    pin_.reset();
    // A fixed op-log tail after a fresh checkpoint, so the reopen replays
    // the same number of records on every run.
    Checkpoint(*store_, dir_, tracer);
    for (uint64_t i = 0; i < kRecoveryTailWrites; ++i) {
      const uint64_t k = gen_->Next().key;
      const uint32_t idx = ValueIndex(k, ++versions_[k], pool_.size());
      Must(store_->Put(k, pool_[idx]), "tail put");
    }
    CheckAll("live");
    snapshot_bytes_ = SnapshotBytes(dir_);
    store_.reset();
    const double recovery = Reopen(dir_, &store_);
    replayed_ = kRecoveryTailWrites;
    CheckAll("recovered");
    return recovery;
  }

  void Teardown() override {
    client_.reset();
    if (server_) {
      server_->Stop();
      server_.reset();
    }
    pin_.reset();
    store_.reset();
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  ShardedPnwStore& store() override { return *store_; }
  size_t value_bytes() const override { return value_bytes_; }
  uint64_t live_keys() const override { return kKeys; }
  size_t zone_buckets() const override { return 2 * kKeys; }
  const Values& pool() const override { return pool_; }
  std::vector<std::pair<uint64_t, uint32_t>> LiveSet() const override {
    std::vector<std::pair<uint64_t, uint32_t>> live(kKeys);
    for (uint64_t k = 0; k < kKeys; ++k) {
      live[k] = {k, ValueIndex(k, versions_[k], pool_.size())};
    }
    return live;
  }
  uint64_t replayed_records() const override { return replayed_; }
  ServerDeltas server_deltas() const override { return server_deltas_; }
  size_t append_batch() const override {
    return server_deltas_.store_batches == 0
               ? kDepth
               : std::max<size_t>(1, server_deltas_.batched_keys /
                                         server_deltas_.store_batches);
  }

 private:
  static uint64_t StatOf(
      const std::vector<std::pair<std::string, uint64_t>>& stats,
      const char* name) {
    for (const auto& [n, v] : stats) {
      if (n == name) {
        return v;
      }
    }
    Fail("STATS lacks %s", name);
    return 0;
  }

  /// Closes one device window: records the hottest bucket's writes since
  /// the previous window, and after the last one takes the device snapshot.
  void EndDeviceWindow(Phase* phase) {
    uint32_t hottest = 0;
    ShardedPnwStore& store = *store_;
    bucket_writes_.resize(store.num_shards());
    for (size_t i = 0; i < store.num_shards(); ++i) {
      PnwStore& shard = store.shard(i);
      pnw::util::ReaderLock lock(shard.mu());
      const std::vector<uint32_t>& now =
          shard.wear_tracker().bucket_write_counts();
      std::vector<uint32_t>& prev = bucket_writes_[i];
      prev.resize(now.size(), 0);
      for (size_t b = 0; b < now.size(); ++b) {
        hottest = std::max(hottest, now[b] - prev[b]);
        prev[b] = now[b];
      }
    }
    phase->window_max_bucket_writes.push_back(hottest);
    if (phase->window_max_bucket_writes.size() == kDeviceWindows) {
      phase->device_snapshot = store.AggregatedMetrics();
      phase->has_device_snapshot = true;
    }
  }

  /// client == server == store, over the remote window.
  void ReconcileThreeWay(
      const std::vector<std::pair<std::string, uint64_t>>& before,
      const std::vector<std::pair<std::string, uint64_t>>& after,
      const Phase& phase) {
    const auto d = [&](const char* name) {
      return StatOf(after, name) - StatOf(before, name);
    };
    const uint64_t server_reads = d("server.get_keys");
    const uint64_t store_reads = d("store.gets") + d("store.get_misses");
    if (phase.reads != server_reads || server_reads != store_reads) {
      Fail("mnist reads: client %llu, server %llu, store %llu",
           static_cast<unsigned long long>(phase.reads),
           static_cast<unsigned long long>(server_reads),
           static_cast<unsigned long long>(store_reads));
    }
    const uint64_t server_writes = d("server.put_keys");
    const uint64_t store_writes = d("store.puts") + d("store.failed_ops");
    if (phase.writes != server_writes || server_writes != store_writes) {
      Fail("mnist writes: client %llu, server %llu, store %llu",
           static_cast<unsigned long long>(phase.writes),
           static_cast<unsigned long long>(server_writes),
           static_cast<unsigned long long>(store_writes));
    }
    server_deltas_.store_batches = d("server.store_batches");
    server_deltas_.batched_keys = d("server.batched_keys");
    server_deltas_.bytes = d("server.bytes_in") + d("server.bytes_out");
    server_deltas_.frames = d("server.frames_in");
    server_deltas_.overload_rejects = d("server.overload_rejects");
  }

  /// Traced runs only: the same op stream straight into the store, so the
  /// core.* spans cover this workload's value size too.
  void RunDirect(Phase* phase) {
    const size_t n = pool_.size();
    for (size_t i = 0; i < kDirectOps; ++i) {
      const auto op = gen_->Next();
      const uint64_t k = op.key;
      if (op.type == pnw::workloads::YcsbOp::Type::kRead) {
        const uint32_t idx = ValueIndex(k, versions_[k], n);
        const int64_t t0 = Now();
        const auto got = store_->Get(k);
        phase->tracer->Record(kGet, 0, i, t0, Now());
        ++phase->reads;
        if (!got.ok() || got.value() != pool_[idx]) {
          ++phase->failed;
          Fail("mnist direct get %llu differs from its shadow",
               static_cast<unsigned long long>(k));
        }
      } else {
        const uint32_t idx = ValueIndex(k, ++versions_[k], n);
        const int64_t t0 = Now();
        const pnw::Status s = store_->Put(k, pool_[idx]);
        phase->tracer->Record(kPut, 0, i, t0, Now());
        ++phase->writes;
        if (!s.ok()) {
          ++phase->failed;
          Fail("mnist direct put %llu: %s", static_cast<unsigned long long>(k),
               s.ToString().c_str());
        }
      }
    }
  }

  void CheckAll(const char* which) {
    for (uint64_t k = 0; k < kKeys; ++k) {
      const auto got = store_->Get(k);
      if (!got.ok() ||
          got.value() != pool_[ValueIndex(k, versions_[k], pool_.size())]) {
        Fail("mnist %s store: key %llu differs from its shadow", which,
             static_cast<unsigned long long>(k));
      }
    }
  }

  uint64_t seed_ = 0;
  size_t value_bytes_ = 0;
  Values pool_;
  std::vector<uint64_t> keys_;
  Values boot_values_;
  std::vector<uint32_t> versions_;
  std::unique_ptr<pnw::workloads::YcsbGenerator> gen_;
  std::unique_ptr<ShardedPnwStore> store_;
  std::unique_ptr<CpuPin> pin_;
  std::unique_ptr<pnw::server::PnwServer> server_;
  std::unique_ptr<pnw::server::Client> client_;
  std::string dir_;
  ServerDeltas server_deltas_;
  uint64_t ops_since_checkpoint_ = 0;
  /// Per-shard bucket write counts at the end of the last device window.
  std::vector<std::vector<uint32_t>> bucket_writes_;
  uint64_t replayed_ = 0;
};

// ---- Reporting ----

struct Metric {
  std::string name;
  std::string unit;
  double value;
};

class Report {
 public:
  void Add(const std::string& name, const std::string& unit, double value) {
    if (!std::isfinite(value)) {
      Fail("metric %s is not finite", name.c_str());
      value = 0.0;
    }
    metrics_.push_back({name, unit, value});
  }

  void Print(uint64_t attempted, uint64_t failed) const {
    for (const Metric& m : metrics_) {
      std::printf("%-40s %18.6f %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                g_failures == 0 ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
    for (size_t i = 0; i < metrics_.size(); ++i) {
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics_[i].name.c_str(),
                  metrics_[i].value, metrics_[i].unit.c_str());
    }
    std::printf("}}\n");
  }

 private:
  std::vector<Metric> metrics_;
};

/// Client tallies against StoreMetrics deltas over one phase.
void ReconcileStore(const Phase& p, const StoreMetrics& before,
                    const StoreMetrics& after) {
  const auto d = [](uint64_t a, uint64_t b) { return a - b; };
  const uint64_t gets = d(after.gets, before.gets);
  const uint64_t misses = d(after.get_misses, before.get_misses);
  const uint64_t opt = d(after.optimistic_gets, before.optimistic_gets);
  const uint64_t locked = d(after.locked_gets, before.locked_gets);
  const uint64_t puts = d(after.puts, before.puts);
  const uint64_t failed = d(after.failed_ops, before.failed_ops);
  const uint64_t inplace = d(after.inplace_updates, before.inplace_updates);
  const uint64_t deletes = d(after.deletes, before.deletes);
  const uint64_t updates = d(after.updates, before.updates);
  const auto ull = [](uint64_t v) {
    return static_cast<unsigned long long>(v);
  };
  if (gets + misses != p.reads) {
    Fail("reconcile: gets %llu + get_misses %llu != reads %llu", ull(gets),
         ull(misses), ull(p.reads));
  }
  if (gets != opt + locked) {
    Fail("reconcile: gets %llu != optimistic %llu + locked %llu", ull(gets),
         ull(opt), ull(locked));
  }
  // Endurance-first updates count as puts (inplace_updates stays 0) and
  // delete the old bucket internally.
  if (puts + failed != p.writes || inplace != 0) {
    Fail("reconcile: puts %llu + failed_ops %llu != writes %llu "
         "(inplace_updates %llu)",
         ull(puts), ull(failed), ull(p.writes), ull(inplace));
  }
  if (deletes != p.deletes + updates) {
    Fail("reconcile: deletes %llu != client deletes %llu + updates %llu",
         ull(deletes), ull(p.deletes), ull(updates));
  }
  if (!after.PlacementAttributionConsistent()) {
    Fail("reconcile: placement attribution inconsistent");
  }
}

/// after - before of one counter, as a double.
double Delta(double after, double before) { return after - before; }

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string workdir = ".bench_build/work";
  std::string trace_out;
};

std::unique_ptr<Workload> MakeWorkload(const std::string& name) {
  if (name == "cctv_ingest") {
    return std::make_unique<CctvIngest>();
  }
  if (name == "road_readmostly") {
    return std::make_unique<RoadReadMostly>();
  }
  if (name == "mnist_remote") {
    return std::make_unique<MnistRemote>();
  }
  return nullptr;
}

/// End-to-end run: untraced timed phase, oracle, recovery, set-up reps.
int RunEndToEnd(Workload& w, const Args& args, const std::string& work) {
  std::vector<double> setups;
  const double rss0 = RssBytes();
  int64_t t0 = Now();
  w.Setup(work + "/ckpt-0", nullptr);
  setups.push_back(Seconds(Now() - t0));

  const ShardedMetrics before = w.store().AggregatedMetrics();
  Phase phase;
  w.Run(args.seconds, &phase);
  const double rss1 = RssBytes();
  const ShardedMetrics after = w.store().AggregatedMetrics();
  ReconcileStore(phase, before.totals, after.totals);
  const ShardedMetrics& dev =
      phase.has_device_snapshot ? phase.device_snapshot : after;
  const StoreMetrics& b = before.totals;
  const StoreMetrics& a = dev.totals;
  const double puts = Delta(a.puts, b.puts);

  const double recovery = w.VerifyAndRecover(nullptr);
  w.Teardown();
  for (int rep = 1; rep < kSetupReps; ++rep) {
    t0 = Now();
    w.Setup(work + "/ckpt-" + std::to_string(rep), nullptr);
    setups.push_back(Seconds(Now() - t0));
    w.Teardown();
  }

  const auto windows = phase.FullWindows();
  uint64_t read_samples = 0, write_samples = 0;
  for (const Window& win : windows) {
    read_samples += win.read.count();
    write_samples += win.write.count();
  }
  std::printf("workload %s seed %llu: %llu ops in %.3f s (%llu reads, %llu "
              "writes, %llu deletes); %zu windows of 1 s holding %llu read "
              "and %llu write latency samples\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              static_cast<unsigned long long>(phase.wall_ops), phase.wall_s,
              static_cast<unsigned long long>(phase.reads),
              static_cast<unsigned long long>(phase.writes),
              static_cast<unsigned long long>(phase.deletes), windows.size(),
              static_cast<unsigned long long>(read_samples),
              static_cast<unsigned long long>(write_samples));
  Report r;
  r.Add("throughput_kops", "kops/s",
        Ratio(static_cast<double>(phase.wall_ops), phase.wall_s) / 1000.0);
  r.Add("read_p50_us", "us",
        phase.WindowAverage(&Window::read, 0.5) / 1000.0);
  r.Add("read_p99_us", "us",
        phase.WindowAverage(&Window::read, 0.99) / 1000.0);
  r.Add("write_p50_us", "us",
        phase.WindowAverage(&Window::write, 0.5) / 1000.0);
  r.Add("write_p99_us", "us",
        phase.WindowAverage(&Window::write, 0.99) / 1000.0);
  r.Add("bits_per_512b", "bits",
        BitsPer512(a.put_bits_written - b.put_bits_written,
                   a.put_payload_bits - b.put_payload_bits));
  r.Add("lines_per_write", "lines",
        Ratio(Delta(a.put_lines_written, b.put_lines_written), puts));
  r.Add("device_ns_per_write", "sim_ns",
        Ratio(Delta(a.put_device_ns, b.put_device_ns), puts));
  r.Add("max_bucket_writes", "count",
        phase.window_max_bucket_writes.empty()
            ? static_cast<double>(dev.MaxBucketWrites())
            : Median(phase.window_max_bucket_writes));
  r.Add("mem_per_live_byte", "ratio",
        Ratio(rss1 - rss0, LiveUserBytes(w.live_keys(), w.value_bytes())));
  r.Add("setup_s", "s", Median(setups));
  r.Add("recovery_s", "s", recovery);
  r.Add("ok_rate", "ratio",
        Ratio(static_cast<double>(phase.ops() - phase.failed),
              static_cast<double>(phase.ops())));
  r.Print(phase.ops(), phase.failed);
  return g_failures == 0 ? 0 : 1;
}

/// Traced run: an untraced and a traced phase of half the time each (the
/// overhead is their throughput ratio), then the layer replays.
int RunTraced(Workload& w, const Args& args, const std::string& work) {
  Tracer tracer;
  w.Setup(work + "/ckpt-0", &tracer);

  Phase plain;
  ShardedMetrics m0 = w.store().AggregatedMetrics();
  w.Run(args.seconds / 2, &plain);
  ShardedMetrics m1 = w.store().AggregatedMetrics();
  ReconcileStore(plain, m0.totals, m1.totals);

  std::vector<RecOp> recorded;
  ReplayInput replay;
  replay.live = w.LiveSet();
  Phase traced;
  traced.tracer = &tracer;
  traced.record = &recorded;
  w.Run(args.seconds / 2, &traced);
  const ShardedMetrics m2 = w.store().AggregatedMetrics();
  ReconcileStore(traced, m1.totals, m2.totals);
  const StoreMetrics& b = m1.totals;
  const StoreMetrics& a = m2.totals;

  double device_arena = 0;
  for (size_t i = 0; i < w.store().num_shards(); ++i) {
    device_arena += static_cast<double>(
        w.store().shard(i).device().arena_stats().live_bytes);
  }
  const double live_bytes = LiveUserBytes(w.live_keys(), w.value_bytes());
  const double store_size = static_cast<double>(w.store().size());
  replay.model = w.store().shard(0).model();

  const double puts = Delta(a.puts, b.puts);
  const double reads =
      Delta(a.gets, b.gets) + Delta(a.get_misses, b.get_misses);
  const double predict_per_put =
      Ratio(Delta(a.predict_wall_ns, b.predict_wall_ns), puts);
  const double log_per_op = Ratio(Delta(a.log_wall_ns, b.log_wall_ns),
                                  puts + static_cast<double>(traced.deletes));
  const auto count = [](uint64_t v) { return static_cast<double>(v); };
  Report r;
  r.Add("ml.predict_ns_per_put", "ns", predict_per_put);
  r.Add("ml.fallback_rate", "ratio",
        Ratio(Delta(a.fallback_placements, b.fallback_placements), puts));
  r.Add("ml.train_s", "s", tracer.hist(kTrain).mean() * 1e-9);
  const double put_ns = tracer.hist(kPut).mean();
  r.Add("core.put_ns", "ns", put_ns);
  r.Add("core.put_p99_ns", "ns", tracer.hist(kPut).Tail(0.99));
  r.Add("core.get_ns", "ns", tracer.hist(kGet).mean());
  r.Add("core.get_p99_ns", "ns", tracer.hist(kGet).Tail(0.99));
  r.Add("core.delete_ns", "ns", tracer.hist(kDelete).mean());
  r.Add("core.put_self_ns", "ns", put_ns - predict_per_put - log_per_op);
  r.Add("core.pool_fallback_rate", "ratio",
        Ratio(Delta(a.pool_fallbacks, b.pool_fallbacks),
              Delta(a.predicted_placements, b.predicted_placements)));
  r.Add("core.optimistic_share", "ratio",
        Ratio(Delta(a.optimistic_gets, b.optimistic_gets),
              Delta(a.gets, b.gets)));
  r.Add("core.optimistic_retry_rate", "ratio",
        Ratio(Delta(a.optimistic_retries, b.optimistic_retries), reads));
  r.Add("core.put_imbalance", "ratio", m2.PutImbalance());
  r.Add("index.arena_bytes_per_key", "bytes",
        Ratio(count(a.arena_live_bytes) - device_arena, store_size));
  r.Add("nvm.words_per_put", "words",
        Ratio(Delta(a.put_words_written, b.put_words_written), puts));
  r.Add("persist.log_ns_per_op", "ns", log_per_op);
  r.Add("arena.live_bytes_per_live_byte", "ratio",
        Ratio(count(a.arena_live_bytes), live_bytes));
  r.Add("arena.high_water_bytes", "bytes", count(a.arena_high_water_bytes));
  const ServerDeltas sd = w.server_deltas();
  r.Add("server.rtt_us_p50", "us", tracer.hist(kBatch).Median() / 1000.0);
  r.Add("server.rtt_us_p99", "us", tracer.hist(kBatch).Tail(0.99) / 1000.0);
  r.Add("server.keys_per_store_batch", "keys",
        Ratio(count(sd.batched_keys), count(sd.store_batches)));
  r.Add("server.bytes_per_op", "bytes",
        Ratio(count(sd.bytes), count(sd.frames)));
  r.Add("server.overload_rejects", "count", count(sd.overload_rejects));
  r.Add("trace.overhead", "ratio",
        1.0 - Ratio(Ratio(count(traced.wall_ops), traced.wall_s),
                    Ratio(count(plain.wall_ops), plain.wall_s)));

  w.VerifyAndRecover(&tracer);
  r.Add("persist.checkpoint_s", "s", tracer.hist(kCheckpoint).mean() * 1e-9);
  r.Add("persist.snapshot_bytes_per_live_byte", "ratio",
        Ratio(w.snapshot_bytes(), live_bytes));
  r.Add("persist.replayed_records", "count", count(w.replayed_records()));

  replay.pool = &w.pool();
  replay.ops = std::move(recorded);
  replay.value_bytes = w.value_bytes();
  replay.zone_buckets = w.zone_buckets();
  replay.append_batch = w.append_batch();
  replay.workdir = work;
  if (!RunReplays(replay, [&r](const std::string& name,
                               const std::string& unit,
                               double v) { r.Add(name, unit, v); })) {
    Fail("layer replay failed");
  }
  w.Teardown();

  if (!args.trace_out.empty() && !tracer.Write(args.trace_out)) {
    Fail("cannot write spans to %s", args.trace_out.c_str());
  }
  const uint64_t ops = plain.ops() + traced.ops();
  r.Print(ops, plain.failed + traced.failed);
  return g_failures == 0 ? 0 : 1;
}

int Main(int argc, char** argv) {
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--workdir") {
      args.workdir = value;
    } else if (flag == "--trace-out") {
      args.trace_out = value;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  auto w = MakeWorkload(args.workload);
  if (w == nullptr || !(args.seconds > 0)) {
    std::fprintf(stderr,
                 "usage: pnw_perfbench --workload <cctv_ingest|"
                 "road_readmostly|mnist_remote> --seed N --seconds S "
                 "--trace 0|1 [--workdir DIR] [--trace-out FILE]\n");
    return 2;
  }
  const std::string work =
      args.workdir + "/" + args.workload + "-" + std::to_string(getpid());
  std::error_code ec;
  fs::create_directories(work, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create %s\n", work.c_str());
    return 2;
  }
  w->Generate(args.seed);
  const int rc = args.trace ? RunTraced(*w, args, work)
                            : RunEndToEnd(*w, args, work);
  fs::remove_all(work, ec);
  return rc;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
