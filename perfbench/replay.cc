#include "perfbench/replay.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <optional>
#include <span>

#include "perfbench/bench_stats.h"
#include "src/core/dynamic_address_pool.h"
#include "src/index/dram_hash_index.h"
#include "src/nvm/nvm_device.h"
#include "src/persist/crc32.h"
#include "src/persist/op_log.h"
#include "src/server/protocol.h"

namespace perfbench {
namespace {

int64_t Now() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Replays per layer are capped so the whole replay stays well under a
/// second per layer; the caps cover many thousands of calls each.
constexpr size_t kMaxStoreOps = 400000;
constexpr size_t kMaxModelOps = 20000;
constexpr size_t kMaxLogRecords = 20000;
constexpr size_t kMaxWireOps = 100000;
constexpr size_t kCrcBytes = size_t{8} << 20;

/// Results of timed pure computations land here so none is optimized out.
volatile uint64_t g_result_sink = 0;

/// Accumulates per-call timings with the clock's own cost taken out.
class CallTimer {
 public:
  explicit CallTimer(int64_t overhead) : overhead_(overhead) {}
  void Add(int64_t ns) {
    total_ += std::max<int64_t>(ns - overhead_, 0);
    ++calls_;
  }
  double PerCall() const {
    return Ratio(static_cast<double>(total_), static_cast<double>(calls_));
  }
  int64_t total() const { return total_; }

 private:
  int64_t overhead_;
  int64_t total_ = 0;
  uint64_t calls_ = 0;
};

void FillBucket(uint64_t key, std::span<const uint8_t> value,
                std::vector<uint8_t>* bucket) {
  std::memcpy(bucket->data(), &key, sizeof(key));
  std::memcpy(bucket->data() + sizeof(key), value.data(), value.size());
}

/// Pool + index + device replay: a private mini-store driven by the
/// recorded key stream, the same call sequence PnwStore makes per op.
bool ReplayStoreLayers(const ReplayInput& in, int64_t overhead,
                       const MetricSink& sink) {
  const auto& pool = *in.pool;
  const size_t bucket_bytes = sizeof(uint64_t) + in.value_bytes;
  const size_t zone = std::max(in.zone_buckets, in.live.size() * 2);
  pnw::nvm::NvmConfig config;
  config.size_bytes = zone * bucket_bytes;
  pnw::nvm::NvmDevice device(config);
  pnw::index::DramHashIndex index;
  pnw::core::DynamicAddressPool addresses(in.model->k());
  pnw::core::FeatureScratch scratch;
  std::vector<uint8_t> bucket(bucket_bytes, 0);

  for (size_t i = 0; i < in.live.size(); ++i) {
    FillBucket(in.live[i].first, pool[in.live[i].second], &bucket);
    if (!device.WriteConventional(i * bucket_bytes, bucket).ok() ||
        !index.Put(in.live[i].first, i * bucket_bytes).ok()) {
      return false;
    }
  }
  const std::vector<uint8_t> empty(in.value_bytes, 0);
  const size_t empty_label = in.model->Predict(empty, scratch);
  for (size_t b = in.live.size(); b < zone; ++b) {
    addresses.Insert(empty_label, b * bucket_bytes);
  }

  CallTimer acquire(overhead), index_get(overhead), index_put(overhead),
      index_delete(overhead), nvm_write(overhead), nvm_read(overhead);
  uint64_t written_bytes = 0;
  const auto remove = [&](uint64_t key) -> bool {
    int64_t t0 = Now();
    const auto addr = index.Get(key);
    const bool found = addr.ok() && index.Delete(key).ok();
    index_delete.Add(Now() - t0);
    if (!found) {
      return false;
    }
    t0 = Now();
    const bool read = device.Read(addr.value(), bucket).ok();
    nvm_read.Add(Now() - t0);
    const std::span<const uint8_t> resident(bucket.data() + sizeof(uint64_t),
                                            in.value_bytes);
    const size_t label = in.model->Predict(resident, scratch);
    t0 = Now();
    addresses.Insert(label, addr.value());
    acquire.Add(Now() - t0);
    return read;
  };
  const size_t n = std::min(in.ops.size(), kMaxStoreOps);
  for (size_t i = 0; i < n; ++i) {
    const RecOp& op = in.ops[i];
    if (op.type == RecOp::kGet) {
      int64_t t0 = Now();
      const auto addr = index.Get(op.key);
      index_get.Add(Now() - t0);
      if (!addr.ok()) {
        return false;
      }
      t0 = Now();
      const bool read = device.Read(addr.value(), bucket).ok();
      nvm_read.Add(Now() - t0);
      if (!read) {
        return false;
      }
    } else if (op.type == RecOp::kDelete) {
      if (!remove(op.key)) {
        return false;
      }
    } else {
      // A PUT of a live key is an endurance-first update: delete, then put.
      if (index.Get(op.key).ok() && !remove(op.key)) {
        return false;
      }
      const auto& value = pool[op.value];
      const auto& ranked = in.model->RankClusters(value, scratch);
      bool fallback = false;
      int64_t t0 = Now();
      const std::optional<uint64_t> addr =
          addresses.AcquireRanked(ranked, &fallback);
      acquire.Add(Now() - t0);
      if (!addr.has_value()) {
        return false;
      }
      FillBucket(op.key, value, &bucket);
      t0 = Now();
      const bool wrote = device.WriteDifferential(*addr, bucket).ok();
      nvm_write.Add(Now() - t0);
      written_bytes += bucket_bytes;
      t0 = Now();
      const bool put = index.Put(op.key, *addr).ok();
      index_put.Add(Now() - t0);
      if (!wrote || !put) {
        return false;
      }
    }
  }
  sink("core.pool_acquire_ns", "ns", acquire.PerCall());
  sink("index.get_ns", "ns", index_get.PerCall());
  sink("index.put_ns", "ns", index_put.PerCall());
  sink("index.delete_ns", "ns", index_delete.PerCall());
  sink("nvm.diff_write_ns", "ns", nvm_write.PerCall());
  sink("nvm.diff_write_gbps", "GB/s", Ratio(static_cast<double>(written_bytes),
                                    static_cast<double>(nvm_write.total())));
  sink("nvm.read_ns", "ns", nvm_read.PerCall());
  return true;
}

/// Encoder and centroid argmin, timed separately on the recorded values.
bool ReplayModel(const ReplayInput& in, int64_t overhead,
                 const MetricSink& sink) {
  if (in.model->uses_pca()) {
    std::fprintf(stderr, "replay: PCA models are not replayed\n");
    return false;
  }
  const auto& encoder = in.model->encoder();
  std::vector<float> features(encoder.dims());
  std::vector<uint64_t> lanes;
  CallTimer encode(overhead), argmin(overhead);
  size_t replayed = 0;
  for (const RecOp& op : in.ops) {
    if (op.type != RecOp::kPut) {
      continue;
    }
    int64_t t0 = Now();
    encoder.Encode((*in.pool)[op.value], features, lanes);
    encode.Add(Now() - t0);
    t0 = Now();
    g_result_sink = in.model->kmeans().Predict(features);
    argmin.Add(Now() - t0);
    if (++replayed == kMaxModelOps) {
      break;
    }
  }
  if (replayed == 0) {
    return false;
  }
  sink("ml.encode_ns", "ns", encode.PerCall());
  sink("ml.argmin_ns", "ns", argmin.PerCall());
  return true;
}

/// Op-log appends (single and grouped, group fsync every 32 records as the
/// store's default) and the CRC the log frames with.
bool ReplayLog(const ReplayInput& in, int64_t overhead,
               const MetricSink& sink) {
  std::vector<pnw::persist::OpLogEntry> entries;
  for (const RecOp& op : in.ops) {
    if (op.type == RecOp::kGet) {
      continue;
    }
    pnw::persist::OpLogEntry e;
    e.op = op.type == RecOp::kPut ? pnw::persist::OpType::kPut
                                  : pnw::persist::OpType::kDelete;
    e.key = op.key;
    if (op.type == RecOp::kPut) {
      e.value = (*in.pool)[op.value];
    }
    entries.push_back(e);
    if (entries.size() == kMaxLogRecords) {
      break;
    }
  }
  if (entries.empty()) {
    return false;
  }
  const std::string path = in.workdir + "/replay.oplog";
  auto writer_r = pnw::persist::OpLogWriter::Open(path, 32, 1);
  if (!writer_r.ok()) {
    return false;
  }
  auto writer = std::move(writer_r).value();
  CallTimer append(overhead);
  for (const auto& e : entries) {
    const int64_t t0 = Now();
    const bool ok = writer->Append(e.op, e.key, e.value).ok();
    append.Add(Now() - t0);
    if (!ok) {
      return false;
    }
  }
  if (!writer->Reset(2).ok()) {
    return false;
  }
  const size_t batch = std::max<size_t>(in.append_batch, 1);
  CallTimer grouped(overhead);
  for (size_t i = 0; i < entries.size(); i += batch) {
    const size_t len = std::min(batch, entries.size() - i);
    const int64_t t0 = Now();
    const bool ok =
        writer->AppendBatch(std::span(entries).subspan(i, len)).ok();
    grouped.Add(Now() - t0);
    if (!ok) {
      return false;
    }
  }
  writer.reset();
  std::error_code ec;
  std::filesystem::remove(path, ec);

  std::vector<uint8_t> bytes;
  bytes.reserve(kCrcBytes);
  while (bytes.size() < kCrcBytes) {
    for (const auto& e : entries) {
      bytes.insert(bytes.end(), e.value.begin(), e.value.end());
      bytes.push_back(static_cast<uint8_t>(e.key));
    }
  }
  const int64_t t0 = Now();
  for (int rep = 0; rep < 4; ++rep) {
    g_result_sink = pnw::persist::Crc32(bytes);
  }
  const int64_t crc_ns = Now() - t0;
  sink("persist.append_ns", "ns", append.PerCall());
  sink("persist.append_batch_ns_per_record", "ns",
       Ratio(static_cast<double>(grouped.total()),
             static_cast<double>(entries.size())));
  sink("persist.crc32_gbps", "GB/s",
       Ratio(4.0 * static_cast<double>(bytes.size()),
             static_cast<double>(crc_ns)));
  return true;
}

/// Server request decode (frame extraction + DecodeRequest) and response
/// encode on the recorded operations as wire frames.
bool ReplayWire(const ReplayInput& in, int64_t overhead,
                const MetricSink& sink) {
  namespace srv = pnw::server;
  const size_t n = std::min(in.ops.size(), kMaxWireOps);
  std::vector<uint8_t> wire;
  for (size_t i = 0; i < n; ++i) {
    const RecOp& op = in.ops[i];
    if (op.type == RecOp::kGet) {
      srv::EncodeGet(i + 1, op.key, &wire);
    } else if (op.type == RecOp::kPut) {
      srv::EncodePut(i + 1, op.key, (*in.pool)[op.value], &wire);
    } else {
      srv::EncodeDelete(i + 1, op.key, &wire);
    }
  }
  const srv::ProtocolLimits limits;
  CallTimer decode(overhead), encode(overhead);
  std::span<const uint8_t> rest(wire);
  std::vector<uint8_t> out;
  srv::Request request;
  for (size_t i = 0; i < n; ++i) {
    srv::FrameView frame;
    pnw::Status error;
    int64_t t0 = Now();
    const bool ok = srv::ExtractFrame(rest, limits, &frame, &error) ==
                        srv::FrameResult::kOk &&
                    srv::DecodeRequest(frame, limits, &request).ok();
    decode.Add(Now() - t0);
    if (!ok || request.request_id != i + 1) {
      return false;
    }
    rest = rest.subspan(frame.frame_bytes);
    srv::Response response;
    response.opcode = request.opcode;
    response.request_id = request.request_id;
    if (request.opcode == srv::Opcode::kGet) {
      response.value = (*in.pool)[in.ops[i].value];
    }
    out.clear();
    t0 = Now();
    srv::EncodeResponse(response, &out);
    encode.Add(Now() - t0);
  }
  sink("server.decode_ns", "ns", decode.PerCall());
  sink("server.encode_ns", "ns", encode.PerCall());
  return true;
}

/// Cost of one back-to-back steady_clock read pair, subtracted from every
/// per-call replay timing.
int64_t ClockOverheadNs() {
  std::vector<int64_t> d(1001);
  for (auto& x : d) {
    const int64_t a = Now();
    x = Now() - a;
  }
  std::nth_element(d.begin(), d.begin() + 500, d.end());
  return d[500];
}

}  // namespace

bool RunReplays(const ReplayInput& in, const MetricSink& sink) {
  if (in.pool == nullptr || in.model == nullptr || in.ops.empty()) {
    return false;
  }
  const int64_t overhead = ClockOverheadNs();
  const bool ok = ReplayModel(in, overhead, sink) &&
                  ReplayStoreLayers(in, overhead, sink) &&
                  ReplayLog(in, overhead, sink) &&
                  ReplayWire(in, overhead, sink);
  if (!ok) {
    std::fprintf(stderr, "layer replay failed\n");
  }
  return ok;
}

}  // namespace perfbench
