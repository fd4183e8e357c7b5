// Layer replays: a workload's recorded inputs fed through each lower
// layer's public functions on private instances, after the timed phase.
#ifndef PERFBENCH_REPLAY_H_
#define PERFBENCH_REPLAY_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/core/model_manager.h"

namespace perfbench {

/// One recorded client operation; `value` indexes the workload's value pool.
struct RecOp {
  enum Type : uint8_t { kGet = 0, kPut = 1, kDelete = 2 };
  uint8_t type = kGet;
  uint64_t key = 0;
  uint32_t value = 0;
};

struct ReplayInput {
  const std::vector<std::vector<uint8_t>>* pool = nullptr;
  /// Live (key, pool index) pairs when the recording started.
  std::vector<std::pair<uint64_t, uint32_t>> live;
  std::vector<RecOp> ops;
  std::shared_ptr<const pnw::core::ValueModel> model;
  size_t value_bytes = 0;
  /// Buckets of the private device (at least twice the live set).
  size_t zone_buckets = 0;
  /// Records per OpLogWriter::AppendBatch call.
  size_t append_batch = 16;
  /// Scratch directory for the replayed op-log.
  std::string workdir;
};

/// Callback receiving (metric name, unit, value) for every replay metric.
using MetricSink =
    std::function<void(const std::string&, const std::string&, double)>;

/// Runs every layer replay and reports ml.encode_ns, ml.argmin_ns,
/// core.pool_acquire_ns, index.{get,put,delete}_ns, nvm.diff_write_ns,
/// nvm.diff_write_gbps, nvm.read_ns, persist.append_ns,
/// persist.append_batch_ns_per_record, persist.crc32_gbps,
/// server.decode_ns and server.encode_ns. Returns false on any error.
bool RunReplays(const ReplayInput& in, const MetricSink& sink);

}  // namespace perfbench

#endif  // PERFBENCH_REPLAY_H_
