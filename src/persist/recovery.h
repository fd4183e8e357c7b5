#ifndef PNW_PERSIST_RECOVERY_H_
#define PNW_PERSIST_RECOVERY_H_

#include <cstddef>

namespace pnw::persist {

/// Knobs for PnwStore::Open(path, ...) / ShardedPnwStore::Open(dir, ...).
/// The defaults give the full durability contract: replay everything the
/// op-log captured since the snapshot, then keep logging.
struct RecoveryOptions {
  /// Replay `<snapshot path> + ".oplog"` (if present) on top of the
  /// snapshot, truncating a torn tail first. Disable to recover exactly
  /// the checkpointed state and ignore later writes.
  bool replay_op_log = true;

  /// Re-attach the op-log after recovery so subsequent PUT/UPDATE/DELETE
  /// keep being captured (appending after the replayed records). Disable
  /// for read-only forensics on a checkpoint. Attaching without replay
  /// (or over a log from another checkpoint epoch) resets the log: a
  /// record that was not replayed onto the served state can never legally
  /// replay later.
  bool attach_op_log = true;

  /// Group-fsync interval handed to the re-attached op-log writer: one
  /// fsync per this many appended records (1 = sync every record).
  size_t op_log_sync_every = 32;
};

}  // namespace pnw::persist

#endif  // PNW_PERSIST_RECOVERY_H_
