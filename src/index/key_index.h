#ifndef PNW_INDEX_KEY_INDEX_H_
#define PNW_INDEX_KEY_INDEX_H_

#include <cstdint>

#include "src/util/status.h"

namespace pnw::index {

/// The indirection layer PNW leverages: a mapping from logical keys to the
/// physical data-zone address currently holding the value. The paper's only
/// requirement of this structure is "that it can map logical keys to
/// arbitrary physical memory addresses"; both placements from Fig. 2 are
/// provided (DRAM, and NVM-resident path hashing for the paper's worst-case
/// evaluation setup).
class KeyIndex {
 public:
  virtual ~KeyIndex() = default;

  /// Insert or overwrite the mapping for `key`.
  virtual Status Put(uint64_t key, uint64_t addr) = 0;

  /// Address for `key`, or NotFound. Const because it is the concurrent
  /// read path: PnwStore::Get/MultiGet call it under a *shared* lock, so
  /// implementations must not mutate any state here (both provided indexes
  /// are pure lookups).
  virtual Result<uint64_t> Get(uint64_t key) const = 0;

  /// Delete `key`; NotFound if absent. The NVM path-hash index resets a
  /// flag bit as the paper does; the DRAM index unlinks the entry.
  virtual Status Delete(uint64_t key) = 0;

  /// Number of live (non-deleted) entries.
  virtual size_t size() const = 0;
};

}  // namespace pnw::index

#endif  // PNW_INDEX_KEY_INDEX_H_
