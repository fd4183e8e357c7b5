#ifndef PNW_INDEX_DRAM_HASH_INDEX_H_
#define PNW_INDEX_DRAM_HASH_INDEX_H_

#include <atomic>
#include <cstdint>
#include <utility>
#include <vector>

#include "src/index/key_index.h"
#include "src/util/arena.h"

namespace pnw::index {

/// The Fig. 2a design: the index lives in DRAM, so it adds no NVM bit flips
/// (at the cost of a rebuild on recovery, which `PnwStore` exercises in its
/// crash-recovery test). Unlike the paper's flag bit, a delete physically
/// unlinks the entry: there are no tombstones, so memory is O(peak live
/// keys) under any churn of fresh keys.
///
/// Layout: an open-chaining hash whose nodes and bucket arrays live in an
/// owned arena. This buys two things over a node-per-malloc map:
///  - zero heap churn on the hot path (Delete pushes the unlinked node
///    onto a free list the index owns, threaded through the node's atomic
///    `next`; Put pops it for whatever key comes next);
///  - a lock-free *optimistic* lookup (TryGetOptimistic) for the seqlock
///    Get path. Node memory is type-stable: a node is never returned to
///    the arena or reused as anything but a Node while the index is alive,
///    and retired bucket arrays stay mapped in the arena, so a reader
///    racing a writer always dereferences live Node memory. Every field it
///    reads is atomic, its traversal is step-bounded (a recycled node may
///    lead it into another chain or the free list), and the seqlock
///    validation discards anything read while a node was being recycled.
///    (Arena::Deallocate is deliberately not used: it writes its free-list
///    link into the block non-atomically, a data race with such readers.)
///
/// Mutators (Put/Delete) are externally serialized by the owning store's
/// exclusive lock, exactly like before; Get and TryGetOptimistic are safe
/// concurrently with them.
class DramHashIndex final : public KeyIndex {
 public:
  DramHashIndex();
  ~DramHashIndex() override = default;  // nodes are trivially destructible

  Status Put(uint64_t key, uint64_t addr) override;
  Result<uint64_t> Get(uint64_t key) const override;
  Status Delete(uint64_t key) override;
  size_t size() const override { return live_; }

  /// Lock-free bounded lookup for the seqlock optimistic read path.
  /// Returns kHit with *addr set, kMiss when the key is absent,
  /// or kOverflow when the traversal exceeded its step bound (a writer is
  /// restructuring the table) -- the caller falls back to the locked path.
  /// Any value observed here MUST be discarded unless the caller's seqlock
  /// validation succeeds.
  enum class OptLookup { kHit, kMiss, kOverflow };
  OptLookup TryGetOptimistic(uint64_t key, uint64_t* addr) const;

  /// All live (key, addr) mappings, in unspecified order.
  std::vector<std::pair<uint64_t, uint64_t>> LiveEntries() const;

  /// Allocator counters of the arena holding nodes and bucket arrays.
  util::ArenaStats arena_stats() const { return arena_.Stats(); }

 private:
  /// All fields atomic: a recycled node's key and addr are rewritten while
  /// an optimistic reader may still be looking at it.
  struct Node {
    std::atomic<uint64_t> key;
    std::atomic<uint64_t> addr;
    std::atomic<Node*> next;  // chain link, or free-list link once unlinked
  };

  /// One resolved bucket array; readers snapshot the table pointer, so a
  /// rehash can swing to a bigger array without invalidating them.
  struct Table {
    std::atomic<Node*>* buckets;
    size_t mask;  // bucket_count - 1 (power of two)
  };

  static uint64_t Mix(uint64_t key);
  Node* FindNode(const Table& table, uint64_t key) const;
  void Rehash();

  util::Arena arena_;
  std::atomic<Table*> table_;
  Node* free_nodes_ = nullptr;  // unlinked nodes, reused by Put
  size_t live_ = 0;  // linked nodes == live keys (also the rehash threshold)
};

}  // namespace pnw::index

#endif  // PNW_INDEX_DRAM_HASH_INDEX_H_
