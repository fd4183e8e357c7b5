#include "src/index/dram_hash_index.h"

namespace pnw::index {

namespace {

constexpr size_t kInitialBuckets = 64;  // power of two

}  // namespace

uint64_t DramHashIndex::Mix(uint64_t key) {
  // splitmix64 finalizer: cheap, and spreads sequential keys across
  // power-of-two bucket masks.
  uint64_t z = key + 0x9e3779b97f4a7c15ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

DramHashIndex::DramHashIndex() {
  Table* table = static_cast<Table*>(
      arena_.Allocate(sizeof(Table), alignof(Table)));
  table->buckets = static_cast<std::atomic<Node*>*>(arena_.Allocate(
      kInitialBuckets * sizeof(std::atomic<Node*>), alignof(std::atomic<Node*>)));
  for (size_t i = 0; i < kInitialBuckets; ++i) {
    table->buckets[i].store(nullptr, std::memory_order_relaxed);
  }
  table->mask = kInitialBuckets - 1;
  table_.store(table, std::memory_order_release);
}

DramHashIndex::Node* DramHashIndex::FindNode(const Table& table,
                                             uint64_t key) const {
  Node* node = table.buckets[Mix(key) & table.mask]
                   .load(std::memory_order_acquire);
  while (node != nullptr) {
    if (node->key.load(std::memory_order_relaxed) == key) {
      return node;
    }
    node = node->next.load(std::memory_order_acquire);
  }
  return nullptr;
}

Status DramHashIndex::Put(uint64_t key, uint64_t addr) {
  Table* table = table_.load(std::memory_order_relaxed);
  Node* node = FindNode(*table, key);
  if (node != nullptr) {
    node->addr.store(addr, std::memory_order_relaxed);
    return Status::OK();
  }
  if (live_ + 1 > table->mask + 1) {
    Rehash();
    table = table_.load(std::memory_order_relaxed);
  }
  if (free_nodes_ != nullptr) {
    node = free_nodes_;
    free_nodes_ = node->next.load(std::memory_order_relaxed);
  } else {
    node = static_cast<Node*>(arena_.Allocate(sizeof(Node), alignof(Node)));
  }
  node->key.store(key, std::memory_order_relaxed);
  node->addr.store(addr, std::memory_order_relaxed);
  std::atomic<Node*>& head = table->buckets[Mix(key) & table->mask];
  node->next.store(head.load(std::memory_order_relaxed),
                   std::memory_order_relaxed);
  // Publication point: everything written above becomes visible to any
  // reader that reaches the node through this head.
  head.store(node, std::memory_order_release);
  ++live_;
  return Status::OK();
}

void DramHashIndex::Rehash() {
  Table* old_table = table_.load(std::memory_order_relaxed);
  const size_t new_count = (old_table->mask + 1) * 2;
  Table* table = static_cast<Table*>(
      arena_.Allocate(sizeof(Table), alignof(Table)));
  table->buckets = static_cast<std::atomic<Node*>*>(arena_.Allocate(
      new_count * sizeof(std::atomic<Node*>), alignof(std::atomic<Node*>)));
  for (size_t i = 0; i < new_count; ++i) {
    table->buckets[i].store(nullptr, std::memory_order_relaxed);
  }
  table->mask = new_count - 1;

  // Relink every node into the new array. An optimistic reader still
  // walking the OLD table may see chains mid-splice -- every pointer it
  // chases still lands in live arena memory, its traversal is step-bounded,
  // and its seqlock validation will fail (the owning store's writer lock is
  // held here). The old table and bucket array are retired into the arena,
  // never unmapped.
  for (size_t i = 0; i <= old_table->mask; ++i) {
    Node* node = old_table->buckets[i].load(std::memory_order_relaxed);
    while (node != nullptr) {
      Node* next = node->next.load(std::memory_order_relaxed);
      std::atomic<Node*>& head =
          table->buckets[Mix(node->key.load(std::memory_order_relaxed)) &
                         table->mask];
      node->next.store(head.load(std::memory_order_relaxed),
                       std::memory_order_relaxed);
      head.store(node, std::memory_order_release);
      node = next;
    }
  }
  table_.store(table, std::memory_order_release);
}

Result<uint64_t> DramHashIndex::Get(uint64_t key) const {
  const Table* table = table_.load(std::memory_order_acquire);
  Node* node = FindNode(*table, key);
  if (node == nullptr) {
    return Status::NotFound("key not in index");
  }
  return node->addr.load(std::memory_order_relaxed);
}

DramHashIndex::OptLookup DramHashIndex::TryGetOptimistic(
    uint64_t key, uint64_t* addr) const {
  const Table* table = table_.load(std::memory_order_acquire);
  // Step bound: any consistent chain is far shorter than the whole table
  // (load factor <= 1), so exceeding it means a concurrent restructure or
  // a recycled node led the walk astray -- give up rather than risk
  // chasing a mid-splice cycle forever.
  size_t budget = 2 * (table->mask + 1) + 64;
  Node* node = table->buckets[Mix(key) & table->mask]
                   .load(std::memory_order_acquire);
  while (node != nullptr) {
    if (budget-- == 0) {
      return OptLookup::kOverflow;
    }
    if (node->key.load(std::memory_order_relaxed) == key) {
      *addr = node->addr.load(std::memory_order_relaxed);
      return OptLookup::kHit;
    }
    node = node->next.load(std::memory_order_acquire);
  }
  return OptLookup::kMiss;
}

std::vector<std::pair<uint64_t, uint64_t>> DramHashIndex::LiveEntries()
    const {
  std::vector<std::pair<uint64_t, uint64_t>> entries;
  entries.reserve(live_);
  const Table* table = table_.load(std::memory_order_acquire);
  for (size_t i = 0; i <= table->mask; ++i) {
    for (Node* node = table->buckets[i].load(std::memory_order_acquire);
         node != nullptr; node = node->next.load(std::memory_order_acquire)) {
      entries.emplace_back(node->key.load(std::memory_order_relaxed),
                           node->addr.load(std::memory_order_relaxed));
    }
  }
  return entries;
}

Status DramHashIndex::Delete(uint64_t key) {
  Table* table = table_.load(std::memory_order_relaxed);
  std::atomic<Node*>* link = &table->buckets[Mix(key) & table->mask];
  Node* node = link->load(std::memory_order_relaxed);
  while (node != nullptr &&
         node->key.load(std::memory_order_relaxed) != key) {
    link = &node->next;
    node = link->load(std::memory_order_relaxed);
  }
  if (node == nullptr) {
    return Status::NotFound("key not in index");
  }
  // Unlink, then park the node on the free list. A reader standing on it
  // follows `next` into the free list (a bounded walk ending in nullptr)
  // and its seqlock validation fails.
  link->store(node->next.load(std::memory_order_relaxed),
              std::memory_order_release);
  node->next.store(free_nodes_, std::memory_order_relaxed);
  free_nodes_ = node;
  --live_;
  return Status::OK();
}

}  // namespace pnw::index
