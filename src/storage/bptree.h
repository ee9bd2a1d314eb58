#ifndef VIEWMAT_STORAGE_BPTREE_H_
#define VIEWMAT_STORAGE_BPTREE_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "common/status.h"
#include "storage/buffer_pool.h"
#include "storage/page.h"

namespace viewmat::storage {

/// Clustered B+-tree over int64 keys with fixed-size opaque payloads.
/// Leaves store the full records (this is the clustered access method the
/// paper assumes for R, R1 and the materialized view V); internal nodes
/// store separator keys. Duplicate keys are supported — required because a
/// view's clustering field (the predicate field) is generally not unique.
///
/// Deletion uses the lazy policy also found in production systems
/// (PostgreSQL nbtree): entries are removed immediately, but non-empty
/// nodes are never rebalanced; a node is reclaimed only when it becomes
/// completely empty. Occupancy therefore stays >= 1 entry per node rather
/// than >= 50%, which is harmless for the steady-state workloads simulated
/// here and greatly simplifies the structure.
///
/// All node accesses go through the BufferPool, so every traversal charges
/// the shared CostTracker exactly the I/Os a cold/warm cache would incur.
class BPTree {
 public:
  /// Visit callback for scans: return false to stop the scan early.
  using Visitor = std::function<bool(int64_t key, const uint8_t* payload)>;
  /// Predicate identifying one record among duplicates of a key.
  using Matcher = std::function<bool(const uint8_t* payload)>;

  BPTree(BufferPool* pool, uint32_t payload_size);

  BPTree(const BPTree&) = delete;
  BPTree& operator=(const BPTree&) = delete;

  /// Inserts a (key, payload) entry. Duplicate keys are allowed; the new
  /// entry lands after existing entries with an equal key.
  Status Insert(int64_t key, const uint8_t* payload);

  /// Streaming producer for BulkLoad: fills *key and payload (payload_size
  /// bytes) and returns true, or returns false when exhausted. Keys must be
  /// non-decreasing.
  using BulkSource = std::function<bool(int64_t* key, uint8_t* payload)>;

  /// Builds the tree bottom-up from a sorted stream, packing leaves and
  /// internal nodes to `fill_factor` (1.0 = completely full, the packing
  /// the paper's index-height formula assumes). The tree must be empty.
  /// Far cheaper than N inserts: every page is written exactly once and no
  /// splits occur.
  Status BulkLoad(const BulkSource& source, double fill_factor = 1.0);

  /// Rebuilds the tree by scanning it and bulk-loading into fresh pages:
  /// reclaims empty leaves left by the lazy deletion policy and restores
  /// packing. The offline-reorg flavor of vacuum.
  Status Compact(double fill_factor = 1.0);

  /// Deletes the first entry with `key` whose payload satisfies `match`
  /// (pass nullptr to delete the first entry with the key). Returns
  /// NotFound when no entry matches.
  Status Delete(int64_t key, const Matcher& match);

  /// Copies the payload of the first matching entry into `out`. Returns
  /// NotFound when absent.
  Status Find(int64_t key, uint8_t* out) const;

  /// Overwrites the payload of the first entry with `key` satisfying
  /// `match`. The key itself must not change (delete + insert for that).
  Status UpdatePayload(int64_t key, const Matcher& match,
                       const uint8_t* new_payload);

  /// Visits all entries with key in [lo, hi], in key order.
  Status RangeScan(int64_t lo, int64_t hi, const Visitor& visit) const;

  /// Visits every entry in key order.
  Status ScanAll(const Visitor& visit) const;

  /// Number of levels including the leaf level (a lone leaf has height 1).
  /// This is 1 + the H_vi the cost model uses for descent charging.
  uint32_t Height() const { return height_; }

  size_t entry_count() const { return entry_count_; }
  size_t leaf_page_count() const { return leaf_page_count_; }

  uint32_t leaf_capacity() const { return leaf_capacity_; }
  uint32_t internal_capacity() const { return internal_capacity_; }

  /// Verifies every structural invariant (sorted keys, consistent
  /// separators, uniform leaf depth, intact leaf chain, capacity bounds).
  /// O(size); for tests.
  Status CheckInvariants() const;

 private:
  // --- Node layout -------------------------------------------------------
  // Common header: [u8 is_leaf][u8 pad][u16 count]
  // Leaf:     [hdr][PageId next][PageId prev][count * (i64 key, payload)]
  // Internal: [hdr][PageId child0][count * (i64 sep, PageId child)]
  static constexpr uint32_t kIsLeafOff = 0;
  static constexpr uint32_t kCountOff = 2;
  static constexpr uint32_t kLeafNextOff = 4;
  static constexpr uint32_t kLeafPrevOff = 8;
  static constexpr uint32_t kLeafEntriesOff = 12;
  static constexpr uint32_t kChild0Off = 4;
  static constexpr uint32_t kInternalEntriesOff = 8;

  uint32_t LeafEntrySize() const { return 8 + payload_size_; }
  static constexpr uint32_t kInternalEntrySize = 12;

  uint32_t LeafKeyOff(uint16_t i) const {
    return kLeafEntriesOff + i * LeafEntrySize();
  }
  uint32_t LeafPayloadOff(uint16_t i) const { return LeafKeyOff(i) + 8; }
  static uint32_t InternalSepOff(uint16_t i) {
    return kInternalEntriesOff + i * kInternalEntrySize;
  }
  static uint32_t InternalChildOff(uint16_t i) {
    return InternalSepOff(i) + 8;
  }

  static bool IsLeaf(const Page& pg) { return pg.ReadAt<uint8_t>(kIsLeafOff); }
  static uint16_t Count(const Page& pg) { return pg.ReadAt<uint16_t>(kCountOff); }
  static void SetCount(Page* pg, uint16_t c) { pg->WriteAt(kCountOff, c); }

  /// Descends to the leaf that may contain the *leftmost* occurrence of
  /// `key`, recording the path (page ids and chosen child indices).
  struct PathEntry {
    PageId page;
    uint16_t child_index;  // which child pointer was followed (internal only)
  };
  StatusOr<PageId> DescendToLeaf(int64_t key,
                                 std::vector<PathEntry>* path) const;

  /// Position of the first entry with key >= `key` in a leaf.
  uint16_t LeafLowerBound(const Page& pg, int64_t key) const;
  /// Position after the last entry with key <= `key` in a leaf.
  uint16_t LeafUpperBound(const Page& pg, int64_t key) const;
  /// Child index to follow inside an internal node for the leftmost
  /// occurrence of `key`.
  static uint16_t InternalChildFor(const Page& pg, int64_t key);

  void LeafInsertAt(Page* pg, uint16_t pos, int64_t key,
                    const uint8_t* payload);
  void LeafRemoveAt(Page* pg, uint16_t pos);
  static void InternalInsertAt(Page* pg, uint16_t pos, int64_t sep,
                               PageId child);
  static void InternalRemoveAt(Page* pg, uint16_t pos);

  /// Splits the given full leaf, returning the new right sibling and its
  /// first key (the separator to push up).
  struct SplitResult {
    PageId right;
    int64_t separator;
  };
  StatusOr<SplitResult> SplitLeaf(PageGuard* left);
  StatusOr<SplitResult> SplitInternal(PageGuard* left);

  /// Inserts (sep, right) into the parents along `path`, splitting upward
  /// as needed; grows a new root when the old root splits.
  Status InsertIntoParents(std::vector<PathEntry>* path, int64_t sep,
                           PageId right);

  /// Unlinks a now-empty leaf/internal chain bottom-up after a delete.
  Status ReclaimEmpty(std::vector<PathEntry>* path, PageId empty_child);

  Status CheckNode(PageId id, uint32_t depth, std::optional<int64_t> lo,
                   std::optional<int64_t> hi, uint32_t* leaf_depth,
                   size_t* entries, size_t* leaves) const;

  BufferPool* pool_;
  uint32_t payload_size_;
  uint32_t leaf_capacity_;
  uint32_t internal_capacity_;
  PageId root_;
  uint32_t height_ = 1;
  size_t entry_count_ = 0;
  size_t leaf_page_count_ = 1;
  /// Insert's root-to-leaf path, kept to reuse its capacity across calls.
  std::vector<PathEntry> insert_path_;
};

}  // namespace viewmat::storage

#endif  // VIEWMAT_STORAGE_BPTREE_H_
