#include "storage/bptree.h"

#include <algorithm>
#include <cstring>
#include <limits>

#include "common/logging.h"

namespace viewmat::storage {

namespace {
constexpr uint8_t kLeafTag = 1;
constexpr uint8_t kInternalTag = 0;
}  // namespace

BPTree::BPTree(BufferPool* pool, uint32_t payload_size)
    : pool_(pool), payload_size_(payload_size) {
  VIEWMAT_CHECK(pool_ != nullptr);
  const uint32_t page_size = pool_->disk()->page_size();
  leaf_capacity_ = (page_size - kLeafEntriesOff) / LeafEntrySize();
  internal_capacity_ = (page_size - kInternalEntriesOff) / kInternalEntrySize;
  VIEWMAT_CHECK_MSG(leaf_capacity_ >= 2, "payload too large for page");
  VIEWMAT_CHECK(internal_capacity_ >= 3);
  auto root = pool_->NewPage();
  VIEWMAT_CHECK(root.ok());
  Page& pg = root->page();
  pg.WriteAt<uint8_t>(kIsLeafOff, kLeafTag);
  SetCount(&pg, 0);
  pg.WriteAt<PageId>(kLeafNextOff, kInvalidPageId);
  pg.WriteAt<PageId>(kLeafPrevOff, kInvalidPageId);
  root->MarkDirty();
  root_ = root->id();
}

uint16_t BPTree::LeafLowerBound(const Page& pg, int64_t key) const {
  uint16_t lo = 0, hi = Count(pg);
  while (lo < hi) {
    const uint16_t mid = (lo + hi) / 2;
    if (pg.ReadAt<int64_t>(LeafKeyOff(mid)) < key) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

uint16_t BPTree::LeafUpperBound(const Page& pg, int64_t key) const {
  uint16_t lo = 0, hi = Count(pg);
  while (lo < hi) {
    const uint16_t mid = (lo + hi) / 2;
    if (pg.ReadAt<int64_t>(LeafKeyOff(mid)) <= key) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

uint16_t BPTree::InternalChildFor(const Page& pg, int64_t key) {
  // Leftmost-biased routing: follow the child after the last separator that
  // is strictly below the key, so runs of duplicates are always entered at
  // their leftmost leaf.
  uint16_t lo = 0, hi = Count(pg);
  while (lo < hi) {
    const uint16_t mid = (lo + hi) / 2;
    if (pg.ReadAt<int64_t>(InternalSepOff(mid)) < key) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;  // child index: 0 = child0, i>0 = entry (i-1)'s child
}

StatusOr<PageId> BPTree::DescendToLeaf(int64_t key,
                                       std::vector<PathEntry>* path) const {
  PageId cur = root_;
  while (true) {
    VIEWMAT_ASSIGN_OR_RETURN(PageGuard guard, pool_->Fetch(cur));
    const Page& pg = guard.page();
    if (IsLeaf(pg)) return cur;
    const uint16_t child_idx = InternalChildFor(pg, key);
    if (path != nullptr) path->push_back(PathEntry{cur, child_idx});
    cur = child_idx == 0 ? pg.ReadAt<PageId>(kChild0Off)
                         : pg.ReadAt<PageId>(InternalChildOff(child_idx - 1));
  }
}

void BPTree::LeafInsertAt(Page* pg, uint16_t pos, int64_t key,
                          const uint8_t* payload) {
  const uint16_t count = Count(*pg);
  VIEWMAT_DCHECK(count < leaf_capacity_ && pos <= count);
  // Shift entries [pos, count) one slot right.
  if (pos < count) {
    const uint32_t src = LeafKeyOff(pos);
    std::memmove(pg->data() + src + LeafEntrySize(), pg->data() + src,
                 static_cast<size_t>(count - pos) * LeafEntrySize());
  }
  pg->WriteAt<int64_t>(LeafKeyOff(pos), key);
  pg->WriteBytes(LeafPayloadOff(pos), payload, payload_size_);
  SetCount(pg, count + 1);
}

void BPTree::LeafRemoveAt(Page* pg, uint16_t pos) {
  const uint16_t count = Count(*pg);
  VIEWMAT_DCHECK(pos < count);
  if (pos + 1 < count) {
    const uint32_t dst = LeafKeyOff(pos);
    std::memmove(pg->data() + dst, pg->data() + dst + LeafEntrySize(),
                 static_cast<size_t>(count - pos - 1) * LeafEntrySize());
  }
  SetCount(pg, count - 1);
}

void BPTree::InternalInsertAt(Page* pg, uint16_t pos, int64_t sep,
                              PageId child) {
  const uint16_t count = Count(*pg);
  VIEWMAT_DCHECK(pos <= count);
  if (pos < count) {
    const uint32_t src = InternalSepOff(pos);
    std::memmove(pg->data() + src + kInternalEntrySize, pg->data() + src,
                 static_cast<size_t>(count - pos) * kInternalEntrySize);
  }
  pg->WriteAt<int64_t>(InternalSepOff(pos), sep);
  pg->WriteAt<PageId>(InternalChildOff(pos), child);
  SetCount(pg, count + 1);
}

void BPTree::InternalRemoveAt(Page* pg, uint16_t pos) {
  const uint16_t count = Count(*pg);
  VIEWMAT_DCHECK(pos < count);
  if (pos + 1 < count) {
    const uint32_t dst = InternalSepOff(pos);
    std::memmove(pg->data() + dst, pg->data() + dst + kInternalEntrySize,
                 static_cast<size_t>(count - pos - 1) * kInternalEntrySize);
  }
  SetCount(pg, count - 1);
}

StatusOr<BPTree::SplitResult> BPTree::SplitLeaf(PageGuard* left) {
  Page& lp = left->page();
  const uint16_t count = Count(lp);
  const uint16_t keep = count / 2 + (count % 2);  // left keeps ceil(n/2)
  const uint16_t moved = count - keep;

  VIEWMAT_ASSIGN_OR_RETURN(PageGuard right, pool_->NewPage());
  Page& rp = right.page();
  rp.WriteAt<uint8_t>(kIsLeafOff, kLeafTag);
  SetCount(&rp, moved);
  rp.WriteBytes(kLeafEntriesOff, lp.data() + LeafKeyOff(keep),
                static_cast<uint32_t>(moved) * LeafEntrySize());
  SetCount(&lp, keep);

  // Splice the new leaf into the doubly-linked chain.
  const PageId old_next = lp.ReadAt<PageId>(kLeafNextOff);
  rp.WriteAt<PageId>(kLeafNextOff, old_next);
  rp.WriteAt<PageId>(kLeafPrevOff, left->id());
  lp.WriteAt<PageId>(kLeafNextOff, right.id());
  if (old_next != kInvalidPageId) {
    VIEWMAT_ASSIGN_OR_RETURN(PageGuard nxt, pool_->Fetch(old_next));
    nxt.page().WriteAt<PageId>(kLeafPrevOff, right.id());
    nxt.MarkDirty();
  }
  left->MarkDirty();
  right.MarkDirty();
  ++leaf_page_count_;
  return SplitResult{right.id(), rp.ReadAt<int64_t>(LeafKeyOff(0))};
}

StatusOr<BPTree::SplitResult> BPTree::SplitInternal(PageGuard* left) {
  Page& lp = left->page();
  const uint16_t count = Count(lp);
  const uint16_t mid = count / 2;  // entry promoted upward
  const int64_t promoted = lp.ReadAt<int64_t>(InternalSepOff(mid));

  VIEWMAT_ASSIGN_OR_RETURN(PageGuard right, pool_->NewPage());
  Page& rp = right.page();
  rp.WriteAt<uint8_t>(kIsLeafOff, kInternalTag);
  rp.WriteAt<PageId>(kChild0Off, lp.ReadAt<PageId>(InternalChildOff(mid)));
  const uint16_t moved = count - mid - 1;
  SetCount(&rp, moved);
  if (moved > 0) {
    rp.WriteBytes(kInternalEntriesOff, lp.data() + InternalSepOff(mid + 1),
                  static_cast<uint32_t>(moved) * kInternalEntrySize);
  }
  SetCount(&lp, mid);
  left->MarkDirty();
  right.MarkDirty();
  return SplitResult{right.id(), promoted};
}

Status BPTree::InsertIntoParents(std::vector<PathEntry>* path, int64_t sep,
                                 PageId right) {
  while (!path->empty()) {
    const PathEntry top = path->back();
    path->pop_back();
    VIEWMAT_ASSIGN_OR_RETURN(PageGuard parent, pool_->Fetch(top.page));
    Page& pg = parent.page();
    uint16_t insert_at = top.child_index;  // entry index for the new child
    if (Count(pg) < internal_capacity_) {
      InternalInsertAt(&pg, insert_at, sep, right);
      parent.MarkDirty();
      return Status::OK();
    }
    // Parent is full: split it, then place the new entry on the proper side
    // by index (not by key comparison — duplicate separators are possible).
    const uint16_t mid = Count(pg) / 2;
    VIEWMAT_ASSIGN_OR_RETURN(SplitResult split, SplitInternal(&parent));
    if (insert_at <= mid) {
      InternalInsertAt(&pg, insert_at, sep, right);
      parent.MarkDirty();
    } else {
      VIEWMAT_ASSIGN_OR_RETURN(PageGuard rguard, pool_->Fetch(split.right));
      InternalInsertAt(&rguard.page(),
                       static_cast<uint16_t>(insert_at - mid - 1), sep, right);
      rguard.MarkDirty();
    }
    // Continue upward with the parent's own split.
    sep = split.separator;
    right = split.right;
  }
  // The root itself split: grow a new root.
  VIEWMAT_ASSIGN_OR_RETURN(PageGuard new_root, pool_->NewPage());
  Page& pg = new_root.page();
  pg.WriteAt<uint8_t>(kIsLeafOff, kInternalTag);
  pg.WriteAt<PageId>(kChild0Off, root_);
  SetCount(&pg, 0);
  InternalInsertAt(&pg, 0, sep, right);
  new_root.MarkDirty();
  root_ = new_root.id();
  ++height_;
  return Status::OK();
}

Status BPTree::Insert(int64_t key, const uint8_t* payload) {
  const ScopedComponent tag(pool_->disk()->tracker(), Component::kBptree);
  insert_path_.clear();
  VIEWMAT_ASSIGN_OR_RETURN(const PageId leaf_id,
                           DescendToLeaf(key, &insert_path_));
  VIEWMAT_ASSIGN_OR_RETURN(PageGuard leaf, pool_->Fetch(leaf_id));
  Page& pg = leaf.page();
  if (Count(pg) < leaf_capacity_) {
    LeafInsertAt(&pg, LeafUpperBound(pg, key), key, payload);
    leaf.MarkDirty();
    ++entry_count_;
    return Status::OK();
  }
  VIEWMAT_ASSIGN_OR_RETURN(SplitResult split, SplitLeaf(&leaf));
  if (key < split.separator) {
    LeafInsertAt(&pg, LeafUpperBound(pg, key), key, payload);
    leaf.MarkDirty();
  } else {
    VIEWMAT_ASSIGN_OR_RETURN(PageGuard rguard, pool_->Fetch(split.right));
    Page& rp = rguard.page();
    LeafInsertAt(&rp, LeafUpperBound(rp, key), key, payload);
    rguard.MarkDirty();
  }
  ++entry_count_;
  return InsertIntoParents(&insert_path_, split.separator, split.right);
}

Status BPTree::BulkLoad(const BulkSource& source, double fill_factor) {
  const ScopedComponent tag(pool_->disk()->tracker(), Component::kBptree);
  if (entry_count_ != 0) {
    return Status::FailedPrecondition("bulk load requires an empty tree");
  }
  const uint16_t leaf_fill = static_cast<uint16_t>(std::clamp<double>(
      fill_factor * leaf_capacity_, 1.0, leaf_capacity_));
  const uint16_t internal_fill = static_cast<uint16_t>(std::clamp<double>(
      fill_factor * internal_capacity_, 1.0, internal_capacity_));

  // ---- Leaf level ----------------------------------------------------
  struct LevelEntry {
    int64_t first_key;
    PageId page;
  };
  std::vector<LevelEntry> level;
  std::vector<uint8_t> payload(payload_size_);
  int64_t key = 0;
  int64_t prev_key = std::numeric_limits<int64_t>::min();
  bool more = source(&key, payload.data());
  size_t loaded = 0;
  PageId prev_leaf = kInvalidPageId;
  while (more) {
    VIEWMAT_ASSIGN_OR_RETURN(PageGuard leaf, pool_->NewPage());
    Page& pg = leaf.page();
    pg.WriteAt<uint8_t>(kIsLeafOff, kLeafTag);
    pg.WriteAt<PageId>(kLeafNextOff, kInvalidPageId);
    pg.WriteAt<PageId>(kLeafPrevOff, prev_leaf);
    uint16_t count = 0;
    int64_t first_key = key;
    while (more && count < leaf_fill) {
      if (key < prev_key) {
        return Status::InvalidArgument("bulk source keys not sorted");
      }
      if (count == 0) first_key = key;
      pg.WriteAt<int64_t>(LeafKeyOff(count), key);
      pg.WriteBytes(LeafPayloadOff(count), payload.data(), payload_size_);
      prev_key = key;
      ++count;
      ++loaded;
      more = source(&key, payload.data());
    }
    SetCount(&pg, count);
    leaf.MarkDirty();
    if (prev_leaf != kInvalidPageId) {
      VIEWMAT_ASSIGN_OR_RETURN(PageGuard prev, pool_->Fetch(prev_leaf));
      prev.page().WriteAt<PageId>(kLeafNextOff, leaf.id());
      prev.MarkDirty();
    }
    level.push_back(LevelEntry{first_key, leaf.id()});
    prev_leaf = leaf.id();
  }
  if (level.empty()) return Status::OK();  // empty source: keep empty root

  // Replace the initial empty root leaf.
  VIEWMAT_RETURN_IF_ERROR(pool_->DeletePage(root_));
  entry_count_ = loaded;
  leaf_page_count_ = level.size();
  height_ = 1;

  // ---- Internal levels -------------------------------------------------
  while (level.size() > 1) {
    std::vector<LevelEntry> parents;
    const size_t children_per_node = static_cast<size_t>(internal_fill) + 1;
    size_t i = 0;
    while (i < level.size()) {
      // Never leave a trailing single-child node: shrink this chunk by one
      // when exactly one child would remain (children_per_node >= 2, so
      // the shrunken chunk still has at least one separator... unless it
      // would itself become single-child, in which case take both).
      size_t take = std::min(children_per_node, level.size() - i);
      if (level.size() - i - take == 1) {
        if (take > 2) {
          --take;
        } else {
          take = level.size() - i;  // 2 or 3 children: take them all
        }
      }
      VIEWMAT_ASSIGN_OR_RETURN(PageGuard node, pool_->NewPage());
      Page& pg = node.page();
      pg.WriteAt<uint8_t>(kIsLeafOff, kInternalTag);
      pg.WriteAt<PageId>(kChild0Off, level[i].page);
      SetCount(&pg, 0);
      const int64_t first_key = level[i].first_key;
      for (size_t j = 1; j < take; ++j) {
        InternalInsertAt(&pg, static_cast<uint16_t>(j - 1),
                         level[i + j].first_key, level[i + j].page);
      }
      node.MarkDirty();
      parents.push_back(LevelEntry{first_key, node.id()});
      i += take;
    }
    level = std::move(parents);
    ++height_;
  }
  root_ = level[0].page;
  return Status::OK();
}

Status BPTree::Compact(double fill_factor) {
  const ScopedComponent tag(pool_->disk()->tracker(), Component::kBptree);
  // Drain into memory (offline reorg), release every page, rebuild.
  std::vector<std::pair<int64_t, std::vector<uint8_t>>> entries;
  entries.reserve(entry_count_);
  VIEWMAT_RETURN_IF_ERROR(ScanAll([&](int64_t key, const uint8_t* payload) {
    entries.emplace_back(key,
                         std::vector<uint8_t>(payload, payload + payload_size_));
    return true;
  }));
  // Free the old structure: walk and release via a BFS over internal nodes.
  std::vector<PageId> stack = {root_};
  while (!stack.empty()) {
    const PageId id = stack.back();
    stack.pop_back();
    {
      VIEWMAT_ASSIGN_OR_RETURN(PageGuard guard, pool_->Fetch(id));
      const Page& pg = guard.page();
      if (!IsLeaf(pg)) {
        stack.push_back(pg.ReadAt<PageId>(kChild0Off));
        for (uint16_t i = 0; i < Count(pg); ++i) {
          stack.push_back(pg.ReadAt<PageId>(InternalChildOff(i)));
        }
      }
    }
    VIEWMAT_RETURN_IF_ERROR(pool_->DeletePage(id));
  }
  // Fresh empty root, then bulk load.
  VIEWMAT_ASSIGN_OR_RETURN(PageGuard fresh, pool_->NewPage());
  Page& pg = fresh.page();
  pg.WriteAt<uint8_t>(kIsLeafOff, kLeafTag);
  SetCount(&pg, 0);
  pg.WriteAt<PageId>(kLeafNextOff, kInvalidPageId);
  pg.WriteAt<PageId>(kLeafPrevOff, kInvalidPageId);
  fresh.MarkDirty();
  root_ = fresh.id();
  fresh.Release();
  height_ = 1;
  entry_count_ = 0;
  leaf_page_count_ = 1;
  size_t next = 0;
  return BulkLoad(
      [&](int64_t* key, uint8_t* payload) {
        if (next >= entries.size()) return false;
        *key = entries[next].first;
        std::memcpy(payload, entries[next].second.data(), payload_size_);
        ++next;
        return true;
      },
      fill_factor);
}

Status BPTree::Delete(int64_t key, const Matcher& match) {
  const ScopedComponent tag(pool_->disk()->tracker(), Component::kBptree);
  VIEWMAT_ASSIGN_OR_RETURN(const PageId leaf_id, DescendToLeaf(key, nullptr));
  PageId cur = leaf_id;
  while (cur != kInvalidPageId) {
    VIEWMAT_ASSIGN_OR_RETURN(PageGuard guard, pool_->Fetch(cur));
    Page& pg = guard.page();
    const uint16_t count = Count(pg);
    for (uint16_t pos = LeafLowerBound(pg, key); pos < count; ++pos) {
      const int64_t k = pg.ReadAt<int64_t>(LeafKeyOff(pos));
      if (k > key) return Status::NotFound("no matching entry");
      if (match == nullptr || match(pg.data() + LeafPayloadOff(pos))) {
        LeafRemoveAt(&pg, pos);
        guard.MarkDirty();
        --entry_count_;
        // Empty leaves are left in place and recycled by later inserts
        // (lazy reclamation, see class comment).
        return Status::OK();
      }
    }
    cur = pg.ReadAt<PageId>(kLeafNextOff);
    // Stop once the next leaf starts past the key; detected on next loop.
  }
  return Status::NotFound("no matching entry");
}

Status BPTree::Find(int64_t key, uint8_t* out) const {
  const ScopedComponent tag(pool_->disk()->tracker(), Component::kBptree);
  VIEWMAT_ASSIGN_OR_RETURN(const PageId leaf_id, DescendToLeaf(key, nullptr));
  PageId cur = leaf_id;
  while (cur != kInvalidPageId) {
    VIEWMAT_ASSIGN_OR_RETURN(PageGuard guard, pool_->Fetch(cur));
    const Page& pg = guard.page();
    const uint16_t count = Count(pg);
    const uint16_t pos = LeafLowerBound(pg, key);
    if (pos < count) {
      if (pg.ReadAt<int64_t>(LeafKeyOff(pos)) != key) {
        return Status::NotFound("key absent");
      }
      pg.ReadBytes(LeafPayloadOff(pos), out, payload_size_);
      return Status::OK();
    }
    cur = pg.ReadAt<PageId>(kLeafNextOff);
  }
  return Status::NotFound("key absent");
}

Status BPTree::UpdatePayload(int64_t key, const Matcher& match,
                             const uint8_t* new_payload) {
  const ScopedComponent tag(pool_->disk()->tracker(), Component::kBptree);
  VIEWMAT_ASSIGN_OR_RETURN(const PageId leaf_id, DescendToLeaf(key, nullptr));
  PageId cur = leaf_id;
  while (cur != kInvalidPageId) {
    VIEWMAT_ASSIGN_OR_RETURN(PageGuard guard, pool_->Fetch(cur));
    Page& pg = guard.page();
    const uint16_t count = Count(pg);
    for (uint16_t pos = LeafLowerBound(pg, key); pos < count; ++pos) {
      if (pg.ReadAt<int64_t>(LeafKeyOff(pos)) > key) {
        return Status::NotFound("no matching entry");
      }
      if (match == nullptr || match(pg.data() + LeafPayloadOff(pos))) {
        pg.WriteBytes(LeafPayloadOff(pos), new_payload, payload_size_);
        guard.MarkDirty();
        return Status::OK();
      }
    }
    cur = pg.ReadAt<PageId>(kLeafNextOff);
  }
  return Status::NotFound("no matching entry");
}

Status BPTree::RangeScan(int64_t lo, int64_t hi, const Visitor& visit) const {
  const ScopedComponent tag(pool_->disk()->tracker(), Component::kBptree);
  if (lo > hi) return Status::OK();
  VIEWMAT_ASSIGN_OR_RETURN(const PageId leaf_id, DescendToLeaf(lo, nullptr));
  PageId cur = leaf_id;
  while (cur != kInvalidPageId) {
    VIEWMAT_ASSIGN_OR_RETURN(PageGuard guard, pool_->Fetch(cur));
    const Page& pg = guard.page();
    const uint16_t count = Count(pg);
    for (uint16_t pos = LeafLowerBound(pg, lo); pos < count; ++pos) {
      const int64_t k = pg.ReadAt<int64_t>(LeafKeyOff(pos));
      if (k > hi) return Status::OK();
      if (!visit(k, pg.data() + LeafPayloadOff(pos))) return Status::OK();
    }
    cur = pg.ReadAt<PageId>(kLeafNextOff);
  }
  return Status::OK();
}

Status BPTree::ScanAll(const Visitor& visit) const {
  return RangeScan(std::numeric_limits<int64_t>::min(),
                   std::numeric_limits<int64_t>::max(), visit);
}

Status BPTree::CheckNode(PageId id, uint32_t depth, std::optional<int64_t> lo,
                         std::optional<int64_t> hi, uint32_t* leaf_depth,
                         size_t* entries, size_t* leaves) const {
  VIEWMAT_ASSIGN_OR_RETURN(PageGuard guard, pool_->Fetch(id));
  const Page& pg = guard.page();
  const uint16_t count = Count(pg);
  if (IsLeaf(pg)) {
    if (count > leaf_capacity_) return Status::Internal("leaf over capacity");
    if (*leaf_depth == 0) {
      *leaf_depth = depth;
    } else if (*leaf_depth != depth) {
      return Status::Internal("leaves at differing depths");
    }
    int64_t prev = 0;
    for (uint16_t i = 0; i < count; ++i) {
      const int64_t k = pg.ReadAt<int64_t>(LeafKeyOff(i));
      if (i > 0 && k < prev) return Status::Internal("leaf keys unsorted");
      // Duplicates may sit exactly on a separator boundary, hence the
      // inclusive bounds.
      if (lo && k < *lo) return Status::Internal("leaf key below bound");
      if (hi && k > *hi) return Status::Internal("leaf key above bound");
      prev = k;
    }
    *entries += count;
    *leaves += 1;
    return Status::OK();
  }
  if (count > internal_capacity_) {
    return Status::Internal("internal node over capacity");
  }
  if (count == 0) return Status::Internal("internal node without separators");
  for (uint16_t i = 1; i < count; ++i) {
    if (pg.ReadAt<int64_t>(InternalSepOff(i)) <
        pg.ReadAt<int64_t>(InternalSepOff(i - 1))) {
      return Status::Internal("separators unsorted");
    }
  }
  // child0 covers (lo, sep0]; entry i's child covers [sep_i, sep_{i+1}].
  std::optional<int64_t> child_lo = lo;
  std::optional<int64_t> child_hi = pg.ReadAt<int64_t>(InternalSepOff(0));
  VIEWMAT_RETURN_IF_ERROR(CheckNode(pg.ReadAt<PageId>(kChild0Off), depth + 1,
                                    child_lo, child_hi, leaf_depth, entries,
                                    leaves));
  for (uint16_t i = 0; i < count; ++i) {
    child_lo = pg.ReadAt<int64_t>(InternalSepOff(i));
    child_hi = (i + 1 < count)
                   ? std::optional<int64_t>(
                         pg.ReadAt<int64_t>(InternalSepOff(i + 1)))
                   : hi;
    VIEWMAT_RETURN_IF_ERROR(CheckNode(pg.ReadAt<PageId>(InternalChildOff(i)),
                                      depth + 1, child_lo, child_hi,
                                      leaf_depth, entries, leaves));
  }
  return Status::OK();
}

Status BPTree::CheckInvariants() const {
  const ScopedComponent tag(pool_->disk()->tracker(), Component::kBptree);
  uint32_t leaf_depth = 0;
  size_t entries = 0;
  size_t leaves = 0;
  VIEWMAT_RETURN_IF_ERROR(CheckNode(root_, 1, std::nullopt, std::nullopt,
                                    &leaf_depth, &entries, &leaves));
  if (leaf_depth != height_) return Status::Internal("height mismatch");
  if (entries != entry_count_) return Status::Internal("entry count mismatch");
  if (leaves != leaf_page_count_) {
    return Status::Internal("leaf page count mismatch");
  }
  // Walk the leaf chain and verify global ordering plus prev/next symmetry.
  VIEWMAT_ASSIGN_OR_RETURN(PageId cur,
                           DescendToLeaf(std::numeric_limits<int64_t>::min(),
                                         nullptr));
  PageId prev_page = kInvalidPageId;
  std::optional<int64_t> prev_key;
  size_t chain_leaves = 0;
  while (cur != kInvalidPageId) {
    VIEWMAT_ASSIGN_OR_RETURN(PageGuard guard, pool_->Fetch(cur));
    const Page& pg = guard.page();
    if (!IsLeaf(pg)) return Status::Internal("non-leaf in leaf chain");
    if (pg.ReadAt<PageId>(kLeafPrevOff) != prev_page) {
      return Status::Internal("leaf chain prev pointer broken");
    }
    const uint16_t count = Count(pg);
    for (uint16_t i = 0; i < count; ++i) {
      const int64_t k = pg.ReadAt<int64_t>(LeafKeyOff(i));
      if (prev_key && k < *prev_key) {
        return Status::Internal("leaf chain out of order");
      }
      prev_key = k;
    }
    ++chain_leaves;
    prev_page = cur;
    cur = pg.ReadAt<PageId>(kLeafNextOff);
  }
  if (chain_leaves != leaves) {
    return Status::Internal("leaf chain does not cover all leaves");
  }
  return Status::OK();
}

}  // namespace viewmat::storage
