#ifndef VIEWMAT_STORAGE_BUFFER_POOL_H_
#define VIEWMAT_STORAGE_BUFFER_POOL_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/status.h"
#include "storage/disk.h"
#include "storage/page.h"

namespace viewmat::storage {

class BufferPool;
class WriteAheadLog;

/// RAII pin on a buffered page. Access the bytes through page(); call
/// MarkDirty() after modifying them. The pin is released (and the LRU
/// position refreshed) on destruction. Move-only.
class PageGuard {
 public:
  PageGuard() = default;
  PageGuard(PageGuard&& other) noexcept { *this = std::move(other); }
  PageGuard& operator=(PageGuard&& other) noexcept;
  PageGuard(const PageGuard&) = delete;
  PageGuard& operator=(const PageGuard&) = delete;
  ~PageGuard() { Release(); }

  bool valid() const { return pool_ != nullptr; }
  PageId id() const { return id_; }
  Page& page();
  const Page& page() const;
  void MarkDirty();

  /// Releases the pin early (also done by the destructor).
  void Release();

 private:
  friend class BufferPool;
  PageGuard(BufferPool* pool, size_t frame, PageId id)
      : pool_(pool), frame_(frame), id_(id) {}

  BufferPool* pool_ = nullptr;
  size_t frame_ = 0;
  PageId id_ = kInvalidPageId;
};

/// A fixed-capacity LRU buffer pool over a DiskInterface. Disk reads are
/// charged only on miss and writes only on dirty eviction or flush, so the
/// measured I/O counts reflect the same caching assumptions the paper's
/// formulas make (e.g. R2 pages staying resident during a nested-loops
/// join).
///
/// Pinning and unpinning allocate nothing: the LRU list is threaded through
/// the frames as prev/next indices, the page table is a vector indexed by
/// PageId (the disk hands out dense, recycled ids), and dirtiness is a
/// bitmap with one bit per frame that FlushAll walks in ascending frame
/// order. The victim order is part of the cost model — every miss and
/// dirty write-back is a charged I/O — so these structures reproduce the
/// classic list-based LRU exactly.
class BufferPool {
 public:
  BufferPool(DiskInterface* disk, size_t capacity);

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// Pins the page, reading it from disk on miss.
  StatusOr<PageGuard> Fetch(PageId id);

  /// Allocates a fresh zeroed page on the disk and pins it (no read charged;
  /// its first write-back is).
  StatusOr<PageGuard> NewPage();

  /// Drops the page from the pool (it must be unpinned) and frees it on
  /// disk. A dirty copy is discarded, not written back.
  Status DeletePage(PageId id);

  /// Writes back every dirty frame. Call at the end of a measured phase so
  /// pending writes are charged.
  Status FlushAll();

  /// Writes back and forgets every frame. Used between experiment phases to
  /// model a cold cache.
  Status FlushAndEvictAll();

  /// Forgets every frame WITHOUT writing anything back, modeling the loss of
  /// volatile state at a crash. With group commit, Phase-3 base applies may
  /// sit in the pool for transactions whose buffered log records were lost;
  /// recovery must start from the durable on-disk state, not from the pool's
  /// post-crash ghost. Fails if any page is still pinned.
  Status DiscardAll();

  /// Toggles the concurrent-read window. While on, Fetch serves hits with an
  /// atomic pin increment and no LRU maintenance, so any number of threads
  /// may read resident pages concurrently; a miss is a hard Internal error
  /// (callers flip the mode only at barrier points where the working set is
  /// known resident), and NewPage/DeletePage/flushes are off-limits. Because
  /// the mode is entered and left only with every pin released, the LRU list
  /// is byte-identical before and after the window no matter how many
  /// threads read — recency is deliberately NOT updated by concurrent reads.
  void SetConcurrentReads(bool on);
  bool concurrent_reads() const {
    return concurrent_reads_.load(std::memory_order_acquire);
  }

  size_t capacity() const { return capacity_; }
  DiskInterface* disk() { return disk_; }

  /// Attaches the redo WAL this pool's pages are logged against. From then
  /// on the pool enforces the WAL rule: before any dirty page is written
  /// back (eviction or flush), if the page's LSN stamp exceeds the log's
  /// durable LSN the log is synced first, so a page image never reaches the
  /// device ahead of the records that produced it.
  void AttachWal(WriteAheadLog* wal) { wal_ = wal; }

  /// Sets the LSN stamped onto pages dirtied from now on. Transactions call
  /// this with their commit record's LSN before applying; 0 disables
  /// stamping (unlogged mutations, the historical behavior).
  void SetStampLsn(Lsn lsn) { stamp_lsn_ = lsn; }
  Lsn stamp_lsn() const { return stamp_lsn_; }

  /// WAL syncs forced by the write-back ordering rule (observability).
  uint64_t wal_syncs_forced() const { return wal_syncs_forced_; }

 private:
  friend class PageGuard;

  static constexpr uint32_t kNoFrame = UINT32_MAX;

  struct Frame {
    std::unique_ptr<Page> page;
    PageId id = kInvalidPageId;
    uint32_t pin_count = 0;
    bool in_use = false;
    // LRU links, valid iff pin_count == 0 && in_use.
    uint32_t lru_prev = kNoFrame;
    uint32_t lru_next = kNoFrame;
  };

  void Unpin(size_t frame, PageId id);
  void MarkDirtyFrame(size_t frame) {
    SetDirty(frame);
    Page& page = *frames_[frame].page;
    if (stamp_lsn_ > page.lsn()) page.set_lsn(stamp_lsn_);
  }

  bool IsDirty(size_t frame) const {
    return (dirty_[frame / 64] >> (frame % 64)) & 1;
  }
  void SetDirty(size_t frame) {
    dirty_[frame / 64] |= uint64_t{1} << (frame % 64);
  }
  void ClearDirty(size_t frame) {
    dirty_[frame / 64] &= ~(uint64_t{1} << (frame % 64));
  }

  /// The frame holding `id`, or kNoFrame.
  uint32_t FrameOf(PageId id) const {
    return id < table_.size() ? table_[id] : kNoFrame;
  }
  void MapPage(PageId id, size_t frame);

  // Intrusive LRU list operations; the head is the least recently used.
  void LruPushBack(size_t frame);
  void LruPushFront(size_t frame);
  void LruErase(size_t frame);
  /// Forgets a resident, unpinned frame (dropping its dirty bit) and returns
  /// it to the free list.
  void ReleaseFrame(size_t frame);

  /// WAL rule: syncs the attached log if `page` carries an LSN newer than
  /// what the log has made durable. Called immediately before every dirty
  /// write-back.
  Status EnforceWalRule(const Page& page);
  /// Finds a frame for a new resident page, evicting the LRU unpinned frame
  /// if the pool is full.
  StatusOr<size_t> AcquireFrame();

  DiskInterface* disk_;
  size_t capacity_;
  std::vector<Frame> frames_;
  std::vector<uint32_t> table_;  ///< PageId -> frame, kNoFrame if absent
  std::vector<uint64_t> dirty_;  ///< one bit per frame
  uint32_t lru_head_ = kNoFrame;  ///< least recently used unpinned frame
  uint32_t lru_tail_ = kNoFrame;  ///< most recently used unpinned frame
  std::vector<size_t> free_frames_;
  WriteAheadLog* wal_ = nullptr;
  Lsn stamp_lsn_ = 0;
  uint64_t wal_syncs_forced_ = 0;
  std::atomic<bool> concurrent_reads_{false};
};

}  // namespace viewmat::storage

#endif  // VIEWMAT_STORAGE_BUFFER_POOL_H_
