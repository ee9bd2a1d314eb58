// Differential test of BufferPool against a reference model written with
// std::list (the LRU order) and std::map (the page table). Seeded random
// operation sequences drive both; after every step the device must have
// seen exactly the reads, writes and frees the model predicts, in order.
// Victims are therefore identical (a dirty victim shows up as its write, a
// clean one as a later re-read), as are the charged I/O counts and the
// page contents every pin observes.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <list>
#include <map>
#include <thread>
#include <utility>
#include <vector>

#include "common/random.h"
#include "storage/buffer_pool.h"
#include "storage/faulty_disk.h"

namespace viewmat::storage {
namespace {

using DiskOp = std::pair<char, PageId>;  // 'R'ead, 'W'rite, 'F'ree

/// Logs every operation that reaches the device.
class RecordingDisk : public DiskInterface {
 public:
  explicit RecordingDisk(DiskInterface* inner) : inner_(inner) {}

  uint32_t page_size() const override { return inner_->page_size(); }
  PageId Allocate() override { return inner_->Allocate(); }
  Status Free(PageId id) override {
    ops_.push_back({'F', id});
    return inner_->Free(id);
  }
  Status Read(PageId id, Page* out) override {
    ops_.push_back({'R', id});
    return inner_->Read(id, out);
  }
  Status Write(PageId id, const Page& in) override {
    ops_.push_back({'W', id});
    return inner_->Write(id, in);
  }
  size_t live_pages() const override { return inner_->live_pages(); }
  CostTracker* tracker() override { return inner_->tracker(); }

  const std::vector<DiskOp>& ops() const { return ops_; }

 private:
  DiskInterface* inner_;
  std::vector<DiskOp> ops_;
};

/// The classic list-based LRU pool. Frames are modeled only to predict
/// FlushAll's ascending-frame write order and free-frame reuse.
class ReferencePool {
 public:
  struct Entry {
    size_t frame = 0;
    int pins = 0;
    bool dirty = false;
    uint64_t value = 0;  ///< cached page contents (first word)
  };

  explicit ReferencePool(size_t capacity) {
    for (size_t i = capacity; i > 0; --i) free_.push_back(i - 1);
  }

  /// True when bringing in one more page evicts a dirty victim.
  bool NextAcquireEvictsDirty() const {
    return free_.empty() && !lru_.empty() && resident_.at(lru_.front()).dirty;
  }

  /// Frame for a page entering the pool; false when it cannot get one.
  bool Acquire(bool victim_write_fails, size_t* frame) {
    if (!free_.empty()) {
      *frame = free_.back();
      free_.pop_back();
      return true;
    }
    if (lru_.empty()) return false;  // every frame pinned
    const PageId victim = lru_.front();
    lru_.pop_front();
    Entry& e = resident_.at(victim);
    if (e.dirty) {
      if (victim_write_fails) {
        lru_.push_front(victim);  // back to the cold end, still cached
        return false;
      }
      WriteBack(victim, &e);
    }
    *frame = e.frame;
    resident_.erase(victim);
    return true;
  }

  /// Returns false when the pool must refuse the fetch.
  bool Fetch(PageId id, bool victim_write_fails) {
    auto it = resident_.find(id);
    if (it != resident_.end()) {
      if (it->second.pins == 0) lru_.remove(id);
      ++it->second.pins;
      return true;
    }
    size_t frame = 0;
    if (!Acquire(victim_write_fails, &frame)) return false;
    ops_.push_back({'R', id});
    resident_[id] = Entry{frame, 1, false, disk_.at(id)};
    return true;
  }

  bool NewPage(size_t* frame) { return Acquire(false, frame); }
  void Placed(PageId id, size_t frame) {
    disk_[id] = 0;  // the device zeroes fresh pages
    resident_[id] = Entry{frame, 1, true, 0};
  }

  void Unpin(PageId id) {
    Entry& e = resident_.at(id);
    if (--e.pins == 0) lru_.push_back(id);
  }

  void MarkDirty(PageId id, uint64_t value) {
    Entry& e = resident_.at(id);
    e.dirty = true;
    e.value = value;
  }

  bool Delete(PageId id) {
    auto it = resident_.find(id);
    if (it != resident_.end()) {
      if (it->second.pins > 0) return false;
      lru_.remove(id);
      free_.push_back(it->second.frame);
      resident_.erase(it);
    }
    ops_.push_back({'F', id});
    disk_.erase(id);
    return true;
  }

  void FlushAll() {
    for (auto& [id, e] : ByFrame()) {
      if (e->dirty) WriteBack(id, e);
    }
  }

  /// FlushAndEvictAll (write_back) or DiscardAll (!write_back); callers
  /// release every pin first.
  void EvictAll(bool write_back) {
    if (write_back) FlushAll();
    for (const auto& entry : ByFrame()) free_.push_back(entry.second->frame);
    resident_.clear();
    lru_.clear();
  }

  /// Contents a pin of `id` must observe.
  uint64_t Visible(PageId id) const {
    auto it = resident_.find(id);
    return it != resident_.end() ? it->second.value : disk_.at(id);
  }

  bool IsResident(PageId id) const { return resident_.count(id) != 0; }
  const std::vector<DiskOp>& ops() const { return ops_; }

 private:
  void WriteBack(PageId id, Entry* e) {
    ops_.push_back({'W', id});
    disk_[id] = e->value;
    e->dirty = false;
  }

  std::vector<std::pair<PageId, Entry*>> ByFrame() {
    std::vector<std::pair<PageId, Entry*>> out;
    for (auto& [id, e] : resident_) out.push_back({id, &e});
    std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
      return a.second->frame < b.second->frame;
    });
    return out;
  }

  std::map<PageId, Entry> resident_;
  std::list<PageId> lru_;  ///< unpinned pages, least recently used first
  std::vector<size_t> free_;
  std::map<PageId, uint64_t> disk_;  ///< durable contents of live pages
  std::vector<DiskOp> ops_;
};

class BufferPoolModelTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BufferPoolModelTest, MatchesListLruReference) {
  constexpr size_t kCapacity = 6;
  constexpr size_t kMaxPages = 20;
  constexpr int kSteps = 3000;

  CostTracker tracker;
  SimulatedDisk device(128, &tracker);
  RecordingDisk recorder(&device);
  FaultyDisk faulty(&recorder);
  BufferPool pool(&faulty, kCapacity);
  ReferencePool model(kCapacity);
  Random rng(GetParam());

  std::vector<PageId> pages;  // live on the device
  std::vector<PageGuard> pins;
  uint64_t next_value = 1;

  auto release_all = [&] {
    while (!pins.empty()) {
      model.Unpin(pins.back().id());
      pins.pop_back();
    }
  };

  for (int step = 0; step < kSteps; ++step) {
    const uint64_t op = rng.Uniform(100);
    if (op < 8 && pages.size() < kMaxPages) {
      // NewPage.
      size_t frame = 0;
      const bool expect_ok = model.NewPage(&frame);
      StatusOr<PageGuard> g = pool.NewPage();
      ASSERT_EQ(g.ok(), expect_ok) << "step " << step;
      if (expect_ok) {
        model.Placed(g->id(), frame);
        EXPECT_EQ(g->page().ReadAt<uint64_t>(0), 0u);
        pages.push_back(g->id());
        pins.push_back(std::move(*g));
      } else {
        EXPECT_EQ(g.status().code(), StatusCode::kResourceExhausted);
      }
    } else if (op < 50 && !pages.empty()) {
      // Fetch: a hit, a nested pin, or a miss — sometimes with the dirty
      // victim's write-back failing.
      const PageId id = pages[rng.Uniform(pages.size())];
      bool fail_write = false;
      if (!model.IsResident(id) && model.NextAcquireEvictsDirty() &&
          rng.Bernoulli(0.3)) {
        fail_write = true;
        faulty.InjectWriteFault(0);
      }
      const bool expect_ok = model.Fetch(id, fail_write);
      StatusOr<PageGuard> g = pool.Fetch(id);
      ASSERT_EQ(g.ok(), expect_ok) << "step " << step << " page " << id;
      if (expect_ok) {
        EXPECT_EQ(g->page().ReadAt<uint64_t>(0), model.Visible(id));
        pins.push_back(std::move(*g));
      }
    } else if (op < 75 && !pins.empty()) {
      // Unpin one guard.
      const size_t i = rng.Uniform(pins.size());
      model.Unpin(pins[i].id());
      pins.erase(pins.begin() + static_cast<std::ptrdiff_t>(i));
    } else if (op < 88 && !pins.empty()) {
      // Modify through one guard.
      PageGuard& g = pins[rng.Uniform(pins.size())];
      g.page().WriteAt<uint64_t>(0, next_value);
      g.MarkDirty();
      model.MarkDirty(g.id(), next_value);
      ++next_value;
    } else if (op < 92 && !pages.empty()) {
      // DeletePage (refused while pinned).
      const size_t i = rng.Uniform(pages.size());
      const PageId id = pages[i];
      const bool expect_ok = model.Delete(id);
      const Status st = pool.DeletePage(id);
      ASSERT_EQ(st.ok(), expect_ok) << "step " << step << " page " << id;
      if (expect_ok) {
        pages.erase(pages.begin() + static_cast<std::ptrdiff_t>(i));
      }
    } else if (op < 95) {
      model.FlushAll();
      ASSERT_TRUE(pool.FlushAll().ok());
    } else if (op < 97) {
      release_all();
      const bool discard = rng.Bernoulli(0.5);
      model.EvictAll(/*write_back=*/!discard);
      ASSERT_TRUE((discard ? pool.DiscardAll() : pool.FlushAndEvictAll()).ok());
    } else {
      // Concurrent-read window: hits from several threads change neither
      // residency nor recency, and a miss is refused without touching the
      // device.
      release_all();
      std::vector<PageId> resident;
      for (const PageId id : pages) {
        if (model.IsResident(id)) resident.push_back(id);
      }
      pool.SetConcurrentReads(true);
      std::vector<std::thread> readers;
      for (int t = 0; t < 3; ++t) {
        readers.emplace_back([&pool, &model, &resident, t] {
          for (size_t k = 0; k < 4 * resident.size(); ++k) {
            const PageId id = resident[(k + static_cast<size_t>(t)) %
                                       resident.size()];
            StatusOr<PageGuard> g = pool.Fetch(id);
            ASSERT_TRUE(g.ok());
            EXPECT_EQ(g->page().ReadAt<uint64_t>(0), model.Visible(id));
          }
        });
      }
      for (std::thread& r : readers) r.join();
      for (const PageId id : pages) {
        if (!model.IsResident(id)) {
          EXPECT_EQ(pool.Fetch(id).status().code(), StatusCode::kInternal);
          break;
        }
      }
      pool.SetConcurrentReads(false);
    }
    ASSERT_EQ(recorder.ops(), model.ops()) << "diverged at step " << step;
  }

  release_all();
  model.FlushAll();
  ASSERT_TRUE(pool.FlushAll().ok());
  ASSERT_EQ(recorder.ops(), model.ops());
  uint64_t reads = 0;
  uint64_t writes = 0;
  for (const DiskOp& op : model.ops()) {
    reads += op.first == 'R';
    writes += op.first == 'W';
  }
  EXPECT_EQ(tracker.counters().disk_reads, reads);
  EXPECT_EQ(tracker.counters().disk_writes, writes);
  EXPECT_GT(reads, 0u);
  EXPECT_GT(writes, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BufferPoolModelTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

}  // namespace
}  // namespace viewmat::storage
