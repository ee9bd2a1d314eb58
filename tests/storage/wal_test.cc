#include "storage/wal.h"

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "storage/buffer_pool.h"
#include "storage/cost_tracker.h"
#include "storage/disk.h"
#include "storage/faulty_disk.h"

namespace viewmat::storage {
namespace {

struct Record {
  Lsn lsn;
  uint8_t type;
  std::vector<uint8_t> payload;
};

class WalTest : public ::testing::Test {
 protected:
  WalTest() : tracker_(1.0, 30.0, 1.0), inner_(128, &tracker_), disk_(&inner_) {}

  static Status Append(WriteAheadLog* log, uint8_t type,
                       const std::string& payload, Lsn* lsn = nullptr) {
    return log->Append(type, reinterpret_cast<const uint8_t*>(payload.data()),
                       static_cast<uint16_t>(payload.size()), lsn);
  }

  static std::vector<Record> ScanAll(const WriteAheadLog& log,
                                     bool* torn = nullptr) {
    std::vector<Record> records;
    const Status st = log.ScanWithLsn(
        [&](Lsn lsn, uint8_t type, const uint8_t* payload, uint16_t len) {
          records.push_back({lsn, type, {payload, payload + len}});
          return true;
        },
        torn);
    EXPECT_TRUE(st.ok()) << st.message();
    return records;
  }

  CostTracker tracker_;
  SimulatedDisk inner_;
  FaultyDisk disk_;
};

TEST_F(WalTest, LsnsAreStampedMonotonically) {
  WriteAheadLog log(&disk_);
  Lsn prev = 0;
  for (int i = 0; i < 10; ++i) {
    Lsn lsn = 0;
    ASSERT_TRUE(Append(&log, 1, "r", &lsn).ok());
    EXPECT_GT(lsn, prev);
    prev = lsn;
  }
  const std::vector<Record> records = ScanAll(log);
  ASSERT_EQ(records.size(), 10u);
  for (size_t i = 1; i < records.size(); ++i) {
    EXPECT_GT(records[i].lsn, records[i - 1].lsn);
  }
  EXPECT_EQ(log.durable_lsn(), prev);
}

TEST_F(WalTest, SharedAllocatorPutsTwoLogsInOneLsnSpace) {
  // The unified-LSN-space property: interleaved appends to two logs
  // sharing one allocator never reuse or reorder sequence numbers.
  LsnAllocator lsns;
  WriteAheadLog::Options options;
  options.lsn_allocator = &lsns;
  WriteAheadLog a(&disk_, options);
  WriteAheadLog b(&disk_, options);
  Lsn prev = 0;
  for (int i = 0; i < 6; ++i) {
    Lsn lsn = 0;
    WriteAheadLog* log = (i % 2 == 0) ? &a : &b;
    ASSERT_TRUE(Append(log, 1, "x", &lsn).ok());
    EXPECT_GT(lsn, prev);
    prev = lsn;
  }
  EXPECT_EQ(lsns.last(), prev);
}

TEST_F(WalTest, BufferedRecordsAreNotDurableUntilSync) {
  WriteAheadLog::Options options;
  options.auto_sync = false;
  WriteAheadLog log(&disk_, options);
  ASSERT_TRUE(Append(&log, 1, "one").ok());
  ASSERT_TRUE(Append(&log, 2, "two").ok());
  EXPECT_EQ(log.pending_records(), 2u);
  EXPECT_EQ(log.durable_lsn(), 0u);
  EXPECT_TRUE(ScanAll(log).empty());  // nothing on the device yet

  ASSERT_TRUE(log.Sync().ok());
  EXPECT_EQ(log.pending_records(), 0u);
  EXPECT_EQ(log.durable_lsn(), log.last_lsn());
  const std::vector<Record> records = ScanAll(log);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].type, 1);
  EXPECT_EQ(records[1].type, 2);
}

TEST_F(WalTest, DiscardVolatileWithEmptyStagedTailIsANoOp) {
  WriteAheadLog::Options options;
  options.auto_sync = false;
  WriteAheadLog log(&disk_, options);
  ASSERT_TRUE(Append(&log, 1, "durable").ok());
  ASSERT_TRUE(log.Sync().ok());
  const Lsn durable = log.durable_lsn();
  // Nothing staged: discarding must change neither the device contents
  // nor the durability watermark.
  ASSERT_TRUE(log.DiscardVolatile().ok());
  EXPECT_EQ(log.pending_records(), 0u);
  EXPECT_EQ(log.durable_lsn(), durable);
  ASSERT_EQ(ScanAll(log).size(), 1u);
}

TEST_F(WalTest, DoubleDiscardVolatileIsIdempotent) {
  WriteAheadLog::Options options;
  options.auto_sync = false;
  WriteAheadLog log(&disk_, options);
  ASSERT_TRUE(Append(&log, 1, "keep").ok());
  ASSERT_TRUE(log.Sync().ok());
  ASSERT_TRUE(Append(&log, 2, "staged-a").ok());
  ASSERT_TRUE(Append(&log, 3, "staged-b").ok());
  ASSERT_TRUE(log.DiscardVolatile().ok());
  EXPECT_EQ(log.pending_records(), 0u);
  // The second discard has nothing left to drop and must not disturb the
  // durable prefix either.
  ASSERT_TRUE(log.DiscardVolatile().ok());
  EXPECT_EQ(log.pending_records(), 0u);
  const std::vector<Record> records = ScanAll(log);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].type, 1);
  // The log stays usable: new appends sync through normally.
  ASSERT_TRUE(Append(&log, 4, "after").ok());
  ASSERT_TRUE(log.Sync().ok());
  ASSERT_EQ(ScanAll(log).size(), 2u);
}

TEST_F(WalTest, DiscardVolatileAfterSyncDropsNothingDurable) {
  WriteAheadLog::Options options;
  options.auto_sync = false;
  WriteAheadLog log(&disk_, options);
  ASSERT_TRUE(Append(&log, 1, "one").ok());
  ASSERT_TRUE(Append(&log, 2, "two").ok());
  ASSERT_TRUE(log.Sync().ok());
  const Lsn durable = log.durable_lsn();
  ASSERT_TRUE(log.DiscardVolatile().ok());
  EXPECT_EQ(log.durable_lsn(), durable);
  const std::vector<Record> records = ScanAll(log);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].type, 1);
  EXPECT_EQ(records[1].type, 2);
}

TEST_F(WalTest, TornTailRecordIsDetectedAndDropped) {
  WriteAheadLog log(&disk_);
  ASSERT_TRUE(Append(&log, 1, "committed-one").ok());
  ASSERT_TRUE(Append(&log, 2, "committed-two").ok());

  // Tear the next append: the write fails after applying a random prefix
  // of the page — the classic partially-persisted block. If the prefix
  // happens to cover the whole record the read-back probe adopts it and the
  // append is (correctly) acknowledged; either way acknowledgment and
  // durability must agree, and a half-written record never replays.
  disk_.set_torn_writes(true);
  disk_.InjectWriteFault(0);
  const bool acked = Append(&log, 3, "torn-tail-record").ok();
  disk_.ClearFaults();
  disk_.set_torn_writes(false);

  const std::vector<Record> records = ScanAll(log);
  ASSERT_EQ(records.size(), acked ? 3u : 2u);
  EXPECT_EQ(records[0].type, 1);
  EXPECT_EQ(records[1].type, 2);
  if (acked) {
    EXPECT_EQ(records[2].type, 3);
  }
}

TEST_F(WalTest, AnySingleBitFlipInADurableRecordIsRejected) {
  WriteAheadLog log(&disk_);
  const std::vector<std::string> payloads = {"alpha", "twenty-byte-payload!",
                                             "omega-08"};
  for (size_t i = 0; i < payloads.size(); ++i) {
    ASSERT_TRUE(Append(&log, static_cast<uint8_t>(i + 1), payloads[i]).ok());
  }
  ASSERT_EQ(log.page_count(), 1u);
  // The log's head page is the first page this fresh disk handed out.
  const PageId head = 0;
  Page original(inner_.page_size());
  ASSERT_TRUE(inner_.Read(head, &original).ok());

  // Records start after the 8-byte page header; each is a 15-byte header
  // plus its payload. Flipping any bit of record k must end the scan just
  // before it: records [0, k) replay, record k and beyond never do.
  uint32_t off = 8;
  for (size_t k = 0; k < payloads.size(); ++k) {
    const uint32_t size = 15 + static_cast<uint32_t>(payloads[k].size());
    for (uint32_t byte = off; byte < off + size; ++byte) {
      for (int bit = 0; bit < 8; ++bit) {
        Page flipped = original;
        flipped.data()[byte] ^= static_cast<uint8_t>(1u << bit);
        ASSERT_TRUE(inner_.Write(head, flipped).ok());
        bool torn = false;
        const std::vector<Record> records = ScanAll(log, &torn);
        ASSERT_EQ(records.size(), k) << "record " << k << " byte " << byte
                                     << " bit " << bit;
        EXPECT_TRUE(torn);
      }
    }
    off += size;
  }
  ASSERT_TRUE(inner_.Write(head, original).ok());
  EXPECT_EQ(ScanAll(log).size(), payloads.size());
}

TEST_F(WalTest, TruncateWithRecordLeavesOnlyTheCheckpoint) {
  WriteAheadLog log(&disk_);
  for (int i = 0; i < 8; ++i) ASSERT_TRUE(Append(&log, 1, "old").ok());
  const uint64_t mark = 42;
  Lsn lsn = 0;
  ASSERT_TRUE(log.TruncateWithRecord(9, reinterpret_cast<const uint8_t*>(&mark),
                                     sizeof(mark), &lsn)
                  .ok());
  EXPECT_GT(lsn, 0u);
  const std::vector<Record> records = ScanAll(log);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].type, 9);
  ASSERT_EQ(records[0].payload.size(), sizeof(mark));
  uint64_t got = 0;
  std::memcpy(&got, records[0].payload.data(), sizeof(got));
  EXPECT_EQ(got, mark);
  EXPECT_EQ(log.record_count(), 1u);
}

TEST_F(WalTest, PoolWalRuleForcesSyncBeforeDirtyWriteback) {
  BufferPool pool(&disk_, 4);
  WriteAheadLog::Options options;
  options.auto_sync = false;
  WriteAheadLog log(&disk_, options);
  pool.AttachWal(&log);

  Lsn commit_lsn = 0;
  ASSERT_TRUE(Append(&log, 1, "intent", &commit_lsn).ok());
  EXPECT_EQ(log.durable_lsn(), 0u);  // staged only

  // A page dirtied under the commit stamp may not reach the device before
  // the log does: FlushAll must force the sync first.
  pool.SetStampLsn(commit_lsn);
  auto guard = pool.NewPage();
  ASSERT_TRUE(guard.ok());
  guard->MarkDirty();
  EXPECT_EQ(guard->page().lsn(), commit_lsn);
  guard->Release();
  ASSERT_TRUE(pool.FlushAll().ok());
  EXPECT_EQ(pool.wal_syncs_forced(), 1u);
  EXPECT_GE(log.durable_lsn(), commit_lsn);

  // Once the log is ahead of the stamp, write-back is free again.
  auto guard2 = pool.NewPage();
  ASSERT_TRUE(guard2.ok());
  guard2->MarkDirty();
  guard2->Release();
  ASSERT_TRUE(pool.FlushAll().ok());
  EXPECT_EQ(pool.wal_syncs_forced(), 1u);
}

TEST_F(WalTest, SyncFailureDoesNotAcknowledgeThenRetrySucceeds) {
  WriteAheadLog::Options options;
  options.auto_sync = false;
  WriteAheadLog log(&disk_, options);
  ASSERT_TRUE(Append(&log, 1, "first-batch").ok());
  ASSERT_TRUE(log.Sync().ok());

  ASSERT_TRUE(Append(&log, 2, "second-batch").ok());
  disk_.InjectWriteFault(0);
  EXPECT_FALSE(log.Sync().ok());
  disk_.ClearFaults();

  // Retrying (possibly after re-staging) must not duplicate or lose the
  // durable history: the first batch appears exactly once, and whatever
  // the failed sync durably landed was adopted, never replayed twice.
  ASSERT_TRUE(Append(&log, 3, "third-batch").ok());
  ASSERT_TRUE(log.Sync().ok());
  const std::vector<Record> records = ScanAll(log);
  ASSERT_GE(records.size(), 2u);
  size_t firsts = 0, thirds = 0;
  for (const Record& r : records) {
    if (r.type == 1) ++firsts;
    if (r.type == 3) ++thirds;
  }
  EXPECT_EQ(firsts, 1u);
  EXPECT_EQ(thirds, 1u);
  Lsn prev = 0;
  for (const Record& r : records) {
    EXPECT_GT(r.lsn, prev);
    prev = r.lsn;
  }
}

}  // namespace
}  // namespace viewmat::storage
