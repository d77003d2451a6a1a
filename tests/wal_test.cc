// WAL core tests: record/block framing roundtrips, the LogManager's
// group-commit lifecycle (flush, durable-epoch publication, sync/async
// ack, segment rotation), and ReplayLogDir against hand-built and
// manager-written logs.

#include <chrono>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "wal/log_manager.h"
#include "wal/recovery.h"
#include "wal/wal_format.h"

namespace mv3c::wal {
namespace {

namespace fs = std::filesystem;

/// Fresh per-test log directory under the gtest temp root.
class WalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::path(::testing::TempDir()) /
           ("wal_test_" +
            std::string(
                ::testing::UnitTest::GetInstance()->current_test_info()->name()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  WalConfig Config() {
    WalConfig c;
    c.dir = dir_.string();
    return c;
  }

  fs::path dir_;
};

RecordHeader MakeHeader(uint32_t table, uint64_t ts, uint32_t key_bytes,
                        uint32_t val_bytes,
                        RecordType type = RecordType::kUpsert) {
  RecordHeader h{};
  h.table_id = table;
  h.commit_ts = ts;
  h.column_mask = ~0ull;
  h.key_bytes = key_bytes;
  h.val_bytes = val_bytes;
  h.type = static_cast<uint8_t>(type);
  return h;
}

TEST_F(WalTest, RecordRoundtrip) {
  std::vector<uint8_t> out;
  const uint64_t key = 42;
  const double val = 3.25;
  AppendRecord(out, MakeHeader(7, 99, sizeof(key), sizeof(val)), &key, &val);
  ASSERT_EQ(out.size(), sizeof(RecordHeader) + sizeof(key) + sizeof(val));

  RecordHeader h;
  std::memcpy(&h, out.data(), sizeof(h));
  EXPECT_EQ(h.table_id, 7u);
  EXPECT_EQ(h.commit_ts, 99u);
  EXPECT_TRUE(RecordCrcOk(out.data(), h));

  // Any flipped bit — header or payload — must be detected. RecordCrcOk's
  // contract requires the lengths to be in bounds (recovery checks them
  // against the block payload first), so mirror that: a flip that lands in
  // a length field is caught by the bounds check, everything else by CRC.
  for (size_t i = 4; i < out.size(); i += 9) {
    out[i] ^= 0x01;
    std::memcpy(&h, out.data(), sizeof(h));
    const bool lengths_ok =
        sizeof(RecordHeader) + static_cast<size_t>(h.key_bytes) +
            static_cast<size_t>(h.val_bytes) ==
        out.size();
    if (lengths_ok) {
      EXPECT_FALSE(RecordCrcOk(out.data(), h)) << "flip at " << i;
    }
    out[i] ^= 0x01;
  }
}

TEST_F(WalTest, SegmentAndBlockHeaderValidation) {
  const SegmentHeader sh = MakeSegmentHeader();
  EXPECT_TRUE(ValidSegmentHeader(sh));
  SegmentHeader bad = sh;
  bad.format_version = 2;
  EXPECT_FALSE(ValidSegmentHeader(bad));

  BlockHeader bh{};
  bh.magic = kBlockMagic;
  bh.epoch = 5;
  bh.payload_bytes = 128;
  bh.n_records = 3;
  bh.header_crc = BlockHeaderCrc(bh);
  EXPECT_EQ(bh.header_crc, BlockHeaderCrc(bh));  // crc field is excluded
  BlockHeader tampered = bh;
  tampered.epoch = 6;
  EXPECT_NE(tampered.header_crc, BlockHeaderCrc(tampered));
}

/// Appends one single-record transaction for (table, ts, key) and returns
/// the epoch tag.
uint64_t AppendOne(LogManager& lm, LogBuffer* buf, uint32_t table,
                   uint64_t ts, uint64_t key, uint64_t val) {
  return buf->AppendTransaction([&](std::vector<uint8_t>& bytes,
                                    uint32_t& n_records) {
    AppendRecord(bytes, MakeHeader(table, ts, sizeof(key), sizeof(val)),
                 &key, &val);
    ++n_records;
  });
}

TEST_F(WalTest, FlushPublishesDurableEpoch) {
  LogManager lm(Config());
  LogBuffer* buf = lm.CreateBuffer();
  const uint64_t e = AppendOne(lm, buf, 1, 10, 1, 100);
  EXPECT_GE(e, 1u);
  EXPECT_TRUE(lm.WaitDurable(e));
  EXPECT_GE(lm.durable_epoch(), e);
  lm.Stop();

  // The record comes back via replay.
  std::vector<std::pair<uint64_t, uint64_t>> seen;  // (ts, key)
  const RecoveryReport r =
      ReplayLogDir(dir_.string(), [&](const RecordView& rec) {
        uint64_t key;
        std::memcpy(&key, rec.key, sizeof(key));
        seen.emplace_back(rec.header.commit_ts, key);
        return true;
      });
  EXPECT_FALSE(r.torn_tail) << r.stop_reason;
  EXPECT_EQ(r.records_applied, 1u);
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen[0], (std::pair<uint64_t, uint64_t>{10, 1}));
}

TEST_F(WalTest, ReplayOrdersByCommitTs) {
  LogManager lm(Config());
  // Two buffers standing in for two workers appending out of ts order.
  LogBuffer* b1 = lm.CreateBuffer();
  LogBuffer* b2 = lm.CreateBuffer();
  AppendOne(lm, b2, 1, 20, 2, 200);
  AppendOne(lm, b1, 1, 10, 1, 100);
  AppendOne(lm, b2, 1, 40, 4, 400);
  AppendOne(lm, b1, 1, 30, 3, 300);
  ASSERT_TRUE(lm.FlushNow());
  lm.Stop();

  std::vector<uint64_t> ts_order;
  const RecoveryReport r =
      ReplayLogDir(dir_.string(), [&](const RecordView& rec) {
        ts_order.push_back(rec.header.commit_ts);
        return true;
      });
  EXPECT_FALSE(r.torn_tail) << r.stop_reason;
  EXPECT_EQ(ts_order, (std::vector<uint64_t>{10, 20, 30, 40}));
  EXPECT_EQ(r.max_commit_ts, 40u);
}

TEST_F(WalTest, AsyncAckDoesNotBlock) {
  WalConfig c = Config();
  c.ack = WalConfig::Ack::kAsync;
  c.epoch_interval_us = 50 * 1000;  // writer mostly asleep
  LogManager lm(c);
  LogBuffer* buf = lm.CreateBuffer();
  const uint64_t e = AppendOne(lm, buf, 1, 10, 1, 100);
  // Must return immediately even though the epoch is not yet durable.
  EXPECT_TRUE(lm.WaitCommitDurable(e));
  lm.Stop();  // final flush makes it durable
  EXPECT_GE(lm.durable_epoch(), e);
}

TEST_F(WalTest, SegmentRotation) {
  WalConfig c = Config();
  c.segment_bytes = 4 * 1024;  // rotate quickly
  LogManager lm(c);
  LogBuffer* buf = lm.CreateBuffer();
  uint64_t last = 0;
  for (uint64_t i = 0; i < 200; ++i) {
    last = AppendOne(lm, buf, 1, i + 1, i, i * 10);
    if (i % 32 == 31) {
      ASSERT_TRUE(lm.WaitDurable(last));
    }
  }
  ASSERT_TRUE(lm.FlushNow());
  lm.Stop();

  size_t segments = 0;
  for (const auto& entry : fs::directory_iterator(dir_)) {
    (void)entry;
    ++segments;
  }
  EXPECT_GE(segments, 2u);

  uint64_t count = 0;
  const RecoveryReport r =
      ReplayLogDir(dir_.string(), [&](const RecordView&) {
        ++count;
        return true;
      });
  EXPECT_FALSE(r.torn_tail) << r.stop_reason;
  EXPECT_EQ(count, 200u);
  EXPECT_EQ(r.segments_scanned, segments);
}

TEST_F(WalTest, UnknownTableIsSkippedNotFatal) {
  LogManager lm(Config());
  LogBuffer* buf = lm.CreateBuffer();
  AppendOne(lm, buf, 1, 10, 1, 100);
  AppendOne(lm, buf, 99, 20, 2, 200);  // no binding for table 99
  ASSERT_TRUE(lm.FlushNow());
  lm.Stop();

  const RecoveryReport r =
      ReplayLogDir(dir_.string(), [&](const RecordView& rec) {
        return rec.header.table_id == 1;
      });
  EXPECT_FALSE(r.torn_tail);
  EXPECT_EQ(r.records_applied, 1u);
  EXPECT_EQ(r.records_skipped_unknown_table, 1u);
}

TEST_F(WalTest, SimulateCrashFreezesTheLog) {
  WalConfig c = Config();
  c.epoch_interval_us = 100 * 1000;  // keep the writer from racing ahead
  LogManager lm(c);
  LogBuffer* buf = lm.CreateBuffer();
  AppendOne(lm, buf, 1, 10, 1, 100);
  ASSERT_TRUE(lm.FlushNow());
  const uint64_t durable_before = lm.durable_epoch();
  const uint64_t e2 = AppendOne(lm, buf, 1, 20, 2, 200);  // staged only
  lm.SimulateCrash();
  EXPECT_TRUE(lm.crashed());
  EXPECT_FALSE(lm.WaitDurable(e2));  // released with failure, no hang
  EXPECT_EQ(lm.durable_epoch(), durable_before);
  lm.Stop();

  // Only the pre-crash record survives.
  uint64_t count = 0;
  const RecoveryReport r =
      ReplayLogDir(dir_.string(), [&](const RecordView&) {
        ++count;
        return true;
      });
  EXPECT_EQ(count, 1u);
  EXPECT_FALSE(r.torn_tail) << r.stop_reason;  // clean cut, not torn
}

TEST_F(WalTest, EmptyAndMissingDirectories) {
  const RecoveryReport empty =
      ReplayLogDir(dir_.string(), [](const RecordView&) { return true; });
  EXPECT_EQ(empty.records_applied, 0u);
  EXPECT_FALSE(empty.torn_tail);

  const RecoveryReport missing = ReplayLogDir(
      (dir_ / "nope").string(), [](const RecordView&) { return true; });
  EXPECT_EQ(missing.records_applied, 0u);
}

TEST_F(WalTest, TruncatedTailIsCutAtBlockBoundary) {
  WalConfig c = Config();
  c.partitions = 1;  // the test edits wal-000001.log bytes directly
  LogManager lm(c);
  LogBuffer* buf = lm.CreateBuffer();
  AppendOne(lm, buf, 1, 10, 1, 100);
  ASSERT_TRUE(lm.FlushNow());
  AppendOne(lm, buf, 1, 20, 2, 200);
  ASSERT_TRUE(lm.FlushNow());
  lm.Stop();

  // Chop bytes off the tail: the second block becomes unreadable, the
  // first must still replay.
  const fs::path seg = dir_ / "wal-000001.log";
  ASSERT_TRUE(fs::exists(seg));
  const uintmax_t full = fs::file_size(seg);
  fs::resize_file(seg, full - 5);

  std::vector<uint64_t> ts;
  const RecoveryReport r =
      ReplayLogDir(dir_.string(), [&](const RecordView& rec) {
        ts.push_back(rec.header.commit_ts);
        return true;
      });
  EXPECT_TRUE(r.torn_tail);
  EXPECT_NE(r.stop_reason, "");
  EXPECT_EQ(ts, (std::vector<uint64_t>{10}));
}

TEST_F(WalTest, CorruptPayloadByteInvalidatesWholeBlock) {
  WalConfig c = Config();
  c.partitions = 1;  // the test edits wal-000001.log bytes directly
  LogManager lm(c);
  LogBuffer* buf = lm.CreateBuffer();
  AppendOne(lm, buf, 1, 10, 1, 100);
  ASSERT_TRUE(lm.FlushNow());
  AppendOne(lm, buf, 1, 20, 2, 200);
  ASSERT_TRUE(lm.FlushNow());
  lm.Stop();

  // Flip one byte in the LAST record's payload area (end of file - 3).
  const fs::path seg = dir_ / "wal-000001.log";
  std::fstream f(seg, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(f.good());
  f.seekp(-3, std::ios::end);
  char b;
  f.read(&b, 1);
  f.seekp(-3, std::ios::end);
  b = static_cast<char>(b ^ 0x40);
  f.write(&b, 1);
  f.close();

  std::vector<uint64_t> ts;
  const RecoveryReport r =
      ReplayLogDir(dir_.string(), [&](const RecordView& rec) {
        ts.push_back(rec.header.commit_ts);
        return true;
      });
  EXPECT_TRUE(r.torn_tail);
  EXPECT_EQ(ts, (std::vector<uint64_t>{10}));  // first epoch only
}

TEST_F(WalTest, WaitDurableVsStopHammer) {
  // Regression: the old wait predicate woke on stop_requested_ BEFORE the
  // writer's final flush published, so a waiter racing Stop() could
  // spuriously return false for an epoch that final round does make
  // durable. Now waiters are only released by durable publication, crash,
  // or `stopped_` (set after the final round) — so every wait here must
  // succeed, no matter how the race lands.
  for (int iter = 0; iter < 100; ++iter) {
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    LogManager lm(Config());
    LogBuffer* buf = lm.CreateBuffer();
    // The append happens-before Stop(): the final forced round must flush
    // it, so the racing waiter below may never observe false. (An append
    // racing Stop() itself could legitimately land after the final round
    // and report not-durable — that is not this bug.)
    const uint64_t e = AppendOne(lm, buf, 1, 10, 1, 100);
    bool waited_ok = false;
    std::thread waiter([&] { waited_ok = lm.WaitDurable(e); });
    lm.Stop();
    waiter.join();
    EXPECT_TRUE(waited_ok) << "iteration " << iter;
  }
}

TEST_F(WalTest, SyncWaitCounterCountsOnlyCommitWaits) {
  WalConfig c = Config();
  c.epoch_interval_us = 50 * 1000;  // writer only flushes when kicked
  LogManager lm(c);
  LogBuffer* buf = lm.CreateBuffer();

  // Test/teardown barriers must not register as commit-path group-commit
  // waits, even when they block.
  const uint64_t e1 = AppendOne(lm, buf, 1, 10, 1, 100);
  ASSERT_TRUE(lm.WaitDurable(e1));
  AppendOne(lm, buf, 1, 20, 2, 200);
  ASSERT_TRUE(lm.FlushNow());

  // A commit-path wait that actually blocks counts once...
  const uint64_t e3 = AppendOne(lm, buf, 1, 30, 3, 300);
  ASSERT_TRUE(lm.WaitCommitDurable(e3));
  // ...and the fast path (already durable) does not.
  ASSERT_TRUE(lm.WaitCommitDurable(e3));

  lm.Stop();
  const obs::MetricsSnapshot snap = lm.metrics().Snapshot();
  EXPECT_EQ(snap.Value("wal_sync_waits"), 1u);
}

// RequestDurable starts a round and returns without waiting (a server
// worker parks a batch behind it). With the epoch timer effectively off,
// only that kick can make the record durable, and it is no sync wait.
TEST_F(WalTest, RequestDurableStartsARoundWithoutWaiting) {
  WalConfig c = Config();
  c.epoch_interval_us = 4'000'000'000u;  // the timer never fires here
  LogManager lm(c);
  LogBuffer* buf = lm.CreateBuffer();
  const uint64_t e = AppendOne(lm, buf, 1, 10, 1, 100);
  EXPECT_TRUE(lm.RequestDurable(e));
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (lm.durable_epoch() < e &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GE(lm.durable_epoch(), e);
  EXPECT_FALSE(lm.RequestDurable(e));  // already durable: nothing to start
  lm.Stop();
  EXPECT_EQ(lm.metrics().Snapshot().Value("wal_sync_waits"), 0u);
}

TEST_F(WalTest, PartitionedStreamsNamingAndHeartbeats) {
  WalConfig c = Config();
  c.partitions = 4;
  LogManager lm(c);
  ASSERT_EQ(lm.partition_count(), 4u);
  LogBuffer* buf = lm.CreateBuffer(/*lane_hint=*/2);
  const uint64_t e = AppendOne(lm, buf, 1, 10, 1, 100);
  ASSERT_TRUE(lm.WaitDurable(e));
  lm.Stop();

  // Four per-partition streams on disk, none with the legacy name.
  for (uint32_t p = 0; p < 4; ++p) {
    char name[32];
    std::snprintf(name, sizeof(name), "wal-p%02u-000001.log", p);
    EXPECT_TRUE(fs::exists(dir_ / name)) << name;
  }
  EXPECT_FALSE(fs::exists(dir_ / "wal-000001.log"));

  // Replay merges the streams: the record comes back, the idle partitions'
  // heartbeat blocks cover the flushed epoch (durable cut reaches the
  // record's tag even though three streams carried no data).
  std::vector<uint64_t> ts;
  const RecoveryReport r =
      ReplayLogDir(dir_.string(), [&](const RecordView& rec) {
        ts.push_back(rec.header.commit_ts);
        return true;
      });
  EXPECT_FALSE(r.torn_tail) << r.stop_reason;
  EXPECT_EQ(r.streams, 4u);
  EXPECT_GE(r.durable_cut, e);
  EXPECT_EQ(ts, (std::vector<uint64_t>{10}));
}

TEST_F(WalTest, MetricsCounters) {
  LogManager lm(Config());
  LogBuffer* buf = lm.CreateBuffer();
  for (uint64_t i = 0; i < 10; ++i) AppendOne(lm, buf, 1, i + 1, i, i);
  ASSERT_TRUE(lm.FlushNow());
  lm.Stop();
  const obs::MetricsSnapshot snap = lm.metrics().Snapshot();
  EXPECT_GT(snap.Value("wal_bytes"), 0u);
  EXPECT_EQ(snap.Value("wal_records"), 10u);
  EXPECT_GT(snap.Value("epochs_flushed"), 0u);
  EXPECT_GT(snap.Value("wal_segments"), 0u);
  EXPECT_EQ(snap.Value("wal_flush_failures"), 0u);
}

}  // namespace
}  // namespace mv3c::wal
