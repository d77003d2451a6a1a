// Timestamp-substrate contract tests (DESIGN §5h): the epoch-composed,
// lane-stamped commit TIDs allocated without a Begin-side lock must
// preserve the ordering contract the whole MVCC stack is built on —
// strictly monotone unique commit timestamps, start values disjoint from
// commit values, monotone visibility of the commit high-water mark, the
// repair-retimestamp ordering (a fresh start exceeds the invalidator's
// commit), and the reclaim trim-floor protocol that protects lock-free
// Begins from concurrent trimming. The concurrency cases are the TSan
// targets of the tsan-timestamp-contract CI job; failpoint injection
// (kRetimestamp delay, kGcReclaim) widens the racy windows.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <set>
#include <thread>
#include <vector>

#include "common/failpoint.h"
#include "mvcc/table.h"
#include "mvcc/timestamp.h"
#include "mvcc/transaction.h"
#include "mvcc/transaction_manager.h"

#include <filesystem>

#include "wal/log_manager.h"

namespace mv3c {
namespace {

namespace fp = failpoint;

struct Row {
  int64_t v = 0;
};
using TestTable = Table<uint64_t, Row>;

bool PlainCommit(TransactionManager& mgr, Transaction& t,
                 Timestamp* cts = nullptr) {
  return mgr.TryCommit(&t, [](CommittedRecord*) { return true; }, cts);
}

// --- TID layout -----------------------------------------------------------

static_assert(kTidEpochShift == 30);
static_assert(TsEpoch(EpochFirstTs(7) + 123) == 7);
static_assert(TsLane(ShapeToLane(1000, 42)) == 42);
static_assert(ShapeToLane(1000, 42) >= 1000);
static_assert(ShapeToLane(1000, 42) < 1000 + kMaxTidLanes);
static_assert(IsTxnId(ComposeTxnId(kMaxTidLanes - 1, 0)));
static_assert(IsTxnId(ComposeTxnId(0, (1ULL << 48) - 1)));
static_assert(ComposeTxnId(255, 99) != kDeadVersion);

TEST(TidLayout, ShapeToLaneIsMinimalAndExact) {
  for (uint32_t lane = 0; lane < kMaxTidLanes; lane += 17) {
    for (Timestamp floor : {Timestamp{1}, Timestamp{255}, Timestamp{256},
                            EpochFirstTs(3) + 511}) {
      const Timestamp c = ShapeToLane(floor, lane);
      EXPECT_GE(c, floor);
      EXPECT_EQ(TsLane(c), lane);
      // Minimal: the next-lower lane-shaped value (c - kMaxTidLanes) would
      // be below the floor.
      EXPECT_LT(c, floor + kMaxTidLanes);
    }
  }
}

// --- Single-threaded ordering contract ------------------------------------

TEST(TimestampContract, CommitsAreMonotoneStartsAreDisjoint) {
  TransactionManager mgr;
  TestTable table("t", 64);
  std::vector<Timestamp> commits;
  std::vector<Timestamp> starts;
  for (int i = 0; i < 50; ++i) {
    Transaction t(&mgr);
    mgr.Begin(&t);
    starts.push_back(t.start_ts());
    if (i == 0) {
      ASSERT_EQ(t.Insert(table, 1, Row{0}), WriteStatus::kOk);
    } else {
      ASSERT_EQ(t.Update(table, table.Find(1), Row{i}, ColumnMask::All(),
                         false, WwPolicy::kFailFast),
                WriteStatus::kOk);
    }
    Timestamp cts = 0;
    ASSERT_TRUE(PlainCommit(mgr, t, &cts));
    EXPECT_TRUE(IsCommitTs(cts));
    EXPECT_GT(cts, t.start_ts() + 0);  // commit strictly after start
    commits.push_back(cts);
  }
  for (size_t i = 1; i < commits.size(); ++i) {
    EXPECT_LT(commits[i - 1], commits[i]);  // strictly monotone, no reuse
  }
  // The +2 gap: no start value is ever a commit value, so the strict
  // `ts < start` visibility bound has no equality cases to get wrong.
  std::set<Timestamp> commit_set(commits.begin(), commits.end());
  for (Timestamp s : starts) EXPECT_EQ(commit_set.count(s), 0u);
  // Every commit is lane-stamped with this thread's lane.
  for (Timestamp c : commits) EXPECT_EQ(TsLane(c), ThisThreadTidLane());
}

TEST(TimestampContract, RetimestampOrdersAfterInvalidator) {
  TransactionManager mgr;
  TestTable table("t", 64);
  {
    Transaction seed(&mgr);
    mgr.Begin(&seed);
    ASSERT_EQ(seed.Insert(table, 1, Row{0}), WriteStatus::kOk);
    ASSERT_TRUE(PlainCommit(mgr, seed));
  }
  Transaction victim(&mgr);
  mgr.Begin(&victim);
  const Timestamp old_start = victim.start_ts();
  const Timestamp old_watermark = victim.validated_up_to();

  Timestamp invalidator_cts = 0;
  {
    Transaction w(&mgr);
    mgr.Begin(&w);
    ASSERT_EQ(w.Update(table, table.Find(1), Row{1}, ColumnMask::All(),
                       false, WwPolicy::kFailFast),
              WriteStatus::kOk);
    ASSERT_TRUE(PlainCommit(mgr, w, &invalidator_cts));
  }
  // Repair path: the fresh start must serialize after the invalidator so
  // re-executed reads see its writes (§2.5 ordering), and the validation
  // watermark survives (repair does not restart validation from scratch).
  mgr.Retimestamp(&victim);
  EXPECT_GT(victim.start_ts(), invalidator_cts);
  EXPECT_GT(victim.start_ts(), old_start);
  EXPECT_GE(victim.validated_up_to(), old_watermark);
  const auto* seen = table.Find(1)->ReadVisible(victim.start_ts(), 0);
  ASSERT_NE(seen, nullptr);
  EXPECT_EQ(seen->data().v, 1);  // repair-round reads see the invalidator
  victim.RollbackWrites();
  mgr.FinishAborted(&victim);
}

TEST(TimestampContract, PinSnapshotExcludesLaterCommits) {
  TransactionManager mgr;
  TestTable table("t", 64);
  {
    Transaction seed(&mgr);
    mgr.Begin(&seed);
    ASSERT_EQ(seed.Insert(table, 1, Row{7}), WriteStatus::kOk);
    ASSERT_TRUE(PlainCommit(mgr, seed));
  }
  const TransactionManager::SnapshotPin pin = mgr.PinSnapshot();
  Timestamp later = 0;
  {
    Transaction w(&mgr);
    mgr.Begin(&w);
    ASSERT_EQ(w.Update(table, table.Find(1), Row{8}, ColumnMask::All(),
                       false, WwPolicy::kFailFast),
              WriteStatus::kOk);
    ASSERT_TRUE(PlainCommit(mgr, w, &later));
  }
  EXPECT_GT(later, pin.ts);  // commits after the pin serialize after it
  const auto* v = table.Find(1)->ReadVisible(pin.ts, 0);
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(v->data().v, 7);
  mgr.ReleaseSnapshot(pin);
}

// --- Concurrent contract (the TSan targets) -------------------------------

/// Writers on disjoint keys + one contended key, readers asserting the
/// published high-water mark is really a consistent snapshot: a reader
/// that observes (via an atomic side channel) that value `k` committed
/// must see value >= k after its next Begin. Commit TIDs collected from
/// every thread must be globally unique; no commit may equal any observed
/// start.
TEST(TimestampContract, HwmPublicationIsMonotoneAcrossThreads) {
  fp::Reset(0x7155);
  fp::Config delay;
  delay.action = fp::Action::kDelay;
  delay.delay_us = 3;
  delay.probability = 0.2;
  fp::Arm(fp::Site::kRetimestamp, delay);
  fp::Config reclaim;
  reclaim.probability = 0.25;
  fp::Arm(fp::Site::kGcReclaim, reclaim);
  TransactionManager mgr;
  TestTable table("t", 256);
  {
    Transaction seed(&mgr);
    mgr.Begin(&seed);
    ASSERT_EQ(seed.Insert(table, 0, Row{0}), WriteStatus::kOk);
    ASSERT_TRUE(PlainCommit(mgr, seed));
  }
  constexpr int kWriters = 3;
  constexpr int kReaders = 3;
  constexpr int kTxnsPerWriter = 400;
  std::atomic<int64_t> published{0};  // last value known committed on key 0
  std::atomic<bool> stop{false};
  std::vector<std::vector<Timestamp>> commits(kWriters);
  std::vector<std::vector<Timestamp>> starts(kWriters + kReaders);

  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      int64_t mine = 0;
      for (int i = 0; i < kTxnsPerWriter; ++i) {
        Transaction t(&mgr);
        mgr.Begin(&t);
        starts[w].push_back(t.start_ts());
        const auto* cur = table.Find(0)->ReadVisible(t.start_ts(), t.txn_id());
        ASSERT_NE(cur, nullptr);
        const int64_t next = cur->data().v + 1;
        if (t.Update(table, table.Find(0), Row{next}, ColumnMask::All(),
                     false, WwPolicy::kFailFast) != WriteStatus::kOk) {
          t.RollbackWrites();
          mgr.FinishAborted(&t);
          continue;
        }
        Timestamp cts = 0;
        const bool ok = mgr.TryCommit(
            &t,
            [&](CommittedRecord* from) {
              // Delta validation: fail if anyone committed key 0 above our
              // validation watermark (single-object write conflict).
              return TransactionManager::ForEachConcurrentVersion(
                  from, t.validated_up_to(), [&](const VersionBase& v) {
                    return v.object() != table.Find(0);
                  });
            },
            &cts);
        if (!ok) {
          t.RollbackWrites();
          mgr.FinishAborted(&t);
          continue;
        }
        commits[w].push_back(cts);
        mine = next;
        // Publish "value `next` is committed" only monotonically.
        int64_t prev = published.load(std::memory_order_relaxed);
        while (prev < mine && !published.compare_exchange_weak(
                                  prev, mine, std::memory_order_seq_cst)) {
        }
      }
    });
  }
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&, r] {
      int64_t last_seen = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        const int64_t floor = published.load(std::memory_order_seq_cst);
        Transaction t(&mgr);
        mgr.Begin(&t);
        starts[kWriters + r].push_back(t.start_ts());
        const auto* v = table.Find(0)->ReadVisible(t.start_ts(), t.txn_id());
        ASSERT_NE(v, nullptr);  // the floor protocol: snapshot always readable
        const int64_t got = v->data().v;
        // Monotone visibility: a Begin after the publication handshake
        // must see at least the published state, and per-reader snapshots
        // never go backwards.
        EXPECT_GE(got, floor);
        EXPECT_GE(got, last_seen);
        last_seen = got;
        mgr.CommitReadOnly(&t);
      }
    });
  }
  // Maintenance loop on the main thread, as drivers do.
  for (int i = 0; i < kWriters; ++i) threads[i].join();
  stop.store(true, std::memory_order_relaxed);
  for (size_t i = kWriters; i < threads.size(); ++i) threads[i].join();
  mgr.CollectGarbage();
  fp::DisarmAll();
  mgr.CollectGarbage();

  // No commit-TID reuse, lane stamping, start/commit disjointness.
  std::set<Timestamp> all_commits;
  for (int w = 0; w < kWriters; ++w) {
    for (size_t i = 0; i < commits[w].size(); ++i) {
      EXPECT_TRUE(IsCommitTs(commits[w][i]));
      EXPECT_TRUE(all_commits.insert(commits[w][i]).second)
          << "commit TID reused: " << commits[w][i];
      if (i > 0) {
        EXPECT_LT(commits[w][i - 1], commits[w][i]);
      }
    }
    // One thread, one lane: every TID a writer drew carries the same lane.
    for (size_t i = 1; i < commits[w].size(); ++i) {
      EXPECT_EQ(TsLane(commits[w][i]), TsLane(commits[w][0]));
    }
  }
  for (const auto& ss : starts) {
    for (Timestamp s : ss) EXPECT_EQ(all_commits.count(s), 0u);
  }
  // The interleaved increments on key 0 must have produced a clean chain:
  // final value == number of successful increment commits.
  size_t n_commits = 0;
  for (const auto& cs : commits) n_commits += cs.size();
  Transaction check(&mgr);
  mgr.Begin(&check);
  const auto* fin = table.Find(0)->ReadVisible(check.start_ts(), 0);
  ASSERT_NE(fin, nullptr);
  EXPECT_EQ(fin->data().v, static_cast<int64_t>(n_commits));
  mgr.CommitReadOnly(&check);
}

/// Chain truncation (the reclaim path worker threads trigger) racing
/// lock-free Begins: every reader must always find a visible version.
/// This is the schedule the trim-floor protocol exists for — without it a
/// truncator could cut the newest-committed-below-start version out from
/// under a beginner between its hwm read and its slot registration.
TEST(TimestampContract, TruncationNeverStrandsAReader) {
  fp::Reset(0x7156);
  fp::Config reclaim;
  reclaim.probability = 0.25;
  fp::Arm(fp::Site::kGcReclaim, reclaim);
  TransactionManager mgr;
  TestTable table("t", 64);
  {
    Transaction seed(&mgr);
    mgr.Begin(&seed);
    ASSERT_EQ(seed.Insert(table, 1, Row{0}), WriteStatus::kOk);
    ASSERT_TRUE(PlainCommit(mgr, seed));
  }
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    // Long chains on one object force MaybeTruncateChain's worker-side
    // truncation over and over.
    for (int i = 1; i <= 4000; ++i) {
      Transaction t(&mgr);
      mgr.Begin(&t);
      if (t.Update(table, table.Find(1), Row{i}, ColumnMask::All(), false,
                   WwPolicy::kFailFast) != WriteStatus::kOk) {
        t.RollbackWrites();
        mgr.FinishAborted(&t);
        continue;
      }
      if (!PlainCommit(mgr, t)) {
        t.RollbackWrites();
        mgr.FinishAborted(&t);
      }
      if ((i & 255) == 0) mgr.CollectGarbage();
    }
  });
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&] {
      int64_t last = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        Transaction t(&mgr);
        mgr.Begin(&t);
        const auto* v = table.Find(1)->ReadVisible(t.start_ts(), t.txn_id());
        ASSERT_NE(v, nullptr) << "truncation cut a beginner's snapshot";
        EXPECT_GE(v->data().v, last);
        last = v->data().v;
        mgr.CommitReadOnly(&t);
      }
    });
  }
  writer.join();
  stop.store(true, std::memory_order_relaxed);
  for (auto& t : readers) t.join();
  fp::DisarmAll();
  mgr.CollectGarbage();
  mgr.CollectGarbage();
}

// --- WAL epoch alignment --------------------------------------------------

TEST(TimestampContract, CommitTsEpochNeverExceedsRedoTag) {
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::path(::testing::TempDir()) / "ts_contract_epoch_align";
  fs::remove_all(dir);
  fs::create_directories(dir);
  {
    TransactionManager mgr;
    wal::WalConfig cfg;
    cfg.dir = dir.string();
    cfg.epoch_interval_us = 50;  // fast rounds: epochs advance mid-test
    mgr.EnableWal(cfg);
    TestTable table("t", 64);
    table.set_wal_id(1);
    for (int i = 0; i < 200; ++i) {
      Transaction t(&mgr);
      mgr.Begin(&t);
      if (i == 0) {
        ASSERT_EQ(t.Insert(table, 1, Row{0}), WriteStatus::kOk);
      } else {
        ASSERT_EQ(t.Update(table, table.Find(1), Row{i}, ColumnMask::All(),
                           false, WwPolicy::kFailFast),
                  WriteStatus::kOk);
      }
      Timestamp cts = 0;
      ASSERT_TRUE(PlainCommit(mgr, t, &cts));
      ASSERT_NE(t.wal_epoch(), 0u);
      // The alignment invariant behind checkpoint/recovery epoch cuts:
      // a redo record's block tag is never older than its commit TID's
      // epoch component (both are reads of the shared clock, tag second).
      EXPECT_LE(TsEpoch(cts), t.wal_epoch());
      ASSERT_TRUE(mgr.WalWaitDurable(t.wal_epoch()));
      EXPECT_GE(mgr.wal()->durable_epoch(), t.wal_epoch());
    }
    // The flush rounds really advanced the shared clock past epoch 1, so
    // the assertion above covered epoch transitions, not just round zero.
    EXPECT_GT(mgr.epoch_clock().Current(), 1u);
  }
  fs::remove_all(dir);
}

/// Idle epoch headroom (§5h): TsEpoch is a bounded field of the commit
/// TID, so the flush timer must not burn it while nothing commits. An
/// idle log writer at a 200us interval used to bump the shared clock
/// ~5000 times per second around the clock; now an idle round publishes
/// durability at Current()-1 and leaves the clock alone. Tagging stays
/// sound because the emptiness probe happens after the Current() read:
/// any append the probe missed carries a tag >= Current(), above the
/// published durable epoch.
TEST(TimestampContract, IdleFlushRoundsBurnNoEpochHeadroom) {
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::path(::testing::TempDir()) / "ts_contract_idle_headroom";
  fs::remove_all(dir);
  fs::create_directories(dir);
  {
    wal::WalConfig cfg;
    cfg.dir = dir.string();
    cfg.ack = wal::WalConfig::Ack::kAsync;
    cfg.epoch_interval_us = 200;
    wal::LogManager lm(cfg);
    // One forced round so the writer has published at least one epoch.
    ASSERT_TRUE(lm.FlushNow());
    const uint64_t current = lm.current_epoch();
    const uint64_t durable = lm.durable_epoch();
    EXPECT_EQ(durable, current - 1);
    // ~250 timer rounds with nothing staged. Before the fix this burned
    // ~250 epochs of TID headroom; now the clock must not move at all.
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    EXPECT_EQ(lm.current_epoch(), current);
    EXPECT_EQ(lm.durable_epoch(), durable);
    // The writer is still live: a forced flush bumps exactly once and
    // acknowledges it.
    ASSERT_TRUE(lm.FlushNow());
    EXPECT_EQ(lm.current_epoch(), current + 1);
    EXPECT_EQ(lm.durable_epoch(), durable + 1);
    lm.Stop();
  }
  fs::remove_all(dir);
}

}  // namespace
}  // namespace mv3c
