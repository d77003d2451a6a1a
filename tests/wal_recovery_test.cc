// Recovery-equivalence tests (the durability acceptance bar): run a
// workload with the WAL on, snapshot order-independent digests of every
// table's visible committed state, replay the log into fresh tables, and
// require digest equality — for all four workloads, all three engine
// families, and specifically for MV3C histories containing repairs (whose
// records must carry the final, post-repair write set). Plus manual
// torn-tail corruption: truncating or flipping bytes in the newest block
// must yield the longest durable prefix, never a crash or a torn apply.
//
// MVCC loaders are transactional, so population is replayed from the log;
// the single-version loader is non-transactional, so SV recovery is
// checkpoint-style: reload with the same seed, then replay the log over it.
// Secondary indexes are derived data and not part of the equivalence
// check (recovery rebuilds base tables; index rebuild is orthogonal).

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "driver/window_driver.h"
#include "sv/sv_executor.h"
#include "occ/occ_engine.h"
#include "silo/silo_engine.h"
#include "wal/catalog.h"
#include "wal/log_manager.h"
#include "wal/recovery.h"
#include "wal/state_hash.h"
#include "workloads/wal_registry.h"

namespace mv3c {
namespace {

constexpr ConflictPolicy kOmvcc = ConflictPolicy::kRestart;

namespace fs = std::filesystem;

class WalRecoveryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::path(::testing::TempDir()) /
           ("wal_recovery_" +
            std::string(
                ::testing::UnitTest::GetInstance()->current_test_info()->name()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  /// Async ack keeps the single-threaded window drive from serializing on
  /// the epoch interval; the test flushes explicitly before digesting.
  wal::WalConfig Config(wal::WalConfig::Ack ack = wal::WalConfig::Ack::kAsync) {
    wal::WalConfig c;
    c.dir = dir_.string();
    c.ack = ack;
    return c;
  }

  /// Counts records in the log carrying kFlagRepaired (raw scan, no
  /// catalog).
  uint64_t CountRepairedRecords() {
    uint64_t repaired = 0;
    (void)wal::ReplayLogDir(dir_.string(), [&](const wal::RecordView& r) {
      if ((r.header.flags & wal::kFlagRepaired) != 0) ++repaired;
      return true;
    });
    return repaired;
  }

  fs::path dir_;
};

// --- Banking: MV3C with repairs -----------------------------------------

TEST_F(WalRecoveryTest, BankingMv3cWithRepairs) {
  constexpr int64_t kAccounts = 200;       // few accounts => hot conflicts
  constexpr int64_t kInitial = 1'000'000;
  constexpr uint64_t kTxns = 3000;

  TransactionManager mgr;
  mgr.EnableWal(Config());
  banking::BankingDb db(&mgr, kAccounts, kInitial);
  wal::Catalog cat;
  RegisterWalTables(cat, db);
  db.Load();  // transactional: the population is itself logged

  banking::TransferGenerator gen(kAccounts, /*fee_fraction_percent=*/100,
                                 /*seed=*/42);
  std::vector<banking::TransferParams> stream;
  for (uint64_t i = 0; i < kTxns; ++i) stream.push_back(gen.Next());

  WindowDriver<Mv3cExecutor> driver(
      8, [&](...) { return std::make_unique<Mv3cExecutor>(&mgr); },
      [&] { mgr.CollectGarbage(); });
  const DriveResult res = driver.Run(CountedSource<Mv3cExecutor::Program>(
      stream.size(),
      [&](uint64_t i) { return banking::Mv3cTransferMoney(db, stream[i]); }));
  ASSERT_GT(res.committed, kTxns / 2);
  const int64_t total_before = db.TotalBalance();
  EXPECT_EQ(total_before, kAccounts * kInitial);  // conservation invariant

  ASSERT_TRUE(mgr.wal()->FlushNow());
  mgr.DisableWal();  // join writer, close segment

  // The contended fee account forces repairs; their commits must be in the
  // log flagged, carrying final write sets.
  EXPECT_GT(CountRepairedRecords(), 0u);

  const wal::TableDigest before = wal::DigestMvccTable(db.accounts);
  ASSERT_EQ(before.live_rows, static_cast<uint64_t>(kAccounts) + 1);

  // Crash: fresh manager, fresh (unloaded) database, replay.
  TransactionManager mgr2;
  banking::BankingDb db2(&mgr2, kAccounts, kInitial);
  wal::Catalog cat2;
  RegisterWalTables(cat2, db2);
  const wal::RecoveryReport rep = cat2.Recover(dir_.string());
  EXPECT_FALSE(rep.torn_tail) << rep.stop_reason;
  EXPECT_GT(rep.records_applied, 0u);
  EXPECT_EQ(rep.records_skipped_unknown_table, 0u);

  EXPECT_EQ(wal::DigestMvccTable(db2.accounts), before);
  EXPECT_EQ(db2.TotalBalance(), total_before);

  // The recovered clock is past the replayed history: new transactions
  // run and see the replayed state.
  banking::TransferParams p;
  p.from = 1;
  p.to = 2;
  p.amount = 10;
  Mv3cExecutor e(&mgr2);
  ASSERT_EQ(e.Run(banking::Mv3cTransferMoney(db2, p)),
            StepResult::kCommitted);
  EXPECT_EQ(db2.TotalBalance(), total_before);
}

// --- Banking: OMVCC ------------------------------------------------------

TEST_F(WalRecoveryTest, BankingOmvcc) {
  constexpr int64_t kAccounts = 500;
  constexpr int64_t kInitial = 100'000;

  TransactionManager mgr;
  mgr.EnableWal(Config());
  banking::BankingDb db(&mgr, kAccounts, kInitial);
  wal::Catalog cat;
  RegisterWalTables(cat, db);
  db.Load();

  banking::TransferGenerator gen(kAccounts, 50, /*seed=*/7);
  Mv3cExecutor e(&mgr, {}, kOmvcc);
  uint64_t committed = 0;
  for (int i = 0; i < 1000; ++i) {
    if (e.Run(banking::Mv3cTransferMoney(db, gen.Next())) ==
        StepResult::kCommitted) {
      ++committed;
    }
  }
  ASSERT_GT(committed, 500u);
  const int64_t total_before = db.TotalBalance();
  ASSERT_TRUE(mgr.wal()->FlushNow());
  mgr.DisableWal();

  const wal::TableDigest before = wal::DigestMvccTable(db.accounts);

  TransactionManager mgr2;
  banking::BankingDb db2(&mgr2, kAccounts, kInitial);
  wal::Catalog cat2;
  RegisterWalTables(cat2, db2);
  const wal::RecoveryReport rep = cat2.Recover(dir_.string());
  EXPECT_FALSE(rep.torn_tail) << rep.stop_reason;
  EXPECT_EQ(wal::DigestMvccTable(db2.accounts), before);
  EXPECT_EQ(db2.TotalBalance(), total_before);
}

// --- Trading --------------------------------------------------------------

TEST_F(WalRecoveryTest, TradingMv3c) {
  TransactionManager mgr;
  mgr.EnableWal(Config());
  trading::TradingDb db(&mgr, /*n_securities=*/500, /*n_customers=*/200);
  wal::Catalog cat;
  RegisterWalTables(cat, db);
  db.Load();

  trading::TradingGenerator gen(db, /*alpha=*/0.8,
                                /*trade_order_percent=*/70, /*seed=*/13);
  std::vector<trading::TradingGenerator::Txn> stream;
  for (int i = 0; i < 800; ++i) stream.push_back(gen.Next());

  WindowDriver<Mv3cExecutor> driver(
      8, [&](...) { return std::make_unique<Mv3cExecutor>(&mgr); },
      [&] { mgr.CollectGarbage(); });
  const DriveResult res = driver.Run(CountedSource<Mv3cExecutor::Program>(
      stream.size(), [&](uint64_t i) -> Mv3cExecutor::Program {
        if (stream[i].is_trade_order) {
          return trading::Mv3cTradeOrder(db, stream[i].order);
        }
        return trading::Mv3cPriceUpdate(db, stream[i].price);
      }));
  ASSERT_GT(res.committed, 0u);
  ASSERT_TRUE(mgr.wal()->FlushNow());
  mgr.DisableWal();

  const wal::TableDigest sec = wal::DigestMvccTable(db.securities);
  const wal::TableDigest cus = wal::DigestMvccTable(db.customers);
  const wal::TableDigest trd = wal::DigestMvccTable(db.trades);
  const wal::TableDigest lin = wal::DigestMvccTable(db.trade_lines);

  TransactionManager mgr2;
  trading::TradingDb db2(&mgr2, 500, 200);
  wal::Catalog cat2;
  RegisterWalTables(cat2, db2);
  const wal::RecoveryReport rep = cat2.Recover(dir_.string());
  EXPECT_FALSE(rep.torn_tail) << rep.stop_reason;
  EXPECT_EQ(wal::DigestMvccTable(db2.securities), sec);
  EXPECT_EQ(wal::DigestMvccTable(db2.customers), cus);
  EXPECT_EQ(wal::DigestMvccTable(db2.trades), trd);
  EXPECT_EQ(wal::DigestMvccTable(db2.trade_lines), lin);
}

// --- TATP -----------------------------------------------------------------

TEST_F(WalRecoveryTest, TatpMv3c) {
  constexpr uint64_t kSubs = 1000;
  TransactionManager mgr;
  mgr.EnableWal(Config());
  tatp::TatpDb db(&mgr, kSubs);
  wal::Catalog cat;
  RegisterWalTables(cat, db);
  db.Load(3);

  tatp::TatpGenerator gen(kSubs, 77);
  Mv3cExecutor e(&mgr);
  uint64_t committed = 0;
  for (int i = 0; i < 2000; ++i) {
    if (e.Run(tatp::Mv3cTatpProgram(db, gen.Next())) ==
        StepResult::kCommitted) {
      ++committed;
    }
  }
  ASSERT_GT(committed, 1000u);
  ASSERT_TRUE(mgr.wal()->FlushNow());
  mgr.DisableWal();

  const wal::TableDigest sub = wal::DigestMvccTable(db.subscribers);
  const wal::TableDigest ai = wal::DigestMvccTable(db.access_info);
  const wal::TableDigest sf = wal::DigestMvccTable(db.special_facilities);
  const wal::TableDigest cf = wal::DigestMvccTable(db.call_forwarding);

  TransactionManager mgr2;
  tatp::TatpDb db2(&mgr2, kSubs);
  wal::Catalog cat2;
  RegisterWalTables(cat2, db2);
  const wal::RecoveryReport rep = cat2.Recover(dir_.string());
  EXPECT_FALSE(rep.torn_tail) << rep.stop_reason;
  // TATP deletes call-forwarding rows: tombstone records must replay.
  EXPECT_EQ(wal::DigestMvccTable(db2.subscribers), sub);
  EXPECT_EQ(wal::DigestMvccTable(db2.access_info), ai);
  EXPECT_EQ(wal::DigestMvccTable(db2.special_facilities), sf);
  EXPECT_EQ(wal::DigestMvccTable(db2.call_forwarding), cf);
}

// --- TPC-C: MV3C ----------------------------------------------------------

tpcc::TpccScale SmallScale() {
  tpcc::TpccScale s;
  s.n_warehouses = 1;
  s.n_districts = 4;
  s.n_customers_per_d = 60;
  s.n_items = 200;
  s.preload_orders_per_d = 40;
  s.preload_new_orders_per_d = 15;
  return s;
}

TEST_F(WalRecoveryTest, TpccMv3c) {
  TransactionManager mgr;
  mgr.EnableWal(Config());
  tpcc::TpccDb db(&mgr, SmallScale());
  wal::Catalog cat;
  RegisterWalTables(cat, db);
  db.Load(7);

  tpcc::TpccGenerator gen(db.scale(), 17);
  std::vector<tpcc::TpccParams> stream;
  for (int i = 0; i < 400; ++i) stream.push_back(gen.Next());

  WindowDriver<Mv3cExecutor> driver(
      8, [&](...) { return std::make_unique<Mv3cExecutor>(&mgr); },
      [&] { mgr.CollectGarbage(); });
  const DriveResult res = driver.Run(CountedSource<Mv3cExecutor::Program>(
      stream.size(),
      [&](uint64_t i) { return tpcc::Mv3cTpccProgram(db, stream[i]); }));
  ASSERT_GT(res.committed, 0u);
  ASSERT_TRUE(mgr.wal()->FlushNow());
  mgr.DisableWal();

  std::vector<wal::TableDigest> before;
  auto digest_all = [](tpcc::TpccDb& d) {
    return std::vector<wal::TableDigest>{
        wal::DigestMvccTable(d.warehouses), wal::DigestMvccTable(d.districts),
        wal::DigestMvccTable(d.customers),  wal::DigestMvccTable(d.history),
        wal::DigestMvccTable(d.orders),     wal::DigestMvccTable(d.new_orders),
        wal::DigestMvccTable(d.order_lines), wal::DigestMvccTable(d.items),
        wal::DigestMvccTable(d.stock)};
  };
  before = digest_all(db);

  TransactionManager mgr2;
  tpcc::TpccDb db2(&mgr2, SmallScale());
  wal::Catalog cat2;
  RegisterWalTables(cat2, db2);
  const wal::RecoveryReport rep = cat2.Recover(dir_.string());
  EXPECT_FALSE(rep.torn_tail) << rep.stop_reason;
  const std::vector<wal::TableDigest> after = digest_all(db2);
  ASSERT_EQ(after.size(), before.size());
  for (size_t i = 0; i < before.size(); ++i) {
    EXPECT_EQ(after[i], before[i]) << "table " << i;
  }
}

// --- TPC-C: single-version (OCC and SILO) ---------------------------------

template <typename Engine>
void RunSvTpccEquivalence(const fs::path& dir) {
  const tpcc::TpccScale scale = SmallScale();
  wal::WalConfig config;
  config.dir = dir.string();
  config.ack = wal::WalConfig::Ack::kSync;  // exercise the sync-wait path

  tpcc::SvTpccDb db(scale);
  wal::Catalog cat;
  RegisterWalTables(cat, db);
  {
    wal::LogManager lm(config);
    Engine engine;
    engine.set_wal(&lm);
    db.Load(7);  // non-transactional: NOT logged (checkpoint-style)

    tpcc::TpccGenerator gen(scale, 23);
    std::vector<tpcc::TpccParams> stream;
    for (int i = 0; i < 300; ++i) stream.push_back(gen.Next());
    WindowDriver<SvExecutor<Engine>> driver(8, [&](...) {
      auto e = std::make_unique<SvExecutor<Engine>>(&engine);
      e->set_wal(&lm);
      return e;
    });
    const DriveResult res =
        driver.Run(CountedSource<typename SvExecutor<Engine>::Program>(
            stream.size(),
            [&](uint64_t i) { return tpcc::SvTpccProgram(db, stream[i]); }));
    ASSERT_GT(res.committed, 0u);
    ASSERT_TRUE(lm.FlushNow());
    lm.Stop();
  }

  auto digest_all = [](tpcc::SvTpccDb& d) {
    return std::vector<wal::TableDigest>{
        wal::DigestSvTable(d.warehouses),  wal::DigestSvTable(d.districts),
        wal::DigestSvTable(d.customers),   wal::DigestSvTable(d.history),
        wal::DigestSvTable(d.orders),      wal::DigestSvTable(d.new_orders),
        wal::DigestSvTable(d.order_lines), wal::DigestSvTable(d.items),
        wal::DigestSvTable(d.stock)};
  };
  const std::vector<wal::TableDigest> before = digest_all(db);

  // Checkpoint-style recovery: reload the same population, replay on top.
  tpcc::SvTpccDb db2(scale);
  db2.Load(7);
  wal::Catalog cat2;
  RegisterWalTables(cat2, db2);
  const wal::RecoveryReport rep = cat2.Recover(dir.string());
  EXPECT_FALSE(rep.torn_tail) << rep.stop_reason;
  EXPECT_GT(rep.records_applied, 0u);
  const std::vector<wal::TableDigest> after = digest_all(db2);
  for (size_t i = 0; i < before.size(); ++i) {
    EXPECT_EQ(after[i], before[i]) << "table " << i;
  }
}

TEST_F(WalRecoveryTest, TpccOcc) { RunSvTpccEquivalence<OccEngine>(dir_); }

TEST_F(WalRecoveryTest, TpccSilo) { RunSvTpccEquivalence<SiloEngine>(dir_); }

// --- Torn tails (manual corruption) ---------------------------------------

/// Runs a small banking history and returns the balance digest expected
/// from a clean replay; the caller corrupts the log and re-replays.
class WalTornTailTest : public WalRecoveryTest {
 protected:
  void WriteHistory() {
    TransactionManager mgr;
    wal::WalConfig c = Config();
    c.epoch_interval_us = 1;  // many small epochs => many blocks
    c.partitions = 1;         // the tests corrupt wal-000001.log in place
    mgr.EnableWal(c);
    banking::BankingDb db(&mgr, 50, 10'000);
    wal::Catalog cat;
    RegisterWalTables(cat, db);
    db.Load();
    banking::TransferGenerator gen(50, 100, 5);
    Mv3cExecutor e(&mgr);
    for (int i = 0; i < 300; ++i) {
      // Force frequent epoch boundaries between commits.
      (void)e.Run(banking::Mv3cTransferMoney(db, gen.Next()));
      if (i % 16 == 0) {
        ASSERT_TRUE(mgr.wal()->FlushNow());
      }
    }
    ASSERT_TRUE(mgr.wal()->FlushNow());
    mgr.DisableWal();
  }

  /// Replays into a fresh database; returns (report, digest, total).
  struct Replayed {
    wal::RecoveryReport report;
    wal::TableDigest digest;
    int64_t total = 0;
    uint64_t records = 0;
  };
  Replayed Replay() {
    Replayed r;
    TransactionManager mgr;
    banking::BankingDb db(&mgr, 50, 10'000);
    wal::Catalog cat;
    RegisterWalTables(cat, db);
    r.report = cat.Recover(dir_.string());
    r.records = r.report.records_applied;
    r.digest = wal::DigestMvccTable(db.accounts);
    r.total = db.TotalBalance();
    return r;
  }

  fs::path Segment() {
    fs::path p = dir_ / "wal-000001.log";
    EXPECT_TRUE(fs::exists(p));
    return p;
  }
};

TEST_F(WalTornTailTest, TruncatedTailRecoversPrefix) {
  WriteHistory();
  const Replayed clean = Replay();
  ASSERT_FALSE(clean.report.torn_tail) << clean.report.stop_reason;

  // Chop into the last block: everything before it must replay, and the
  // balance invariant must hold on the prefix (transactions never span
  // blocks, so the prefix is transaction-consistent).
  const uintmax_t size = fs::file_size(Segment());
  fs::resize_file(Segment(), size - 37);
  const Replayed torn = Replay();
  EXPECT_TRUE(torn.report.torn_tail);
  EXPECT_LT(torn.records, clean.records);
  EXPECT_GT(torn.records, 0u);
  EXPECT_EQ(torn.total, 50 * 10'000);  // conservation holds on any prefix
  EXPECT_LE(torn.report.max_epoch, clean.report.max_epoch);
}

TEST_F(WalTornTailTest, FlippedPayloadByteRecoversPrefix) {
  WriteHistory();
  const Replayed clean = Replay();

  std::fstream f(Segment(),
                 std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(f.good());
  f.seekp(-20, std::ios::end);
  char b;
  f.read(&b, 1);
  f.seekp(-20, std::ios::end);
  b = static_cast<char>(b ^ 0x01);
  f.write(&b, 1);
  f.close();

  const Replayed torn = Replay();
  EXPECT_TRUE(torn.report.torn_tail);
  EXPECT_LT(torn.records, clean.records);
  EXPECT_EQ(torn.total, 50 * 10'000);
}

TEST_F(WalTornTailTest, GarbageAppendedAfterLastBlockIsCut) {
  WriteHistory();
  const Replayed clean = Replay();

  std::ofstream f(Segment(), std::ios::app | std::ios::binary);
  const char junk[64] = {0x5A};
  f.write(junk, sizeof(junk));
  f.close();

  const Replayed torn = Replay();
  // All real records survive; only the garbage tail is cut.
  EXPECT_TRUE(torn.report.torn_tail);
  EXPECT_EQ(torn.records, clean.records);
  EXPECT_EQ(torn.digest, clean.digest);
}

}  // namespace
}  // namespace mv3c
