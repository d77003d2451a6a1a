// Checkpoint subsystem tests (DESIGN §5g): truncation safety — after a
// checkpoint deletes WAL history, two-phase recovery (checkpoint load +
// suffix replay) must produce byte-identical visible state — digest
// equivalence against un-truncated genesis replay for all four workloads
// and both storage families, manifest fallback past manual corruption
// (a damaged checkpoint must never be preferred over an older valid one),
// and the recovery scan diagnostics (no-log vs torn-tail vs
// corrupt-interior, with the damage position reported).

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "driver/window_driver.h"
#include "occ/occ_engine.h"
#include "sv/sv_executor.h"
#include "wal/catalog.h"
#include "wal/checkpoint.h"
#include "wal/log_manager.h"
#include "wal/recovery.h"
#include "wal/state_hash.h"
#include "workloads/wal_registry.h"

namespace mv3c {
namespace {

namespace fs = std::filesystem;

class WalCkptTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::path(::testing::TempDir()) /
           ("wal_ckpt_" +
            std::string(
                ::testing::UnitTest::GetInstance()->current_test_info()->name()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  /// Tiny segments force rotation so truncation has files to delete.
  wal::WalConfig Config(uint64_t segment_bytes = 4096) {
    wal::WalConfig c;
    c.dir = dir_.string();
    c.ack = wal::WalConfig::Ack::kAsync;
    c.segment_bytes = segment_bytes;
    return c;
  }

  wal::CheckpointConfig CkptConfig(bool truncate) {
    wal::CheckpointConfig c;
    c.dir = dir_.string();
    c.interval_ms = 0;  // manual TakeCheckpoint only
    c.truncate_wal = truncate;
    return c;
  }

  uint64_t CountWalSegments() {
    uint64_t n = 0;
    for (const auto& e : fs::directory_iterator(dir_)) {
      const std::string name = e.path().filename().string();
      if (name.rfind("wal-", 0) == 0) ++n;
    }
    return n;
  }

  fs::path dir_;
};

// --- Banking: truncation actually deletes history and recovery still
// lands on the live state -------------------------------------------------

TEST_F(WalCkptTest, BankingTruncationSafety) {
  constexpr int64_t kAccounts = 100;
  constexpr int64_t kInitial = 10'000;

  TransactionManager mgr;
  mgr.EnableWal(Config());
  banking::BankingDb db(&mgr, kAccounts, kInitial);
  wal::Catalog cat;
  RegisterWalTables(cat, db);
  db.Load();

  uint64_t truncated = 0;
  {
    wal::Checkpointer ck(CkptConfig(/*truncate=*/true), mgr.wal(),
                         cat.CheckpointSourceProvider());
    banking::TransferGenerator gen(kAccounts, 100, /*seed=*/21);
    Mv3cExecutor e(&mgr);
    for (int i = 1; i <= 1500; ++i) {
      (void)e.Run(banking::Mv3cTransferMoney(db, gen.Next()));
      if (i % 300 == 0) {
        ASSERT_TRUE(mgr.wal()->FlushNow());
        ASSERT_TRUE(ck.TakeCheckpoint()) << "round " << i / 300;
      }
    }
    EXPECT_EQ(ck.published_seq(), 5u);
    const obs::MetricsSnapshot ms = ck.metrics().Snapshot();
    truncated = ms.Value("ckpt_wal_segments_truncated");
    EXPECT_EQ(ms.Value("ckpt_rounds"), 5u);
    EXPECT_EQ(ms.Value("ckpt_failures"), 0u);
    EXPECT_GT(ms.Value("ckpt_records"), 0u);
    // retain=2: checkpoints 1..3 were retired.
    EXPECT_EQ(ms.Value("ckpt_retired"), 3u);
  }
  // The point of the exercise: WAL history is GONE (the 4KB segments the
  // run rotated through were deleted up to checkpoint 4's cut).
  EXPECT_GT(truncated, 0u);
  const uint64_t total_segments =
      mgr.wal()->metrics().Snapshot().Value("wal_segments");
  EXPECT_LT(CountWalSegments(), total_segments);

  ASSERT_TRUE(mgr.wal()->FlushNow());
  mgr.DisableWal();
  const wal::TableDigest before = wal::DigestMvccTable(db.accounts);
  const int64_t total_before = db.TotalBalance();
  EXPECT_EQ(total_before, kAccounts * kInitial);

  // Genesis replay is now impossible by construction; two-phase recovery
  // must reproduce the exact visible state from checkpoint 5 + suffix.
  TransactionManager mgr2;
  banking::BankingDb db2(&mgr2, kAccounts, kInitial);
  wal::Catalog cat2;
  RegisterWalTables(cat2, db2);
  const wal::RecoveryReport rep = cat2.RecoverWithCheckpoints(dir_.string());
  EXPECT_TRUE(rep.used_checkpoint);
  EXPECT_EQ(rep.checkpoint_seq, 5u);
  EXPECT_EQ(rep.manifests_skipped, 0u);
  EXPECT_EQ(rep.state, wal::LogDirState::kClean) << rep.stop_reason;
  EXPECT_GT(rep.checkpoint_records_loaded, 0u);
  EXPECT_EQ(wal::DigestMvccTable(db2.accounts), before);
  EXPECT_EQ(db2.TotalBalance(), total_before);

  // The recovered clock is past both the checkpoint and the suffix: new
  // transactions run against the recovered state.
  banking::TransferParams p;
  p.from = 1;
  p.to = 2;
  p.amount = 10;
  Mv3cExecutor e2(&mgr2);
  ASSERT_EQ(e2.Run(banking::Mv3cTransferMoney(db2, p)),
            StepResult::kCommitted);
  EXPECT_EQ(db2.TotalBalance(), total_before);
}

// --- Digest equivalence: checkpoint+suffix vs genesis replay of the SAME
// un-truncated log, per workload ------------------------------------------

/// Shared postcondition bundle for the per-workload equivalence tests.
void ExpectUsedCheckpoint(const wal::RecoveryReport& rep) {
  EXPECT_TRUE(rep.used_checkpoint);
  EXPECT_EQ(rep.manifests_skipped, 0u);
  EXPECT_EQ(rep.records_skipped_unknown_table, 0u);
  EXPECT_EQ(rep.state, wal::LogDirState::kClean) << rep.stop_reason;
}

TEST_F(WalCkptTest, BankingEquivalenceVsGenesis) {
  constexpr int64_t kAccounts = 100;
  constexpr int64_t kInitial = 10'000;
  TransactionManager mgr;
  mgr.EnableWal(Config());
  banking::BankingDb db(&mgr, kAccounts, kInitial);
  wal::Catalog cat;
  RegisterWalTables(cat, db);
  db.Load();
  {
    wal::Checkpointer ck(CkptConfig(/*truncate=*/false), mgr.wal(),
                         cat.CheckpointSourceProvider());
    banking::TransferGenerator gen(kAccounts, 100, /*seed=*/31);
    Mv3cExecutor e(&mgr);
    for (int i = 1; i <= 900; ++i) {
      (void)e.Run(banking::Mv3cTransferMoney(db, gen.Next()));
      if (i % 400 == 0) { ASSERT_TRUE(ck.TakeCheckpoint()); }
    }
  }
  ASSERT_TRUE(mgr.wal()->FlushNow());
  mgr.DisableWal();
  const wal::TableDigest live = wal::DigestMvccTable(db.accounts);

  // Path A: two-phase. The suffix holds commits past the second pin; the
  // filter must skip everything the snapshot already captured.
  TransactionManager mgr_a;
  banking::BankingDb db_a(&mgr_a, kAccounts, kInitial);
  wal::Catalog cat_a;
  RegisterWalTables(cat_a, db_a);
  const wal::RecoveryReport rep_a =
      cat_a.RecoverWithCheckpoints(dir_.string());
  ExpectUsedCheckpoint(rep_a);
  EXPECT_EQ(rep_a.checkpoint_seq, 2u);
  EXPECT_EQ(wal::DigestMvccTable(db_a.accounts), live);

  // Path B: genesis replay of the full (un-truncated) log.
  TransactionManager mgr_b;
  banking::BankingDb db_b(&mgr_b, kAccounts, kInitial);
  wal::Catalog cat_b;
  RegisterWalTables(cat_b, db_b);
  const wal::RecoveryReport rep_b = cat_b.Recover(dir_.string());
  EXPECT_FALSE(rep_b.torn_tail) << rep_b.stop_reason;
  EXPECT_EQ(wal::DigestMvccTable(db_b.accounts), live);
}

TEST_F(WalCkptTest, TradingEquivalenceVsGenesis) {
  TransactionManager mgr;
  mgr.EnableWal(Config());
  trading::TradingDb db(&mgr, /*n_securities=*/300, /*n_customers=*/120);
  wal::Catalog cat;
  RegisterWalTables(cat, db);
  db.Load();
  {
    wal::Checkpointer ck(CkptConfig(/*truncate=*/false), mgr.wal(),
                         cat.CheckpointSourceProvider());
    trading::TradingGenerator gen(db, /*alpha=*/0.8,
                                  /*trade_order_percent=*/70, /*seed=*/19);
    Mv3cExecutor e(&mgr);
    for (int i = 1; i <= 600; ++i) {
      const auto t = gen.Next();
      if (t.is_trade_order) {
        (void)e.Run(trading::Mv3cTradeOrder(db, t.order));
      } else {
        (void)e.Run(trading::Mv3cPriceUpdate(db, t.price));
      }
      if (i % 250 == 0) { ASSERT_TRUE(ck.TakeCheckpoint()); }
    }
  }
  ASSERT_TRUE(mgr.wal()->FlushNow());
  mgr.DisableWal();
  auto digest_all = [](trading::TradingDb& d) {
    return std::vector<wal::TableDigest>{
        wal::DigestMvccTable(d.securities), wal::DigestMvccTable(d.customers),
        wal::DigestMvccTable(d.trades), wal::DigestMvccTable(d.trade_lines)};
  };
  const std::vector<wal::TableDigest> live = digest_all(db);

  TransactionManager mgr_a;
  trading::TradingDb db_a(&mgr_a, 300, 120);
  wal::Catalog cat_a;
  RegisterWalTables(cat_a, db_a);
  ExpectUsedCheckpoint(cat_a.RecoverWithCheckpoints(dir_.string()));
  EXPECT_EQ(digest_all(db_a), live);

  TransactionManager mgr_b;
  trading::TradingDb db_b(&mgr_b, 300, 120);
  wal::Catalog cat_b;
  RegisterWalTables(cat_b, db_b);
  const wal::RecoveryReport rep_b = cat_b.Recover(dir_.string());
  EXPECT_FALSE(rep_b.torn_tail) << rep_b.stop_reason;
  EXPECT_EQ(digest_all(db_b), live);
}

TEST_F(WalCkptTest, TatpEquivalenceVsGenesis) {
  constexpr uint64_t kSubs = 600;
  TransactionManager mgr;
  mgr.EnableWal(Config());
  tatp::TatpDb db(&mgr, kSubs);
  wal::Catalog cat;
  RegisterWalTables(cat, db);
  db.Load(3);
  {
    wal::Checkpointer ck(CkptConfig(/*truncate=*/false), mgr.wal(),
                         cat.CheckpointSourceProvider());
    tatp::TatpGenerator gen(kSubs, 77);
    Mv3cExecutor e(&mgr);
    for (int i = 1; i <= 1200; ++i) {
      (void)e.Run(tatp::Mv3cTatpProgram(db, gen.Next()));
      if (i % 500 == 0) { ASSERT_TRUE(ck.TakeCheckpoint()); }
    }
  }
  ASSERT_TRUE(mgr.wal()->FlushNow());
  mgr.DisableWal();
  auto digest_all = [](tatp::TatpDb& d) {
    return std::vector<wal::TableDigest>{
        wal::DigestMvccTable(d.subscribers),
        wal::DigestMvccTable(d.access_info),
        wal::DigestMvccTable(d.special_facilities),
        wal::DigestMvccTable(d.call_forwarding)};
  };
  const std::vector<wal::TableDigest> live = digest_all(db);

  // TATP deletes call-forwarding rows: the checkpoint must carry their
  // tombstones (a missing tombstone would resurrect the row — or worse,
  // leave the recovered clock below the deletion's timestamp).
  TransactionManager mgr_a;
  tatp::TatpDb db_a(&mgr_a, kSubs);
  wal::Catalog cat_a;
  RegisterWalTables(cat_a, db_a);
  ExpectUsedCheckpoint(cat_a.RecoverWithCheckpoints(dir_.string()));
  EXPECT_EQ(digest_all(db_a), live);

  TransactionManager mgr_b;
  tatp::TatpDb db_b(&mgr_b, kSubs);
  wal::Catalog cat_b;
  RegisterWalTables(cat_b, db_b);
  const wal::RecoveryReport rep_b = cat_b.Recover(dir_.string());
  EXPECT_FALSE(rep_b.torn_tail) << rep_b.stop_reason;
  EXPECT_EQ(digest_all(db_b), live);
}

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

TEST_F(WalCkptTest, TpccEquivalenceVsGenesis) {
  TransactionManager mgr;
  mgr.EnableWal(Config(/*segment_bytes=*/64 << 10));
  tpcc::TpccDb db(&mgr, SmallScale());
  wal::Catalog cat;
  RegisterWalTables(cat, db);
  db.Load(7);
  {
    wal::Checkpointer ck(CkptConfig(/*truncate=*/false), mgr.wal(),
                         cat.CheckpointSourceProvider());
    tpcc::TpccGenerator gen(db.scale(), 17);
    Mv3cExecutor e(&mgr);
    for (int i = 1; i <= 300; ++i) {
      (void)e.Run(tpcc::TpccProgram(db, gen.Next()));
      if (i % 120 == 0) { ASSERT_TRUE(ck.TakeCheckpoint()); }
    }
  }
  ASSERT_TRUE(mgr.wal()->FlushNow());
  mgr.DisableWal();
  auto digest_all = [](tpcc::TpccDb& d) {
    return std::vector<wal::TableDigest>{
        wal::DigestMvccTable(d.warehouses), wal::DigestMvccTable(d.districts),
        wal::DigestMvccTable(d.customers),  wal::DigestMvccTable(d.history),
        wal::DigestMvccTable(d.orders),     wal::DigestMvccTable(d.new_orders),
        wal::DigestMvccTable(d.order_lines), wal::DigestMvccTable(d.items),
        wal::DigestMvccTable(d.stock)};
  };
  const std::vector<wal::TableDigest> live = digest_all(db);

  // Nine tables: this is the case that exercises parallel per-table load.
  TransactionManager mgr_a;
  tpcc::TpccDb db_a(&mgr_a, SmallScale());
  wal::Catalog cat_a;
  RegisterWalTables(cat_a, db_a);
  const wal::RecoveryReport rep_a =
      cat_a.RecoverWithCheckpoints(dir_.string());
  ExpectUsedCheckpoint(rep_a);
  EXPECT_EQ(rep_a.checkpoint_tables_loaded, 9u);
  EXPECT_EQ(digest_all(db_a), live);

  TransactionManager mgr_b;
  tpcc::TpccDb db_b(&mgr_b, SmallScale());
  wal::Catalog cat_b;
  RegisterWalTables(cat_b, db_b);
  const wal::RecoveryReport rep_b = cat_b.Recover(dir_.string());
  EXPECT_FALSE(rep_b.torn_tail) << rep_b.stop_reason;
  EXPECT_EQ(digest_all(db_b), live);
}

// --- Single-version (OCC): the checkpoint captures the unlogged
// population, so recovery no longer needs the reload-then-replay crutch --

TEST_F(WalCkptTest, SvTpccCheckpointCapturesPopulation) {
  const tpcc::TpccScale scale = SmallScale();
  wal::WalConfig config = Config(/*segment_bytes=*/64 << 10);

  tpcc::SingleVersionTpccDb db(scale);
  wal::Catalog cat;
  RegisterWalTables(cat, db);
  {
    wal::LogManager lm(config);
    OccEngine engine;
    engine.set_wal(&lm);
    db.Load(7);  // non-transactional: NOT in the log
    wal::Checkpointer ck(CkptConfig(/*truncate=*/false), &lm,
                         cat.CheckpointSourceProvider());
    tpcc::TpccGenerator gen(scale, 23);
    SvExecutor<OccEngine> e(&engine);
    for (int i = 1; i <= 300; ++i) {
      (void)e.Run(tpcc::TpccProgram(db, gen.Next()));
      if (i % 120 == 0) { ASSERT_TRUE(ck.TakeCheckpoint()); }
    }
    ASSERT_TRUE(lm.FlushNow());
    lm.Stop();
  }
  auto digest_all = [](tpcc::SingleVersionTpccDb& d) {
    return std::vector<wal::TableDigest>{
        wal::DigestSvTable(d.warehouses),  wal::DigestSvTable(d.districts),
        wal::DigestSvTable(d.customers),   wal::DigestSvTable(d.history),
        wal::DigestSvTable(d.orders),      wal::DigestSvTable(d.new_orders),
        wal::DigestSvTable(d.order_lines), wal::DigestSvTable(d.items),
        wal::DigestSvTable(d.stock)};
  };
  const std::vector<wal::TableDigest> live = digest_all(db);

  // Two-phase recovery into an UNLOADED database: the fuzzy scan captured
  // the population, the if-newer suffix replay reconciles the rest.
  tpcc::SingleVersionTpccDb db_a(scale);
  wal::Catalog cat_a;
  RegisterWalTables(cat_a, db_a);
  ExpectUsedCheckpoint(cat_a.RecoverWithCheckpoints(dir_.string()));
  EXPECT_EQ(digest_all(db_a), live);

  // Genesis replay still needs the seed reload (checkpoint-style crutch).
  tpcc::SingleVersionTpccDb db_b(scale);
  db_b.Load(7);
  wal::Catalog cat_b;
  RegisterWalTables(cat_b, db_b);
  const wal::RecoveryReport rep_b = cat_b.Recover(dir_.string());
  EXPECT_FALSE(rep_b.torn_tail) << rep_b.stop_reason;
  EXPECT_EQ(digest_all(db_b), live);
}

// --- Manifest fallback: a damaged checkpoint must never be preferred
// over an older valid one ---------------------------------------------------

class WalCkptFallbackTest : public WalCkptTest {
 protected:
  /// Two published checkpoints over a banking history, log un-truncated so
  /// every recovery flavor stays possible. Returns the live digest.
  wal::TableDigest WriteHistoryWithTwoCheckpoints() {
    TransactionManager mgr;
    mgr.EnableWal(Config());
    banking::BankingDb db(&mgr, 100, 10'000);
    wal::Catalog cat;
    RegisterWalTables(cat, db);
    db.Load();
    {
      wal::Checkpointer ck(CkptConfig(/*truncate=*/false), mgr.wal(),
                           cat.CheckpointSourceProvider());
      banking::TransferGenerator gen(100, 100, /*seed=*/51);
      Mv3cExecutor e(&mgr);
      for (int i = 1; i <= 800; ++i) {
        (void)e.Run(banking::Mv3cTransferMoney(db, gen.Next()));
        if (i % 350 == 0) { EXPECT_TRUE(ck.TakeCheckpoint()); }
      }
      EXPECT_EQ(ck.published_seq(), 2u);
    }
    EXPECT_TRUE(mgr.wal()->FlushNow());
    mgr.DisableWal();
    return wal::DigestMvccTable(db.accounts);
  }

  void FlipByte(const fs::path& p, std::streamoff from_end) {
    std::fstream f(p, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.good()) << p;
    f.seekg(-from_end, std::ios::end);
    char b;
    f.read(&b, 1);
    f.seekp(-from_end, std::ios::end);
    b = static_cast<char>(b ^ 0x01);
    f.write(&b, 1);
  }

  struct Recovered {
    wal::RecoveryReport report;
    wal::TableDigest digest;
    int64_t total = 0;
  };
  Recovered Recover() {
    Recovered r;
    TransactionManager mgr;
    banking::BankingDb db(&mgr, 100, 10'000);
    wal::Catalog cat;
    RegisterWalTables(cat, db);
    r.report = cat.RecoverWithCheckpoints(dir_.string());
    r.digest = wal::DigestMvccTable(db.accounts);
    r.total = db.TotalBalance();
    return r;
  }
};

TEST_F(WalCkptFallbackTest, DamagedSegmentFallsBackToOlderCheckpoint) {
  const wal::TableDigest live = WriteHistoryWithTwoCheckpoints();
  // Flip one byte inside checkpoint 2's only table segment: its manifest
  // still reads fine, but the whole-file CRC no longer matches.
  FlipByte(dir_ / wal::CkptDirName(2) / wal::CkptTableFileName(1), 20);
  const Recovered r = Recover();
  EXPECT_TRUE(r.report.used_checkpoint);
  EXPECT_EQ(r.report.checkpoint_seq, 1u);   // fell back
  EXPECT_EQ(r.report.manifests_skipped, 1u);
  EXPECT_EQ(r.digest, live);  // suffix past cut 1 covers the gap
  EXPECT_EQ(r.total, 100 * 10'000);
}

TEST_F(WalCkptFallbackTest, TornManifestFallsBackToOlderCheckpoint) {
  const wal::TableDigest live = WriteHistoryWithTwoCheckpoints();
  // Chop the newest manifest mid-file, as a crash during a (non-atomic)
  // direct write would; ReadManifest must treat it as absent.
  const fs::path man = dir_ / wal::ManifestName(2);
  fs::resize_file(man, fs::file_size(man) - 7);
  const Recovered r = Recover();
  EXPECT_TRUE(r.report.used_checkpoint);
  EXPECT_EQ(r.report.checkpoint_seq, 1u);
  EXPECT_EQ(r.report.manifests_skipped, 1u);
  EXPECT_EQ(r.digest, live);
}

TEST_F(WalCkptFallbackTest, AllCheckpointsDamagedFallsBackToGenesis) {
  const wal::TableDigest live = WriteHistoryWithTwoCheckpoints();
  FlipByte(dir_ / wal::CkptDirName(2) / wal::CkptTableFileName(1), 20);
  FlipByte(dir_ / wal::CkptDirName(1) / wal::CkptTableFileName(1), 20);
  const Recovered r = Recover();
  EXPECT_FALSE(r.report.used_checkpoint);
  EXPECT_EQ(r.report.manifests_skipped, 2u);
  // The log was never truncated, so genesis replay reproduces everything.
  EXPECT_EQ(r.digest, live);
  EXPECT_EQ(r.total, 100 * 10'000);
}

// --- Recovery diagnostics: the scan names the damage and its position ----

class WalCkptDiagnosticsTest : public WalCkptFallbackTest {};

TEST_F(WalCkptDiagnosticsTest, EmptyDirReportsNoLog) {
  TransactionManager mgr;
  banking::BankingDb db(&mgr, 10, 100);
  wal::Catalog cat;
  RegisterWalTables(cat, db);
  const wal::RecoveryReport rep = cat.Recover(dir_.string());
  EXPECT_EQ(rep.state, wal::LogDirState::kNoLog);
  EXPECT_FALSE(rep.torn_tail);
  EXPECT_EQ(rep.records_applied, 0u);
  EXPECT_NE(rep.Summary().find("no-log"), std::string::npos)
      << rep.Summary();
}

TEST_F(WalCkptDiagnosticsTest, DamageInLastSegmentIsTornTail) {
  (void)WriteHistoryWithTwoCheckpoints();
  // Damage the LAST segment (tiny segment_bytes => several of them).
  std::vector<fs::path> segs;
  for (const auto& e : fs::directory_iterator(dir_)) {
    if (e.path().filename().string().rfind("wal-", 0) == 0) {
      segs.push_back(e.path());
    }
  }
  ASSERT_GE(segs.size(), 2u);
  std::sort(segs.begin(), segs.end());
  fs::resize_file(segs.back(), fs::file_size(segs.back()) - 11);
  TransactionManager mgr;
  banking::BankingDb db(&mgr, 100, 10'000);
  wal::Catalog cat;
  RegisterWalTables(cat, db);
  const wal::RecoveryReport rep = cat.Recover(dir_.string());
  EXPECT_EQ(rep.state, wal::LogDirState::kTornTail) << rep.stop_reason;
  EXPECT_EQ(rep.stop_segment, segs.back().filename().string());
  // stop_offset 0 is legitimate (the chop can land inside the segment
  // header of a freshly rotated file); the reason says which layer tore.
  EXPECT_FALSE(rep.stop_reason.empty());
  EXPECT_NE(rep.Summary().find("torn-tail"), std::string::npos)
      << rep.Summary();
  // A torn tail is still a consistent prefix.
  EXPECT_EQ(db.TotalBalance(), 100 * 10'000);
}

TEST_F(WalCkptDiagnosticsTest, DamageInEarlierSegmentIsCorruptInterior) {
  (void)WriteHistoryWithTwoCheckpoints();
  std::vector<fs::path> segs;
  for (const auto& e : fs::directory_iterator(dir_)) {
    if (e.path().filename().string().rfind("wal-", 0) == 0) {
      segs.push_back(e.path());
    }
  }
  ASSERT_GE(segs.size(), 2u);
  std::sort(segs.begin(), segs.end());
  // Flip a byte in the middle of the FIRST segment: acknowledged history
  // damaged at rest, which the diagnosis must distinguish from crash
  // residue.
  FlipByte(segs.front(),
           static_cast<std::streamoff>(fs::file_size(segs.front()) / 2));
  TransactionManager mgr;
  banking::BankingDb db(&mgr, 100, 10'000);
  wal::Catalog cat;
  RegisterWalTables(cat, db);
  const wal::RecoveryReport rep = cat.Recover(dir_.string());
  EXPECT_EQ(rep.state, wal::LogDirState::kCorruptInterior)
      << rep.stop_reason;
  EXPECT_EQ(rep.stop_segment, segs.front().filename().string());
  EXPECT_NE(rep.Summary().find("corrupt-interior"), std::string::npos)
      << rep.Summary();
}

// With a checkpoint present, damage in history the checkpoint subsumes
// stops the physical scan (validation is deliberately not skipped for
// subsumed blocks), but recovery still lands on the checkpoint image — a
// consistent state at or past everything the damaged epochs held. The
// corrupt-interior diagnosis is what tells the operator the suffix was
// cut short.
TEST_F(WalCkptDiagnosticsTest, CheckpointOutlivesCorruptSubsumedHistory) {
  (void)WriteHistoryWithTwoCheckpoints();
  std::vector<fs::path> segs;
  for (const auto& e : fs::directory_iterator(dir_)) {
    if (e.path().filename().string().rfind("wal-", 0) == 0) {
      segs.push_back(e.path());
    }
  }
  ASSERT_GE(segs.size(), 3u);
  std::sort(segs.begin(), segs.end());
  // Damage the OLDEST segment — epochs far below checkpoint 2's cut.
  FlipByte(segs.front(),
           static_cast<std::streamoff>(fs::file_size(segs.front()) / 2));
  const Recovered r = Recover();
  EXPECT_TRUE(r.report.used_checkpoint);
  EXPECT_EQ(r.report.checkpoint_seq, 2u);
  EXPECT_EQ(r.report.state, wal::LogDirState::kCorruptInterior);
  // The checkpoint is a transaction-consistent snapshot, so the recovered
  // state (checkpoint image, suffix cut at the damage) still conserves.
  EXPECT_EQ(r.total, 100 * 10'000);
  EXPECT_GT(r.report.checkpoint_records_loaded, 0u);
}

}  // namespace
}  // namespace mv3c
