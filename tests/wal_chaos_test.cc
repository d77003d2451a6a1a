// Crash-chaos tests for the WAL: seeded failpoints inject the three
// classic durability faults (torn block write, crash between append and
// fsync, fsync failure) into a live banking run, and recovery of whatever
// reached the disk must yield a transaction-consistent prefix — the
// conservation invariant (total balance unchanged by any transfer prefix)
// is the consistency oracle. The second half does the same to the fuzzy
// checkpointer: a crash at any point of a checkpoint round (mid-segment,
// before the manifest, after the manifest but before truncation, fsync
// failure) must leave recovery on a consistent prefix, and a half-written
// checkpoint must never be preferred over an older valid one.

#include <cstdint>
#include <filesystem>
#include <string>

#include <gtest/gtest.h>

#include "common/failpoint.h"
#include "wal/catalog.h"
#include "wal/checkpoint.h"
#include "wal/log_manager.h"
#include "wal/state_hash.h"
#include "workloads/wal_registry.h"

namespace mv3c {
namespace {

namespace fs = std::filesystem;
namespace fp = ::mv3c::failpoint;

constexpr int64_t kAccounts = 100;
constexpr int64_t kInitial = 10'000;
constexpr int64_t kTotal = kAccounts * kInitial;

class WalChaosTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::path(::testing::TempDir()) /
           ("wal_chaos_" +
            std::string(
                ::testing::UnitTest::GetInstance()->current_test_info()->name()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    fp::Reset(0xC4A05'5EEDull);
  }
  void TearDown() override {
    fp::DisarmAll();
    fs::remove_all(dir_);
  }

  struct CrashRun {
    uint64_t durable_epoch_at_crash = 0;
    uint64_t committed_after_arm = 0;
    uint64_t flush_failures = 0;
  };

  /// Runs banking with the WAL on: establishes a durable prefix, arms
  /// `site` to fire on the next non-empty flush round, keeps committing
  /// until the log crashes.
  CrashRun RunUntilCrash(fp::Site site) {
    CrashRun out;
    TransactionManager mgr;
    wal::WalConfig cfg;
    cfg.dir = dir_.string();
    cfg.ack = wal::WalConfig::Ack::kAsync;
    cfg.epoch_interval_us = 50;
    cfg.partitions = partitions_;  // 0 = auto (env); fixtures may pin
    mgr.EnableWal(cfg);
    banking::BankingDb db(&mgr, kAccounts, kInitial);
    wal::Catalog cat;
    RegisterWalTables(cat, db);
    db.Load();

    banking::TransferGenerator gen(kAccounts, 100, /*seed=*/11);
    Mv3cExecutor e(&mgr);
    for (int i = 0; i < 100; ++i) {
      (void)e.Run(banking::Mv3cTransferMoney(db, gen.Next()));
    }
    // The pre-fault history is durable; everything after this point may
    // be lost, but never torn mid-transaction.
    EXPECT_TRUE(mgr.wal()->FlushNow());
    EXPECT_FALSE(mgr.wal()->crashed());

    fp::Config fc;
    fc.action = fp::Action::kFail;
    fc.probability = 1.0;
    fc.max_trips = 1;
    fp::Arm(site, fc);

    // Commit until the writer hits the fault (it only evaluates the site
    // on non-empty rounds, so committing guarantees progress).
    for (int i = 0; i < 5000 && !mgr.wal()->crashed(); ++i) {
      if (e.Run(banking::Mv3cTransferMoney(db, gen.Next())) ==
          StepResult::kCommitted) {
        ++out.committed_after_arm;
      }
    }
    // The commit loop can outrun the writer thread: when it gives up,
    // committed records may still sit in the buffers with the fault due on
    // the writer's next wakeup. Force rounds until the armed site trips —
    // WaitDurable returns on crash, and a round over non-empty buffers
    // must evaluate the site (probability 1.0), so this cannot spin.
    while (!mgr.wal()->crashed()) (void)mgr.wal()->FlushNow();
    EXPECT_TRUE(mgr.wal()->crashed());
    EXPECT_EQ(fp::Trips(site), 1u);
    // Crashed log: durability waits must fail, not hang.
    EXPECT_FALSE(mgr.wal()->WaitDurable(mgr.wal()->current_epoch()));
    EXPECT_FALSE(mgr.wal()->FlushNow());
    out.durable_epoch_at_crash = mgr.wal()->durable_epoch();
    out.flush_failures =
        mgr.wal()->metrics().Snapshot().Value("wal_flush_failures");
    // The in-memory database is still live and consistent even though
    // durability is gone (commits outran the log, as async ack allows).
    EXPECT_EQ(db.TotalBalance(), kTotal);
    mgr.DisableWal();
    return out;
  }

  struct Recovered {
    wal::RecoveryReport report;
    int64_t total = 0;
    uint64_t live_rows = 0;
  };

  Recovered Recover() {
    Recovered r;
    TransactionManager mgr;
    banking::BankingDb db(&mgr, kAccounts, kInitial);
    wal::Catalog cat;
    RegisterWalTables(cat, db);
    r.report = cat.Recover(dir_.string());
    r.total = db.TotalBalance();
    r.live_rows = wal::DigestMvccTable(db.accounts).live_rows;
    return r;
  }

  /// The shared postcondition: recovery lands on a transaction-consistent
  /// prefix that includes at least the pre-fault durable history.
  void ExpectConsistentPrefix(const Recovered& r, const CrashRun& run) {
    EXPECT_GE(r.report.max_epoch, 1u);
    EXPECT_GT(r.report.records_applied, 0u);
    EXPECT_EQ(r.report.records_skipped_unknown_table, 0u);
    // The population transaction and the 100 pre-fault transfers were
    // acknowledged durable, so every account row exists and conservation
    // holds regardless of where the fault cut the tail.
    EXPECT_EQ(r.live_rows, static_cast<uint64_t>(kAccounts) + 1);
    EXPECT_EQ(r.total, kTotal);
    // Nothing beyond what the log acknowledged... except for the
    // append-then-crash faults, where one written-but-unacknowledged
    // block may legitimately survive (checked per-site below).
    (void)run;
  }

  fs::path dir_;
  uint32_t partitions_ = 0;
};

TEST_F(WalChaosTest, TornBlockWrite) {
  const CrashRun run = RunUntilCrash(fp::Site::kWalShortWrite);
  const Recovered r = Recover();
  // Half a block reached the file: recovery must detect the tear and cut
  // exactly there. (LE, not EQ: empty rounds advance the durable epoch
  // without writing a block.)
  EXPECT_TRUE(r.report.torn_tail) << r.report.stop_reason;
  EXPECT_LE(r.report.max_epoch, run.durable_epoch_at_crash);
  ExpectConsistentPrefix(r, run);
}

TEST_F(WalChaosTest, CrashBetweenAppendAndFsync) {
  const CrashRun run = RunUntilCrash(fp::Site::kWalCrashAfterAppend);
  const Recovered r = Recover();
  // The block's bytes reached the file intact but were never fsynced: on
  // a real crash either outcome is legal. Reading the surviving file, the
  // block is whole, so recovery replays one epoch past the acknowledged
  // durable point — allowed, as long as the result is still a consistent
  // prefix.
  EXPECT_FALSE(r.report.torn_tail) << r.report.stop_reason;
  EXPECT_GE(r.report.max_epoch, run.durable_epoch_at_crash);
  ExpectConsistentPrefix(r, run);
}

TEST_F(WalChaosTest, FsyncFailureFreezesLog) {
  const CrashRun run = RunUntilCrash(fp::Site::kWalFsyncFail);
  EXPECT_EQ(run.flush_failures, 1u);
  const Recovered r = Recover();
  EXPECT_FALSE(r.report.torn_tail) << r.report.stop_reason;
  EXPECT_GE(r.report.max_epoch, run.durable_epoch_at_crash);
  ExpectConsistentPrefix(r, run);
}

// --- Partitioned log: one stream faults, the epoch must not be durable ----

/// Same fault sites, but with the log split across four partition streams.
/// The armed failpoint trips in exactly one partition's flusher (whichever
/// evaluates it first — it may hit a data block or a heartbeat). The round
/// barrier then fails the whole round, so the epoch is never reported
/// durable even though the other three streams may hold intact blocks for
/// it; recovery's min-over-streams cut must discard that overhang and land
/// on a consistent prefix.
class WalPartitionedChaosTest : public WalChaosTest {
 protected:
  void SetUp() override {
    WalChaosTest::SetUp();
    partitions_ = 4;
  }
};

TEST_F(WalPartitionedChaosTest, OnePartitionTornWrite) {
  const CrashRun run = RunUntilCrash(fp::Site::kWalShortWrite);
  const Recovered r = Recover();
  EXPECT_EQ(r.report.streams, 4u);
  EXPECT_TRUE(r.report.torn_tail) << r.report.stop_reason;
  // The torn stream caps the cut at the epoch before the failed round, so
  // nothing past the last acknowledged durable epoch is applied even if the
  // other streams carry intact blocks for the failed round.
  EXPECT_LE(r.report.max_epoch, run.durable_epoch_at_crash);
  EXPECT_LE(r.report.durable_cut, run.durable_epoch_at_crash);
  ExpectConsistentPrefix(r, run);
}

TEST_F(WalPartitionedChaosTest, OnePartitionCrashAfterAppend) {
  const CrashRun run = RunUntilCrash(fp::Site::kWalCrashAfterAppend);
  const Recovered r = Recover();
  EXPECT_EQ(r.report.streams, 4u);
  // Every stream wrote its block intact before the simulated crash, so no
  // stream tears and the cut may legitimately run past the durable point.
  EXPECT_FALSE(r.report.torn_tail) << r.report.stop_reason;
  EXPECT_GE(r.report.max_epoch, run.durable_epoch_at_crash);
  ExpectConsistentPrefix(r, run);
}

TEST_F(WalPartitionedChaosTest, OnePartitionFsyncFailure) {
  const CrashRun run = RunUntilCrash(fp::Site::kWalFsyncFail);
  EXPECT_EQ(run.flush_failures, 1u);
  const Recovered r = Recover();
  EXPECT_EQ(r.report.streams, 4u);
  EXPECT_FALSE(r.report.torn_tail) << r.report.stop_reason;
  EXPECT_GE(r.report.max_epoch, run.durable_epoch_at_crash);
  ExpectConsistentPrefix(r, run);
}

// --- Crash mid-checkpoint -------------------------------------------------

/// Harness for the checkpoint fault sites: establish one good checkpoint,
/// run more history, arm a checkpoint failpoint, attempt a second round
/// (which dies at the armed site), run yet more history, stop cleanly, and
/// recover with the two-phase path. Whatever the fault, recovery must land
/// exactly on the live pre-stop state: the WAL itself never crashed, so
/// nothing durable may be lost — a botched checkpoint costs only the
/// checkpoint.
class WalCkptChaosTest : public WalChaosTest {
 protected:
  struct CkptCrash {
    uint64_t published_after_fault = 0;  // 1 = round 2 died pre-publish
    wal::TableDigest live_digest{};
    int64_t live_total = 0;
  };

  CkptCrash RunWithCheckpointFault(fp::Site site) {
    CkptCrash out;
    TransactionManager mgr;
    wal::WalConfig cfg;
    cfg.dir = dir_.string();
    cfg.ack = wal::WalConfig::Ack::kAsync;
    cfg.segment_bytes = 4096;  // rotate often so truncation is real
    mgr.EnableWal(cfg);
    banking::BankingDb db(&mgr, kAccounts, kInitial);
    wal::Catalog cat;
    RegisterWalTables(cat, db);
    db.Load();

    wal::CheckpointConfig ck_cfg;
    ck_cfg.dir = dir_.string();
    ck_cfg.interval_ms = 0;  // manual rounds only
    wal::Checkpointer ck(ck_cfg, mgr.wal(), cat.CheckpointSourceProvider());

    banking::TransferGenerator gen(kAccounts, 100, /*seed=*/11);
    Mv3cExecutor e(&mgr);
    for (int i = 0; i < 200; ++i) {
      (void)e.Run(banking::Mv3cTransferMoney(db, gen.Next()));
    }
    EXPECT_TRUE(mgr.wal()->FlushNow());
    EXPECT_TRUE(ck.TakeCheckpoint());
    EXPECT_EQ(ck.published_seq(), 1u);

    for (int i = 0; i < 200; ++i) {
      (void)e.Run(banking::Mv3cTransferMoney(db, gen.Next()));
    }
    fp::Config fc;
    fc.action = fp::Action::kFail;
    fc.probability = 1.0;
    fc.max_trips = 1;
    fp::Arm(site, fc);
    EXPECT_FALSE(ck.TakeCheckpoint());  // the round dies at the site
    EXPECT_TRUE(ck.failed());
    EXPECT_EQ(fp::Trips(site), 1u);
    EXPECT_FALSE(ck.TakeCheckpoint());  // frozen, like a crashed log
    out.published_after_fault = ck.published_seq();

    // The WAL is fine — commits keep flowing after the checkpointer died.
    EXPECT_FALSE(mgr.wal()->crashed());
    for (int i = 0; i < 100; ++i) {
      (void)e.Run(banking::Mv3cTransferMoney(db, gen.Next()));
    }
    EXPECT_TRUE(mgr.wal()->FlushNow());
    mgr.DisableWal();
    out.live_digest = wal::DigestMvccTable(db.accounts);
    out.live_total = db.TotalBalance();
    EXPECT_EQ(out.live_total, kTotal);
    return out;
  }

  struct CkptRecovered {
    wal::RecoveryReport report;
    wal::TableDigest digest{};
    int64_t total = 0;
  };

  CkptRecovered RecoverTwoPhase() {
    CkptRecovered r;
    TransactionManager mgr;
    banking::BankingDb db(&mgr, kAccounts, kInitial);
    wal::Catalog cat;
    RegisterWalTables(cat, db);
    r.report = cat.RecoverWithCheckpoints(dir_.string());
    r.digest = wal::DigestMvccTable(db.accounts);
    r.total = db.TotalBalance();
    return r;
  }

  /// The checkpoint-chaos oracle: recovery used a checkpoint, landed on
  /// the exact live state, and never counted fallback work (a debris
  /// directory without a manifest is invisible, not "skipped").
  void ExpectExactRecovery(const CkptCrash& run, uint64_t want_seq) {
    const CkptRecovered r = RecoverTwoPhase();
    EXPECT_TRUE(r.report.used_checkpoint);
    EXPECT_EQ(r.report.checkpoint_seq, want_seq);
    EXPECT_EQ(r.report.manifests_skipped, 0u);
    EXPECT_FALSE(r.report.torn_tail) << r.report.stop_reason;
    EXPECT_EQ(r.digest, run.live_digest);
    EXPECT_EQ(r.total, run.live_total);
  }
};

TEST_F(WalCkptChaosTest, CrashMidSegmentNeverPrefersDebris) {
  const CkptCrash run = RunWithCheckpointFault(fp::Site::kCkptCrashMidSegment);
  EXPECT_EQ(run.published_after_fault, 1u);
  // The half-written segment's directory is on disk — but without a
  // manifest it must be ignored, and checkpoint 1 used instead.
  EXPECT_TRUE(fs::exists(dir_ / wal::CkptDirName(2)));
  EXPECT_FALSE(fs::exists(dir_ / wal::ManifestName(2)));
  ExpectExactRecovery(run, /*want_seq=*/1);
}

TEST_F(WalCkptChaosTest, CrashBeforeManifestDiscardsRound) {
  const CkptCrash run =
      RunWithCheckpointFault(fp::Site::kCkptCrashBeforeManifest);
  EXPECT_EQ(run.published_after_fault, 1u);
  // Segments fully written, manifest never: the round simply never
  // happened as far as recovery is concerned.
  EXPECT_FALSE(fs::exists(dir_ / wal::ManifestName(2)));
  ExpectExactRecovery(run, /*want_seq=*/1);
}

TEST_F(WalCkptChaosTest, FsyncFailureFreezesCheckpointer) {
  const CkptCrash run = RunWithCheckpointFault(fp::Site::kCkptFsyncFail);
  EXPECT_EQ(run.published_after_fault, 1u);
  ExpectExactRecovery(run, /*want_seq=*/1);
}

TEST_F(WalCkptChaosTest, CrashAfterManifestBeforeTruncateKeepsBoth) {
  const CkptCrash run = RunWithCheckpointFault(
      fp::Site::kCkptCrashAfterManifestBeforeTruncate);
  // The manifest IS the commit point: checkpoint 2 was published, only
  // the (idempotent, re-doable) truncation was lost.
  EXPECT_EQ(run.published_after_fault, 2u);
  EXPECT_TRUE(fs::exists(dir_ / wal::ManifestName(2)));
  ExpectExactRecovery(run, /*want_seq=*/2);
  // And because truncation never ran, the full log survives: genesis
  // replay must agree with the two-phase path — the strongest
  // equivalence this harness can check.
  TransactionManager mgr;
  banking::BankingDb db(&mgr, kAccounts, kInitial);
  wal::Catalog cat;
  RegisterWalTables(cat, db);
  const wal::RecoveryReport rep = cat.Recover(dir_.string());
  EXPECT_FALSE(rep.torn_tail) << rep.stop_reason;
  EXPECT_EQ(wal::DigestMvccTable(db.accounts), run.live_digest);
}

// A restarted checkpointer resumes numbering past the debris and its next
// round replaces the half-written directory.
TEST_F(WalCkptChaosTest, RestartAfterMidSegmentCrashResumes) {
  TransactionManager mgr;
  wal::WalConfig cfg;
  cfg.dir = dir_.string();
  cfg.ack = wal::WalConfig::Ack::kAsync;
  mgr.EnableWal(cfg);
  banking::BankingDb db(&mgr, kAccounts, kInitial);
  wal::Catalog cat;
  RegisterWalTables(cat, db);
  db.Load();
  wal::CheckpointConfig ck_cfg;
  ck_cfg.dir = dir_.string();
  banking::TransferGenerator gen(kAccounts, 100, /*seed=*/11);
  Mv3cExecutor e(&mgr);
  {
    wal::Checkpointer ck(ck_cfg, mgr.wal(), cat.CheckpointSourceProvider());
    for (int i = 0; i < 100; ++i) {
      (void)e.Run(banking::Mv3cTransferMoney(db, gen.Next()));
    }
    ASSERT_TRUE(mgr.wal()->FlushNow());
    ASSERT_TRUE(ck.TakeCheckpoint());
    fp::Config fc;
    fc.action = fp::Action::kFail;
    fc.probability = 1.0;
    fc.max_trips = 1;
    fp::Arm(fp::Site::kCkptCrashMidSegment, fc);
    EXPECT_FALSE(ck.TakeCheckpoint());
  }
  fp::DisarmAll();
  // "Reboot": a fresh checkpointer over the same directory.
  wal::Checkpointer ck2(ck_cfg, mgr.wal(), cat.CheckpointSourceProvider());
  EXPECT_EQ(ck2.published_seq(), 1u);  // seeded from the valid manifest
  for (int i = 0; i < 100; ++i) {
    (void)e.Run(banking::Mv3cTransferMoney(db, gen.Next()));
  }
  ASSERT_TRUE(mgr.wal()->FlushNow());
  ASSERT_TRUE(ck2.TakeCheckpoint());
  EXPECT_EQ(ck2.published_seq(), 2u);
  ASSERT_TRUE(mgr.wal()->FlushNow());
  mgr.DisableWal();
  const wal::TableDigest live = wal::DigestMvccTable(db.accounts);

  TransactionManager mgr2;
  banking::BankingDb db2(&mgr2, kAccounts, kInitial);
  wal::Catalog cat2;
  RegisterWalTables(cat2, db2);
  const wal::RecoveryReport rep = cat2.RecoverWithCheckpoints(dir_.string());
  EXPECT_TRUE(rep.used_checkpoint);
  EXPECT_EQ(rep.checkpoint_seq, 2u);
  EXPECT_EQ(rep.manifests_skipped, 0u);
  EXPECT_EQ(wal::DigestMvccTable(db2.accounts), live);
}

// Same seed, same fault site, fresh directory: the recovered prefix is a
// deterministic function of the single-threaded commit order up to the
// (timing-dependent) cut point, so both runs must satisfy the oracle —
// and the schedule bookkeeping must show exactly one firing each.
TEST_F(WalChaosTest, RepeatedTornWritesAlwaysRecoverConsistently) {
  for (int round = 0; round < 3; ++round) {
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    fp::Reset(1000 + static_cast<uint64_t>(round));
    const CrashRun run = RunUntilCrash(fp::Site::kWalShortWrite);
    const Recovered r = Recover();
    EXPECT_TRUE(r.report.torn_tail);
    ExpectConsistentPrefix(r, run);
    fp::DisarmAll();
  }
}

}  // namespace
}  // namespace mv3c
