// Tests for the robustness layer: the starvation-free retry policy
// (common/retry_policy.h) and the deterministic failpoint framework
// (common/failpoint.h). The framework tests drive failpoint::Evaluate()
// directly; the engine-injection tests arm the sites the engines evaluate
// on their hot paths.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "common/failpoint.h"
#include "common/retry_policy.h"
#include "driver/window_driver.h"
#include "index/cuckoo_map.h"
#include "occ/occ_engine.h"
#include "sv/sv_executor.h"
#include "sv/sv_transaction.h"
#include "workloads/banking.h"

namespace mv3c {
namespace {

constexpr ConflictPolicy kOmvcc = ConflictPolicy::kRestart;

namespace fp = ::mv3c::failpoint;

using banking::BankingDb;
using banking::TransferParams;

// --- RetryController ---

TEST(RetryControllerTest, GivesUpAtAttemptBudget) {
  RetryPolicy p;
  p.max_attempts = 3;
  RetryController ctrl(p);
  EXPECT_EQ(ctrl.OnFailure(), RetryDecision::kRetry);
  EXPECT_EQ(ctrl.OnFailure(), RetryDecision::kRetry);
  EXPECT_EQ(ctrl.OnFailure(), RetryDecision::kGiveUp);
  EXPECT_EQ(ctrl.attempts(), 3u);
}

TEST(RetryControllerTest, WalksTheEscalationLadderInOrder) {
  RetryPolicy p;
  p.max_attempts = 4;
  p.exclusive_repair_after = 2;
  RetryController ctrl(p);
  // repair -> exclusive repair -> give up.
  EXPECT_EQ(ctrl.OnFailure(), RetryDecision::kRetry);            // attempt 1
  EXPECT_EQ(ctrl.OnFailure(), RetryDecision::kExclusiveRepair);  // attempt 2
  EXPECT_EQ(ctrl.OnFailure(), RetryDecision::kExclusiveRepair);  // attempt 3
  EXPECT_EQ(ctrl.OnFailure(), RetryDecision::kGiveUp);           // attempt 4
}

// Every retry loop ends: a policy without a budget is refused.
TEST(RetryControllerDeathTest, ZeroBudgetFailsTheCheck) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  RetryPolicy p;
  p.max_attempts = 0;
  EXPECT_DEATH(RetryController{p}, "max_attempts");
}

TEST(RetryControllerTest, ResetClearsAttemptCount) {
  RetryPolicy p;
  p.max_attempts = 2;
  RetryController ctrl(p);
  EXPECT_EQ(ctrl.OnFailure(), RetryDecision::kRetry);
  EXPECT_EQ(ctrl.OnFailure(), RetryDecision::kGiveUp);
  ctrl.Reset();
  EXPECT_EQ(ctrl.attempts(), 0u);
  EXPECT_EQ(ctrl.OnFailure(), RetryDecision::kRetry);
}

TEST(RetryControllerTest, JitteredBackoffIsDeterministicPerSeed) {
  RetryPolicy p;
  p.max_attempts = 16;  // every one of the 8 failures below backs off
  p.backoff_initial_us = 1;
  p.backoff_max_us = 8;
  p.jitter_seed = 1234;
  RetryController a(p), b(p);
  for (int i = 0; i < 8; ++i) {
    a.OnFailure();
    b.OnFailure();
  }
  EXPECT_EQ(a.backoff_us_total(), b.backoff_us_total());
}

// --- Failpoint framework ---

class FailpointFrameworkTest : public ::testing::Test {
 protected:
  void SetUp() override { fp::Reset(/*seed=*/1); }
  void TearDown() override { fp::DisarmAll(); }
};

TEST_F(FailpointFrameworkTest, DisarmedSiteNeverFires) {
  EXPECT_FALSE(fp::Evaluate(fp::Site::kPrevalidate));
  EXPECT_EQ(fp::Evaluations(fp::Site::kPrevalidate), 0u);
  EXPECT_EQ(fp::TotalTrips(), 0u);
}

TEST_F(FailpointFrameworkTest, ArmedSiteFiresAndDisarmStops) {
  fp::Arm(fp::Site::kCommitDelta, fp::Config{});
  EXPECT_TRUE(fp::Evaluate(fp::Site::kCommitDelta));
  EXPECT_EQ(fp::Trips(fp::Site::kCommitDelta), 1u);
  fp::Disarm(fp::Site::kCommitDelta);
  EXPECT_FALSE(fp::Evaluate(fp::Site::kCommitDelta));
  EXPECT_EQ(fp::Trips(fp::Site::kCommitDelta), 1u);
}

TEST_F(FailpointFrameworkTest, MaxTripsSelfDisarms) {
  fp::Config cfg;
  cfg.max_trips = 2;
  fp::Arm(fp::Site::kGcReclaim, cfg);
  EXPECT_TRUE(fp::Evaluate(fp::Site::kGcReclaim));
  EXPECT_TRUE(fp::Evaluate(fp::Site::kGcReclaim));
  EXPECT_FALSE(fp::Evaluate(fp::Site::kGcReclaim));
  EXPECT_EQ(fp::Trips(fp::Site::kGcReclaim), 2u);
}

TEST_F(FailpointFrameworkTest, DelayAndYieldActionsReportNoFailure) {
  fp::Config delay;
  delay.action = fp::Action::kDelay;
  delay.delay_us = 1;
  fp::Arm(fp::Site::kRetimestamp, delay);
  EXPECT_FALSE(fp::Evaluate(fp::Site::kRetimestamp));
  EXPECT_EQ(fp::Trips(fp::Site::kRetimestamp), 1u);  // fired, not a failure

  fp::Config yield;
  yield.action = fp::Action::kYield;
  fp::Arm(fp::Site::kCuckooInsert, yield);
  EXPECT_FALSE(fp::Evaluate(fp::Site::kCuckooInsert));
  EXPECT_EQ(fp::Trips(fp::Site::kCuckooInsert), 1u);
}

TEST_F(FailpointFrameworkTest, SameSeedReproducesTheExactFaultSchedule) {
  auto run_once = [](uint64_t seed) {
    fp::Reset(seed);
    fp::Config cfg;
    cfg.probability = 0.37;
    fp::Arm(fp::Site::kPrevalidate, cfg);
    std::vector<bool> fired;
    fired.reserve(1000);
    for (int i = 0; i < 1000; ++i) {
      fired.push_back(fp::Evaluate(fp::Site::kPrevalidate));
    }
    const uint64_t hash = fp::ScheduleHash();
    const uint64_t trips = fp::Trips(fp::Site::kPrevalidate);
    fp::DisarmAll();
    return std::tuple(fired, hash, trips);
  };
  const auto a = run_once(42);
  const auto b = run_once(42);
  EXPECT_EQ(std::get<0>(a), std::get<0>(b));
  EXPECT_EQ(std::get<1>(a), std::get<1>(b));
  EXPECT_EQ(std::get<2>(a), std::get<2>(b));
  // A probabilistic site must actually be probabilistic.
  EXPECT_GT(std::get<2>(a), 0u);
  EXPECT_LT(std::get<2>(a), 1000u);
  // A different seed produces a different schedule.
  const auto c = run_once(43);
  EXPECT_NE(std::get<1>(a), std::get<1>(c));
}

TEST_F(FailpointFrameworkTest, EverySiteHasAName) {
  for (int i = 0; i < fp::kNumSites; ++i) {
    EXPECT_STRNE(fp::Name(static_cast<fp::Site>(i)), "?");
  }
}

// --- Engine-level injection ---

class InjectionTest : public ::testing::Test {
 protected:
  void SetUp() override { fp::Reset(/*seed=*/7); }
  void TearDown() override { fp::DisarmAll(); }

  static constexpr int64_t kAccounts = 16;
  static constexpr int64_t kInitial = 1'000'000;
};

TEST_F(InjectionTest, Mv3cPrevalidateInjectionForcesRepairAndStillCommits) {
  TransactionManager mgr;
  BankingDb db(&mgr, kAccounts, kInitial);
  db.Load();
  fp::Config cfg;
  cfg.max_trips = 1;
  fp::ScopedArm arm(fp::Site::kPrevalidate, cfg);

  Mv3cExecutor exec(&mgr);
  const TransferParams p{/*from=*/1, /*to=*/2, /*amount=*/100, true};
  ASSERT_EQ(exec.Run(banking::Mv3cTransferMoney(db, p)),
            StepResult::kCommitted);
  EXPECT_EQ(exec.stats().failpoint_trips, 1u);
  EXPECT_GE(exec.stats().validation_failures, 1u);
  EXPECT_GE(exec.stats().repair_rounds, 1u);  // repaired, not restarted
  EXPECT_EQ(db.TotalBalance(), kAccounts * kInitial);
}

// Satellite: a forced delta-validation failure inside TryCommitExclusive
// must be repaired in the critical section and commit on the same attempt
// (§4.3's guarantee), not bounce back out as another failed round.
TEST_F(InjectionTest, ExclusiveRepairInjectionCommitsOnTheSameAttempt) {
  TransactionManager mgr;
  BankingDb db(&mgr, kAccounts, kInitial);
  db.Load();
  fp::Config cfg;
  cfg.max_trips = 1;
  fp::ScopedArm arm(fp::Site::kCommitExclusiveDelta, cfg);

  RetryPolicy config;
  config.exclusive_repair_after = 0;  // exclusive from the first attempt
  Mv3cExecutor exec(&mgr, config);
  const TransferParams p{/*from=*/3, /*to=*/4, /*amount=*/500, true};
  const int64_t before_from = db.BalanceOf(3);
  ASSERT_EQ(exec.Run(banking::Mv3cTransferMoney(db, p)),
            StepResult::kCommitted);
  EXPECT_EQ(exec.attempts(), 0u) << "must commit without a failed round";
  EXPECT_EQ(exec.stats().exclusive_repairs, 1u);
  EXPECT_EQ(exec.stats().failpoint_trips, 1u);
  EXPECT_GE(exec.stats().repair_rounds, 1u) << "in-lock repair must run";
  EXPECT_EQ(db.BalanceOf(3), before_from - 500 - banking::FeeOf(p));
  EXPECT_EQ(db.TotalBalance(), kAccounts * kInitial);
}

TEST_F(InjectionTest, Mv3cExhaustsBudgetUnderPersistentInjection) {
  TransactionManager mgr;
  BankingDb db(&mgr, kAccounts, kInitial);
  db.Load();
  RetryPolicy config;
  config.exclusive_repair_after = -1;  // no escape hatch
  config.max_attempts = 6;
  Mv3cExecutor exec(&mgr, config);
  const TransferParams p{/*from=*/5, /*to=*/6, /*amount=*/10, true};
  {
    fp::ScopedArm arm(fp::Site::kPrevalidate, fp::Config{});  // always fail
    ASSERT_EQ(exec.Run(banking::Mv3cTransferMoney(db, p)),
              StepResult::kExhausted);
  }
  EXPECT_EQ(exec.stats().exhausted, 1u);
  EXPECT_EQ(exec.attempts(), 6u);
  EXPECT_EQ(exec.stats().max_rounds, 6u);
  // The exhausted transaction must be fully rolled back and off the active
  // table: the database is unchanged and the system keeps working.
  EXPECT_EQ(db.TotalBalance(), kAccounts * kInitial);
  EXPECT_EQ(db.BalanceOf(6), kInitial);
  ASSERT_EQ(exec.Run(banking::Mv3cTransferMoney(db, p)),
            StepResult::kCommitted);
  mgr.CollectGarbage();  // watermark must advance (no leaked active slot)
  EXPECT_EQ(db.TotalBalance(), kAccounts * kInitial);
}

TEST_F(InjectionTest, OmvccExhaustsBudgetUnderPersistentInjection) {
  TransactionManager mgr;
  BankingDb db(&mgr, kAccounts, kInitial);
  db.Load();
  RetryPolicy policy;
  policy.max_attempts = 4;
  Mv3cExecutor exec(&mgr, policy, kOmvcc);
  const TransferParams p{/*from=*/1, /*to=*/2, /*amount=*/10, true};
  {
    fp::ScopedArm arm(fp::Site::kPrevalidate, fp::Config{});
    ASSERT_EQ(exec.Run(banking::Mv3cTransferMoney(db, p)),
              StepResult::kExhausted);
  }
  EXPECT_EQ(exec.stats().exhausted, 1u);
  EXPECT_EQ(exec.attempts(), 4u);
  EXPECT_EQ(db.TotalBalance(), kAccounts * kInitial);
  ASSERT_EQ(exec.Run(banking::Mv3cTransferMoney(db, p)),
            StepResult::kCommitted);
}

TEST_F(InjectionTest, SpuriousPushConflictRestartsAndCommits) {
  TransactionManager mgr;
  BankingDb db(&mgr, kAccounts, kInitial);
  db.Load();
  fp::Config cfg;
  cfg.max_trips = 1;
  fp::ScopedArm arm(fp::Site::kVersionChainPush, cfg);

  Mv3cExecutor exec(&mgr);
  const TransferParams p{/*from=*/7, /*to=*/8, /*amount=*/50, true};
  ASSERT_EQ(exec.Run(banking::Mv3cTransferMoney(db, p)),
            StepResult::kCommitted);
  EXPECT_GE(exec.stats().ww_restarts, 1u);
  EXPECT_EQ(db.TotalBalance(), kAccounts * kInitial);
}

TEST_F(InjectionTest, SvCommitInjectionRetriesThenCommits) {
  sv::SvTable<uint64_t, int64_t> table("t", 64);
  table.LoadRow(1, 100);
  OccEngine engine;
  auto increment = [&](sv::SvTransaction& t) {
    int64_t v = 0;
    sv::SvTable<uint64_t, int64_t>::Rec* rec = nullptr;
    if (!t.Read(table, 1, &v, &rec)) return ExecStatus::kUserAbort;
    t.Update(table, rec, v + 1);
    return ExecStatus::kOk;
  };
  {
    fp::Config cfg;
    cfg.max_trips = 1;
    fp::ScopedArm arm(fp::Site::kSvCommitValidate, cfg);
    SvExecutor<OccEngine> exec(&engine);
    ASSERT_EQ(exec.Run(increment), StepResult::kCommitted);
    EXPECT_EQ(exec.stats().failpoint_trips, 1u);
    EXPECT_EQ(exec.stats().validation_failures, 1u);
  }
  int64_t v = 0;
  table.Find(1)->ReadStable(&v);
  EXPECT_EQ(v, 101) << "the injected failed attempt must install nothing";

  // Persistent injection exhausts the budget and installs nothing.
  fp::ScopedArm arm(fp::Site::kSvCommitValidate, fp::Config{});
  RetryPolicy policy;
  policy.max_attempts = 3;
  SvExecutor<OccEngine> exec(&engine, policy);
  ASSERT_EQ(exec.Run(increment), StepResult::kExhausted);
  EXPECT_EQ(exec.stats().exhausted, 1u);
  table.Find(1)->ReadStable(&v);
  EXPECT_EQ(v, 101);
}

TEST_F(InjectionTest, CuckooInsertInjectionForcesOneRetryAndStillInserts) {
  CuckooMap<uint64_t, uint64_t> map(16);
  fp::ScopedArm arm(fp::Site::kCuckooInsert, fp::Config{});  // always fire
  for (uint64_t k = 0; k < 200; ++k) {
    ASSERT_TRUE(map.Insert(k, k * 3));
  }
  EXPECT_GE(fp::Trips(fp::Site::kCuckooInsert), 200u);
  for (uint64_t k = 0; k < 200; ++k) {
    uint64_t v = 0;
    ASSERT_TRUE(map.Find(k, &v));
    EXPECT_EQ(v, k * 3);
  }
  EXPECT_FALSE(map.Insert(5, 1)) << "duplicate detection survives injection";
}

TEST_F(InjectionTest, GcReclaimInjectionDefersButCollectAllDrains) {
  TransactionManager mgr;
  {
    BankingDb db(&mgr, kAccounts, kInitial);
    db.Load();
    Mv3cExecutor exec(&mgr);
    fp::ScopedArm arm(fp::Site::kGcReclaim, fp::Config{});
    banking::TransferGenerator gen(kAccounts, /*fee_percent=*/100, 3);
    for (int i = 0; i < 200; ++i) {
      ASSERT_EQ(exec.Run(banking::Mv3cTransferMoney(db, gen.Next())),
                StepResult::kCommitted);
      if (i % 32 == 0) mgr.CollectGarbage();  // reclaim suppressed
    }
    mgr.CollectGarbage();
    EXPECT_GT(mgr.gc().PendingCount(), 0u)
        << "injected lagging collector must leave a backlog";
    // CollectAll bypasses the failpoint (teardown contract).
    EXPECT_GT(mgr.gc().CollectAll(), 0u);
    EXPECT_EQ(mgr.gc().PendingCount(), 0u);
    EXPECT_EQ(db.TotalBalance(), kAccounts * kInitial);
  }
}

// The executor's retry budget ends a spinning transaction inside the
// WindowDriver: the driver steps until Step() stops returning kNeedsRetry.
TEST_F(InjectionTest, WindowDriverRetryBudgetGivesUpSpinningTransactions) {
  TransactionManager mgr;
  BankingDb db(&mgr, kAccounts, kInitial);
  db.Load();
  fp::ScopedArm arm(fp::Site::kPrevalidate, fp::Config{});  // always fail
  RetryPolicy config;
  config.max_attempts = 5;
  WindowDriver<Mv3cExecutor> driver(
      2, [&](...) { return std::make_unique<Mv3cExecutor>(&mgr, config); },
      [&] { mgr.CollectGarbage(); });
  banking::TransferGenerator gen(kAccounts, /*fee_percent=*/100, 11);
  std::vector<TransferParams> stream;
  for (int i = 0; i < 8; ++i) stream.push_back(gen.Next());
  const DriveResult r = driver.Run(CountedSource<Mv3cExecutor::Program>(
      stream.size(), [&](uint64_t i) {
        return banking::Mv3cTransferMoney(db, stream[i]);
      }));
  EXPECT_EQ(r.committed, 0u);
  EXPECT_EQ(r.exhausted, stream.size());
  // The fifth failed round returns kExhausted, not kNeedsRetry, so the
  // driver sees four re-entries per transaction.
  EXPECT_EQ(r.max_rounds, 4u);
  EXPECT_EQ(r.escalations, stream.size() * 4);
  for (Mv3cExecutor* e : driver.executors()) {
    EXPECT_EQ(e->stats().max_rounds, 5u);
  }
  EXPECT_EQ(db.TotalBalance(), kAccounts * kInitial);
}

}  // namespace
}  // namespace mv3c
