// Deterministic §3 interoperability tests: MV3C and OMVCC transactions
// (the same programs under ConflictPolicy::kRestart) against one
// TransactionManager. The only cross-engine interface is the
// recently-committed list, so each engine must detect the other's commits
// in validation, and blind-write semantics must hold across engines.

#include <gtest/gtest.h>

#include "workloads/banking.h"

namespace mv3c {
namespace {

using banking::AccountRow;
using banking::BankingDb;

constexpr ConflictPolicy kOmvcc = ConflictPolicy::kRestart;

class InteropTest : public ::testing::Test {
 protected:
  InteropTest() : db_(&mgr_, 16, 1000) { db_.Load(); }

  TransactionManager mgr_;
  BankingDb db_;
};

TEST_F(InteropTest, Mv3cDetectsOmvccCommit) {
  // MV3C transaction reads the fee account, then an OMVCC transaction
  // commits a change to it: the MV3C validation must fail and repair.
  Mv3cExecutor victim(&mgr_);
  victim.Reset(banking::Mv3cTransferMoney(db_, {1, 2, 200, true}));
  victim.Begin();
  Mv3cExecutor intruder(&mgr_, {}, kOmvcc);
  ASSERT_EQ(intruder.Run(banking::Mv3cTransferMoney(db_, {3, 4, 300, true})),
            StepResult::kCommitted);
  ASSERT_EQ(victim.Step(), StepResult::kNeedsRetry);
  EXPECT_EQ(victim.stats().validation_failures, 1u);
  ASSERT_EQ(victim.Step(), StepResult::kCommitted);
  EXPECT_EQ(victim.stats().reexecuted_closures, 1u);  // fee predicate only
  EXPECT_EQ(db_.BalanceOf(BankingDb::kFeeAccount), 2 + 3);
  EXPECT_EQ(db_.TotalBalance(), 16 * 1000);
}

TEST_F(InteropTest, OmvccDetectsMv3cCommit) {
  Mv3cExecutor victim(&mgr_, {}, kOmvcc);
  victim.Reset(banking::Mv3cTransferMoney(db_, {5, 6, 150, true}));
  victim.Begin();
  Mv3cExecutor intruder(&mgr_);
  ASSERT_EQ(intruder.Run(banking::Mv3cTransferMoney(db_, {7, 8, 250, true})),
            StepResult::kCommitted);
  StepResult r = victim.Step();
  // OMVCC aborts and restarts (validation failure or WW fail-fast on the
  // fee account, depending on interleaving); either way it converges.
  int guard = 0;
  while (r == StepResult::kNeedsRetry) {
    r = victim.Step();
    ASSERT_LT(++guard, 10);
  }
  ASSERT_EQ(r, StepResult::kCommitted);
  // Fees: 150 -> 1 (integer division), 250 -> 2.
  EXPECT_EQ(db_.BalanceOf(BankingDb::kFeeAccount), 1 + 2);
  EXPECT_EQ(db_.TotalBalance(), 16 * 1000);
}

TEST_F(InteropTest, CommitTimestampsInterleaveAcrossEngines) {
  // Commit timestamps come from the shared sequence, so cross-engine
  // commits are totally ordered.
  Timestamp last = 0;
  for (int i = 0; i < 6; ++i) {
    if (i % 2 == 0) {
      Mv3cExecutor e(&mgr_);
      e.MustRun(banking::Mv3cTransferMoney(
          db_, {1 + i % 8, 9 + i % 7, 10 + i, false}));
      EXPECT_GT(e.last_commit_ts(), last);
      last = e.last_commit_ts();
    } else {
      Mv3cExecutor e(&mgr_, {}, kOmvcc);
      e.MustRun(banking::Mv3cTransferMoney(
          db_, {1 + i % 8, 9 + i % 7, 10 + i, false}));
      EXPECT_GT(e.last_commit_ts(), last);
      last = e.last_commit_ts();
    }
  }
  EXPECT_EQ(db_.TotalBalance(), 16 * 1000);
}

TEST_F(InteropTest, Mv3cBlindWriteInvisibleToOmvccValidationOfOtherColumns) {
  // An MV3C blind date-stamp on the fee account must not invalidate an
  // OMVCC transfer that only monitors balances (§4.1 across engines).
  Mv3cExecutor transfer(&mgr_, {}, kOmvcc);
  transfer.Reset(banking::Mv3cTransferMoney(db_, {2, 3, 100, false}));
  transfer.Begin();
  Mv3cExecutor stamp(&mgr_);
  ASSERT_EQ(stamp.Run([&](Mv3cTransaction& t) {
              return t.BlindUpdate(db_.accounts, BankingDb::kFeeAccount,
                                   banking::kDateMask,
                                   [](AccountRow& r) { r.last_date = 42; });
            }),
            StepResult::kCommitted);
  ASSERT_EQ(transfer.Step(), StepResult::kCommitted);
  EXPECT_EQ(transfer.stats().validation_failures, 0u);
}

}  // namespace
}  // namespace mv3c
