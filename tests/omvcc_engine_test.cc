// OMVCC baseline tests (paper §2.1): the MV3C executor under
// ConflictPolicy::kRestart. Precision-locking validation over a flat
// predicate list, early exit at the first conflict, full abort-and-
// restart, and premature aborts on write-write conflicts.

#include <gtest/gtest.h>

#include <functional>

#include "workloads/banking.h"

namespace mv3c {
namespace {

using banking::AccountRow;
using banking::BankingDb;
using banking::TransferParams;

constexpr ConflictPolicy kOmvcc = ConflictPolicy::kRestart;

/// A read-modify-write of one balance: a point read plus an update of the
/// balance to f(balance).
Mv3cExecutor::Program UpdateBalance(BankingDb& db, int64_t id,
                                    std::function<int64_t(int64_t)> f) {
  return [&db, id, f](Mv3cTransaction& t) {
    return t.Lookup(
        db.accounts, id, banking::kBalanceMask,
        [&db, f](Mv3cTransaction& t, banking::AccountTable::Object* obj,
                 const AccountRow* row) {
          AccountRow n = *row;
          n.balance = f(n.balance);
          return t.UpdateRow(db.accounts, obj, n, banking::kBalanceMask);
        });
  };
}

class OmvccEngineTest : public ::testing::Test {
 protected:
  OmvccEngineTest() : db_(&mgr_, 16, 1000) { db_.Load(); }

  TransactionManager mgr_;
  BankingDb db_;
};

TEST_F(OmvccEngineTest, SimpleCommit) {
  Mv3cExecutor e(&mgr_, {}, kOmvcc);
  EXPECT_EQ(e.Run(banking::Mv3cTransferMoney(db_, {1, 2, 200, true})),
            StepResult::kCommitted);
  EXPECT_EQ(db_.BalanceOf(1), 1000 - 202);
  EXPECT_EQ(db_.BalanceOf(2), 1200);
  EXPECT_EQ(db_.BalanceOf(BankingDb::kFeeAccount), 2);
}

TEST_F(OmvccEngineTest, PredicateListIsFlat) {
  Mv3cTransaction t(&mgr_, kOmvcc);
  mgr_.Begin(&t.inner());
  ASSERT_EQ(banking::Mv3cTransferMoney(db_, {1, 2, 200, true})(t),
            ExecStatus::kOk);
  // Three key-equality predicates, no graph: no parents, no children and
  // no versions registered with any of them.
  EXPECT_EQ(t.PredicateCount(), 3u);
  for (PredicateBase* p : t.predicates()) {
    EXPECT_EQ(p->parent(), nullptr);
    size_t children = 0, versions = 0;
    p->ForEachChild([&](PredicateBase*) { ++children; });
    p->ForEachVersion([&](VersionBase*) { ++versions; });
    EXPECT_EQ(children, 0u);
    EXPECT_EQ(versions, 0u);
  }
  EXPECT_EQ(t.inner().undo_buffer().size(), 3u);  // the writes still happen
  t.RollbackAll();
  mgr_.FinishAborted(&t.inner());
}

TEST_F(OmvccEngineTest, ValidationFailureRestartsFromScratch) {
  Mv3cExecutor victim(&mgr_, {}, kOmvcc);
  victim.Reset(banking::Mv3cTransferMoney(db_, {1, 2, 200, true}));
  victim.Begin();
  // Concurrent committed transfer invalidates the victim's fee predicate.
  // OMVCC writes are fail-fast: the victim already wrote the fee account?
  // No — the victim has not executed yet; execute-and-commit the other
  // transaction first, then step the victim: its execution reads the fee
  // account *after* the other committed, but its start timestamp is older,
  // so validation fails (read-write conflict).
  Mv3cExecutor other(&mgr_, {}, kOmvcc);
  ASSERT_EQ(other.Run(banking::Mv3cTransferMoney(db_, {3, 4, 400, true})),
            StepResult::kCommitted);
  StepResult r = victim.Step();
  // Depending on interleaving this is a WW fail-fast (committed version
  // newer than start) — both are "abort and restart" for OMVCC.
  ASSERT_EQ(r, StepResult::kNeedsRetry);
  EXPECT_EQ(victim.stats().ww_restarts + victim.stats().validation_failures,
            1u);
  // Restart succeeds.
  int guard = 0;
  do {
    r = victim.Step();
    ASSERT_LT(++guard, 10);
  } while (r == StepResult::kNeedsRetry);
  ASSERT_EQ(r, StepResult::kCommitted);
  EXPECT_EQ(db_.BalanceOf(BankingDb::kFeeAccount), 2 + 4);
}

TEST_F(OmvccEngineTest, BlindWriteStyleUpdateStillConflictsInOmvcc) {
  // §6.1.1: "PriceUpdate consists of a blind write operation, which does
  // not lead to a conflict in MV3C, but creates a conflict in OMVCC."
  // In OMVCC every update is a read-modify-write with fail-fast WW, even
  // where the table allows multiple uncommitted versions (Account does):
  // a BlindUpdate reads its row, and both it and a plain update fail fast.
  Mv3cExecutor a(&mgr_, {}, kOmvcc), b(&mgr_, {}, kOmvcc);
  auto blind_bump = [this](int64_t delta) -> Mv3cExecutor::Program {
    return [this, delta](Mv3cTransaction& t) {
      return t.BlindUpdate(db_.accounts, 5, banking::kBalanceMask,
                           [delta](AccountRow& r) { r.balance += delta; });
    };
  };
  a.Reset(blind_bump(1));
  b.Reset(UpdateBalance(db_, 5, [](int64_t v) { return v + 2; }));
  a.Begin();
  b.Begin();
  // a executes but does not commit; b then hits a's uncommitted version.
  ASSERT_EQ(blind_bump(1)(a.txn()), ExecStatus::kOk);
  EXPECT_EQ(a.txn().PredicateCount(), 1u);  // the blind write became a read
  ASSERT_EQ(b.Step(), StepResult::kNeedsRetry);
  EXPECT_EQ(b.stats().ww_restarts, 1u);
  a.txn().RollbackAll();
  mgr_.FinishAborted(&a.txn().inner());
  int guard = 0;
  StepResult r;
  do {
    r = b.Step();
    ASSERT_LT(++guard, 10);
  } while (r == StepResult::kNeedsRetry);
  ASSERT_EQ(r, StepResult::kCommitted);
  EXPECT_EQ(db_.BalanceOf(5), 1002);
}

TEST_F(OmvccEngineTest, UserAbortNeverRestarts) {
  Mv3cExecutor e(&mgr_, {}, kOmvcc);
  EXPECT_EQ(e.Run(banking::Mv3cTransferMoney(db_, {1, 2, 100000, true})),
            StepResult::kUserAborted);
  EXPECT_EQ(e.stats().user_aborts, 1u);
  EXPECT_EQ(db_.BalanceOf(1), 1000);
}

TEST_F(OmvccEngineTest, ReadOnlyCommitsAtStartTimestamp) {
  Mv3cExecutor ro(&mgr_, {}, kOmvcc);
  int64_t sum = 0;
  ro.Reset(banking::Mv3cSumAll(db_, &sum));
  ro.Begin();
  // Concurrent writer commits in between.
  Mv3cExecutor w(&mgr_, {}, kOmvcc);
  ASSERT_EQ(w.Run(banking::Mv3cTransferMoney(db_, {1, 2, 100, true})),
            StepResult::kCommitted);
  ASSERT_EQ(ro.Step(), StepResult::kCommitted);
  EXPECT_EQ(ro.last_commit_ts(), ro.txn().inner().start_ts());
  EXPECT_EQ(sum, 16 * 1000);  // snapshot from before the transfer
}

// OMVCC's scan predicate catches phantom-style changes: a row entering the
// Bonus result set after the scan fails validation.
TEST_F(OmvccEngineTest, ScanPredicateCatchesResultSetChange) {
  Mv3cExecutor bonus(&mgr_, {}, kOmvcc);
  bonus.Reset(banking::Mv3cBonus(db_, 2000, false));  // nobody qualifies yet
  bonus.Begin();
  // Push account 3 over the threshold concurrently.
  Mv3cExecutor w(&mgr_, {}, kOmvcc);
  ASSERT_EQ(w.Run(UpdateBalance(db_, 3, [](int64_t) { return int64_t{5000}; })),
            StepResult::kCommitted);
  StepResult r = bonus.Step();
  // The bonus wrote nothing (its snapshot has no qualifying accounts), so
  // it is read-only and commits at its start timestamp — consistent.
  ASSERT_EQ(r, StepResult::kCommitted);
  // Run another bonus that DOES write, with a concurrent threshold-crosser.
  Mv3cExecutor bonus2(&mgr_, {}, kOmvcc);
  bonus2.Reset(banking::Mv3cBonus(db_, 4000, false));  // account 3 qualifies
  bonus2.Begin();
  Mv3cExecutor w2(&mgr_, {}, kOmvcc);
  ASSERT_EQ(w2.Run(UpdateBalance(db_, 7, [](int64_t) { return int64_t{4500}; })),
            StepResult::kCommitted);
  r = bonus2.Step();
  ASSERT_EQ(r, StepResult::kNeedsRetry);  // account 7 entered the set
  EXPECT_EQ(bonus2.stats().validation_failures, 1u);
  int guard = 0;
  do {
    r = bonus2.Step();
    ASSERT_LT(++guard, 10);
  } while (r == StepResult::kNeedsRetry);
  ASSERT_EQ(r, StepResult::kCommitted);
  EXPECT_EQ(db_.BalanceOf(3), 5001);
  EXPECT_EQ(db_.BalanceOf(7), 4501);
}

}  // namespace
}  // namespace mv3c
