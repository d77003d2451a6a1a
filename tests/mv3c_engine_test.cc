// MV3C engine tests: predicate graph construction, the Validation algorithm
// (Algorithm 1), the Repair algorithm (Algorithm 2, including Lemma 2.4
// repair-equals-restart), write-write policies (§2.3.1), blind writes
// (§2.4.1), attribute-level validation (§4.1), result-set reuse (§4.2) and
// exclusive repair (§4.3), exercised through the Banking example of the
// paper (Example 2).

#include <gtest/gtest.h>

#include <vector>

#include "mv3c/mv3c_executor.h"
#include "mv3c/mv3c_transaction.h"

namespace mv3c {
namespace {

// Column ids for attribute-level validation.
constexpr int kColBalance = 0;
constexpr int kColDate = 1;

struct AccountRow {
  int64_t balance = 0;
  int64_t last_date = 0;

  void MergeFrom(const AccountRow& base, ColumnMask modified) {
    if (!modified.Contains(kColBalance)) balance = base.balance;
    if (!modified.Contains(kColDate)) last_date = base.last_date;
  }
};

using AccountTable = Table<int64_t, AccountRow>;
constexpr int64_t kFeeAccount = 0;

class Mv3cEngineTest : public ::testing::Test {
 protected:
  // The Banking tables run with multiple uncommitted versions allowed
  // (§2.3.1 second option): read-modify-write conflicts reach the
  // validation phase and get repaired instead of fail-fasting.
  Mv3cEngineTest() : table_("account", 1024, WwPolicy::kAllowMultiple) {}

  void Seed(int64_t n_accounts, int64_t balance) {
    Mv3cExecutor exec(&mgr_);
    ASSERT_EQ(exec.Run([&](Mv3cTransaction& t) {
                for (int64_t id = 0; id <= n_accounts; ++id) {
                  EXPECT_EQ(t.InsertRow(table_, id,
                                        AccountRow{id == kFeeAccount
                                                       ? int64_t{0}
                                                       : balance,
                                                   0}),
                            WriteStatus::kOk);
                }
                return ExecStatus::kOk;
              }),
              StepResult::kCommitted);
  }

  /// The paper's TransferMoney program (Figure 3) in the MV3C DSL:
  /// P1 = lookup(from); nested P2 = lookup(to), P3 = lookup(fee account).
  Mv3cExecutor::Program TransferMoney(int64_t from, int64_t to,
                                      int64_t amount) {
    return [this, from, to, amount](Mv3cTransaction& t) -> ExecStatus {
      const int64_t fee = amount < 100 ? 1 : amount / 100;
      return t.Lookup(
          table_, from, ColumnMask::Of(kColBalance),
          [this, to, amount, fee](Mv3cTransaction& t, AccountTable::Object* fm,
                                  const AccountRow* fm_row) -> ExecStatus {
            if (fm_row == nullptr || fm_row->balance < amount + fee) {
              return ExecStatus::kUserAbort;
            }
            AccountRow fm_new = *fm_row;
            fm_new.balance -= amount + fee;
            ExecStatus st = t.UpdateRow(table_, fm, fm_new,
                                        ColumnMask::Of(kColBalance));
            if (st != ExecStatus::kOk) return st;
            st = t.Lookup(
                table_, to, ColumnMask::Of(kColBalance),
                [this, amount](Mv3cTransaction& t, AccountTable::Object* to_o,
                               const AccountRow* to_row) -> ExecStatus {
                  if (to_row == nullptr) return ExecStatus::kUserAbort;
                  AccountRow to_new = *to_row;
                  to_new.balance += amount;
                  return t.UpdateRow(table_, to_o, to_new,
                                     ColumnMask::Of(kColBalance));
                });
            if (st != ExecStatus::kOk) return st;
            return t.Lookup(
                table_, kFeeAccount, ColumnMask::Of(kColBalance),
                [this, fee](Mv3cTransaction& t, AccountTable::Object* fa,
                            const AccountRow* fa_row) -> ExecStatus {
                  AccountRow fa_new = *fa_row;
                  fa_new.balance += fee;
                  return t.UpdateRow(table_, fa, fa_new,
                                     ColumnMask::Of(kColBalance));
                });
          });
    };
  }

  int64_t Balance(int64_t id) {
    int64_t out = 0;
    Mv3cExecutor exec(&mgr_);
    exec.MustRun([&](Mv3cTransaction& t) {
      return t.Lookup(table_, id, ColumnMask::Of(kColBalance),
                      [&out](Mv3cTransaction&, AccountTable::Object*,
                             const AccountRow* row) {
                        out = row == nullptr ? -1 : row->balance;
                        return ExecStatus::kOk;
                      });
    });
    return out;
  }

  int64_t TotalBalance() {
    int64_t total = 0;
    Mv3cExecutor exec(&mgr_);
    exec.MustRun([&](Mv3cTransaction& t) {
      return t.Scan(
          table_, [](const AccountRow&) { return true; },
          ColumnMask::Of(kColBalance), false,
          [&total](Mv3cTransaction&,
                   const std::vector<ScanEntry<AccountTable>>& rs) {
            total = 0;
            for (const auto& e : rs) total += e.row.balance;
            return ExecStatus::kOk;
          });
    });
    return total;
  }

  TransactionManager mgr_;
  AccountTable table_;
};

TEST_F(Mv3cEngineTest, SimpleCommit) {
  Seed(10, 1000);
  Mv3cExecutor exec(&mgr_);
  EXPECT_EQ(exec.Run(TransferMoney(1, 2, 200)), StepResult::kCommitted);
  EXPECT_EQ(Balance(1), 1000 - 200 - 2);
  EXPECT_EQ(Balance(2), 1200);
  EXPECT_EQ(Balance(kFeeAccount), 2);
}

TEST_F(Mv3cEngineTest, UserAbortOnInsufficientFunds) {
  Seed(10, 100);
  Mv3cExecutor exec(&mgr_);
  EXPECT_EQ(exec.Run(TransferMoney(1, 2, 5000)), StepResult::kUserAborted);
  EXPECT_EQ(Balance(1), 100);
  EXPECT_EQ(Balance(2), 100);
}

TEST_F(Mv3cEngineTest, PredicateGraphShape) {
  Seed(10, 1000);
  // Build the graph without committing to inspect it.
  Mv3cTransaction t(&mgr_);
  mgr_.Begin(&t.inner());
  ASSERT_EQ(t.RunProgram(TransferMoney(1, 2, 200)), ExecStatus::kOk);
  // P1 (root) with children P2 and P3 (Figure 3).
  ASSERT_EQ(t.PredicateCount(), 3u);
  PredicateBase* p1 = t.predicates()[0];
  PredicateBase* p2 = t.predicates()[1];
  PredicateBase* p3 = t.predicates()[2];
  EXPECT_EQ(p1->parent(), nullptr);
  EXPECT_EQ(p2->parent(), p1);
  EXPECT_EQ(p3->parent(), p1);
  size_t n_children = 0;
  p1->ForEachChild([&](PredicateBase*) { ++n_children; });
  EXPECT_EQ(n_children, 2u);
  // V(X): P1 carries the from-account update, P2/P3 one update each.
  EXPECT_EQ(p1->VersionCount(), 1u);
  EXPECT_EQ(p2->VersionCount(), 1u);
  EXPECT_EQ(p3->VersionCount(), 1u);
  t.RollbackAll();
  mgr_.FinishAborted(&t.inner());
}

// The central scenario of the paper: two TransferMoney transactions with
// disjoint from/to accounts conflict ONLY on the fee account; MV3C repairs
// just predicate P3 instead of restarting (Example 2 continued, §2.5).
TEST_F(Mv3cEngineTest, RepairReexecutesOnlyConflictingPredicate) {
  Seed(10, 1000);
  Mv3cExecutor a(&mgr_);
  Mv3cExecutor b(&mgr_);
  a.Reset(TransferMoney(1, 2, 200));
  b.Reset(TransferMoney(3, 4, 400));
  a.Begin();
  b.Begin();
  ASSERT_EQ(a.Step(), StepResult::kCommitted);
  // b executed? No: Step does execute+validate. Execute b now — it read the
  // fee account before a committed? b began before a committed, so its
  // snapshot predates a's commit; validation must fail on P3.
  StepResult rb = b.Step();
  ASSERT_EQ(rb, StepResult::kNeedsRetry);
  EXPECT_EQ(b.stats().validation_failures, 1u);
  ASSERT_EQ(b.Step(), StepResult::kCommitted);  // repair + revalidate
  EXPECT_EQ(b.stats().repair_rounds, 1u);
  // Only one closure (P3's) re-executed.
  EXPECT_EQ(b.stats().reexecuted_closures, 1u);
  EXPECT_EQ(b.stats().invalidated_predicates, 1u);
  // Money conserved; both fees present.
  EXPECT_EQ(Balance(kFeeAccount), 2 + 4);
  EXPECT_EQ(Balance(1), 1000 - 202);
  EXPECT_EQ(Balance(3), 1000 - 404);
  EXPECT_EQ(TotalBalance(), 11 * 1000 - 1000);  // fee account started at 0
}

// Lemma 2.4: the repaired graph is equivalent to the abort-and-restart
// graph — verified through final database state and graph shape.
TEST_F(Mv3cEngineTest, RepairEquivalentToRestart) {
  Seed(10, 1000);
  // Run the conflict scenario with repair.
  {
    Mv3cExecutor a(&mgr_);
    Mv3cExecutor b(&mgr_);
    a.Reset(TransferMoney(1, 2, 200));
    b.Reset(TransferMoney(3, 4, 400));
    a.Begin();
    b.Begin();
    ASSERT_EQ(a.Step(), StepResult::kCommitted);
    ASSERT_EQ(b.Step(), StepResult::kNeedsRetry);
    // Inspect the repaired transaction's graph after repair by stepping.
    ASSERT_EQ(b.Step(), StepResult::kCommitted);
  }
  const int64_t bal1 = Balance(1), bal2 = Balance(2), bal3 = Balance(3),
                bal4 = Balance(4), fee = Balance(kFeeAccount);

  // Fresh database; same scenario but force b to fully restart by running
  // it from scratch after a committed (serial execution).
  TransactionManager mgr2;
  AccountTable table2("account2", 1024, WwPolicy::kAllowMultiple);
  auto seed2 = [&] {
    Mv3cExecutor e(&mgr2);
    e.MustRun([&](Mv3cTransaction& t) {
      for (int64_t id = 0; id <= 10; ++id) {
        t.InsertRow(table2, id, AccountRow{id == kFeeAccount ? 0 : 1000, 0});
      }
      return ExecStatus::kOk;
    });
  };
  seed2();
  auto transfer2 = [&](int64_t from, int64_t to,
                       int64_t amount) -> Mv3cExecutor::Program {
    return [&table2, from, to, amount](Mv3cTransaction& t) -> ExecStatus {
      const int64_t fee2 = amount < 100 ? 1 : amount / 100;
      return t.Lookup(
          table2, from, ColumnMask::Of(kColBalance),
          [&table2, to, amount, fee2](Mv3cTransaction& t,
                                      AccountTable::Object* fm,
                                      const AccountRow* fm_row) -> ExecStatus {
            if (fm_row == nullptr || fm_row->balance < amount + fee2) {
              return ExecStatus::kUserAbort;
            }
            AccountRow fm_new = *fm_row;
            fm_new.balance -= amount + fee2;
            ExecStatus st =
                t.UpdateRow(table2, fm, fm_new, ColumnMask::Of(kColBalance));
            if (st != ExecStatus::kOk) return st;
            st = t.Lookup(table2, to, ColumnMask::Of(kColBalance),
                          [&table2, amount](Mv3cTransaction& t,
                                            AccountTable::Object* to_o,
                                            const AccountRow* to_row) {
                            AccountRow to_new = *to_row;
                            to_new.balance += amount;
                            return t.UpdateRow(table2, to_o, to_new,
                                               ColumnMask::Of(kColBalance));
                          });
            if (st != ExecStatus::kOk) return st;
            return t.Lookup(table2, kFeeAccount, ColumnMask::Of(kColBalance),
                            [&table2, fee2](Mv3cTransaction& t,
                                            AccountTable::Object* fa,
                                            const AccountRow* fa_row) {
                              AccountRow fa_new = *fa_row;
                              fa_new.balance += fee2;
                              return t.UpdateRow(table2, fa, fa_new,
                                                 ColumnMask::Of(kColBalance));
                            });
          });
    };
  };
  Mv3cExecutor a2(&mgr2), b2(&mgr2);
  EXPECT_EQ(a2.Run(transfer2(1, 2, 200)), StepResult::kCommitted);
  EXPECT_EQ(b2.Run(transfer2(3, 4, 400)), StepResult::kCommitted);

  auto balance2 = [&](int64_t id) {
    int64_t out = 0;
    Mv3cExecutor e(&mgr2);
    e.MustRun([&](Mv3cTransaction& t) {
      return t.Lookup(table2, id, ColumnMask::All(),
                      [&out](Mv3cTransaction&, AccountTable::Object*,
                             const AccountRow* row) {
                        out = row->balance;
                        return ExecStatus::kOk;
                      });
    });
    return out;
  };
  EXPECT_EQ(bal1, balance2(1));
  EXPECT_EQ(bal2, balance2(2));
  EXPECT_EQ(bal3, balance2(3));
  EXPECT_EQ(bal4, balance2(4));
  EXPECT_EQ(fee, balance2(kFeeAccount));
}

// First motivating case (Figure 1a): disjoint program paths; only the
// conflicting one re-executes.
TEST_F(Mv3cEngineTest, DisjointRootsRepairIndependently) {
  Seed(10, 1000);
  auto two_updates = [this](int64_t acc_a, int64_t acc_b) {
    return [this, acc_a, acc_b](Mv3cTransaction& t) -> ExecStatus {
      ExecStatus st = t.Lookup(
          table_, acc_a, ColumnMask::Of(kColBalance),
          [this](Mv3cTransaction& t, AccountTable::Object* o,
                 const AccountRow* r) {
            AccountRow n = *r;
            n.balance += 1;
            return t.UpdateRow(table_, o, n, ColumnMask::Of(kColBalance));
          });
      if (st != ExecStatus::kOk) return st;
      return t.Lookup(table_, acc_b, ColumnMask::Of(kColBalance),
                      [this](Mv3cTransaction& t, AccountTable::Object* o,
                             const AccountRow* r) {
                        AccountRow n = *r;
                        n.balance += 10;
                        return t.UpdateRow(table_, o, n,
                                           ColumnMask::Of(kColBalance));
                      });
    };
  };
  Mv3cExecutor a(&mgr_), b(&mgr_);
  a.Reset(two_updates(1, 2));
  b.Reset(two_updates(1, 3));  // conflicts with a only on account 1
  a.Begin();
  b.Begin();
  ASSERT_EQ(a.Step(), StepResult::kCommitted);
  ASSERT_EQ(b.Step(), StepResult::kNeedsRetry);
  ASSERT_EQ(b.Step(), StepResult::kCommitted);
  EXPECT_EQ(b.stats().reexecuted_closures, 1u);  // only block A re-ran
  EXPECT_EQ(Balance(1), 1002);
  EXPECT_EQ(Balance(2), 1010);
  EXPECT_EQ(Balance(3), 1010);
}

// §2.3.1/§2.4.1: blind writes under kAllowMultiple never conflict.
TEST_F(Mv3cEngineTest, BlindWritesDoNotConflict) {
  Seed(10, 1000);
  table_.set_ww_policy(WwPolicy::kAllowMultiple);
  auto stamp = [this](int64_t date) {
    return [this, date](Mv3cTransaction& t) -> ExecStatus {
      return t.BlindUpdate(table_, kFeeAccount, ColumnMask::Of(kColDate),
                           [date](AccountRow& r) { r.last_date = date; });
    };
  };
  Mv3cExecutor a(&mgr_), b(&mgr_);
  a.Reset(stamp(111));
  b.Reset(stamp(222));
  a.Begin();
  b.Begin();
  ASSERT_EQ(a.Step(), StepResult::kCommitted);
  ASSERT_EQ(b.Step(), StepResult::kCommitted);  // no conflict, no repair
  EXPECT_EQ(b.stats().validation_failures, 0u);
  EXPECT_EQ(b.stats().ww_restarts, 0u);
}

// Under kFailFast the same scenario prematurely aborts and restarts.
TEST_F(Mv3cEngineTest, FailFastPolicyRestartsOnWwConflict) {
  Seed(10, 1000);
  table_.set_ww_policy(WwPolicy::kFailFast);
  auto bump = [this]() {
    return [this](Mv3cTransaction& t) -> ExecStatus {
      return t.Lookup(table_, kFeeAccount, ColumnMask::Of(kColBalance),
                      [this](Mv3cTransaction& t, AccountTable::Object* o,
                             const AccountRow* r) {
                        AccountRow n = *r;
                        n.balance += 1;
                        return t.UpdateRow(table_, o, n,
                                           ColumnMask::Of(kColBalance));
                      });
    };
  };
  Mv3cExecutor a(&mgr_), b(&mgr_);
  a.Reset(bump());
  b.Reset(bump());
  a.Begin();
  b.Begin();
  // a writes first but doesn't commit yet: step b first -> WW conflict.
  // To stage this we need manual interleaving: run a's program body only.
  ASSERT_EQ(a.txn().RunProgram(bump()), ExecStatus::kOk);
  ASSERT_EQ(b.Step(), StepResult::kNeedsRetry);  // fail-fast restart pending
  EXPECT_EQ(b.stats().ww_restarts, 1u);
  // Let a commit, then b's restart succeeds.
  ASSERT_TRUE(mgr_.TryCommit(&a.txn().inner(), [&](CommittedRecord* h) {
    return a.txn().ValidateAndMark(h);
  }));
  ++a.txn().stats().commits;
  // b may need a couple more restarts until its start timestamp passes a's
  // commit (each restart before that sees a newer committed version and
  // fail-fasts again).
  StepResult r;
  int steps = 0;
  do {
    r = b.Step();
    ASSERT_LT(++steps, 10);
  } while (r == StepResult::kNeedsRetry);
  ASSERT_EQ(r, StepResult::kCommitted);
  EXPECT_GE(b.stats().ww_restarts, 1u);
  EXPECT_EQ(Balance(kFeeAccount), 2);
}

// §4.1 attribute-level validation: updates to a column the predicate does
// not monitor do not invalidate it.
TEST_F(Mv3cEngineTest, AttributeLevelValidationSkipsDisjointColumns) {
  Seed(10, 1000);
  Mv3cExecutor reader(&mgr_);
  // Reader monitors only the balance column of account 5.
  reader.Reset([this](Mv3cTransaction& t) {
    return t.Lookup(table_, 5, ColumnMask::Of(kColBalance),
                    [this](Mv3cTransaction& t, AccountTable::Object* o,
                           const AccountRow* r) {
                      AccountRow n = *r;
                      n.balance += 1;  // write so commit validates
                      return t.UpdateRow(table_, o, n,
                                         ColumnMask::Of(kColBalance));
                    });
  });
  reader.Begin();
  // A concurrent transaction updates only last_date of account 5.
  Mv3cExecutor w(&mgr_);
  ASSERT_EQ(w.Run([this](Mv3cTransaction& t) {
              return t.Lookup(table_, 5, ColumnMask::Of(kColDate),
                              [this](Mv3cTransaction& t,
                                     AccountTable::Object* o,
                                     const AccountRow* r) {
                                AccountRow n = *r;
                                n.last_date = 77;
                                return t.UpdateRow(table_, o, n,
                                                   ColumnMask::Of(kColDate));
                              });
            }),
            StepResult::kCommitted);
  // Despite both touching account 5, the reader commits without repair.
  ASSERT_EQ(reader.Step(), StepResult::kCommitted);
  EXPECT_EQ(reader.stats().validation_failures, 0u);
}

// §4.2 result-set reuse: the Bonus program patches its scan instead of
// re-scanning.
TEST_F(Mv3cEngineTest, ResultSetReuseFixesScan) {
  Seed(20, 400);  // all below the 500 threshold
  // Give accounts 1..3 balance >= 500.
  for (int64_t id = 1; id <= 3; ++id) {
    Mv3cExecutor e(&mgr_);
    ASSERT_EQ(e.Run([&](Mv3cTransaction& t) {
                return t.Lookup(table_, id, ColumnMask::Of(kColBalance),
                                [&](Mv3cTransaction& t,
                                    AccountTable::Object* o,
                                    const AccountRow* r) {
                                  AccountRow n = *r;
                                  n.balance = 600;
                                  return t.UpdateRow(
                                      table_, o, n,
                                      ColumnMask::Of(kColBalance));
                                });
              }),
              StepResult::kCommitted);
  }
  // Bonus: +1 CHF to every account with balance >= 500 (full scan).
  Mv3cExecutor bonus(&mgr_);
  bonus.Reset([this](Mv3cTransaction& t) {
    return t.Scan(
        table_, [](const AccountRow& r) { return r.balance >= 500; },
        ColumnMask::Of(kColBalance), /*reuse_result_set=*/true,
        [this](Mv3cTransaction& t,
               const std::vector<ScanEntry<AccountTable>>& rs) {
          for (const auto& e : rs) {
            AccountRow n = e.row;
            n.balance += 1;
            const ExecStatus st = t.UpdateRow(table_, e.object, n,
                                              ColumnMask::Of(kColBalance));
            if (st != ExecStatus::kOk) return st;
          }
          return ExecStatus::kOk;
        });
  });
  bonus.Begin();
  // Concurrently, account 7 crosses the threshold and commits first.
  Mv3cExecutor w(&mgr_);
  ASSERT_EQ(w.Run([this](Mv3cTransaction& t) {
              return t.Lookup(table_, 7, ColumnMask::Of(kColBalance),
                              [this](Mv3cTransaction& t,
                                     AccountTable::Object* o,
                                     const AccountRow* r) {
                                AccountRow n = *r;
                                n.balance = 700;
                                return t.UpdateRow(
                                    table_, o, n,
                                    ColumnMask::Of(kColBalance));
                              });
            }),
            StepResult::kCommitted);
  ASSERT_EQ(bonus.Step(), StepResult::kNeedsRetry);  // scan invalidated
  ASSERT_EQ(bonus.Step(), StepResult::kCommitted);
  EXPECT_EQ(bonus.stats().result_set_fixes, 1u);
  // Accounts 1..3 and 7 got the bonus.
  EXPECT_EQ(Balance(1), 601);
  EXPECT_EQ(Balance(2), 601);
  EXPECT_EQ(Balance(3), 601);
  EXPECT_EQ(Balance(7), 701);
  EXPECT_EQ(Balance(8), 400);
}

// §4.3 exclusive repair: after the threshold, repair happens inside the
// commit critical section and the transaction commits immediately.
TEST_F(Mv3cEngineTest, ExclusiveRepairCommitsAfterThreshold) {
  Seed(10, 1000);
  RetryPolicy cfg;
  cfg.exclusive_repair_after = 1;
  Mv3cExecutor victim(&mgr_, cfg);
  victim.Reset(TransferMoney(1, 2, 200));
  victim.Begin();
  // Make it fail once.
  Mv3cExecutor other(&mgr_);
  ASSERT_EQ(other.Run(TransferMoney(3, 4, 400)), StepResult::kCommitted);
  ASSERT_EQ(victim.Step(), StepResult::kNeedsRetry);  // failure #1
  // Second round reaches the exclusive threshold: repair-in-lock commits
  // even if another transaction slips in a commit before the lock.
  Mv3cExecutor other2(&mgr_);
  ASSERT_EQ(other2.Run(TransferMoney(5, 6, 300)), StepResult::kCommitted);
  ASSERT_EQ(victim.Step(), StepResult::kCommitted);
  EXPECT_GE(victim.stats().exclusive_repairs, 1u);
  EXPECT_EQ(Balance(kFeeAccount), 2 + 4 + 3);
}

// Repeated conflicts: repair loops until validation succeeds (Figure 4).
TEST_F(Mv3cEngineTest, MultiRoundRepairConverges) {
  Seed(10, 100000);
  Mv3cExecutor victim(&mgr_);
  victim.Reset(TransferMoney(1, 2, 200));
  victim.Begin();
  for (int round = 0; round < 5; ++round) {
    Mv3cExecutor other(&mgr_);
    ASSERT_EQ(other.Run(TransferMoney(3, 4, 100 + round)),
              StepResult::kCommitted);
    ASSERT_EQ(victim.Step(), StepResult::kNeedsRetry);
  }
  ASSERT_EQ(victim.Step(), StepResult::kCommitted);
  EXPECT_EQ(victim.stats().repair_rounds, 5u);
  EXPECT_EQ(victim.stats().reexecuted_closures, 5u);  // P3 five times
}

// A conflict on the ROOT predicate repairs the whole transaction (worst
// case: equivalent to restart, §6.2).
TEST_F(Mv3cEngineTest, RootConflictReexecutesWholeGraph) {
  Seed(10, 1000);
  Mv3cExecutor victim(&mgr_);
  victim.Reset(TransferMoney(1, 2, 200));
  victim.Begin();
  // Concurrent transfer OUT of account 1 -> invalidates victim's P1 root.
  Mv3cExecutor other(&mgr_);
  ASSERT_EQ(other.Run(TransferMoney(1, 5, 100)), StepResult::kCommitted);
  ASSERT_EQ(victim.Step(), StepResult::kNeedsRetry);
  ASSERT_EQ(victim.Step(), StepResult::kCommitted);
  // Only the root closure re-executed explicitly; it recreated children.
  EXPECT_EQ(victim.stats().reexecuted_closures, 1u);
  EXPECT_EQ(Balance(1), 1000 - 101 - 202);
  EXPECT_EQ(Balance(kFeeAccount), 1 + 2);
}

TEST_F(Mv3cEngineTest, ReadOnlyCommitsWithoutValidation) {
  Seed(10, 1000);
  Mv3cExecutor ro(&mgr_);
  ro.Reset([this](Mv3cTransaction& t) {
    return t.Scan(
        table_, [](const AccountRow&) { return true; }, ColumnMask::All(),
        false,
        [](Mv3cTransaction&, const std::vector<ScanEntry<AccountTable>>&) {
          return ExecStatus::kOk;
        });
  });
  ro.Begin();
  // A concurrent writer commits — irrelevant for the read-only txn.
  Mv3cExecutor w(&mgr_);
  ASSERT_EQ(w.Run(TransferMoney(1, 2, 100)), StepResult::kCommitted);
  ASSERT_EQ(ro.Step(), StepResult::kCommitted);
  EXPECT_EQ(ro.stats().validation_failures, 0u);
  EXPECT_EQ(ro.last_commit_ts(), ro.txn().inner().start_ts());
}

}  // namespace
}  // namespace mv3c
