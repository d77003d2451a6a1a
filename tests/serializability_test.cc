// Property tests for commit-order serializability (Theorem 2.1): the final
// database state after a concurrent run must equal the state produced by
// re-executing the committed transactions serially in commit-timestamp
// order, and the Banking money-conservation invariant must hold. Run for
// both MV3C (repair) and OMVCC (abort/restart), over window-simulated
// concurrency (paper Appendix C) and real threads.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <mutex>
#include <thread>
#include <vector>

#include "driver/thread_driver.h"
#include "driver/window_driver.h"
#include "workloads/banking.h"

namespace mv3c {
namespace {

/// An OMVCC executor: the MV3C executor under the restart policy.
std::unique_ptr<Mv3cExecutor> MakeOmvcc(TransactionManager* mgr) {
  return std::make_unique<Mv3cExecutor>(mgr, RetryPolicy{},
                                        ConflictPolicy::kRestart);
}

using banking::AccountRow;
using banking::BankingDb;
using banking::TransferParams;

constexpr int64_t kAccounts = 32;  // small -> frequent conflicts
constexpr int64_t kInitial = 1'000'000;
constexpr uint64_t kTxns = 2000;

std::vector<TransferParams> MakeStream(int fee_percent, uint64_t seed) {
  banking::TransferGenerator gen(kAccounts, fee_percent, seed);
  std::vector<TransferParams> stream;
  stream.reserve(kTxns);
  for (uint64_t i = 0; i < kTxns; ++i) stream.push_back(gen.Next());
  return stream;
}

/// Re-executes `committed` (ordered by commit timestamp) serially on a
/// fresh database and returns every account balance.
std::vector<int64_t> SerialReference(
    const std::vector<std::pair<Timestamp, TransferParams>>& committed) {
  TransactionManager mgr;
  BankingDb db(&mgr, kAccounts, kInitial);
  db.Load();
  Mv3cExecutor exec(&mgr);
  for (const auto& [cts, params] : committed) {
    const StepResult r = exec.Run(banking::Mv3cTransferMoney(db, params));
    EXPECT_EQ(r, StepResult::kCommitted)
        << "committed transaction must re-commit serially";
  }
  std::vector<int64_t> balances;
  for (int64_t id = 0; id <= kAccounts; ++id) {
    balances.push_back(db.BalanceOf(id));
  }
  return balances;
}

std::vector<int64_t> Balances(BankingDb& db) {
  std::vector<int64_t> out;
  for (int64_t id = 0; id <= kAccounts; ++id) out.push_back(db.BalanceOf(id));
  return out;
}

class WindowSerializabilityTest : public ::testing::TestWithParam<size_t> {};

TEST_P(WindowSerializabilityTest, Mv3cWindowRunIsCommitOrderSerializable) {
  const size_t window = GetParam();
  TransactionManager mgr;
  BankingDb db(&mgr, kAccounts, kInitial);
  db.Load();
  const auto stream = MakeStream(/*fee_percent=*/100, /*seed=*/7 + window);

  std::vector<std::pair<Timestamp, TransferParams>> committed;
  WindowDriver<Mv3cExecutor> driver(
      window, [&](...) { return std::make_unique<Mv3cExecutor>(&mgr); },
      [&] { mgr.CollectGarbage(); });
  driver.set_on_complete(
      [&](uint64_t idx, StepResult r, Mv3cExecutor& exec) {
        if (r == StepResult::kCommitted && !exec.txn().ReadOnly()) {
        }
        if (r == StepResult::kCommitted) {
          committed.push_back({exec.last_commit_ts(), stream[idx]});
        }
      });
  const DriveResult result =
      driver.Run(CountedSource<Mv3cExecutor::Program>(
          kTxns, [&](uint64_t i) {
            return banking::Mv3cTransferMoney(db, stream[i]);
          }));
  // The retry budget may shed a few starved transactions as kExhausted
  // (they are rolled back and excluded from the serial reference).
  EXPECT_EQ(result.committed + result.user_aborted + result.exhausted, kTxns);

  // Money conservation.
  EXPECT_EQ(db.TotalBalance(), kAccounts * kInitial);

  // Commit-order serial equivalence.
  std::sort(committed.begin(), committed.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  EXPECT_EQ(Balances(db), SerialReference(committed));
}

TEST_P(WindowSerializabilityTest, OmvccWindowRunIsCommitOrderSerializable) {
  const size_t window = GetParam();
  TransactionManager mgr;
  BankingDb db(&mgr, kAccounts, kInitial);
  db.Load();
  const auto stream = MakeStream(/*fee_percent=*/100, /*seed=*/19 + window);

  std::vector<std::pair<Timestamp, TransferParams>> committed;
  WindowDriver<Mv3cExecutor> driver(
      window, [&](...) { return MakeOmvcc(&mgr); },
      [&] { mgr.CollectGarbage(); });
  driver.set_on_complete(
      [&](uint64_t idx, StepResult r, Mv3cExecutor& exec) {
        if (r == StepResult::kCommitted) {
          committed.push_back({exec.last_commit_ts(), stream[idx]});
        }
      });
  const DriveResult result =
      driver.Run(CountedSource<Mv3cExecutor::Program>(
          kTxns, [&](uint64_t i) {
            return banking::Mv3cTransferMoney(db, stream[i]);
          }));
  // The retry budget may shed a few starved transactions as kExhausted
  // (they are rolled back and excluded from the serial reference).
  EXPECT_EQ(result.committed + result.user_aborted + result.exhausted, kTxns);
  EXPECT_EQ(db.TotalBalance(), kAccounts * kInitial);

  std::sort(committed.begin(), committed.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  EXPECT_EQ(Balances(db), SerialReference(committed));
}

// Mixed engines in one run: MV3C and OMVCC transactions interoperate (§3)
// because they share the recently-committed list and validation machinery.
TEST_P(WindowSerializabilityTest, MixedEnginesInteroperate) {
  const size_t window = GetParam();
  TransactionManager mgr;
  BankingDb db(&mgr, kAccounts, kInitial);
  db.Load();
  const auto stream = MakeStream(/*fee_percent=*/100, /*seed=*/31 + window);

  // Drive both engines in lockstep windows by alternating streams.
  std::vector<std::pair<Timestamp, TransferParams>> committed;
  std::mutex mu;
  auto record = [&](Timestamp cts, const TransferParams& p) {
    std::lock_guard<std::mutex> g(mu);
    committed.push_back({cts, p});
  };

  WindowDriver<Mv3cExecutor> mv3c_driver(
      std::max<size_t>(1, window / 2),
      [&](...) { return std::make_unique<Mv3cExecutor>(&mgr); });
  WindowDriver<Mv3cExecutor> omvcc_driver(
      std::max<size_t>(1, window / 2),
      [&](...) { return MakeOmvcc(&mgr); });
  mv3c_driver.set_on_complete(
      [&](uint64_t idx, StepResult r, Mv3cExecutor& e) {
        if (r == StepResult::kCommitted)
          record(e.last_commit_ts(), stream[idx * 2]);
      });
  omvcc_driver.set_on_complete(
      [&](uint64_t idx, StepResult r, Mv3cExecutor& e) {
        if (r == StepResult::kCommitted)
          record(e.last_commit_ts(), stream[idx * 2 + 1]);
      });
  // Interleave: run each driver on alternate halves of the stream, on two
  // threads so their windows overlap in time.
  std::thread t1([&] {
    mv3c_driver.Run(CountedSource<Mv3cExecutor::Program>(
        kTxns / 2, [&](uint64_t i) {
          return banking::Mv3cTransferMoney(db, stream[i * 2]);
        }));
  });
  std::thread t2([&] {
    omvcc_driver.Run(CountedSource<Mv3cExecutor::Program>(
        kTxns / 2, [&](uint64_t i) {
          return banking::Mv3cTransferMoney(db, stream[i * 2 + 1]);
        }));
  });
  t1.join();
  t2.join();

  EXPECT_EQ(db.TotalBalance(), kAccounts * kInitial);
  std::sort(committed.begin(), committed.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  EXPECT_EQ(Balances(db), SerialReference(committed));
}

INSTANTIATE_TEST_SUITE_P(Windows, WindowSerializabilityTest,
                         ::testing::Values(1, 2, 8, 32, 64));

TEST(ThreadedSerializabilityTest, Mv3cThreadedRunIsCommitOrderSerializable) {
  TransactionManager mgr;
  BankingDb db(&mgr, kAccounts, kInitial);
  db.Load();
  const auto stream = MakeStream(/*fee_percent=*/100, /*seed=*/99);

  std::mutex mu;
  std::vector<std::pair<Timestamp, TransferParams>> committed;
  const DriveResult result = ThreadDriver<Mv3cExecutor>::Run(
      4, kTxns, [&](size_t) { return std::make_unique<Mv3cExecutor>(&mgr); },
      [&](uint64_t i, size_t) {
        return Mv3cExecutor::Program(
            [&, i](Mv3cTransaction& t) -> ExecStatus {
              const auto st = banking::Mv3cTransferMoney(db, stream[i])(t);
              return st;
            });
      },
      [&] { mgr.CollectGarbage(); });
  (void)result;
  // Threaded commit timestamps are not captured per txn here (the driver is
  // outcome-oriented); verify the conservation invariant instead, which a
  // serializability violation on this workload would break.
  EXPECT_EQ(db.TotalBalance(), kAccounts * kInitial);
}

// Every transfer pays the shared fee account, so pre-validation keeps
// failing on commits that are still being published (linked into the
// recently-committed list, high-water mark not yet stored). The repair
// round's new start must include such a commit: otherwise repair re-reads
// the fee balance that commit overwrote, the final validation skips it as
// already validated, and a fee is lost.
TEST(ThreadedSerializabilityTest, Mv3cRepairAfterInFlightCommitKeepsFees) {
  constexpr uint64_t kRuns = 40;
  constexpr uint64_t kRunTxns = 5000;
  banking::TransferGenerator gen(kAccounts, /*fee_percent=*/100, /*seed=*/31);
  std::vector<TransferParams> stream;
  for (uint64_t i = 0; i < kRunTxns; ++i) stream.push_back(gen.Next());
  for (uint64_t run = 0; run < kRuns; ++run) {
    TransactionManager mgr;
    BankingDb db(&mgr, kAccounts, kInitial);
    db.Load();
    ThreadDriver<Mv3cExecutor>::Run(
        4, kRunTxns,
        [&](size_t) { return std::make_unique<Mv3cExecutor>(&mgr); },
        [&](uint64_t i, size_t) {
          return banking::Mv3cTransferMoney(db, stream[i]);
        },
        [&] { mgr.CollectGarbage(); });
    ASSERT_EQ(db.TotalBalance(), kAccounts * kInitial) << "run " << run;
  }
}

TEST(ThreadedSerializabilityTest, MixedPolicyStressConservesMoney) {
  TransactionManager mgr;
  BankingDb db(&mgr, kAccounts, kInitial);
  db.Load();
  banking::TransferGenerator gen(kAccounts, /*fee*/ 60, /*seed=*/5);
  std::vector<TransferParams> stream;
  for (uint64_t i = 0; i < kTxns; ++i) stream.push_back(gen.Next());

  const DriveResult result = ThreadDriver<Mv3cExecutor>::Run(
      4, kTxns, [&](size_t) { return MakeOmvcc(&mgr); },
      [&](uint64_t i, size_t) { return banking::Mv3cTransferMoney(db, stream[i]); },
      [&] { mgr.CollectGarbage(); });
  // The retry budget may shed a few starved transactions as kExhausted
  // (they are rolled back and excluded from the serial reference).
  EXPECT_EQ(result.committed + result.user_aborted + result.exhausted, kTxns);
  EXPECT_EQ(db.TotalBalance(), kAccounts * kInitial);
}

}  // namespace
}  // namespace mv3c
