// Banking under contention (the paper's Example 2): a stream of
// TransferMoney transactions that all conflict on the central fee account,
// driven at increasing concurrency under both engines. Shows live how
// MV3C's repairs (one closure each) beat OMVCC's full restarts, and that
// the money-conservation invariant survives.
//
//   build/examples/banking_contention [n_txns]

#include <cstdio>
#include <cstdlib>

#include "driver/window_driver.h"
#include "workloads/banking.h"

using namespace mv3c;

int main(int argc, char** argv) {
  const uint64_t n_txns = argc > 1 ? std::strtoull(argv[1], nullptr, 10)
                                   : 50000;
  const int64_t n_accounts = 10000;
  std::printf("Banking example: %llu TransferMoney txns, %lld accounts, all "
              "conflicting on the fee account\n\n",
              static_cast<unsigned long long>(n_txns),
              static_cast<long long>(n_accounts));
  std::printf("%12s %14s %14s %14s %14s\n", "concurrency", "mv3c tx/s",
              "mv3c repairs", "omvcc tx/s", "omvcc fails");

  for (size_t window : {1, 4, 16, 64}) {
    banking::TransferGenerator gen(n_accounts, 100, 1);
    std::vector<banking::TransferParams> stream(n_txns);
    for (auto& p : stream) p = gen.Next();

    // MV3C run.
    TransactionManager mgr1;
    banking::BankingDb db1(&mgr1, n_accounts, 1'000'000);
    db1.Load();
    WindowDriver<Mv3cExecutor> d1(
        window, [&](...) { return std::make_unique<Mv3cExecutor>(&mgr1); },
        [&] { mgr1.CollectGarbage(); });
    auto t0 = std::chrono::steady_clock::now();
    const DriveResult r1 = d1.Run(CountedSource<Mv3cExecutor::Program>(
        n_txns,
        [&](uint64_t i) { return banking::Mv3cTransferMoney(db1, stream[i]); }));
    const double s1 =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    uint64_t repairs = 0;
    for (auto* e : d1.executors()) repairs += e->stats().repair_rounds;

    // OMVCC run on identical input: the same program under the restart
    // policy.
    TransactionManager mgr2;
    banking::BankingDb db2(&mgr2, n_accounts, 1'000'000);
    db2.Load();
    WindowDriver<Mv3cExecutor> d2(
        window,
        [&](...) {
          return std::make_unique<Mv3cExecutor>(&mgr2, RetryPolicy{},
                                                ConflictPolicy::kRestart);
        },
        [&] { mgr2.CollectGarbage(); });
    t0 = std::chrono::steady_clock::now();
    const DriveResult r2 = d2.Run(CountedSource<Mv3cExecutor::Program>(
        n_txns,
        [&](uint64_t i) { return banking::Mv3cTransferMoney(db2, stream[i]); }));
    const double s2 =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    uint64_t fails = 0;
    for (auto* e : d2.executors()) {
      fails += e->stats().validation_failures + e->stats().ww_restarts;
    }

    std::printf("%12zu %14.0f %14llu %14.0f %14llu\n", window,
                r1.committed / s1, static_cast<unsigned long long>(repairs),
                r2.committed / s2, static_cast<unsigned long long>(fails));

    // Invariant: total money unchanged under both engines.
    const int64_t want = n_accounts * 1'000'000;
    if (db1.TotalBalance() != want || db2.TotalBalance() != want) {
      std::printf("MONEY CONSERVATION VIOLATED\n");
      return 1;
    }
  }
  std::printf("\nmoney conserved under both engines at every concurrency "
              "level\n");
  return 0;
}
