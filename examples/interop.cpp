// Interoperability (paper §3): MV3C and OMVCC transactions running in the
// same database at the same time. The only interaction between engines is
// the validation phase, and both share the recently-committed list of the
// transaction manager. Here OMVCC is the same executor and program under
// ConflictPolicy::kRestart, so the policy can be chosen per executor. This
// example runs a mixed stream and cross-checks the invariant.
//
//   build/examples/interop

#include <cstdio>
#include <thread>

#include "driver/window_driver.h"
#include "workloads/banking.h"

using namespace mv3c;

int main() {
  constexpr int64_t kAccounts = 1000;
  constexpr uint64_t kTxnsPerEngine = 20000;
  TransactionManager mgr;  // ONE manager serves both engines
  banking::BankingDb db(&mgr, kAccounts, 1'000'000);
  db.Load();

  banking::TransferGenerator gen_m(kAccounts, 100, 11);
  banking::TransferGenerator gen_o(kAccounts, 100, 22);
  std::vector<banking::TransferParams> stream_m(kTxnsPerEngine);
  std::vector<banking::TransferParams> stream_o(kTxnsPerEngine);
  for (auto& p : stream_m) p = gen_m.Next();
  for (auto& p : stream_o) p = gen_o.Next();

  std::printf("running %llu MV3C and %llu OMVCC TransferMoney transactions "
              "concurrently against one database...\n",
              static_cast<unsigned long long>(kTxnsPerEngine),
              static_cast<unsigned long long>(kTxnsPerEngine));

  DriveResult rm, ro;
  std::thread mv3c_thread([&] {
    WindowDriver<Mv3cExecutor> d(
        8, [&](...) { return std::make_unique<Mv3cExecutor>(&mgr); },
        [&] { mgr.CollectGarbage(); });
    rm = d.Run(CountedSource<Mv3cExecutor::Program>(
        kTxnsPerEngine, [&](uint64_t i) {
          return banking::Mv3cTransferMoney(db, stream_m[i]);
        }));
  });
  std::thread omvcc_thread([&] {
    WindowDriver<Mv3cExecutor> d(8, [&](...) {
      return std::make_unique<Mv3cExecutor>(&mgr, RetryPolicy{},
                                            ConflictPolicy::kRestart);
    });
    ro = d.Run(CountedSource<Mv3cExecutor::Program>(
        kTxnsPerEngine, [&](uint64_t i) {
          return banking::Mv3cTransferMoney(db, stream_o[i]);
        }));
  });
  mv3c_thread.join();
  omvcc_thread.join();

  std::printf("MV3C : %llu committed, %llu user-aborted\n",
              static_cast<unsigned long long>(rm.committed),
              static_cast<unsigned long long>(rm.user_aborted));
  std::printf("OMVCC: %llu committed, %llu user-aborted\n",
              static_cast<unsigned long long>(ro.committed),
              static_cast<unsigned long long>(ro.user_aborted));

  const int64_t total = db.TotalBalance();
  const int64_t want = kAccounts * 1'000'000;
  std::printf("total balance: %lld (expected %lld) -> %s\n",
              static_cast<long long>(total), static_cast<long long>(want),
              total == want ? "serializable interop confirmed" : "VIOLATION");
  return total == want ? 0 : 1;
}
