// Ablation (§4.3): exclusive repair. After N failed validation rounds the
// repair runs inside the commit critical section, guaranteeing the commit
// and saving further validation rounds, at the price of blocking other
// committers. Under extreme contention this caps the number of rounds a
// transaction burns; with a low threshold it can also serialize the
// system.

#include "bench/runners.h"

int main(int argc, char** argv) {
  using namespace mv3c;
  using namespace mv3c::bench;
  TraceSession trace;
  const bool full = FullRun(argc, argv);
  const int64_t accounts = full ? 100000 : 10000;
  const uint64_t n_txns = full ? 1000000 : 60000;

  std::printf("# Ablation: §4.3 exclusive repair thresholds, Banking, "
              "window 32\n");
  TablePrinter table({"threshold", "tps", "repairs", "exclusive",
                      "validation_fails"});
  for (int threshold : {-1, 0, 1, 3}) {
    TransactionManager mgr;
    banking::BankingDb db(&mgr, accounts, 1'000'000);
    db.Load();
    banking::TransferGenerator gen(accounts, 100, 42);
    std::vector<banking::TransferParams> stream(n_txns);
    for (auto& p : stream) p = gen.Next();
    RetryPolicy retry;
    retry.exclusive_repair_after = threshold;
    uint64_t exclusive = 0, repairs = 0, fails = 0;
    WindowDriver<Mv3cExecutor> driver(
        32, [&](...) { return std::make_unique<Mv3cExecutor>(&mgr, retry); },
        [&] { mgr.CollectGarbage(); });
    const DriveResult r = driver.Run(CountedSource<Mv3cExecutor::Program>(
        n_txns,
        [&](uint64_t i) { return banking::Mv3cTransferMoney(db, stream[i]); }));
    const double seconds = r.seconds;  // timed by the driver itself
    for (Mv3cExecutor* e : driver.executors()) {
      exclusive += e->stats().exclusive_repairs;
      repairs += e->stats().repair_rounds;
      fails += e->stats().validation_failures;
    }
    table.Row({Fmt(static_cast<uint64_t>(threshold < 0 ? 999 : threshold)),
               Fmt(static_cast<double>(r.committed) / seconds, 0),
               Fmt(repairs), Fmt(exclusive), Fmt(fails)});
  }
  std::printf("(threshold 999 = disabled)\n");
  return 0;
}
