// Trading scenario (the paper's Example 5 / §6.1.1 narrative): a
// TradeOrder decrypts a customer payload — genuinely expensive CPU work —
// then reads security prices. A concurrent PriceUpdate invalidates one of
// its security predicates. Under OMVCC the whole order restarts,
// re-decrypting the payload; under MV3C the repair re-reads one price and
// re-encodes one trade line. This example stages exactly that and reports
// the work each engine did.
//
//   build/examples/trading_repair

#include <cstdio>

#include "workloads/trading.h"

using namespace mv3c;
using namespace mv3c::trading;

int main() {
  TransactionManager mgr;
  TradingDb db(&mgr, /*securities=*/100000, /*customers=*/1000);
  db.Load();

  // The client prepares an encrypted order for 3 securities.
  OrderPayload payload{};
  payload.trade_id = 1;
  payload.timestamp = 42;
  payload.n_items = 3;
  payload.items[0] = {100, 1};
  payload.items[1] = {200, -1};
  payload.items[2] = {300, 1};
  TradeOrderParams order;
  order.customer_id = 7;
  order.payload = EncodePayload(payload, CustomerKeyFor(7));

  std::printf("staging: TradeOrder(3 securities) vs concurrent "
              "PriceUpdate(security 200)\n\n");

  // --- MV3C ---
  Mv3cExecutor trade(&mgr);
  trade.Reset(Mv3cTradeOrder(db, order));
  trade.Begin();  // snapshot drawn before the price update commits
  Mv3cExecutor pu(&mgr);
  pu.MustRun(Mv3cPriceUpdate(db, {200, 7777}));
  StepResult r = trade.Step();
  std::printf("MV3C : first attempt  -> %s\n",
              r == StepResult::kNeedsRetry ? "validation failed" : "commit");
  r = trade.Step();
  std::printf("MV3C : repair+commit  -> %s\n",
              r == StepResult::kCommitted ? "committed" : "failed");
  std::printf("MV3C : invalidated predicates=%llu, closures re-executed=%llu"
              " (the decrypt closure did NOT re-run)\n\n",
              static_cast<unsigned long long>(
                  trade.stats().invalidated_predicates),
              static_cast<unsigned long long>(
                  trade.stats().reexecuted_closures));

  // --- OMVCC: the same programs under the restart policy, same staging on
  // a fresh database ---
  TransactionManager mgr2;
  TradingDb db2(&mgr2, 100000, 1000);
  db2.Load();
  Mv3cExecutor trade2(&mgr2, {}, ConflictPolicy::kRestart);
  trade2.Reset(Mv3cTradeOrder(db2, order));
  trade2.Begin();
  Mv3cExecutor pu2(&mgr2, {}, ConflictPolicy::kRestart);
  pu2.MustRun(Mv3cPriceUpdate(db2, {200, 7777}));
  r = trade2.Step();
  std::printf("OMVCC: first attempt  -> %s\n",
              r == StepResult::kNeedsRetry
                  ? "conflict (full restart: re-decrypt, re-read all)"
                  : "commit");
  int extra_rounds = 0;
  while (r == StepResult::kNeedsRetry) {
    r = trade2.Step();
    ++extra_rounds;
  }
  std::printf("OMVCC: committed after %d full re-execution(s)\n",
              extra_rounds);

  // Verify the MV3C-repaired trade line carries the NEW price.
  Mv3cExecutor reader(&mgr);
  reader.MustRun([&](Mv3cTransaction& t) {
    return t.Lookup(
        db.trade_lines, payload.trade_id * 16 + 1, ColumnMask::All(),
        [&](Mv3cTransaction&, TradeLineTable::Object*,
            const TradeLineRow* row) {
          const OrderPayload line =
              DecodePayload(row->encrypted_data, CustomerKeyFor(7));
          std::printf("\nrepaired trade line for security 200: traded price "
                      "%lld (expected 7777: sell order)\n",
                      static_cast<long long>(line.trade_id));
          return ExecStatus::kOk;
        });
  });
  return 0;
}
