// Trading benchmark (paper Example 5) workload tests: payload round trip,
// TradeOrder/PriceUpdate semantics under both engines, the blind-write
// asymmetry (§6.1.1), and repair locality (conflicting TradeOrders repair
// only the touched security's predicate without re-decrypting).

#include <gtest/gtest.h>

#include "driver/window_driver.h"
#include "workloads/trading.h"

namespace mv3c {
namespace {

constexpr ConflictPolicy kOmvcc = ConflictPolicy::kRestart;

using namespace mv3c::trading;  // NOLINT

class TradingTest : public ::testing::Test {
 protected:
  TradingTest() : db_(&mgr_, 1000, 500) { db_.Load(); }

  TradeOrderParams MakeOrder(uint64_t customer, uint64_t trade_id,
                             std::vector<uint64_t> security_ids) {
    OrderPayload p{};
    p.trade_id = trade_id;
    p.timestamp = trade_id * 7;
    p.n_items = static_cast<uint32_t>(security_ids.size());
    for (size_t i = 0; i < security_ids.size(); ++i) {
      p.items[i].security_id = security_ids[i];
      p.items[i].buy = 1;
    }
    TradeOrderParams params;
    params.customer_id = customer;
    params.payload = EncodePayload(p, CustomerKeyFor(customer));
    return params;
  }

  TransactionManager mgr_;
  TradingDb db_;
};

TEST(TradingPayloadTest, CipherRoundTrip) {
  OrderPayload p{};
  p.trade_id = 42;
  p.timestamp = 7;
  p.n_items = 2;
  p.items[0] = {17, 1};
  p.items[1] = {23, -1};
  const Blob blob = EncodePayload(p, 0xDEADBEEF);
  const OrderPayload q = DecodePayload(blob, 0xDEADBEEF);
  EXPECT_EQ(q.trade_id, 42u);
  EXPECT_EQ(q.n_items, 2u);
  EXPECT_EQ(q.items[0].security_id, 17u);
  EXPECT_EQ(q.items[1].buy, -1);
  // Wrong key garbles the payload.
  const OrderPayload bad = DecodePayload(blob, 0xBADF00D);
  EXPECT_NE(bad.trade_id, 42u);
}

TEST_F(TradingTest, TradeOrderInsertsTradeAndLines) {
  Mv3cExecutor e(&mgr_);
  ASSERT_EQ(e.Run(Mv3cTradeOrder(db_, MakeOrder(3, 100, {5, 9, 11}))),
            StepResult::kCommitted);
  EXPECT_EQ(db_.trades.ObjectCount(), 1u);
  EXPECT_EQ(db_.trade_lines.ObjectCount(), 3u);
  // Line content decrypts to the ordered security.
  Mv3cExecutor r(&mgr_);
  ASSERT_EQ(r.Run([&](Mv3cTransaction& t) {
              return t.Lookup(
                  db_.trade_lines, 100 * 16 + 0, ColumnMask::All(),
                  [&](Mv3cTransaction&, TradeLineTable::Object*,
                      const TradeLineRow* row) {
                    EXPECT_NE(row, nullptr);
                    const OrderPayload line = DecodePayload(
                        row->encrypted_data, CustomerKeyFor(3));
                    EXPECT_EQ(line.items[0].security_id, 5u);
                    return ExecStatus::kOk;
                  });
            }),
            StepResult::kCommitted);
}

TEST_F(TradingTest, PriceUpdateBlindWriteNeverConflictsInMv3c) {
  Mv3cExecutor a(&mgr_), b(&mgr_);
  a.Reset(Mv3cPriceUpdate(db_, {7, 1111}));
  b.Reset(Mv3cPriceUpdate(db_, {7, 2222}));
  a.Begin();
  b.Begin();
  ASSERT_EQ(a.Step(), StepResult::kCommitted);
  ASSERT_EQ(b.Step(), StepResult::kCommitted);
  EXPECT_EQ(b.stats().validation_failures, 0u);
  EXPECT_EQ(b.stats().ww_restarts, 0u);
  // Later committer wins.
  Mv3cExecutor r(&mgr_);
  ASSERT_EQ(r.Run([&](Mv3cTransaction& t) {
              return t.Lookup(db_.securities, 7, ColumnMask::All(),
                              [](Mv3cTransaction&, SecurityTable::Object*,
                                 const SecurityRow* row) {
                                EXPECT_EQ(row->price, 2222);
                                return ExecStatus::kOk;
                              });
            }),
            StepResult::kCommitted);
}

TEST_F(TradingTest, PriceUpdateConflictsInOmvcc) {
  Mv3cExecutor a(&mgr_, {}, kOmvcc), b(&mgr_, {}, kOmvcc);
  a.Reset(Mv3cPriceUpdate(db_, {7, 1111}));
  b.Reset(Mv3cPriceUpdate(db_, {7, 2222}));
  a.Begin();
  b.Begin();
  // a executes without committing: b fail-fasts on the uncommitted version.
  ASSERT_EQ(Mv3cPriceUpdate(db_, {7, 1111})(a.txn()), ExecStatus::kOk);
  ASSERT_EQ(b.Step(), StepResult::kNeedsRetry);
  EXPECT_EQ(b.stats().ww_restarts, 1u);
  a.txn().RollbackAll();
  mgr_.FinishAborted(&a.txn().inner());
}

// The paper's central Trading claim: a conflicting TradeOrder repairs only
// the invalidated security predicate; the decrypt/deserialize closure
// (root) does not re-run.
TEST_F(TradingTest, ConflictRepairsOnlyTouchedSecurity) {
  Mv3cExecutor order(&mgr_);
  order.Reset(Mv3cTradeOrder(db_, MakeOrder(3, 100, {5, 9, 11})));
  order.Begin();
  // A PriceUpdate on security 9 commits first.
  Mv3cExecutor pu(&mgr_);
  ASSERT_EQ(pu.Run(Mv3cPriceUpdate(db_, {9, 4242})), StepResult::kCommitted);
  ASSERT_EQ(order.Step(), StepResult::kNeedsRetry);
  ASSERT_EQ(order.Step(), StepResult::kCommitted);
  EXPECT_EQ(order.stats().repair_rounds, 1u);
  EXPECT_EQ(order.stats().invalidated_predicates, 1u);
  EXPECT_EQ(order.stats().reexecuted_closures, 1u);  // only security 9
  // The repaired trade line reflects the new price.
  Mv3cExecutor r(&mgr_);
  ASSERT_EQ(r.Run([&](Mv3cTransaction& t) {
              return t.Lookup(
                  db_.trade_lines, 100 * 16 + 1, ColumnMask::All(),
                  [&](Mv3cTransaction&, TradeLineTable::Object*,
                      const TradeLineRow* row) {
                    const OrderPayload line = DecodePayload(
                        row->encrypted_data, CustomerKeyFor(3));
                    EXPECT_EQ(static_cast<int64_t>(line.trade_id), -4242);
                    return ExecStatus::kOk;
                  });
            }),
            StepResult::kCommitted);
}

TEST_F(TradingTest, GeneratorProducesValidMixAndZipfSkew) {
  TradingGenerator gen(db_, /*alpha=*/1.4, /*trade_order_percent=*/50,
                       /*seed=*/9);
  int orders = 0, updates = 0;
  uint64_t rank0_hits = 0, total_items = 0;
  for (int i = 0; i < 5000; ++i) {
    auto txn = gen.Next();
    if (txn.is_trade_order) {
      ++orders;
      const OrderPayload p = DecodePayload(
          txn.order.payload, CustomerKeyFor(txn.order.customer_id));
      ASSERT_GE(p.n_items, 1u);
      ASSERT_LE(p.n_items, static_cast<uint32_t>(kMaxOrderItems));
      for (uint32_t k = 0; k < p.n_items; ++k) {
        ASSERT_LT(p.items[k].security_id, db_.n_securities());
        ++total_items;
        if (p.items[k].security_id == 0) ++rank0_hits;
      }
    } else {
      ++updates;
      ASSERT_LT(txn.price.security_id, db_.n_securities());
    }
  }
  EXPECT_GT(orders, 2000);
  EXPECT_GT(updates, 2000);
  // alpha=1.4 concentrates a large share of accesses on the top item.
  EXPECT_GT(static_cast<double>(rank0_hits) / total_items, 0.2);
}

// End-to-end window run with conflicts: both engines complete the same
// stream; MV3C commits with repairs, OMVCC with restarts.
TEST_F(TradingTest, WindowRunBothEnginesComplete) {
  TradingGenerator gen(db_, 1.4, 50, 123);
  std::vector<TradingGenerator::Txn> stream;
  for (int i = 0; i < 500; ++i) stream.push_back(gen.Next());

  WindowDriver<Mv3cExecutor> driver(
      16, [&](...) { return std::make_unique<Mv3cExecutor>(&mgr_); },
      [&] { mgr_.CollectGarbage(); });
  const DriveResult res = driver.Run(CountedSource<Mv3cExecutor::Program>(
      stream.size(), [&](uint64_t i) -> Mv3cExecutor::Program {
        const auto& txn = stream[i];
        return txn.is_trade_order ? Mv3cTradeOrder(db_, txn.order)
                                  : Mv3cPriceUpdate(db_, txn.price);
      }));
  EXPECT_EQ(res.committed, stream.size());

  // Run the same stream against OMVCC on a fresh database (trade ids would
  // otherwise collide).
  TransactionManager mgr2;
  TradingDb db2(&mgr2, 1000, 500);
  db2.Load();
  WindowDriver<Mv3cExecutor> driver2(
      16,
      [&](...) {
        return std::make_unique<Mv3cExecutor>(&mgr2, RetryPolicy{}, kOmvcc);
      },
      [&] { mgr2.CollectGarbage(); });
  const DriveResult res2 = driver2.Run(CountedSource<Mv3cExecutor::Program>(
      stream.size(), [&](uint64_t i) -> Mv3cExecutor::Program {
        const auto& txn = stream[i];
        return txn.is_trade_order ? Mv3cTradeOrder(db2, txn.order)
                                  : Mv3cPriceUpdate(db2, txn.price);
      }));
  EXPECT_EQ(res2.committed, stream.size());
  // Same number of trades recorded by both engines.
  EXPECT_EQ(db_.trades.ObjectCount(), db2.trades.ObjectCount());
  EXPECT_EQ(db_.trade_lines.ObjectCount(), db2.trade_lines.ObjectCount());
}

}  // namespace
}  // namespace mv3c
