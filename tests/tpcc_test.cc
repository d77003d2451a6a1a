// TPC-C workload tests: loader invariants, each transaction type under
// both engines, the spec's consistency conditions after contended runs,
// and the contention behaviors the paper describes (§6.1.1): premature
// aborts on district/order collisions, repairable stock and payment
// conflicts.

#include <gtest/gtest.h>

#include "driver/window_driver.h"
#include "occ/occ_engine.h"
#include "workloads/tpcc.h"
#include "workloads/tpcc_sv.h"

namespace mv3c {
namespace {

constexpr ConflictPolicy kOmvcc = ConflictPolicy::kRestart;

using namespace mv3c::tpcc;  // NOLINT

TpccScale TestScale() {
  TpccScale s;
  s.n_warehouses = 1;
  s.n_districts = 4;
  s.n_customers_per_d = 100;
  s.n_items = 500;
  s.preload_orders_per_d = 100;
  s.preload_new_orders_per_d = 30;
  return s;
}

class TpccTest : public ::testing::Test {
 protected:
  TpccTest() : db_(&mgr_, TestScale()) { db_.Load(7); }

  TransactionManager mgr_;
  TpccDb db_;
};

TEST_F(TpccTest, LoaderSatisfiesConsistencyConditions) {
  EXPECT_EQ(db_.warehouses.ObjectCount(), 1u);
  EXPECT_EQ(db_.districts.ObjectCount(), 4u);
  EXPECT_EQ(db_.customers.ObjectCount(), 400u);
  EXPECT_EQ(db_.items.ObjectCount(), 500u);
  EXPECT_EQ(db_.stock.ObjectCount(), 500u);
  EXPECT_EQ(db_.orders.ObjectCount(), 400u);
  EXPECT_EQ(db_.new_orders.ObjectCount(), 4u * 30);
  std::string why;
  EXPECT_TRUE(CheckConsistency(db_, &why)) << why;
}

TEST_F(TpccTest, NewOrderCommitsAndAdvancesDistrict) {
  TpccGenerator gen(db_.scale(), 3);
  TpccParams p;
  do {
    p = gen.Next();
  } while (p.type != TpccTxnType::kNewOrder ||
           p.items[p.ol_cnt - 1].i_id > db_.scale().n_items);
  Mv3cExecutor e(&mgr_);
  ASSERT_EQ(e.Run(Mv3cTpccProgram(db_, p)), StepResult::kCommitted);
  std::string why;
  EXPECT_TRUE(CheckConsistency(db_, &why)) << why;
  EXPECT_EQ(db_.orders.ObjectCount(), 401u);
  EXPECT_EQ(db_.new_orders.ObjectCount(), 121u);
}

TEST_F(TpccTest, NewOrderInvalidItemRollsBack) {
  TpccParams p;
  p.type = TpccTxnType::kNewOrder;
  p.w_id = 1;
  p.d_id = 1;
  p.c_id = 5;
  p.ol_cnt = 5;
  for (int i = 0; i < 5; ++i) {
    p.items[i] = {static_cast<uint64_t>(i + 1), 1, 3};
  }
  p.items[4].i_id = db_.scale().n_items + 1;  // invalid
  Mv3cExecutor e(&mgr_);
  ASSERT_EQ(e.Run(Mv3cTpccProgram(db_, p)), StepResult::kUserAborted);
  // No residue: next_o_id unchanged and the would-be order key invisible
  // (the data object may exist as a ghost from the rolled-back insert).
  std::string why;
  EXPECT_TRUE(CheckConsistency(db_, &why)) << why;
  OrderTable::Object* ghost = db_.orders.Find(OrderKey(1, 1, 101));
  if (ghost != nullptr) {
    EXPECT_EQ(ghost->ReadVisible(kTxnIdBase - 1, 0), nullptr);
  }

  Mv3cExecutor o(&mgr_, {}, kOmvcc);
  ASSERT_EQ(o.Run(Mv3cTpccProgram(db_, p)), StepResult::kUserAborted);
  EXPECT_TRUE(CheckConsistency(db_, &why)) << why;
}

TEST_F(TpccTest, PaymentByIdAndByLastName) {
  TpccParams p;
  p.type = TpccTxnType::kPayment;
  p.w_id = 1;
  p.d_id = 2;
  p.c_w_id = 1;
  p.c_d_id = 2;
  p.c_id = 7;
  p.amount = 1234;
  p.by_last_name = false;
  Mv3cExecutor e(&mgr_);
  ASSERT_EQ(e.Run(Mv3cTpccProgram(db_, p)), StepResult::kCommitted);

  p.by_last_name = true;
  p.c_last = 3;  // last-name ids 0..99 exist for the 100 customers
  Mv3cExecutor o(&mgr_, {}, kOmvcc);
  ASSERT_EQ(o.Run(Mv3cTpccProgram(db_, p)), StepResult::kCommitted);

  std::string why;
  EXPECT_TRUE(CheckConsistency(db_, &why)) << why;
}

TEST_F(TpccTest, DeliveryDrainsNewOrders) {
  TpccParams p;
  p.type = TpccTxnType::kDelivery;
  p.w_id = 1;
  p.carrier_id = 3;
  p.date = 99;
  const size_t before = db_.new_orders.ObjectCount();
  (void)before;
  Mv3cExecutor e(&mgr_);
  ASSERT_EQ(e.Run(Mv3cTpccProgram(db_, p)), StepResult::kCommitted);
  // One new-order per district delivered (tombstoned, object remains).
  // Check via a second delivery picking the NEXT order.
  Mv3cExecutor o(&mgr_, {}, kOmvcc);
  ASSERT_EQ(o.Run(Mv3cTpccProgram(db_, p)), StepResult::kCommitted);
  std::string why;
  EXPECT_TRUE(CheckConsistency(db_, &why)) << why;
}

TEST_F(TpccTest, OrderStatusAndStockLevelAreReadOnly) {
  TpccParams p;
  p.type = TpccTxnType::kOrderStatus;
  p.w_id = 1;
  p.d_id = 1;
  p.c_id = 3;
  p.by_last_name = false;
  Mv3cExecutor e(&mgr_);
  const StepResult r = e.Run(Mv3cTpccProgram(db_, p));
  // Customer 3 may or may not have an order in the permutation; both
  // outcomes are fine, but nothing may be written.
  EXPECT_TRUE(r == StepResult::kCommitted || r == StepResult::kUserAborted);
  EXPECT_EQ(e.txn().inner().undo_buffer().size(), 0u);

  p.type = TpccTxnType::kStockLevel;
  p.threshold = 15;
  Mv3cExecutor e2(&mgr_);
  ASSERT_EQ(e2.Run(Mv3cTpccProgram(db_, p)), StepResult::kCommitted);
  EXPECT_EQ(e2.stats().validation_failures, 0u);
}

// §6.1.1: concurrent New-Orders on the same district collide on the
// ORDER/NEW-ORDER keys and prematurely abort (fail-fast inserts).
TEST_F(TpccTest, ConcurrentNewOrdersPrematurelyAbort) {
  TpccParams p;
  p.type = TpccTxnType::kNewOrder;
  p.w_id = 1;
  p.d_id = 1;
  p.c_id = 5;
  p.ol_cnt = 5;
  for (int i = 0; i < 5; ++i) {
    p.items[i] = {static_cast<uint64_t>(10 + i), 1, 3};
  }
  TpccParams q = p;
  q.c_id = 9;
  for (int i = 0; i < 5; ++i) q.items[i].i_id = 100 + i;

  Mv3cExecutor a(&mgr_), b(&mgr_);
  a.Reset(Mv3cTpccProgram(db_, p));
  b.Reset(Mv3cTpccProgram(db_, q));
  a.Begin();
  b.Begin();
  // a executes (uncommitted); b picks the same o_id and collides.
  ASSERT_EQ(a.txn().RunProgram(Mv3cTpccProgram(db_, p)), ExecStatus::kOk);
  ASSERT_EQ(b.Step(), StepResult::kNeedsRetry);
  EXPECT_EQ(b.stats().ww_restarts, 1u);
  // Commit a, then b restarts cleanly with the next o_id.
  ASSERT_TRUE(mgr_.TryCommit(&a.txn().inner(), [&](CommittedRecord* h) {
    return a.txn().ValidateAndMark(h);
  }));
  StepResult r;
  int guard = 0;
  do {
    r = b.Step();
    ASSERT_LT(++guard, 10);
  } while (r == StepResult::kNeedsRetry);
  ASSERT_EQ(r, StepResult::kCommitted);
  std::string why;
  EXPECT_TRUE(CheckConsistency(db_, &why)) << why;
}

// Payment-vs-Payment on the same warehouse: the YTD RMW conflict is
// repaired by MV3C with a single closure re-execution.
TEST_F(TpccTest, ConcurrentPaymentsRepairWarehouseYtd) {
  TpccParams p;
  p.type = TpccTxnType::kPayment;
  p.w_id = 1;
  p.d_id = 1;
  p.c_w_id = 1;
  p.c_d_id = 1;
  p.c_id = 3;
  p.amount = 100;
  p.by_last_name = false;
  TpccParams q = p;
  q.d_id = 2;  // different district and customer: only warehouse conflicts
  q.c_d_id = 2;
  q.c_id = 8;
  q.amount = 500;

  Mv3cExecutor a(&mgr_), b(&mgr_);
  a.Reset(Mv3cTpccProgram(db_, p));
  b.Reset(Mv3cTpccProgram(db_, q));
  a.Begin();
  b.Begin();
  ASSERT_EQ(a.Step(), StepResult::kCommitted);
  ASSERT_EQ(b.Step(), StepResult::kNeedsRetry);
  ASSERT_EQ(b.Step(), StepResult::kCommitted);
  EXPECT_EQ(b.stats().repair_rounds, 1u);
  EXPECT_EQ(b.stats().reexecuted_closures, 1u);  // only the warehouse root
  std::string why;
  EXPECT_TRUE(CheckConsistency(db_, &why)) << why;
}

// New-Order and Payment on the same warehouse/district/customer do NOT
// conflict thanks to attribute-level validation (§4.1).
TEST_F(TpccTest, NewOrderAndPaymentDisjointColumns) {
  TpccParams no;
  no.type = TpccTxnType::kNewOrder;
  no.w_id = 1;
  no.d_id = 3;
  no.c_id = 11;
  no.ol_cnt = 5;
  for (int i = 0; i < 5; ++i) {
    no.items[i] = {static_cast<uint64_t>(20 + i), 1, 2};
  }
  TpccParams pay;
  pay.type = TpccTxnType::kPayment;
  pay.w_id = 1;
  pay.d_id = 3;
  pay.c_w_id = 1;
  pay.c_d_id = 3;
  pay.c_id = 11;
  pay.amount = 777;
  pay.by_last_name = false;

  Mv3cExecutor a(&mgr_), b(&mgr_);
  a.Reset(Mv3cTpccProgram(db_, pay));
  b.Reset(Mv3cTpccProgram(db_, no));
  a.Begin();
  b.Begin();
  ASSERT_EQ(a.Step(), StepResult::kCommitted);
  // b read W/D/C before a committed, but on columns a did not touch.
  ASSERT_EQ(b.Step(), StepResult::kCommitted);
  EXPECT_EQ(b.stats().validation_failures, 0u);
  std::string why;
  EXPECT_TRUE(CheckConsistency(db_, &why)) << why;
}

// Full-mix window runs stay consistent under both engines.
TEST_F(TpccTest, WindowMixedRunKeepsConsistency) {
  TpccGenerator gen(db_.scale(), 17);
  std::vector<TpccParams> stream;
  for (int i = 0; i < 1000; ++i) stream.push_back(gen.Next());

  WindowDriver<Mv3cExecutor> driver(
      8, [&](...) { return std::make_unique<Mv3cExecutor>(&mgr_); },
      [&] { mgr_.CollectGarbage(); });
  const DriveResult res = driver.Run(CountedSource<Mv3cExecutor::Program>(
      stream.size(),
      [&](uint64_t i) { return Mv3cTpccProgram(db_, stream[i]); }));
  EXPECT_EQ(res.committed + res.user_aborted, stream.size());
  std::string why;
  EXPECT_TRUE(CheckConsistency(db_, &why)) << why;

  // Same stream on a fresh OMVCC-driven database: same commit count is not
  // guaranteed (user-abort divergence through by-name scans is possible but
  // parameters here avoid it), but consistency must hold.
  TransactionManager mgr2;
  TpccDb db2(&mgr2, TestScale());
  db2.Load(7);
  WindowDriver<Mv3cExecutor> driver2(
      8,
      [&](...) {
        return std::make_unique<Mv3cExecutor>(&mgr2, RetryPolicy{}, kOmvcc);
      },
      [&] { mgr2.CollectGarbage(); });
  const DriveResult res2 = driver2.Run(CountedSource<Mv3cExecutor::Program>(
      stream.size(),
      [&](uint64_t i) { return Mv3cTpccProgram(db2, stream[i]); }));
  EXPECT_EQ(res2.committed + res2.user_aborted, stream.size());
  EXPECT_TRUE(CheckConsistency(db2, &why)) << why;
}

TEST_F(TpccTest, CleanupNewOrderQueueRemovesDeliveredGhosts) {
  const size_t before = db_.new_order_queue.Size();
  // Deliver everything: each Delivery takes one order per district.
  TpccParams p;
  p.type = TpccTxnType::kDelivery;
  p.w_id = 1;
  p.carrier_id = 1;
  for (int i = 0; i < 10; ++i) {
    p.date = 100 + i;
    Mv3cExecutor e(&mgr_);
    ASSERT_EQ(e.Run(Mv3cTpccProgram(db_, p)), StepResult::kCommitted);
  }
  // 10 deliveries x 4 districts = 40 tombstoned queue entries.
  EXPECT_EQ(db_.new_order_queue.Size(), before);  // ghosts still indexed
  const size_t removed = db_.CleanupNewOrderQueue();
  EXPECT_EQ(removed, 40u);
  EXPECT_EQ(db_.new_order_queue.Size(), before - 40);
  // Delivery still works after cleanup (next oldest order found).
  p.date = 200;
  Mv3cExecutor e(&mgr_);
  ASSERT_EQ(e.Run(Mv3cTpccProgram(db_, p)), StepResult::kCommitted);
  std::string why;
  EXPECT_TRUE(CheckConsistency(db_, &why)) << why;
}

TEST_F(TpccTest, CleanupStopsAtActiveSnapshots) {
  // A reader holding an old snapshot pins delivered rows: cleanup must
  // not remove entries it could still see.
  Mv3cTransaction pinned(&mgr_);
  mgr_.Begin(&pinned.inner());
  TpccParams p;
  p.type = TpccTxnType::kDelivery;
  p.w_id = 1;
  p.carrier_id = 1;
  p.date = 300;
  Mv3cExecutor e(&mgr_);
  ASSERT_EQ(e.Run(Mv3cTpccProgram(db_, p)), StepResult::kCommitted);
  EXPECT_EQ(db_.CleanupNewOrderQueue(), 0u);  // pinned snapshot blocks
  mgr_.CommitReadOnly(&pinned.inner());
  EXPECT_EQ(db_.CleanupNewOrderQueue(), 4u);  // one per district
}

TEST(TpccMultiWarehouseTest, RemoteTransactionsStayConsistent) {
  TpccScale scale = TestScale();
  scale.n_warehouses = 3;
  TransactionManager mgr;
  TpccDb db(&mgr, scale);
  db.Load(11);
  TpccGenerator gen(scale, 29);
  std::vector<TpccParams> stream;
  for (int i = 0; i < 600; ++i) stream.push_back(gen.Next());
  // The generator emits remote payments and remote stock updates for W>1.
  bool any_remote = false;
  for (const auto& p : stream) {
    if (p.type == TpccTxnType::kPayment && p.c_w_id != p.w_id) {
      any_remote = true;
    }
  }
  EXPECT_TRUE(any_remote);
  WindowDriver<Mv3cExecutor> driver(
      8, [&](...) { return std::make_unique<Mv3cExecutor>(&mgr); },
      [&] { mgr.CollectGarbage(); });
  const DriveResult res = driver.Run(CountedSource<Mv3cExecutor::Program>(
      stream.size(),
      [&](uint64_t i) { return Mv3cTpccProgram(db, stream[i]); }));
  EXPECT_EQ(res.committed + res.user_aborted, stream.size());
  std::string why;
  EXPECT_TRUE(CheckConsistency(db, &why)) << why;
}

// One New-Order line supplied by warehouse 2 must clear O_ALL_LOCAL on the
// order it inserts, on both MVCC engines and on the single-version store.
TEST(TpccMultiWarehouseTest, RemoteLineClearsAllLocalOnEveryEngine) {
  TpccScale scale = TestScale();
  scale.n_warehouses = 2;
  TpccParams p;
  p.type = TpccTxnType::kNewOrder;
  p.w_id = 1;
  p.d_id = 1;
  p.c_id = 5;
  p.date = 100;
  p.ol_cnt = 5;
  for (int i = 0; i < 5; ++i) {
    p.items[i] = {static_cast<uint64_t>(i + 1), 1, 3};
  }
  p.items[2].supply_w = 2;
  // The loader preloads 100 orders per district, so this is order 101.
  const uint64_t okey = OrderKey(1, 1, 101);

  for (const bool use_mv3c : {true, false}) {
    SCOPED_TRACE(use_mv3c ? "mv3c" : "omvcc");
    TransactionManager mgr;
    TpccDb db(&mgr, scale);
    db.Load(7);
    Mv3cExecutor e(&mgr, {}, use_mv3c ? ConflictPolicy::kRepair : kOmvcc);
    ASSERT_EQ(e.Run(Mv3cTpccProgram(db, p)), StepResult::kCommitted);
    const auto* v = db.orders.Find(okey)->ReadVisible(kTxnIdBase - 1, 0);
    ASSERT_NE(v, nullptr);
    EXPECT_FALSE(v->data().all_local);
  }

  SvTpccDb sdb(scale);
  sdb.Load(7);
  OccEngine engine;
  SvExecutor<OccEngine> e(&engine);
  ASSERT_EQ(e.Run(SvTpccProgram(sdb, p)), StepResult::kCommitted);
  OrderRow row;
  sdb.orders.Find(okey)->ReadStable(&row);
  EXPECT_FALSE(row.all_local);
}

}  // namespace
}  // namespace mv3c
