// Behaviour pin for the two MVCC engines. Each case drives a fixed-seed
// stream of one workload through the window driver (paper Appendix C) and
// asserts the final state digest, the driver's outcome counts and every
// counter the engine publishes. The constants were recorded once and must
// never be edited to make a refactor pass: a change to an engine's control
// flow, its conflict detection or a workload body shows up here as a
// moved digest or counter.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "driver/window_driver.h"
#include "mv3c/mv3c_executor.h"
#include "wal/state_hash.h"
#include "workloads/banking.h"
#include "workloads/tatp.h"
#include "workloads/tpcc.h"
#include "workloads/trading.h"

namespace mv3c {
namespace {

constexpr size_t kWindow = 8;

/// What one pinned run produces.
struct Outcome {
  uint64_t digest = 0;  // wrapping sum of the per-table digests
  uint64_t live_rows = 0;
  DriveResult drive;
  obs::MetricsSnapshot counters;  // merged over the window's executors
};

template <typename... Tables>
void AddDigests(Outcome* out, const Tables&... tables) {
  for (const wal::TableDigest& d : {wal::DigestMvccTable(tables)...}) {
    out->digest += d.hash;
    out->live_rows += d.live_rows;
  }
}

template <typename MakeProgram>
void Drive(ConflictPolicy engine, TransactionManager& mgr, uint64_t n,
           MakeProgram&& make_program, std::function<void()> maintenance,
           Outcome* out) {
  RetryPolicy retry;
  retry.exclusive_repair_after = 3;  // the benches' §4.3 heuristic
  WindowDriver<Mv3cExecutor> driver(
      kWindow,
      [&] { return std::make_unique<Mv3cExecutor>(&mgr, retry, engine); },
      std::move(maintenance));
  out->drive = driver.Run(CountedSource<Mv3cExecutor::Program>(
      n, std::forward<MakeProgram>(make_program)));
  for (Mv3cExecutor* e : driver.executors()) {
    out->counters.Merge(e->metrics().Snapshot());
  }
}

Outcome RunBanking(ConflictPolicy engine) {
  TransactionManager mgr;
  banking::BankingDb db(&mgr, 200, 10000);
  db.Load();
  banking::TransferGenerator gen(200, /*fee_fraction_percent=*/100, 11);
  std::vector<banking::TransferParams> stream(4000);
  for (auto& p : stream) p = gen.Next();
  Outcome out;
  Drive(
      engine, mgr, stream.size(),
      [&](uint64_t i) -> Mv3cExecutor::Program {
        return banking::Mv3cTransferMoney(db, stream[i]);
      },
      [&] { mgr.CollectGarbage(); }, &out);
  AddDigests(&out, db.accounts);
  return out;
}

Outcome RunTrading(ConflictPolicy engine) {
  TransactionManager mgr;
  trading::TradingDb db(&mgr, 500, 500);
  db.Load();
  trading::TradingGenerator gen(db, /*alpha=*/1.4, 50, 12);
  std::vector<trading::TradingGenerator::Txn> stream(2000);
  for (auto& t : stream) t = gen.Next();
  Outcome out;
  Drive(
      engine, mgr, stream.size(),
      [&](uint64_t i) -> Mv3cExecutor::Program {
        const auto& t = stream[i];
        return t.is_trade_order ? trading::Mv3cTradeOrder(db, t.order)
                                : trading::Mv3cPriceUpdate(db, t.price);
      },
      [&] { mgr.CollectGarbage(); }, &out);
  AddDigests(&out, db.securities, db.customers, db.trades, db.trade_lines);
  return out;
}

Outcome RunTatp(ConflictPolicy engine) {
  TransactionManager mgr;
  tatp::TatpDb db(&mgr, 64);
  db.Load(13);
  tatp::TatpGenerator gen(64, 13);
  std::vector<tatp::TatpParams> stream(3000);
  for (auto& p : stream) p = gen.Next();
  Outcome out;
  Drive(
      engine, mgr, stream.size(),
      [&](uint64_t i) -> Mv3cExecutor::Program {
        return tatp::Mv3cTatpProgram(db, stream[i]);
      },
      [&] { mgr.CollectGarbage(); }, &out);
  AddDigests(&out, db.subscribers, db.access_info, db.special_facilities,
             db.call_forwarding);
  return out;
}

Outcome RunTpcc(ConflictPolicy engine) {
  tpcc::TpccScale scale;  // one warehouse, scaled down
  scale.n_districts = 4;
  scale.n_customers_per_d = 100;
  scale.n_items = 500;
  scale.preload_orders_per_d = 100;
  scale.preload_new_orders_per_d = 30;
  TransactionManager mgr;
  tpcc::TpccDb db(&mgr, scale);
  db.Load(14);
  tpcc::TpccGenerator gen(scale, 14);
  std::vector<tpcc::TpccParams> stream(1500);
  for (auto& p : stream) p = gen.Next();
  Outcome out;
  Drive(
      engine, mgr, stream.size(),
      [&](uint64_t i) -> Mv3cExecutor::Program {
        return tpcc::Mv3cTpccProgram(db, stream[i]);
      },
      [&] {
        mgr.CollectGarbage();
        db.CleanupNewOrderQueue();
      },
      &out);
  AddDigests(&out, db.warehouses, db.districts, db.customers, db.history,
             db.orders, db.new_orders, db.order_lines, db.items, db.stock);
  return out;
}

/// The counters each engine published when the constants were recorded,
/// in the order of `Pin::counters`. OMVCC now publishes the MV3C set; the
/// counters it gained are repair-only and must read 0 (kRepairOnly).
const std::vector<std::string> kMv3cCounters = {
    "commits",          "user_aborts",          "ww_restarts",
    "validation_failures", "repair_rounds",     "invalidated_predicates",
    "reexecuted_closures", "result_set_fixes",  "exclusive_repairs",
    "escalations",      "exhausted",            "backoff_us",
    "failpoint_trips",  "max_rounds",           "versions_discarded"};
const std::vector<std::string> kOmvccCounters = {
    "commits",   "user_aborts", "ww_restarts",     "validation_failures",
    "exhausted", "backoff_us",  "failpoint_trips", "max_rounds",
    "versions_discarded"};
const std::vector<std::string> kRepairOnly = {
    "repair_rounds",     "invalidated_predicates", "reexecuted_closures",
    "result_set_fixes",  "exclusive_repairs",      "escalations"};

struct Pin {
  const char* workload;
  const char* engine;
  uint64_t digest;
  uint64_t live_rows;
  // DriveResult: committed, user_aborted, exhausted, escalations,
  // max_rounds, steps.
  std::vector<uint64_t> drive;
  std::vector<uint64_t> counters;
};

// clang-format off
const Pin kPins[] = {
    {"banking", "mv3c", 1168988515466292495ull, 201, {4000, 0, 0, 7638, 3, 11638}, {4000, 0, 0, 10182, 10182, 10512, 10338, 0, 2545, 2545, 0, 0, 0, 3, 10684}},
    {"banking", "omvcc", 629599539190363945ull, 201, {3979, 0, 21, 27804, 1023, 31804}, {3979, 0, 27825, 0, 21, 0, 0, 1024, 54833}},
    {"trading", "mv3c", 8643875647213391835ull, 4843, {2000, 0, 0, 726, 3, 2726}, {2000, 0, 0, 835, 835, 1308, 1308, 0, 169, 169, 0, 0, 0, 3, 1308}},
    {"trading", "omvcc", 9631057049255236382ull, 4843, {2000, 0, 0, 1417, 35, 3417}, {2000, 0, 450, 967, 0, 0, 0, 35, 4307}},
    {"tatp", "mv3c", 13794334540421343483ull, 544, {2191, 809, 0, 0, 0, 3000}, {2191, 809, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 28}},
    {"tatp", "omvcc", 13794334540421343483ull, 544, {2191, 809, 0, 17, 2, 3017}, {2191, 809, 17, 0, 0, 0, 0, 2, 28}},
    {"tpcc", "mv3c", 1476525201078848470ull, 14389, {1117, 383, 0, 1188, 19, 2688}, {1117, 383, 726, 590, 590, 848, 848, 0, 218, 218, 0, 0, 0, 19, 4996}},
    {"tpcc", "omvcc", 4246658660231152352ull, 14389, {1117, 383, 0, 2123, 244, 3623}, {1117, 383, 864, 1259, 0, 0, 0, 244, 69413}},
};
// clang-format on

Outcome RunWorkload(const std::string& w, ConflictPolicy engine) {
  if (w == "banking") return RunBanking(engine);
  if (w == "trading") return RunTrading(engine);
  if (w == "tatp") return RunTatp(engine);
  return RunTpcc(engine);
}

std::string Join(const std::vector<uint64_t>& v) {
  std::string s;
  for (size_t i = 0; i < v.size(); ++i) {
    if (i != 0) s += ", ";
    s += std::to_string(v[i]);
  }
  return s;
}

class EnginePinTest : public ::testing::TestWithParam<Pin> {};

TEST_P(EnginePinTest, DigestAndCountersMatchRecordedValues) {
  const Pin& pin = GetParam();
  const bool mv3c = std::string(pin.engine) == "mv3c";
  const Outcome out =
      RunWorkload(pin.workload, mv3c ? ConflictPolicy::kRepair
                                     : ConflictPolicy::kRestart);
  const std::vector<uint64_t> drive = {
      out.drive.committed,   out.drive.user_aborted, out.drive.exhausted,
      out.drive.escalations, out.drive.max_rounds,   out.drive.steps};
  const std::vector<std::string>& names = mv3c ? kMv3cCounters : kOmvccCounters;
  std::vector<uint64_t> counters;
  for (const std::string& n : names) {
    EXPECT_TRUE(out.counters.Has(n)) << n;
    counters.push_back(out.counters.Value(n));
  }
  // Paste-ready actual values, printed on any mismatch.
  const std::string actual = "{\"" + std::string(pin.workload) + "\", \"" +
                             pin.engine + "\", " + std::to_string(out.digest) +
                             "ull, " + std::to_string(out.live_rows) + ", {" +
                             Join(drive) + "}, {" + Join(counters) + "}},";
  EXPECT_EQ(out.digest, pin.digest) << actual;
  EXPECT_EQ(out.live_rows, pin.live_rows) << actual;
  EXPECT_EQ(drive, pin.drive) << actual;
  EXPECT_EQ(counters, pin.counters) << actual;
  if (!mv3c) {
    for (const std::string& n : kRepairOnly) {
      EXPECT_TRUE(out.counters.Has(n)) << n;
      EXPECT_EQ(out.counters.Value(n), 0u) << n;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, EnginePinTest, ::testing::ValuesIn(kPins),
    [](const ::testing::TestParamInfo<Pin>& info) {
      return std::string(info.param.workload) + "_" + info.param.engine;
    });

}  // namespace
}  // namespace mv3c
