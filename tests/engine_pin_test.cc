// Behaviour pin for the engines. Each case drives a fixed-seed stream of
// one workload through the window driver (paper Appendix C) and asserts the
// final state digest, the driver's outcome counts and every counter the
// engine publishes. The two MVCC engines run all four workloads; OCC and
// SILO run TPC-C. The constants were recorded once and must
// never be edited to make a refactor pass: a change to an engine's control
// flow, its conflict detection or a workload body shows up here as a
// moved digest or counter.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <initializer_list>
#include <iterator>
#include <memory>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "driver/window_driver.h"
#include "mv3c/mv3c_executor.h"
#include "occ/occ_engine.h"
#include "silo/silo_engine.h"
#include "sv/sv_executor.h"
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
  std::vector<wal::TableDigest> tables;  // per table, in AddDigests order
};

void AddDigests(Outcome* out,
                std::initializer_list<wal::TableDigest> digests) {
  for (const wal::TableDigest& d : digests) {
    out->digest += d.hash;
    out->live_rows += d.live_rows;
    out->tables.push_back(d);
  }
}

template <typename... Tables>
void AddDigests(Outcome* out, const Tables&... tables) {
  AddDigests(out, {wal::DigestMvccTable(tables)...});
}

template <typename MakeProgram>
void Drive(ConflictPolicy engine, TransactionManager& mgr, uint64_t n,
           MakeProgram&& make_program, std::function<void()> maintenance,
           Outcome* out, size_t window = kWindow) {
  RetryPolicy retry;
  retry.exclusive_repair_after = 3;  // the benches' §4.3 heuristic
  WindowDriver<Mv3cExecutor> driver(
      window,
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

tpcc::TpccScale PinTpccScale() {
  tpcc::TpccScale scale;  // one warehouse, scaled down
  scale.n_districts = 4;
  scale.n_customers_per_d = 100;
  scale.n_items = 500;
  scale.preload_orders_per_d = 100;
  scale.preload_new_orders_per_d = 30;
  return scale;
}

std::vector<tpcc::TpccParams> PinTpccStream() {
  tpcc::TpccGenerator gen(PinTpccScale(), 14);
  std::vector<tpcc::TpccParams> stream(1500);
  for (auto& p : stream) p = gen.Next();
  return stream;
}

Outcome RunTpcc(ConflictPolicy engine, size_t window = kWindow) {
  TransactionManager mgr;
  tpcc::TpccDb db(&mgr, PinTpccScale());
  db.Load(14);
  const std::vector<tpcc::TpccParams> stream = PinTpccStream();
  Outcome out;
  Drive(
      engine, mgr, stream.size(),
      [&](uint64_t i) -> Mv3cExecutor::Program {
        return tpcc::TpccProgram(db, stream[i]);
      },
      [&] {
        mgr.CollectGarbage();
        db.CleanupNewOrderQueue();
      },
      &out, window);
  AddDigests(&out, db.warehouses, db.districts, db.customers, db.history,
             db.orders, db.new_orders, db.order_lines, db.items, db.stock);
  return out;
}

/// TPC-C under OCC or SILO: the same database, stream and window as the
/// MVCC run. One engine serves the whole window, as in the fig8 benches;
/// the window driver is single-threaded, so that is race-free for both.
template <typename Engine>
Outcome RunTpccSv(size_t window = kWindow) {
  tpcc::SingleVersionTpccDb db(PinTpccScale());
  db.Load(14);
  const std::vector<tpcc::TpccParams> stream = PinTpccStream();
  Engine engine;
  WindowDriver<SvExecutor<Engine>> driver(window, [&] {
    return std::make_unique<SvExecutor<Engine>>(&engine);
  });
  Outcome out;
  out.drive = driver.Run(CountedSource<typename SvExecutor<Engine>::Program>(
      stream.size(),
      [&](uint64_t i) { return tpcc::TpccProgram(db, stream[i]); }));
  for (SvExecutor<Engine>* e : driver.executors()) {
    out.counters.Merge(e->metrics().Snapshot());
  }
  AddDigests(
      &out,
      {wal::DigestSvTable(db.warehouses), wal::DigestSvTable(db.districts),
       wal::DigestSvTable(db.customers), wal::DigestSvTable(db.history),
       wal::DigestSvTable(db.orders), wal::DigestSvTable(db.new_orders),
       wal::DigestSvTable(db.order_lines), wal::DigestSvTable(db.items),
       wal::DigestSvTable(db.stock)});
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
const std::vector<std::string> kSvCounters = {
    "commits",   "user_aborts", "validation_failures", "exhausted",
    "backoff_us", "failpoint_trips", "max_rounds"};
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

// gtest lists a case with its parameter printed; without this overload it
// dumps Pin's raw bytes, pointers included, and the listed names change
// from build to build.
void PrintTo(const Pin& pin, std::ostream* os) {
  *os << pin.workload << '/' << pin.engine;
}

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
    {"tpcc", "occ", 15163507792080522183ull, 14389, {1117, 383, 0, 0, 0, 1500}, {1117, 383, 0, 0, 0, 0, 0}},
    {"tpcc", "silo", 15163507792080522183ull, 14389, {1117, 383, 0, 0, 0, 1500}, {1117, 383, 0, 0, 0, 0, 0}},
};
// clang-format on

Outcome RunWorkload(const std::string& w, const std::string& engine) {
  if (engine == "occ") return RunTpccSv<OccEngine>();
  if (engine == "silo") return RunTpccSv<SiloEngine>();
  const ConflictPolicy policy =
      engine == "mv3c" ? ConflictPolicy::kRepair : ConflictPolicy::kRestart;
  if (w == "banking") return RunBanking(policy);
  if (w == "trading") return RunTrading(policy);
  if (w == "tatp") return RunTatp(policy);
  return RunTpcc(policy);
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
  const std::string engine = pin.engine;
  const Outcome out = RunWorkload(pin.workload, engine);
  const std::vector<uint64_t> drive = {
      out.drive.committed,   out.drive.user_aborted, out.drive.exhausted,
      out.drive.escalations, out.drive.max_rounds,   out.drive.steps};
  const std::vector<std::string>& names =
      engine == "mv3c"    ? kMv3cCounters
      : engine == "omvcc" ? kOmvccCounters
                          : kSvCounters;
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
  if (engine == "omvcc") {
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

/// The four engines compute one answer: the pin TPC-C stream run serially
/// (window 1, so no transaction meets a concurrent one) leaves every table
/// with the same digest under MV3C, OMVCC, OCC and SILO. A store that
/// misreads its own writes (a New-Order listing an item twice) shows up as
/// a differing STOCK digest.
TEST(EngineDifferentialTest, SerialTpccLeavesEqualTablesOnEveryEngine) {
  const char* const kTables[] = {"warehouse", "district",  "customer",
                                 "history",   "order",     "new_order",
                                 "order_line", "item",     "stock"};
  const Outcome mv3c = RunTpcc(ConflictPolicy::kRepair, 1);
  ASSERT_EQ(mv3c.tables.size(), std::size(kTables));
  EXPECT_EQ(mv3c.drive.committed + mv3c.drive.user_aborted,
            PinTpccStream().size());
  const std::pair<const char*, Outcome> others[] = {
      {"omvcc", RunTpcc(ConflictPolicy::kRestart, 1)},
      {"occ", RunTpccSv<OccEngine>(1)},
      {"silo", RunTpccSv<SiloEngine>(1)}};
  for (const auto& [engine, out] : others) {
    ASSERT_EQ(out.tables.size(), std::size(kTables)) << engine;
    EXPECT_EQ(out.drive.committed, mv3c.drive.committed) << engine;
    for (size_t t = 0; t < std::size(kTables); ++t) {
      EXPECT_EQ(out.tables[t], mv3c.tables[t])
          << engine << " differs from mv3c on " << kTables[t] << ": "
          << out.tables[t].live_rows << " vs " << mv3c.tables[t].live_rows
          << " live rows";
    }
  }
}

}  // namespace
}  // namespace mv3c
