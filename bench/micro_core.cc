// Micro-benchmarks (google-benchmark) for the hot substrate operations:
// version-chain reads at varying depths, version creation and commit,
// hot-row (banking fee account) transfers on one and two threads, cold-row
// churn and the arena memory it holds, heap allocations per TPC-C commit
// under each conflict policy, the cost of each TPC-C transaction type at
// spec scale, predicate matching with and without the attribute-level
// short-circuit, validation walks over the recently-committed list,
// cuckoo-map and ordered-index operations, Zipf sampling and the trading
// payload cipher.

#include <benchmark/benchmark.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <new>
#include <utility>
#include <vector>

#include "common/cipher.h"

#include "common/macros.h"
#include "common/random.h"
#include "common/zipf.h"
#include "index/cuckoo_map.h"
#include "index/ordered_index.h"
#include "mvcc/predicate.h"
#include "mvcc/transaction_manager.h"
#include "workloads/banking.h"
#include "workloads/tpcc.h"

// Allocation counter for BM_TpccAllocs: every global operator new in this
// binary bumps it while counting is switched on (the technique of
// tests/commit_contract_test.cc).
namespace {
std::atomic<bool> g_count_allocs{false};
std::atomic<uint64_t> g_allocs{0};

// Out of line so the compiler does not pair this free() with the operator
// new it replaces (-Wmismatched-new-delete).
[[gnu::noinline]] void FreeBlock(void* p) { std::free(p); }
}  // namespace

void* operator new(std::size_t n) {
  if (g_count_allocs.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { FreeBlock(p); }
void operator delete(void* p, std::size_t) noexcept { FreeBlock(p); }

namespace mv3c {
namespace {

struct Row {
  int64_t a = 0;
  int64_t b = 0;
};
using TestTable = Table<uint64_t, Row>;

void BM_VersionChainRead(benchmark::State& state) {
  const int depth = static_cast<int>(state.range(0));
  TransactionManager mgr;
  TestTable table("t", 16);
  // Build a chain of `depth` committed versions.
  Transaction loader(&mgr);
  mgr.Begin(&loader);
  loader.Insert(table, 1, Row{0, 0});
  MV3C_CHECK(
      mgr.TryCommit(&loader, [](CommittedRecord*) { return true; }));
  auto* obj = table.Find(1);
  // Hold an old reader open so truncation cannot shorten the chain.
  Transaction pin(&mgr);
  mgr.Begin(&pin);
  for (int i = 1; i < depth; ++i) {
    Transaction t(&mgr);
    mgr.Begin(&t);
    t.Update(table, obj, Row{i, i}, ColumnMask::All(), false,
             WwPolicy::kFailFast);
    MV3C_CHECK(mgr.TryCommit(&t, [](CommittedRecord*) { return true; }));
  }
  // Read with the OLD snapshot: traverses the whole chain.
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        obj->FindVisible(pin.start_ts(), pin.txn_id()));
  }
  mgr.CommitReadOnly(&pin);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_VersionChainRead)->Arg(1)->Arg(4)->Arg(16)->Arg(40);

void BM_UpdateCommit(benchmark::State& state) {
  TransactionManager mgr;
  TestTable table("t", 16);
  Transaction loader(&mgr);
  mgr.Begin(&loader);
  loader.Insert(table, 1, Row{0, 0});
  MV3C_CHECK(
      mgr.TryCommit(&loader, [](CommittedRecord*) { return true; }));
  auto* obj = table.Find(1);
  int64_t i = 0;
  for (auto _ : state) {
    Transaction t(&mgr);
    mgr.Begin(&t);
    t.Update(table, obj, Row{++i, i}, ColumnMask::All(), false,
             WwPolicy::kFailFast);
    MV3C_CHECK(mgr.TryCommit(&t, [](CommittedRecord*) { return true; }));
    if ((i & 1023) == 0) mgr.CollectGarbage();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_UpdateCommit);

/// Shared database for the multi-threaded hot-row case: google-benchmark
/// runs Setup once before the threads start and Teardown once after they
/// all finish.
struct BankingFixture {
  static constexpr int64_t kAccounts = 10000;
  TransactionManager mgr;
  banking::BankingDb db{&mgr, kAccounts, 1000000};
};
BankingFixture* g_banking = nullptr;

void SetUpBanking(const benchmark::State&) {
  g_banking = new BankingFixture;
  g_banking->db.Load();
}
void TearDownBanking(const benchmark::State&) {
  delete g_banking;
  g_banking = nullptr;
}

/// The paper's Fig. 7 hot spot: every transfer also credits the shared fee
/// account, so each commit writes that one row. Thread 0 runs the GC on
/// the serving path's maintenance cadence (every 1024 of its commits).
void BM_HotRowUpdate(benchmark::State& state) {
  auto exec = std::make_unique<Mv3cExecutor>(&g_banking->mgr);
  banking::TransferGenerator gen(BankingFixture::kAccounts,
                                 /*fee_fraction_percent=*/100,
                                 /*seed=*/17 + state.thread_index());
  uint64_t commits = 0;
  uint64_t completions = 0;
  for (auto _ : state) {
    const StepResult r =
        exec->Run(banking::Mv3cTransferMoney(g_banking->db, gen.Next()));
    if (r == StepResult::kCommitted) ++commits;
    if (state.thread_index() == 0 && ++completions % 1024 == 0) {
      g_banking->mgr.CollectGarbage();
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(commits));
}
BENCHMARK(BM_HotRowUpdate)
    ->Setup(SetUpBanking)
    ->Teardown(TearDownBanking)
    ->Threads(1)
    ->Threads(2)
    ->UseRealTime();

/// Cold-row churn: each commit updates one of 10k rows picked at random,
/// with the GC every 1024 commits. Reports how much version memory the
/// arena keeps per 100k commits beyond what it held after the load — the
/// figure that must stay near zero for memory to track live versions.
void BM_ColdRowChurn(benchmark::State& state) {
  constexpr uint64_t kRows = 10000;
  TransactionManager mgr;
  TestTable table("t", kRows);
  {
    Transaction loader(&mgr);
    mgr.Begin(&loader);
    for (uint64_t k = 0; k < kRows; ++k) loader.Insert(table, k, Row{});
    MV3C_CHECK(mgr.TryCommit(&loader, [](CommittedRecord*) { return true; }));
  }
  mgr.CollectGarbage();
  const uint64_t held_before = mgr.arena().snapshot().held_bytes;
  Xoshiro256 rng(5);
  Transaction t(&mgr);
  int64_t i = 0;
  for (auto _ : state) {
    mgr.Begin(&t);
    t.Update(table, table.Find(rng.NextBounded(kRows)), Row{++i, i},
             ColumnMask::All(), false, WwPolicy::kFailFast);
    MV3C_CHECK(mgr.TryCommit(&t, [](CommittedRecord*) { return true; }));
    if ((i & 1023) == 0) mgr.CollectGarbage();
  }
  const double grown =
      static_cast<double>(mgr.arena().snapshot().held_bytes) -
      static_cast<double>(held_before);
  state.counters["held_bytes_per_100k_commits"] =
      grown * 1e5 / static_cast<double>(state.iterations());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ColdRowChurn);

/// Heap allocations per commit of one TPC-C transaction type, run
/// serially (no conflicts) under MV3C (arg 0 = 0) or OMVCC (arg 0 = 1):
/// the program, predicates, closures and scan state plus the index and
/// commit-record allocations both engines share. OMVCC must not pay for
/// MV3C's graph, so its count is the floor MV3C's is compared against.
/// Arg 1: 0 = NewOrder, 1 = Payment. Only the transaction is counted, not
/// the periodic GC; aborted NewOrders (the 1% rollback rule) count toward
/// the allocations, not the commits.
void BM_TpccAllocs(benchmark::State& state) {
  const ConflictPolicy engine = state.range(0) == 0 ? ConflictPolicy::kRepair
                                                    : ConflictPolicy::kRestart;
  const tpcc::TpccTxnType type = state.range(1) == 0
                                     ? tpcc::TpccTxnType::kNewOrder
                                     : tpcc::TpccTxnType::kPayment;
  tpcc::TpccScale scale;  // one warehouse, spec districts and customers
  scale.n_items = 10000;
  scale.preload_orders_per_d = 300;
  scale.preload_new_orders_per_d = 90;
  TransactionManager mgr;
  tpcc::TpccDb db(&mgr, scale);
  db.Load(3);
  tpcc::TpccGenerator gen(scale, 5);
  Mv3cExecutor exec(&mgr, {}, engine);
  uint64_t commits = 0;
  uint64_t txns = 0;
  g_allocs.store(0);
  for (auto _ : state) {
    tpcc::TpccParams p;
    do {
      p = gen.Next();
    } while (p.type != type);
    g_count_allocs.store(true, std::memory_order_relaxed);
    const StepResult r = exec.Run(tpcc::TpccProgram(db, p));
    g_count_allocs.store(false, std::memory_order_relaxed);
    if (r == StepResult::kCommitted) ++commits;
    if (++txns % 1024 == 0) {
      mgr.CollectGarbage();
      db.CleanupNewOrderQueue();
    }
  }
  state.counters["allocs_per_commit"] =
      static_cast<double>(g_allocs.load()) /
      static_cast<double>(commits == 0 ? 1 : commits);
  state.SetItemsProcessed(static_cast<int64_t>(commits));
}
// A fixed iteration count makes the count exact and comparable across
// builds: the run is serial and seeded.
BENCHMARK(BM_TpccAllocs)
    ->ArgNames({"omvcc", "payment"})
    ->Iterations(20000)
    ->Args({0, 0})
    ->Args({1, 0})
    ->Args({0, 1})
    ->Args({1, 1});

/// Cost of one TPC-C transaction type at spec scale (one warehouse, 100k
/// items, 3000 customers per district, the spec's preloaded orders), run
/// serially under MV3C (arg 0 = 0) or OMVCC (arg 0 = 1). Arg 1 is the
/// type: 0 New-Order, 1 Payment, 2 Order-Status, 3 Delivery, 4 Stock-Level.
/// The whole standard mix runs, so the database and the caches stay as a
/// mix leaves them (Delivery alone would drain the new-order queue in a
/// few thousand runs); one benchmark iteration runs the mix up to the next
/// transaction of the chosen type. `us_per_commit` times only the
/// executor's runs of that type and divides by their commits, so aborted
/// New-Orders count as cost. Each instance loads its own database (about
/// a second).
void BM_TpccTxn(benchmark::State& state) {
  const ConflictPolicy engine = state.range(0) == 0 ? ConflictPolicy::kRepair
                                                    : ConflictPolicy::kRestart;
  const auto type = static_cast<tpcc::TpccTxnType>(state.range(1));
  const tpcc::TpccScale scale;
  TransactionManager mgr;
  tpcc::TpccDb db(&mgr, scale);
  db.Load(3);
  tpcc::TpccGenerator gen(scale, 5);
  Mv3cExecutor exec(&mgr, {}, engine);
  uint64_t commits = 0;
  uint64_t txns = 0;
  std::chrono::nanoseconds busy{0};
  for (auto _ : state) {
    bool timed = false;
    while (!timed) {
      const tpcc::TpccParams p = gen.Next();
      timed = p.type == type;
      auto program = tpcc::TpccProgram(db, p);
      const auto start = std::chrono::steady_clock::now();
      const StepResult r = exec.Run(std::move(program));
      if (timed) {
        busy += std::chrono::steady_clock::now() - start;
        if (r == StepResult::kCommitted) ++commits;
      }
      if (++txns % 1024 == 0) {
        mgr.CollectGarbage();
        db.CleanupNewOrderQueue();
      }
    }
  }
  state.counters["us_per_commit"] =
      std::chrono::duration<double, std::micro>(busy).count() /
      static_cast<double>(commits == 0 ? 1 : commits);
}
BENCHMARK(BM_TpccTxn)
    ->ArgNames({"omvcc", "type"})
    ->ArgsProduct({{0, 1}, {0, 1, 2, 3, 4}})
    ->Unit(benchmark::kMicrosecond);

void BM_PredicateMatch(benchmark::State& state) {
  const bool attr = state.range(0) != 0;
  // Toggled before the measured threads start; thread creation publishes.
  g_attribute_level_validation.store(attr, std::memory_order_relaxed);
  TransactionManager mgr;
  TestTable table("t", 16);
  Transaction loader(&mgr);
  mgr.Begin(&loader);
  loader.Insert(table, 1, Row{0, 0});
  Timestamp cts;
  MV3C_CHECK(
      mgr.TryCommit(&loader, [](CommittedRecord*) { return true; }, &cts));
  const VersionBase* v = mgr.rc_head()->versions[0];
  KeyEqCriterion<TestTable> pred(&table, 1);
  pred.set_monitored(ColumnMask::Of(1));  // version modified All -> match
  for (auto _ : state) {
    benchmark::DoNotOptimize(pred.ConflictsWith(*v));
  }
  g_attribute_level_validation.store(true, std::memory_order_relaxed);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PredicateMatch)->Arg(0)->Arg(1);

void BM_ValidationWalk(benchmark::State& state) {
  const int rc_len = static_cast<int>(state.range(0));
  TransactionManager mgr;
  TestTable table("t", 1 << 12);
  // Seed rows, then commit rc_len transactions while a victim is active.
  {
    Transaction loader(&mgr);
    mgr.Begin(&loader);
    for (uint64_t k = 0; k < 1024; ++k) loader.Insert(table, k, Row{});
    MV3C_CHECK(
      mgr.TryCommit(&loader, [](CommittedRecord*) { return true; }));
  }
  Transaction victim(&mgr);
  mgr.Begin(&victim);
  for (int i = 0; i < rc_len; ++i) {
    Transaction t(&mgr);
    mgr.Begin(&t);
    t.Update(table, table.Find(i % 1024), Row{i, i}, ColumnMask::All(),
             false, WwPolicy::kFailFast);
    MV3C_CHECK(mgr.TryCommit(&t, [](CommittedRecord*) { return true; }));
  }
  KeyEqCriterion<TestTable> pred(&table, 9999);  // never matches
  for (auto _ : state) {
    bool clean = TransactionManager::ForEachConcurrentVersion(
        mgr.rc_head(), victim.start_ts(),
        [&](const VersionBase& v) { return !pred.ConflictsWith(v); });
    benchmark::DoNotOptimize(clean);
  }
  mgr.CommitReadOnly(&victim);
  state.SetItemsProcessed(state.iterations() * rc_len);
}
BENCHMARK(BM_ValidationWalk)->Arg(8)->Arg(64)->Arg(512);

void BM_CuckooFind(benchmark::State& state) {
  CuckooMap<uint64_t, uint64_t> map(1 << 16);
  for (uint64_t k = 0; k < (1 << 16); ++k) MV3C_CHECK(map.Insert(k, k));
  Xoshiro256 rng(7);
  uint64_t out;
  for (auto _ : state) {
    benchmark::DoNotOptimize(map.Find(rng.NextBounded(1 << 16), &out));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CuckooFind);

void BM_CuckooInsert(benchmark::State& state) {
  CuckooMap<uint64_t, uint64_t> map(1 << 20);
  uint64_t k = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(map.Insert(k++, k));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CuckooInsert);

/// Scans `state.range(1)` entries at a random start in one shard of
/// `state.range(0)` entries; {100000, 200} is Stock-Level's order-line scan.
void BM_OrderedIndexScan(benchmark::State& state) {
  const uint64_t n = static_cast<uint64_t>(state.range(0));
  const uint64_t span = static_cast<uint64_t>(state.range(1));
  OrderedIndex<uint64_t, uint64_t, SinglePartition> idx;
  for (uint64_t k = 0; k < n; ++k) MV3C_CHECK(idx.Insert(k, k));
  Xoshiro256 rng(5);
  for (auto _ : state) {
    const uint64_t lo = rng.NextBounded(n - span);
    uint64_t sum = 0;
    idx.ScanRange(lo, lo + span - 1, [&](uint64_t, uint64_t v) {
      sum += v;
      return true;
    });
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * span);
}
BENCHMARK(BM_OrderedIndexScan)->Args({10000, 100})->Args({100000, 200});

/// Fills one shard with 100k entries, inserting `keys` in order; teardown
/// is not timed.
void InsertIntoOneShard(benchmark::State& state,
                        const std::vector<uint64_t>& keys) {
  using Index = OrderedIndex<uint64_t, uint64_t, SinglePartition>;
  for (auto _ : state) {
    auto idx = std::make_unique<Index>();
    for (uint64_t k : keys) MV3C_CHECK(idx->Insert(k, k));
    state.PauseTiming();
    idx.reset();
    state.ResumeTiming();
  }
  state.SetItemsProcessed(state.iterations() * keys.size());
}

/// Ascending keys: the order-line, order and new-order shape.
void BM_OrderedIndexAppend(benchmark::State& state) {
  std::vector<uint64_t> keys(100000);
  for (uint64_t i = 0; i < keys.size(); ++i) keys[i] = i;
  InsertIntoOneShard(state, keys);
}
BENCHMARK(BM_OrderedIndexAppend);

/// Distinct keys in random order: the customers-by-name shape.
void BM_OrderedIndexRandomInsert(benchmark::State& state) {
  std::vector<uint64_t> keys(100000);
  for (uint64_t i = 0; i < keys.size(); ++i) keys[i] = i;
  Xoshiro256 rng(9);
  for (uint64_t i = keys.size() - 1; i > 0; --i) {
    std::swap(keys[i], keys[rng.NextBounded(i + 1)]);
  }
  InsertIntoOneShard(state, keys);
}
BENCHMARK(BM_OrderedIndexRandomInsert);

void BM_ZipfNext(benchmark::State& state) {
  ZipfGenerator zipf(100000, 1.4);
  Xoshiro256 rng(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(zipf.Next(rng));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ZipfNext);

void BM_CipherApply(benchmark::State& state) {
  StreamCipher cipher(0xDEADBEEF);
  uint8_t buf[112] = {};
  for (auto _ : state) {
    cipher.Apply(buf, sizeof(buf));
    benchmark::DoNotOptimize(buf);
  }
  state.SetBytesProcessed(state.iterations() * sizeof(buf));
}
BENCHMARK(BM_CipherApply);

}  // namespace
}  // namespace mv3c

BENCHMARK_MAIN();
