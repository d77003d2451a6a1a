// Partitioned-WAL recovery equivalence: the same deterministic history
// written with partitions ∈ {1, 2, 4} must recover to digest-identical
// state — and the partitioned recoveries must match the single-stream
// genesis replay exactly — on all four workloads. partitions=1 is the
// legacy on-disk layout, so digest equality here pins the partitioned
// protocol (per-partition streams, heartbeat blocks, min-epoch durable
// cut, cross-stream commit_ts merge) to the behavior the single-writer
// log always had. A multi-worker banking case additionally spreads real
// data (not just heartbeats) across streams via per-thread TID lanes.

#include <cstdint>
#include <filesystem>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "driver/window_driver.h"
#include "silo/silo_engine.h"
#include "sv/sv_executor.h"
#include "wal/catalog.h"
#include "wal/log_manager.h"
#include "wal/recovery.h"
#include "wal/state_hash.h"
#include "workloads/wal_registry.h"

namespace mv3c {
namespace {

namespace fs = std::filesystem;

constexpr uint32_t kPartitionCounts[] = {1, 2, 4};

class WalPartitionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::path(::testing::TempDir()) /
           ("wal_partition_" +
            std::string(
                ::testing::UnitTest::GetInstance()->current_test_info()->name()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  /// One log directory per partition count under the test root.
  wal::WalConfig Config(uint32_t partitions) {
    wal::WalConfig c;
    c.dir = (dir_ / ("p" + std::to_string(partitions))).string();
    c.ack = wal::WalConfig::Ack::kAsync;
    c.partitions = partitions;
    return c;
  }

  fs::path dir_;
};

/// Asserts one workload's digests agree across partition counts.
/// `run(config)` executes the deterministic history WAL-on and returns the
/// live digests; `recover(dir)` replays the directory into fresh tables
/// and returns the recovered digests. Runs with more partitions than
/// data-carrying buffers exercise heartbeat blocks; the digests must not
/// care.
template <typename RunFn, typename RecoverFn>
void RunAcrossPartitionCounts(
    const std::function<wal::WalConfig(uint32_t)>& config, RunFn run,
    RecoverFn recover) {
  std::vector<std::vector<wal::TableDigest>> recovered;
  for (const uint32_t partitions : kPartitionCounts) {
    const wal::WalConfig c = config(partitions);
    const std::vector<wal::TableDigest> live = run(c);
    const std::vector<wal::TableDigest> replayed = recover(c.dir);
    ASSERT_EQ(live.size(), replayed.size());
    for (size_t i = 0; i < live.size(); ++i) {
      EXPECT_EQ(replayed[i], live[i])
          << "partitions=" << partitions << " table " << i
          << ": recovery lost or invented state";
    }
    recovered.push_back(replayed);
  }
  // Partitioned recoveries vs the single-stream genesis replay.
  for (size_t p = 1; p < recovered.size(); ++p) {
    ASSERT_EQ(recovered[p].size(), recovered[0].size());
    for (size_t i = 0; i < recovered[0].size(); ++i) {
      EXPECT_EQ(recovered[p][i], recovered[0][i])
          << "partitions=" << kPartitionCounts[p] << " table " << i
          << " diverged from the single-stream replay";
    }
  }
}

// --- Banking (MV3C, windowed driver with repairs) -------------------------

TEST_F(WalPartitionTest, BankingMv3c) {
  constexpr int64_t kAccounts = 200;
  constexpr int64_t kInitial = 1'000'000;
  RunAcrossPartitionCounts(
      [&](uint32_t p) { return Config(p); },
      [&](const wal::WalConfig& c) {
        TransactionManager mgr;
        mgr.EnableWal(c);
        banking::BankingDb db(&mgr, kAccounts, kInitial);
        wal::Catalog cat;
        RegisterWalTables(cat, db);
        db.Load();
        banking::TransferGenerator gen(kAccounts, 100, /*seed=*/42);
        std::vector<banking::TransferParams> stream;
        for (int i = 0; i < 1500; ++i) stream.push_back(gen.Next());
        WindowDriver<Mv3cExecutor> driver(
            8, [&](...) { return std::make_unique<Mv3cExecutor>(&mgr); },
            [&] { mgr.CollectGarbage(); });
        const DriveResult res =
            driver.Run(CountedSource<Mv3cExecutor::Program>(
                stream.size(), [&](uint64_t i) {
                  return banking::Mv3cTransferMoney(db, stream[i]);
                }));
        EXPECT_GT(res.committed, 750u);
        EXPECT_TRUE(mgr.wal()->FlushNow());
        EXPECT_EQ(db.TotalBalance(), kAccounts * kInitial);
        mgr.DisableWal();
        return std::vector<wal::TableDigest>{
            wal::DigestMvccTable(db.accounts)};
      },
      [&](const std::string& log_dir) {
        TransactionManager mgr;
        banking::BankingDb db(&mgr, kAccounts, kInitial);
        wal::Catalog cat;
        RegisterWalTables(cat, db);
        const wal::RecoveryReport rep = cat.Recover(log_dir);
        EXPECT_FALSE(rep.torn_tail) << rep.stop_reason;
        EXPECT_EQ(db.TotalBalance(), kAccounts * kInitial);
        return std::vector<wal::TableDigest>{
            wal::DigestMvccTable(db.accounts)};
      });
}

// --- Trading (MV3C) -------------------------------------------------------

TEST_F(WalPartitionTest, TradingMv3c) {
  RunAcrossPartitionCounts(
      [&](uint32_t p) { return Config(p); },
      [&](const wal::WalConfig& c) {
        TransactionManager mgr;
        mgr.EnableWal(c);
        trading::TradingDb db(&mgr, 300, 100);
        wal::Catalog cat;
        RegisterWalTables(cat, db);
        db.Load();
        trading::TradingGenerator gen(db, 0.8, 70, /*seed=*/13);
        std::vector<trading::TradingGenerator::Txn> stream;
        for (int i = 0; i < 600; ++i) stream.push_back(gen.Next());
        WindowDriver<Mv3cExecutor> driver(
            8, [&](...) { return std::make_unique<Mv3cExecutor>(&mgr); },
            [&] { mgr.CollectGarbage(); });
        const DriveResult res =
            driver.Run(CountedSource<Mv3cExecutor::Program>(
                stream.size(), [&](uint64_t i) -> Mv3cExecutor::Program {
                  if (stream[i].is_trade_order) {
                    return trading::Mv3cTradeOrder(db, stream[i].order);
                  }
                  return trading::Mv3cPriceUpdate(db, stream[i].price);
                }));
        EXPECT_GT(res.committed, 0u);
        EXPECT_TRUE(mgr.wal()->FlushNow());
        mgr.DisableWal();
        return std::vector<wal::TableDigest>{
            wal::DigestMvccTable(db.securities),
            wal::DigestMvccTable(db.customers),
            wal::DigestMvccTable(db.trades),
            wal::DigestMvccTable(db.trade_lines)};
      },
      [&](const std::string& log_dir) {
        TransactionManager mgr;
        trading::TradingDb db(&mgr, 300, 100);
        wal::Catalog cat;
        RegisterWalTables(cat, db);
        const wal::RecoveryReport rep = cat.Recover(log_dir);
        EXPECT_FALSE(rep.torn_tail) << rep.stop_reason;
        return std::vector<wal::TableDigest>{
            wal::DigestMvccTable(db.securities),
            wal::DigestMvccTable(db.customers),
            wal::DigestMvccTable(db.trades),
            wal::DigestMvccTable(db.trade_lines)};
      });
}

// --- TATP (MV3C, includes tombstones) -------------------------------------

TEST_F(WalPartitionTest, TatpMv3c) {
  constexpr uint64_t kSubs = 600;
  RunAcrossPartitionCounts(
      [&](uint32_t p) { return Config(p); },
      [&](const wal::WalConfig& c) {
        TransactionManager mgr;
        mgr.EnableWal(c);
        tatp::TatpDb db(&mgr, kSubs);
        wal::Catalog cat;
        RegisterWalTables(cat, db);
        db.Load(3);
        tatp::TatpGenerator gen(kSubs, 77);
        Mv3cExecutor e(&mgr);
        uint64_t committed = 0;
        for (int i = 0; i < 1500; ++i) {
          if (e.Run(tatp::Mv3cTatpProgram(db, gen.Next())) ==
              StepResult::kCommitted) {
            ++committed;
          }
        }
        EXPECT_GT(committed, 750u);
        EXPECT_TRUE(mgr.wal()->FlushNow());
        mgr.DisableWal();
        return std::vector<wal::TableDigest>{
            wal::DigestMvccTable(db.subscribers),
            wal::DigestMvccTable(db.access_info),
            wal::DigestMvccTable(db.special_facilities),
            wal::DigestMvccTable(db.call_forwarding)};
      },
      [&](const std::string& log_dir) {
        TransactionManager mgr;
        tatp::TatpDb db(&mgr, kSubs);
        wal::Catalog cat;
        RegisterWalTables(cat, db);
        const wal::RecoveryReport rep = cat.Recover(log_dir);
        EXPECT_FALSE(rep.torn_tail) << rep.stop_reason;
        return std::vector<wal::TableDigest>{
            wal::DigestMvccTable(db.subscribers),
            wal::DigestMvccTable(db.access_info),
            wal::DigestMvccTable(db.special_facilities),
            wal::DigestMvccTable(db.call_forwarding)};
      });
}

// --- TPC-C (single-version Silo; round-robin buffers spread data) ---------

tpcc::TpccScale PartitionScale() {
  tpcc::TpccScale s;
  s.n_warehouses = 1;
  s.n_districts = 4;
  s.n_customers_per_d = 60;
  s.n_items = 200;
  s.preload_orders_per_d = 40;
  s.preload_new_orders_per_d = 15;
  return s;
}

std::vector<wal::TableDigest> DigestSvTpcc(tpcc::SingleVersionTpccDb& d) {
  return std::vector<wal::TableDigest>{
      wal::DigestSvTable(d.warehouses),  wal::DigestSvTable(d.districts),
      wal::DigestSvTable(d.customers),   wal::DigestSvTable(d.history),
      wal::DigestSvTable(d.orders),      wal::DigestSvTable(d.new_orders),
      wal::DigestSvTable(d.order_lines), wal::DigestSvTable(d.items),
      wal::DigestSvTable(d.stock)};
}

TEST_F(WalPartitionTest, TpccSilo) {
  const tpcc::TpccScale scale = PartitionScale();
  RunAcrossPartitionCounts(
      [&](uint32_t p) { return Config(p); },
      [&](const wal::WalConfig& c) {
        tpcc::SingleVersionTpccDb db(scale);
        wal::Catalog cat;
        RegisterWalTables(cat, db);
        wal::LogManager lm(c);
        SiloEngine engine;
        engine.set_wal(&lm);
        db.Load(7);  // non-transactional: checkpoint-style recovery below
        tpcc::TpccGenerator gen(scale, 23);
        std::vector<tpcc::TpccParams> stream;
        for (int i = 0; i < 300; ++i) stream.push_back(gen.Next());
        // Eight executor contexts create eight round-robin buffers, so the
        // partitioned runs carry real data in every stream.
        WindowDriver<SvExecutor<SiloEngine>> driver(8, [&](...) {
          return std::make_unique<SvExecutor<SiloEngine>>(&engine);
        });
        const DriveResult res = driver.Run(
            CountedSource<SvExecutor<SiloEngine>::Program>(
                stream.size(), [&](uint64_t i) {
                  return tpcc::TpccProgram(db, stream[i]);
                }));
        EXPECT_GT(res.committed, 0u);
        EXPECT_TRUE(lm.FlushNow());
        lm.Stop();
        return DigestSvTpcc(db);
      },
      [&](const std::string& log_dir) {
        tpcc::SingleVersionTpccDb db(scale);
        db.Load(7);  // same seed, then the log suffix on top
        wal::Catalog cat;
        RegisterWalTables(cat, db);
        const wal::RecoveryReport rep = cat.Recover(log_dir);
        EXPECT_FALSE(rep.torn_tail) << rep.stop_reason;
        EXPECT_GT(rep.records_applied, 0u);
        return DigestSvTpcc(db);
      });
}

// --- Multi-worker banking: real data in every partition stream ------------

TEST_F(WalPartitionTest, MultiWorkerBankingSpreadsStreams) {
  // Four OS threads transfer within disjoint account ranges: the final
  // state is deterministic regardless of interleaving, each thread's TID
  // lane binds its buffer to a (mostly distinct) partition, and the
  // per-stream commit timestamps interleave arbitrarily — exactly the
  // cross-stream merge recovery must get right.
  constexpr int64_t kPerThread = 100;
  constexpr int kThreads = 4;
  constexpr int64_t kAccounts = kPerThread * kThreads;
  constexpr int64_t kInitial = 500'000;

  std::vector<wal::TableDigest> recovered;
  for (const uint32_t partitions : kPartitionCounts) {
    const wal::WalConfig c = Config(partitions);
    wal::TableDigest live;
    {
      TransactionManager mgr;
      mgr.EnableWal(c);
      banking::BankingDb db(&mgr, kAccounts, kInitial);
      wal::Catalog cat;
      RegisterWalTables(cat, db);
      db.Load();
      std::vector<std::thread> workers;
      for (int t = 0; t < kThreads; ++t) {
        workers.emplace_back([&, t] {
          banking::TransferGenerator gen(kPerThread, /*fee=*/0,
                                         /*seed=*/100 + t);
          Mv3cExecutor e(&mgr);
          for (int i = 0; i < 400; ++i) {
            banking::TransferParams p = gen.Next();
            p.from += t * kPerThread;
            p.to += t * kPerThread;
            ASSERT_EQ(e.Run(banking::Mv3cTransferMoney(db, p)),
                      StepResult::kCommitted);
          }
        });
      }
      for (auto& w : workers) w.join();
      ASSERT_TRUE(mgr.wal()->FlushNow());
      EXPECT_EQ(db.TotalBalance(), kAccounts * kInitial);
      mgr.DisableWal();
      live = wal::DigestMvccTable(db.accounts);
    }

    TransactionManager mgr2;
    banking::BankingDb db2(&mgr2, kAccounts, kInitial);
    wal::Catalog cat2;
    RegisterWalTables(cat2, db2);
    const wal::RecoveryReport rep = cat2.Recover(c.dir);
    EXPECT_FALSE(rep.torn_tail) << rep.stop_reason;
    EXPECT_EQ(db2.TotalBalance(), kAccounts * kInitial);
    const wal::TableDigest replayed = wal::DigestMvccTable(db2.accounts);
    EXPECT_EQ(replayed, live) << "partitions=" << partitions;
    recovered.push_back(replayed);
  }
  for (size_t p = 1; p < recovered.size(); ++p) {
    EXPECT_EQ(recovered[p], recovered[0])
        << "partitions=" << kPartitionCounts[p]
        << " diverged from the single-stream replay";
  }
}

}  // namespace
}  // namespace mv3c
