#include "server/workload_host.h"

#include <chrono>
#include <cstdio>
#include <cstring>
#include <mutex>
#include <utility>
#include <vector>

#include "mv3c/mv3c_executor.h"
#include "mvcc/transaction_manager.h"
#include "obs/engine_stats.h"
#include "wal/catalog.h"
#include "wal/log_manager.h"
#include "workloads/banking.h"
#include "workloads/tatp.h"
#include "workloads/tpcc.h"
#include "workloads/trading.h"
#include "workloads/wal_registry.h"

namespace mv3c::server {
namespace {

/// §4.3 heuristic, same as bench/runners.h kExclusiveRepairAfter; the
/// OMVCC policy ignores it.
constexpr int kExclusiveRepairAfter = 3;
/// Maintenance cadence, mirroring ThreadDriver worker-0 behavior.
constexpr uint64_t kMaintenanceEvery = 1024;

void BusyWaitUs(uint32_t us) {
  if (us == 0) return;
  const auto until =
      std::chrono::steady_clock::now() + std::chrono::microseconds(us);
  while (std::chrono::steady_clock::now() < until) {
  }
}

/// Everything engine-generic: per-worker executors, the step loop, the
/// worker-published metrics snapshots, and (when enabled) the WAL.
/// Subclasses own the database and map opcodes to programs; the engine is
/// the executors' conflict policy.
class HostBase : public WorkloadHost {
 public:
  HostBase(const HostOptions& opts, ConflictPolicy conflict) : opts_(opts) {
    if (opts_.wal) {
      wal::WalConfig cfg;
      cfg.dir = opts_.wal_dir;
      cfg.ack = opts_.sync_ack ? wal::WalConfig::Ack::kSync
                               : wal::WalConfig::Ack::kAsync;
      cfg.partitions = opts_.wal_partitions;
      mgr_.EnableWal(cfg);
      wal_ = mgr_.wal();
      sync_ack_ = opts_.sync_ack;
    }
    RetryPolicy retry;
    retry.exclusive_repair_after = kExclusiveRepairAfter;
    workers_.reserve(opts_.workers);
    for (size_t w = 0; w < opts_.workers; ++w) {
      workers_.push_back(std::make_unique<Worker>());
      workers_.back()->exec =
          std::make_unique<Mv3cExecutor>(&mgr_, retry, conflict);
    }
  }

  const char* engine() const override { return opts_.engine.c_str(); }
  size_t workers() const override { return opts_.workers; }

  Result Run(size_t worker_id, uint16_t opcode, const uint8_t* params,
             size_t param_bytes) override {
    Worker& w = *workers_[worker_id];
    BusyWaitUs(opts_.service_delay_us);
    Mv3cExecutor::Program prog;
    if (!MakeProgram(opcode, params, param_bytes, &prog)) {
      Result r;
      r.status = TxnStatus::kBadRequest;
      return r;
    }
    Mv3cExecutor& e = *w.exec;
    e.Reset(std::move(prog));
    e.Begin();
    Result res;
    StepResult sr;
    while (true) {
      sr = e.Step();
      if (sr != StepResult::kNeedsRetry) break;
      if (++res.rounds >= opts_.round_cap) {
        sr = e.GiveUp();
        break;
      }
    }
    switch (sr) {
      case StepResult::kCommitted:
        res.status = TxnStatus::kCommitted;
        res.commit_ts = e.last_commit_ts();
        res.wal_epoch = e.last_commit_epoch();
        break;
      case StepResult::kUserAborted:
        res.status = TxnStatus::kUserAborted;
        break;
      default:
        res.status = TxnStatus::kExhausted;
        break;
    }
    if (worker_id == 0 && ++w.completions % kMaintenanceEvery == 0) {
      Maintenance();
    }
    return res;
  }

  bool WaitCommitDurable(uint64_t epoch) override {
    return sync_ack_ && mgr_.WalWaitDurable(epoch);
  }

  bool RequestDurable(uint64_t epoch) override {
    return sync_ack_ && wal_ != nullptr && wal_->RequestDurable(epoch);
  }

  /// Folds this worker's executor registry into its published snapshot.
  /// Called by the worker thread itself (the registry's counters are that
  /// thread's plain fields, so this read is single-threaded); the copy
  /// under the mutex is what /metrics reads.
  void FlushWorkerMetrics(size_t worker_id) override {
    Worker& w = *workers_[worker_id];
    obs::MetricsSnapshot snap = w.exec->metrics().Snapshot();
    std::lock_guard<std::mutex> g(w.mu);
    w.published = std::move(snap);
  }

  obs::MetricsSnapshot PublishedEngineMetrics() const override {
    obs::MetricsSnapshot out;
    for (const auto& w : workers_) {
      std::lock_guard<std::mutex> g(w->mu);
      out.Merge(w->published);
    }
    // The log's counters are atomics and its histograms sit behind the
    // registry lock, so a live snapshot is race-free.
    if (wal_ != nullptr) out.Merge(wal_->metrics().Snapshot());
    return out;
  }

  uint64_t WalDurableEpoch() const override {
    return wal_ != nullptr ? wal_->durable_epoch() : 0;
  }

  void Maintenance() override { mgr_.CollectGarbage(); }

  MemoryGauges EngineMemory() const override {
    MemoryGauges g;
    g.arena_held_bytes = mgr_.arena().held_bytes();
    g.arena_live_objects = mgr_.arena().live_objects();
    g.gc_pending = mgr_.gc().PendingCount();
    return g;
  }

  void Shutdown() override {
    if (wal_ != nullptr) {
      wal_->FlushNow();
      wal_ = nullptr;
      mgr_.DisableWal();
    }
  }

  /// Makes the loaded population durable with one flush: loader commits do
  /// not wait for their epochs, so this is the population's only wait. A
  /// log that crashed during the load stays crashed and no later commit
  /// is answered durable.
  void FlushPopulation() {
    if (wal_ != nullptr) (void)wal_->FlushNow();
  }

 protected:
  virtual bool MakeProgram(uint16_t opcode, const uint8_t* params,
                           size_t param_bytes,
                           Mv3cExecutor::Program* out) = 0;

  HostOptions opts_;
  TransactionManager mgr_;

 private:
  /// The manager's log, or null without a WAL (and after Shutdown).
  wal::LogManager* wal_ = nullptr;
  /// Commits wait for the WAL fsync before they are answered; false
  /// without a WAL.
  bool sync_ack_ = false;
  struct Worker {
    std::unique_ptr<Mv3cExecutor> exec;
    uint64_t completions = 0;
    mutable std::mutex mu;
    obs::MetricsSnapshot published;  // guarded by mu
  };
  std::vector<std::unique_ptr<Worker>> workers_;
};

// --- banking ---

class BankingHost final : public HostBase {
 public:
  BankingHost(const HostOptions& opts, ConflictPolicy conflict)
      : HostBase(opts, conflict),
        db_(&mgr_, opts.scale == 0 ? 100000 : static_cast<int64_t>(
                                                        opts.scale),
            /*initial_balance=*/1000) {
    if (opts.wal) RegisterWalTables(cat_, db_);
    db_.Load();
  }

  const char* workload() const override { return "banking"; }

  bool Accepts(uint16_t opcode, size_t n) const override {
    return opcode == static_cast<uint16_t>(Op::kBankingTransfer) &&
           n == sizeof(banking::TransferParams);
  }

 protected:
  bool MakeProgram(uint16_t opcode, const uint8_t* params, size_t n,
                   Mv3cExecutor::Program* out) override {
    if (!Accepts(opcode, n)) return false;
    banking::TransferParams p;
    std::memcpy(&p, params, sizeof(p));
    *out = banking::Mv3cTransferMoney(db_, p);
    return true;
  }

 private:
  banking::BankingDb db_;
  wal::Catalog cat_;
};

// --- trading ---

class TradingHost final : public HostBase {
 public:
  TradingHost(const HostOptions& opts, ConflictPolicy conflict)
      : HostBase(opts, conflict),
        db_(&mgr_, opts.scale == 0 ? 100000 : opts.scale,
            opts.scale == 0 ? 100000 : opts.scale) {
    if (opts.wal) RegisterWalTables(cat_, db_);
    db_.Load();
  }

  const char* workload() const override { return "trading"; }

  bool Accepts(uint16_t opcode, size_t n) const override {
    if (opcode == static_cast<uint16_t>(Op::kTradeOrder)) {
      return n == sizeof(trading::TradeOrderParams);
    }
    if (opcode == static_cast<uint16_t>(Op::kPriceUpdate)) {
      return n == sizeof(trading::PriceUpdateParams);
    }
    return false;
  }

 protected:
  bool MakeProgram(uint16_t opcode, const uint8_t* params, size_t n,
                   Mv3cExecutor::Program* out) override {
    if (!Accepts(opcode, n)) return false;
    if (opcode == static_cast<uint16_t>(Op::kTradeOrder)) {
      trading::TradeOrderParams p;
      std::memcpy(&p, params, sizeof(p));
      *out = trading::Mv3cTradeOrder(db_, p);
    } else {
      trading::PriceUpdateParams p;
      std::memcpy(&p, params, sizeof(p));
      *out = trading::Mv3cPriceUpdate(db_, p);
    }
    return true;
  }

 private:
  trading::TradingDb db_;
  wal::Catalog cat_;
};

// --- tatp ---

class TatpHost final : public HostBase {
 public:
  TatpHost(const HostOptions& opts, ConflictPolicy conflict)
      : HostBase(opts, conflict),
        db_(&mgr_, opts.scale == 0 ? 100000 : opts.scale) {
    if (opts.wal) RegisterWalTables(cat_, db_);
    db_.Load();
  }

  const char* workload() const override { return "tatp"; }

  bool Accepts(uint16_t opcode, size_t n) const override {
    return opcode == static_cast<uint16_t>(Op::kTatp) &&
           n == sizeof(tatp::TatpParams);
  }

 protected:
  bool MakeProgram(uint16_t opcode, const uint8_t* params, size_t n,
                   Mv3cExecutor::Program* out) override {
    if (!Accepts(opcode, n)) return false;
    tatp::TatpParams p;
    std::memcpy(&p, params, sizeof(p));
    // Enum fields crossed the network: bound them before the program
    // switches on them.
    if (p.type > tatp::TxnType::kDeleteCallForwarding) return false;
    *out = tatp::Mv3cTatpProgram(db_, p);
    return true;
  }

 private:
  tatp::TatpDb db_;
  wal::Catalog cat_;
};

// --- tpcc ---

class TpccHost final : public HostBase {
 public:
  TpccHost(const HostOptions& opts, ConflictPolicy conflict)
      : HostBase(opts, conflict), db_(&mgr_, ScaleOf(opts)) {
    if (opts.wal) RegisterWalTables(cat_, db_);
    db_.Load();
  }

  const char* workload() const override { return "tpcc"; }

  bool Accepts(uint16_t opcode, size_t n) const override {
    return opcode == static_cast<uint16_t>(Op::kTpcc) &&
           n == sizeof(tpcc::TpccParams);
  }

  void Maintenance() override {
    mgr_.CollectGarbage();
    db_.CleanupNewOrderQueue();
  }

 protected:
  bool MakeProgram(uint16_t opcode, const uint8_t* params, size_t n,
                   Mv3cExecutor::Program* out) override {
    if (!Accepts(opcode, n)) return false;
    tpcc::TpccParams p;
    std::memcpy(&p, params, sizeof(p));
    if (p.type > tpcc::TpccTxnType::kStockLevel) return false;
    if (p.ol_cnt > tpcc::kMaxOrderLines) return false;
    *out = tpcc::TpccProgram(db_, p);
    return true;
  }

 private:
  static tpcc::TpccScale ScaleOf(const HostOptions& opts) {
    tpcc::TpccScale s;
    if (opts.scale != 0) s.n_warehouses = opts.scale;
    return s;
  }

  tpcc::TpccDb db_;
  wal::Catalog cat_;
};

}  // namespace

std::unique_ptr<WorkloadHost> MakeWorkloadHost(const HostOptions& opts) {
  ConflictPolicy conflict;
  if (opts.engine == "mv3c") {
    conflict = ConflictPolicy::kRepair;
  } else if (opts.engine == "omvcc") {
    conflict = ConflictPolicy::kRestart;
  } else {
    std::fprintf(stderr, "unknown engine '%s'\n", opts.engine.c_str());
    return nullptr;
  }
  std::unique_ptr<HostBase> host;
  if (opts.workload == "banking") {
    host = std::make_unique<BankingHost>(opts, conflict);
  } else if (opts.workload == "trading") {
    host = std::make_unique<TradingHost>(opts, conflict);
  } else if (opts.workload == "tatp") {
    host = std::make_unique<TatpHost>(opts, conflict);
  } else if (opts.workload == "tpcc") {
    host = std::make_unique<TpccHost>(opts, conflict);
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", opts.workload.c_str());
    return nullptr;
  }
  host->FlushPopulation();
  return host;
}

}  // namespace mv3c::server
