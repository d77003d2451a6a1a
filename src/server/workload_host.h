#ifndef MV3C_SERVER_WORKLOAD_HOST_H_
#define MV3C_SERVER_WORKLOAD_HOST_H_

// The bridge between the wire protocol and the engines (DESIGN §5k): a
// WorkloadHost owns one database (banking / trading / tatp / tpcc), its
// TransactionManager, and one executor per worker thread, and turns an
// opcode + raw parameter bytes into a driven transaction. The server
// core stays workload- and engine-agnostic: it validates framing, sheds
// load, and routes responses; everything transactional lives behind this
// interface.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

#include "obs/metrics.h"
#include "server/protocol.h"

namespace mv3c::server {

struct HostOptions {
  std::string workload = "banking";  // banking | trading | tatp | tpcc
  std::string engine = "mv3c";       // mv3c | omvcc
  size_t workers = 4;
  /// Workload population knob: accounts (banking), subscribers (tatp),
  /// securities/customers (trading), warehouses (tpcc).
  uint64_t scale = 0;  // 0 = per-workload default
  /// Driver-level starvation backstop, as in ThreadDriver::Run.
  uint32_t round_cap = 64;
  /// Deterministic per-request busy-wait inside the worker, before the
  /// transaction runs. 0 in production; overload tests use it to pin the
  /// service rate so "4x capacity" is a number, not a race.
  uint32_t service_delay_us = 0;
  /// Durability: when true the manager runs with a WAL and committed
  /// responses carry kRespFlagDurable semantics per `sync_ack`.
  bool wal = false;
  bool sync_ack = false;  // kSync (true) vs kAsync group-commit ack
  std::string wal_dir;
  uint32_t wal_partitions = 1;
};

class WorkloadHost {
 public:
  struct Result {
    TxnStatus status = TxnStatus::kBadRequest;
    uint64_t commit_ts = 0;
    uint32_t rounds = 0;
    /// WAL epoch of a committed transaction's redo records; 0 when nothing
    /// was logged. Run does not wait for it: the commit may be answered
    /// durable only after WaitCommitDurable covered this epoch.
    uint64_t wal_epoch = 0;
  };

  virtual ~WorkloadHost() = default;

  virtual const char* workload() const = 0;
  virtual const char* engine() const = 0;
  virtual size_t workers() const = 0;

  /// Cheap opcode/size validation for the I/O thread: a request whose
  /// opcode or parameter size does not match this host is rejected as
  /// kBadRequest before it costs a queue slot.
  virtual bool Accepts(uint16_t opcode, size_t param_bytes) const = 0;

  /// Runs one transaction to completion on worker `worker_id`'s executor.
  /// Single-threaded per worker_id; different worker_ids run concurrently.
  virtual Result Run(size_t worker_id, uint16_t opcode, const uint8_t* params,
                     size_t param_bytes) = 0;

  /// Group commit (DESIGN §5k): blocks until every commit tagged with a
  /// WAL epoch <= `epoch` is durable. Returns true iff those commits may
  /// be answered with kRespFlagDurable: the host runs a sync-ack WAL and
  /// the log made the epoch durable. False under async ack, without a
  /// WAL, and when the log crashed (or an fsync failed) first. Callable
  /// from any worker thread.
  virtual bool WaitCommitDurable(uint64_t epoch) = 0;

  /// Starts the flush that makes commits tagged <= `epoch` durable,
  /// without waiting, so a worker can park their answers (DESIGN §5k) and
  /// run its next batch during the fsync round. Returns true iff a
  /// WaitCommitDurable(epoch) would block: a sync-ack WAL, and `epoch`
  /// logged something not yet durable. Callable from any worker thread.
  virtual bool RequestDurable(uint64_t epoch) = 0;

  /// Engine maintenance (GC); the server calls it from worker 0 on the
  /// ThreadDriver cadence (~1024 completions).
  virtual void Maintenance() = 0;

  /// Folds worker `worker_id`'s executor registry into its published
  /// snapshot. MUST be called from that worker's own thread (the registry
  /// counters are the executor's plain fields); the server calls it after
  /// each drained batch so a scrape lags by at most one in-flight batch.
  virtual void FlushWorkerMetrics(size_t worker_id) = 0;

  /// Merged engine metrics for /metrics. Snapshots are *published* by the
  /// workers (each worker folds its executor's registry in periodically
  /// and on drain), so a live scrape reads a recent consistent copy
  /// instead of racing the executors' plain counters.
  virtual obs::MetricsSnapshot PublishedEngineMetrics() const = 0;

  /// Version memory for /metrics: the arena's held bytes and live objects
  /// (relaxed atomic loads) and the GC's pending count (read under the
  /// GC's own lock), so a scrape never races the workers.
  struct MemoryGauges {
    uint64_t arena_held_bytes = 0;
    uint64_t arena_live_objects = 0;
    uint64_t gc_pending = 0;
  };
  virtual MemoryGauges EngineMemory() const = 0;

  /// The WAL's durable epoch (0 without a WAL): every commit tagged with
  /// an epoch at or below it is on disk. An atomic load, safe to scrape.
  virtual uint64_t WalDurableEpoch() const = 0;

  /// Flushes the WAL (if any) so shutdown never strands an async-ack
  /// epoch; no-op without a WAL.
  virtual void Shutdown() = 0;
};

/// Builds the host for `opts.workload` x `opts.engine`, loading the
/// database population synchronously; with a WAL, the population is
/// durable when this returns. Returns nullptr (with a message on
/// stderr) for an unknown workload/engine combination.
std::unique_ptr<WorkloadHost> MakeWorkloadHost(const HostOptions& opts);

}  // namespace mv3c::server

#endif  // MV3C_SERVER_WORKLOAD_HOST_H_
