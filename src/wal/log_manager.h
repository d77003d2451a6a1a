#ifndef MV3C_WAL_LOG_MANAGER_H_
#define MV3C_WAL_LOG_MANAGER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/epoch_clock.h"
#include "obs/metrics.h"
#include "wal/log_buffer.h"

namespace mv3c::wal {

/// Durability configuration; passed to TransactionManager::EnableWal or a
/// standalone LogManager (SV engines).
struct WalConfig {
  /// How committers learn their transaction is durable.
  enum class Ack : uint8_t {
    /// WaitCommitDurable blocks until the commit's epoch is fsynced
    /// (group commit: the wait is one epoch interval, shared by every
    /// transaction in the epoch).
    kSync,
    /// WaitCommitDurable returns immediately; durability trails commit by
    /// up to one epoch (the Silo/"async-ack" regime benchmarks use to
    /// price the log out of the critical path).
    kAsync,
  };

  std::string dir;  // log directory; created if absent
  Ack ack = Ack::kSync;
  /// Sequencer wakeup cadence: an epoch is flushed at least this often
  /// (sync waiters additionally kick the sequencer immediately).
  uint32_t epoch_interval_us = 200;
  /// Segment rotation threshold (bytes written past it close the file).
  uint64_t segment_bytes = 64ull << 20;
  /// Number of per-core log partitions, each with its own buffers, segment
  /// stream (`wal-pPP-NNNNNN.log`), and drain+append+fsync flusher thread.
  /// 0 means "auto": MV3C_WAL_PARTITIONS from the environment, else 1.
  /// 1 reproduces the single-stream layout byte for byte (legacy
  /// `wal-NNNNNN.log` names, no flusher threads, no heartbeat blocks).
  uint32_t partitions = 0;
};

/// The epoch-based group-commit redo log (Silo-style, DESIGN §5f; the
/// partitioned protocol is §5i): committers serialize their final write
/// set into per-worker LogBuffers (see log_mvcc.h / log_sv.h), each bound
/// to one partition; a sequencer thread runs one *epoch* per round — bump
/// the epoch counter, then have every partition drain its buffers, append
/// the batch as one CRC-framed block in its own stream, and fsync, all in
/// parallel — and publishes the round's epoch as durable once EVERY
/// partition's fsync returned (durable epoch = the min over partitions).
/// Transactions wait on their epoch tag (sync ack) or proceed immediately
/// (async ack). With partitions=1 the sequencer flushes inline and the
/// log is the original single-writer, single-stream layout.
///
/// Idle rounds (every buffer verifiably empty, no flush forced) advance
/// the durable epoch to Current()-1 without bumping the clock or touching
/// the disk: the emptiness probe happens after the Current() read, so any
/// append it missed is coherence-ordered after it and carries a tag ≥
/// Current() — nothing tagged ≤ Current()-1 can be staged. This keeps a
/// quiet system from burning the bounded commit-TID epoch field at the
/// flush cadence (DESIGN §5h).
///
/// Lifecycle: the sequencer (and, for partitions>1, the flushers) start in
/// the constructor and are joined by Stop()/the destructor after a final
/// flush. TransactionManager declares its LogManager as the last member,
/// so the threads are gone before the metrics registry or the arena tears
/// down.
///
/// Failure model: any partition's write/fsync failure — injected
/// (kWalShortWrite, kWalCrashAfterAppend, kWalFsyncFail failpoints) or
/// real — freezes the WHOLE log in a `crashed` state: durable_epoch stops
/// advancing, waiters are released with `false`, nothing more reaches the
/// disk. That mimics a process crash from the log's point of view and is
/// what the crash-chaos tests recover from.
class LogManager {
 public:
  /// `epoch_clock` (optional) shares the epoch counter with the MVCC
  /// substrate: flush rounds advance the same clock commit-TID epoch
  /// components are read from (DESIGN §5h), so a commit's timestamp epoch
  /// never exceeds its redo records' epoch tag. Standalone logs (the SV
  /// engines) pass nullptr and get a private clock. The clock must start
  /// at or above 1 and only ever advance (EpochClock guarantees both);
  /// external AdvanceTo jumps are safe — the next flush round drains under
  /// the jumped value, which still covers every earlier tag.
  explicit LogManager(const WalConfig& config,
                      EpochClock* epoch_clock = nullptr);
  LogManager(const LogManager&) = delete;
  LogManager& operator=(const LogManager&) = delete;
  ~LogManager();

  /// No partition assignment requested: CreateBuffer spreads buffers
  /// round-robin (per-worker cached buffers land on distinct partitions).
  static constexpr uint32_t kNoLane = ~0u;

  /// Creates a per-worker staging buffer (manager-owned; stable address).
  /// Executors cache one lazily per transaction context. `lane_hint` binds
  /// the buffer to partition `lane_hint % partitions` — the MVCC bridge
  /// passes the committing thread's TID lane so log partitioning follows
  /// the §5h per-lane commit-TID layout.
  LogBuffer* CreateBuffer(uint32_t lane_hint = kNoLane);

  const WalConfig& config() const { return config_; }
  uint32_t partition_count() const {
    return static_cast<uint32_t>(partitions_.size());
  }

  uint64_t current_epoch() const { return clock_->Current(); }
  uint64_t durable_epoch() const {
    return durable_epoch_.load(std::memory_order_acquire);
  }

  /// Commit-path wait honoring the ack mode: blocks until `epoch` is
  /// durable under kSync, returns immediately under kAsync. `epoch` 0
  /// (nothing logged) is trivially durable. Returns false iff the log
  /// crashed before the epoch became durable. The only caller counted by
  /// the wal_sync_waits metric.
  bool WaitCommitDurable(uint64_t epoch);

  /// Starts the flush round that makes `epoch` durable and returns without
  /// waiting for it: a server worker that parks a batch's answers (DESIGN
  /// §5k) lets the fsync overlap its next batch. Returns false, and does
  /// nothing, when `epoch` is already durable. Not counted as a sync wait.
  bool RequestDurable(uint64_t epoch);

  /// Blocks until `epoch` is durable regardless of ack mode (tests,
  /// shutdown barriers; not counted as a commit-path sync wait). Returns
  /// false iff the log crashed first. A waiter racing Stop() is released
  /// only after the final round published — never spuriously early.
  bool WaitDurable(uint64_t epoch);

  /// Forces everything appended so far onto disk before returning.
  /// Returns false iff the log crashed.
  bool FlushNow();

  /// Test hook: drops everything not yet flushed and freezes the log, as
  /// a crash between buffer append and writer drain would. Idempotent.
  void SimulateCrash();

  /// Final flush + thread joins + segment close. Idempotent; called by
  /// the destructor. No concurrent appends may be in flight.
  void Stop();

  bool crashed() const { return crashed_.load(std::memory_order_acquire); }

  /// Deletes closed segment files whose every block has epoch <=
  /// `cut_epoch` (the checkpointer's truncation hook: those epochs are
  /// subsumed by a published checkpoint), independently per partition.
  /// Deletion runs oldest-first and stops at the first segment that must
  /// stay, so each stream's remaining files are always a contiguous
  /// suffix; open segments are never touched. The filesystem I/O runs
  /// OUTSIDE segments_mu_, so flusher rotation never blocks behind
  /// checkpointer unlinks. Safe to call from any thread; no-op on a
  /// crashed log (a frozen log's tail diagnosis must not be disturbed).
  /// Returns the number of segments deleted.
  uint64_t TruncateSegmentsBefore(uint64_t cut_epoch);

  /// The log's own counters (wal_bytes, wal_records, epochs_flushed,
  /// group_commit_size, wal_sync_waits, wal_segments, wal_flush_failures)
  /// and the kLogSerialize/kLogFlush phase histograms. Benchmarks merge
  /// this snapshot next to the engine registries; its Snapshot() is safe
  /// while the log runs (atomic counters, locked histograms), so the
  /// server's /metrics merges it live.
  obs::MetricsRegistry& metrics() { return metrics_; }

 private:
  /// Closed segments still on disk, oldest first, with the largest block
  /// epoch each contains — what TruncateSegmentsBefore consults.
  struct ClosedSegment {
    uint32_t index;
    uint64_t max_epoch;
  };

  /// One log partition: its buffer slice, its segment stream, and the
  /// per-round scratch + stats its flusher fills for the sequencer.
  struct Partition {
    uint32_t id = 0;

    // Buffer registry slice: append-only; LogBuffer addresses must stay
    // stable.
    std::mutex buffers_mu;
    std::deque<std::unique_ptr<LogBuffer>> buffers;

    // Segment file state (flusher-owned between rounds; the constructor
    // and Stop/crash teardown touch it only while no round is running).
    int fd = -1;
    uint32_t segment_index = 0;
    uint64_t segment_written = 0;
    uint64_t segment_max_epoch = 0;  // largest block epoch in the open file

    std::mutex segments_mu;
    std::deque<ClosedSegment> closed_segments;

    std::vector<uint8_t> payload;  // drain concat scratch, reused
    std::vector<uint8_t> scratch;  // swap target for LogBuffer::Drain

    // Per-round results, read by the sequencer after the round barrier
    // (so all counter folding stays single-threaded).
    uint64_t round_bytes = 0;
    uint32_t round_records = 0;
    uint32_t round_segments_opened = 0;
    uint32_t round_fsync_failures = 0;
  };

  void SequencerLoop();
  void FlusherLoop(Partition* p);
  /// Runs one epoch round end to end: idle-skip, or bump + dispatch +
  /// collect + publish. Returns false on (injected or real) I/O failure —
  /// the caller freezes the log.
  bool FlushRound(bool forced);
  /// Drain + append + fsync for one partition under `epoch`. Writes a
  /// heartbeat block when the partition has nothing staged but some other
  /// partition does (partitions>1 only; `must_write_block`).
  bool FlushPartition(Partition& p, uint64_t epoch, bool must_write_block);
  /// Dispatches `epoch` to every flusher and waits for all of them.
  bool RunPartitionedRound(uint64_t epoch);
  /// Signals flushers_exit_ and joins the flusher threads. Idempotent.
  void JoinFlushers();
  void OpenNextSegment(Partition& p);
  void CloseSegment(Partition& p);
  std::string SegmentPath(uint32_t partition, uint32_t index) const;
  /// Marks the log crashed, closes every segment, and releases every
  /// waiter. Joins the flushers first. Caller must NOT hold mu_.
  void EnterCrashedState();
  bool WaitDurableInternal(uint64_t epoch, bool commit_wait);

  WalConfig config_;

  // Epoch protocol state (see LogBuffer's header comment). The epoch
  // counter lives in a clock that may be shared with the MVCC substrate;
  // durability bookkeeping stays private to the log.
  EpochClock own_clock_;           // used when no shared clock is passed
  EpochClock* clock_ = nullptr;    // the clock in effect (never null)
  std::atomic<uint64_t> durable_epoch_{0};
  std::atomic<bool> crashed_{false};

  std::vector<std::unique_ptr<Partition>> partitions_;
  std::atomic<uint32_t> next_partition_rr_{0};  // CreateBuffer round-robin

  // Sequencer coordination + waiter wakeup.
  std::mutex mu_;
  std::condition_variable writer_cv_;   // wakes the sequencer
  std::condition_variable durable_cv_;  // wakes WaitDurable callers
  bool stop_requested_ = false;
  bool flush_requested_ = false;
  bool crash_requested_ = false;
  /// Set (under mu_) only AFTER the final stop-path round has published,
  /// so a WaitDurable racing Stop() never gives up on an epoch the final
  /// flush does make durable.
  bool stopped_ = false;
  std::thread sequencer_;

  // Round barrier between the sequencer and the flushers (partitions>1).
  std::mutex round_mu_;
  std::condition_variable round_cv_;       // flushers wait for work
  std::condition_variable round_done_cv_;  // sequencer waits for completion
  uint64_t round_epoch_ = 0;               // epoch being flushed; 0 = none
  uint32_t round_pending_ = 0;
  bool round_failed_ = false;
  bool flushers_exit_ = false;
  std::vector<std::thread> flushers_;

  /// Serializes truncators so the pop-unlink-repush dance in
  /// TruncateSegmentsBefore preserves each stream's front order.
  std::mutex truncate_mu_;

  // Counters (see metrics()). Folded by the sequencer after each round
  // from the partitions' per-round results, except wal_sync_waits_, which
  // is bumped under mu_ by waiting committers. Atomics (relaxed) so a live
  // /metrics scrape reads them without racing the sequencer.
  std::atomic<uint64_t> wal_bytes_{0};
  std::atomic<uint64_t> wal_records_{0};
  std::atomic<uint64_t> epochs_flushed_{0};
  std::atomic<uint64_t> group_commit_size_{0};  // largest epoch, in records
  std::atomic<uint64_t> wal_sync_waits_{0};
  std::atomic<uint64_t> wal_segments_{0};
  std::atomic<uint64_t> wal_flush_failures_{0};

  obs::MetricsRegistry metrics_;  // synchronized: writer + committers
};

}  // namespace mv3c::wal

#endif  // MV3C_WAL_LOG_MANAGER_H_
