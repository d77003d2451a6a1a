#include "wal/log_manager.h"

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "common/failpoint.h"
#include "common/macros.h"
#include "wal/wal_format.h"

namespace mv3c::wal {

namespace {

// The only raw-I/O call sites in the tree (the no_raw_io_outside_wal lint
// rule keeps it that way): a full-write loop over ::write and the segment
// path formatter in SegmentPath below.
bool WriteFully(int fd, const uint8_t* p, size_t n) {
  while (n > 0) {
    const ssize_t w = ::write(fd, p, n);
    if (w < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    p += static_cast<size_t>(w);
    n -= static_cast<size_t>(w);
  }
  return true;
}

/// Writes header + payload up to `limit` bytes (the short-write failpoint
/// caps it mid-block). Header and payload go out as two writes straight
/// from their own storage — no whole-block assembly copy on the flush path.
bool WriteBlock(int fd, const BlockHeader& h,
                const std::vector<uint8_t>& payload, size_t limit) {
  const auto* hp = reinterpret_cast<const uint8_t*>(&h);
  if (!WriteFully(fd, hp, std::min(limit, sizeof(h)))) return false;
  if (limit > sizeof(h)) {
    return WriteFully(fd, payload.data(), limit - sizeof(h));
  }
  return true;
}

void FsyncDir(const std::string& dir) {
  const int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (dfd >= 0) {
    (void)::fsync(dfd);
    ::close(dfd);
  }
}

/// True if `dir` holds segment files of the *other* naming scheme.
/// Changing the partition count over an existing log directory is refused
/// outright: the old streams would stop growing while new ones advance, so
/// recovery's min-over-streams cut would pin to the stale streams and
/// silently discard everything written after the switch. Recover the dir
/// (or checkpoint + truncate it empty) before reconfiguring.
bool HasForeignNaming(const std::string& dir, bool partitioned) {
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return false;
  bool found = false;
  while (dirent* e = ::readdir(d)) {
    const std::string n = e->d_name;
    if (n.size() <= 8 || n.rfind("wal-", 0) != 0 ||
        n.compare(n.size() - 4, 4, ".log") != 0) {
      continue;
    }
    const bool legacy_name =
        std::isdigit(static_cast<unsigned char>(n[4])) != 0;
    if (partitioned == legacy_name) {
      found = true;
      break;
    }
  }
  ::closedir(d);
  return found;
}

uint32_t ResolvePartitions(const WalConfig& config) {
  uint64_t n = config.partitions;
  if (n == 0) {
    n = 1;
    if (const char* env = std::getenv("MV3C_WAL_PARTITIONS")) {
      const long v = std::strtol(env, nullptr, 10);
      if (v > 0) n = static_cast<uint64_t>(v);
    }
  }
  // The p%02u naming caps the count; far beyond any sane core count here.
  return static_cast<uint32_t>(std::min<uint64_t>(n, 64));
}

/// Staging vectors above this capacity are freed once emptied instead of
/// kept. A burst (the population load, whose commits do not wait for
/// their epochs) can stage megabytes in one round, and the capacities
/// circulate between a partition's vectors and the committers' buffers
/// (LogBuffer::Drain swaps), so without a cap the burst's peak would stay
/// resident for the life of the log. Serving rounds stay far below it.
constexpr size_t kMaxRetainedStagingBytes = 1 << 20;

/// Empties a staging vector, releasing its storage if oversized.
void ResetStaging(std::vector<uint8_t>* v) {
  if (v->capacity() > kMaxRetainedStagingBytes) {
    std::vector<uint8_t>().swap(*v);
  } else {
    v->clear();
  }
}

void Bump(std::atomic<uint64_t>& counter, uint64_t by = 1) {
  counter.fetch_add(by, std::memory_order_relaxed);
}

}  // namespace

LogManager::LogManager(const WalConfig& config, EpochClock* epoch_clock)
    : config_(config),
      clock_(epoch_clock != nullptr ? epoch_clock : &own_clock_) {
  MV3C_CHECK(!config_.dir.empty());
  MV3C_CHECK(clock_->Current() >= 1);
  config_.partitions = ResolvePartitions(config);
  // EEXIST is the common restart case; anything else is fatal (a log that
  // cannot be created must never report commits durable).
  if (::mkdir(config_.dir.c_str(), 0755) != 0) {
    MV3C_CHECK(errno == EEXIST);
  }
  // See HasForeignNaming: never mix stream layouts in one directory.
  MV3C_CHECK(!HasForeignNaming(config_.dir, config_.partitions > 1));
  metrics_.RegisterAtomicCounter("wal_bytes", &wal_bytes_);
  metrics_.RegisterAtomicCounter("wal_records", &wal_records_);
  metrics_.RegisterAtomicCounter("epochs_flushed", &epochs_flushed_);
  metrics_.RegisterAtomicCounter("group_commit_size", &group_commit_size_,
                                 obs::MergeKind::kMax);
  metrics_.RegisterAtomicCounter("wal_sync_waits", &wal_sync_waits_);
  metrics_.RegisterAtomicCounter("wal_segments", &wal_segments_);
  metrics_.RegisterAtomicCounter("wal_flush_failures", &wal_flush_failures_);
  for (uint32_t i = 0; i < config_.partitions; ++i) {
    partitions_.emplace_back(std::make_unique<Partition>());
    partitions_.back()->id = i;
  }
  for (auto& p : partitions_) {
    OpenNextSegment(*p);
    Bump(wal_segments_);
  }
  if (partitions_.size() > 1) {
    flushers_.reserve(partitions_.size());
    for (auto& p : partitions_) {
      flushers_.emplace_back([this, part = p.get()] { FlusherLoop(part); });
    }
  }
  sequencer_ = std::thread([this] { SequencerLoop(); });
}

LogManager::~LogManager() { Stop(); }

LogBuffer* LogManager::CreateBuffer(uint32_t lane_hint) {
  const auto n = static_cast<uint32_t>(partitions_.size());
  const uint32_t idx =
      (lane_hint == kNoLane
           ? next_partition_rr_.fetch_add(1, std::memory_order_relaxed)
           : lane_hint) %
      n;
  Partition& p = *partitions_[idx];
  std::lock_guard<std::mutex> g(p.buffers_mu);
  p.buffers.emplace_back(
      std::unique_ptr<LogBuffer>(new LogBuffer(clock_->raw())));
  return p.buffers.back().get();
}

bool LogManager::WaitCommitDurable(uint64_t epoch) {
  if (epoch == 0) return true;
  if (config_.ack == WalConfig::Ack::kAsync) return true;
  return WaitDurableInternal(epoch, /*commit_wait=*/true);
}

bool LogManager::RequestDurable(uint64_t epoch) {
  if (durable_epoch_.load(std::memory_order_acquire) >= epoch) return false;
  std::lock_guard<std::mutex> lk(mu_);
  flush_requested_ = true;
  writer_cv_.notify_one();
  return true;
}

bool LogManager::WaitDurable(uint64_t epoch) {
  return WaitDurableInternal(epoch, /*commit_wait=*/false);
}

bool LogManager::WaitDurableInternal(uint64_t epoch, bool commit_wait) {
  if (durable_epoch_.load(std::memory_order_acquire) >= epoch) return true;
  std::unique_lock<std::mutex> lk(mu_);
  // Only commit-path group-commit waits count: FlushNow/shutdown barriers
  // are test and teardown plumbing, not a latency signal.
  if (commit_wait) Bump(wal_sync_waits_);
  flush_requested_ = true;  // don't make the group wait out the interval
  writer_cv_.notify_one();
  durable_cv_.wait(lk, [&] {
    // `stopped_` (not stop_requested_): a waiter racing Stop() must see
    // the final round's published durable_epoch before deciding, or it
    // would spuriously fail for an epoch that round does flush.
    return durable_epoch_.load(std::memory_order_acquire) >= epoch ||
           crashed_.load(std::memory_order_acquire) || stopped_;
  });
  return durable_epoch_.load(std::memory_order_acquire) >= epoch;
}

bool LogManager::FlushNow() {
  // Everything appended before this call is tagged ≤ the epoch read here
  // (tags are reads of current_epoch_), so one durable round at or past it
  // covers them all.
  return WaitDurable(clock_->Current());
}

void LogManager::SimulateCrash() {
  {
    std::lock_guard<std::mutex> g(mu_);
    if (!sequencer_.joinable()) return;
    crash_requested_ = true;
    writer_cv_.notify_all();
  }
  sequencer_.join();
  EnterCrashedState();
}

void LogManager::Stop() {
  {
    std::lock_guard<std::mutex> g(mu_);
    if (!sequencer_.joinable()) return;
    stop_requested_ = true;
    writer_cv_.notify_all();
  }
  sequencer_.join();
  JoinFlushers();
  for (auto& p : partitions_) CloseSegment(*p);
}

void LogManager::JoinFlushers() {
  if (flushers_.empty()) return;
  {
    std::lock_guard<std::mutex> g(round_mu_);
    flushers_exit_ = true;
  }
  round_cv_.notify_all();
  for (auto& t : flushers_) {
    if (t.joinable()) t.join();
  }
  flushers_.clear();
}

void LogManager::EnterCrashedState() {
  // No round is in flight here (the sequencer only crashes between
  // rounds), so the flushers are idle and joining them is immediate.
  JoinFlushers();
  for (auto& p : partitions_) CloseSegment(*p);
  {
    std::lock_guard<std::mutex> g(mu_);
    crashed_.store(true, std::memory_order_release);
  }
  durable_cv_.notify_all();
}

void LogManager::SequencerLoop() {
  std::unique_lock<std::mutex> lk(mu_);
  while (true) {
    writer_cv_.wait_for(
        lk, std::chrono::microseconds(config_.epoch_interval_us), [&] {
          return stop_requested_ || flush_requested_ || crash_requested_;
        });
    if (crash_requested_) return;  // SimulateCrash: drop unflushed bytes
    const bool stopping = stop_requested_;
    const bool forced = flush_requested_ || stopping;
    flush_requested_ = false;
    lk.unlock();
    const bool ok = FlushRound(forced);
    if (!ok) {
      EnterCrashedState();
      return;
    }
    durable_cv_.notify_all();
    if (stopping) {
      // Publish-then-stop: waiters only observe `stopped_` after the
      // final round's durable_epoch store above.
      {
        std::lock_guard<std::mutex> g(mu_);
        stopped_ = true;
      }
      durable_cv_.notify_all();
      return;
    }
    lk.lock();
  }
}

bool LogManager::FlushRound(bool forced) {
  obs::ScopedPhaseTimer timer(&metrics_, obs::Phase::kLogFlush);
  // Idle probe — the order is the correctness argument (DESIGN §5i): read
  // the clock FIRST, then probe every buffer under its spinlock. A record
  // the probe misses was appended after some probe's unlock, so its
  // tag-read is coherence-ordered after our `current` read and yields
  // ≥ current. Hence if every buffer is empty, nothing tagged ≤ current-1
  // is staged anywhere — those epochs are already on disk and can be
  // published durable without bumping the clock (a quiet system must not
  // burn the bounded commit-TID epoch field, DESIGN §5h) or touching disk.
  const uint64_t current = clock_->Current();
  bool any_data = false;
  for (auto& p : partitions_) {
    std::lock_guard<std::mutex> g(p->buffers_mu);
    for (const auto& b : p->buffers) {
      if (!b->Empty()) {
        any_data = true;
        break;
      }
    }
    if (any_data) break;
  }
  if (!any_data && !forced) {
    if (current - 1 > durable_epoch_.load(std::memory_order_relaxed)) {
      durable_epoch_.store(current - 1, std::memory_order_release);
    }
    return true;
  }

  // Publish the next epoch BEFORE draining: any committer whose tag-read
  // raced this bump either still holds its buffer lock (drained below,
  // into this round) or sees the new epoch (flushed next round). See
  // LogBuffer's header comment for the full argument. With a shared clock
  // the counter may have been advanced externally (TID rollover,
  // recovery) since the last round; draining under the jumped value is
  // fine — it still covers every tag drawn before the bump.
  const uint64_t epoch = clock_->BumpForFlush();
  bool ok = true;
  if (!any_data) {
    // Forced flush of an idle log (FlushNow, stop): every tag ≤ epoch is
    // already durable; publish without writing a block in any stream.
  } else if (partitions_.size() == 1) {
    ok = FlushPartition(*partitions_[0], epoch, /*must_write_block=*/false);
  } else {
    ok = RunPartitionedRound(epoch);
  }

  // Fold the partitions' per-round results here, on the one sequencer
  // thread, so the registry's plain counters never see concurrent writers.
  // Folding happens even on failure: a failed fsync must still show in
  // wal_flush_failures (bytes/records of a failed partition stay zero —
  // nothing it wrote was acknowledged).
  uint64_t round_bytes = 0;
  uint32_t round_records = 0;
  for (auto& p : partitions_) {
    round_bytes += p->round_bytes;
    round_records += p->round_records;
    Bump(wal_flush_failures_, p->round_fsync_failures);
    Bump(wal_segments_, p->round_segments_opened);
    p->round_bytes = 0;
    p->round_records = 0;
    p->round_fsync_failures = 0;
    p->round_segments_opened = 0;
  }
  Bump(wal_bytes_, round_bytes);
  if (round_records > 0) {
    Bump(wal_records_, round_records);
    Bump(epochs_flushed_);
    if (round_records > group_commit_size_.load(std::memory_order_relaxed)) {
      group_commit_size_.store(round_records, std::memory_order_relaxed);
    }
  }
  if (!ok) return false;
  durable_epoch_.store(epoch, std::memory_order_release);
  return true;
}

bool LogManager::RunPartitionedRound(uint64_t epoch) {
  std::unique_lock<std::mutex> lk(round_mu_);
  round_epoch_ = epoch;
  round_pending_ = static_cast<uint32_t>(partitions_.size());
  round_failed_ = false;
  round_cv_.notify_all();
  round_done_cv_.wait(lk, [&] { return round_pending_ == 0; });
  return !round_failed_;
}

void LogManager::FlusherLoop(Partition* p) {
  std::unique_lock<std::mutex> lk(round_mu_);
  uint64_t done = 0;
  while (true) {
    round_cv_.wait(lk, [&] {
      return flushers_exit_ || (round_epoch_ != 0 && round_epoch_ != done);
    });
    if (flushers_exit_) return;
    const uint64_t epoch = round_epoch_;
    lk.unlock();
    const bool ok = FlushPartition(*p, epoch, /*must_write_block=*/true);
    lk.lock();
    done = epoch;
    if (!ok) round_failed_ = true;
    if (--round_pending_ == 0) round_done_cv_.notify_one();
  }
}

bool LogManager::FlushPartition(Partition& p, uint64_t epoch,
                                bool must_write_block) {
  p.payload.clear();
  uint32_t n_records = 0;
  {
    std::lock_guard<std::mutex> g(p.buffers_mu);
    for (const auto& b : p.buffers) {
      // O(1) swap under the buffer spinlock; the concatenation below runs
      // with only buffers_mu held, which committers never take.
      b->Drain(&p.scratch, &n_records);
      if (p.scratch.empty()) continue;
      if (p.payload.empty()) {
        p.payload.swap(p.scratch);
      } else {
        p.payload.insert(p.payload.end(), p.scratch.begin(), p.scratch.end());
        // scratch is swapped into the next buffer drained: cap it here.
        ResetStaging(&p.scratch);
      }
    }
  }
  if (p.payload.empty() && !must_write_block) {
    // Single-partition empty round: no block (idle systems must not grow
    // the log — and the partitions=1 on-disk layout stays byte-identical
    // to the pre-partitioning format).
    return true;
  }
  // In a partitioned round every stream writes a block — a *heartbeat*
  // (payload_bytes = 0) when this partition had nothing staged. Recovery's
  // durable cut is the min over streams of the last valid block epoch, so
  // a lagging stream must prove it was merely idle, not torn (DESIGN §5i).

  BlockHeader h{};
  h.magic = kBlockMagic;
  h.epoch = epoch;
  h.payload_bytes = static_cast<uint32_t>(p.payload.size());
  h.n_records = n_records;
  h.payload_crc = p.payload.empty()
                      ? crc32::Compute(&h, 0)
                      : crc32::Compute(p.payload.data(), p.payload.size());
  h.header_crc = BlockHeaderCrc(h);

  const size_t total = sizeof(h) + p.payload.size();
  size_t write_bytes = total;
  bool injected_torn = false;
  if (failpoint::Evaluate(failpoint::Site::kWalShortWrite)) {
    // Torn write: half the block reaches the disk, then the "machine"
    // dies. Recovery must stop this stream at this block.
    write_bytes /= 2;
    injected_torn = true;
  }
  if (!WriteBlock(p.fd, h, p.payload, write_bytes)) return false;
  if (injected_torn) return false;
  if (failpoint::Evaluate(failpoint::Site::kWalCrashAfterAppend)) {
    // Crash between append and fsync: the block's bytes may survive (they
    // did reach the file) but were never acknowledged — recovery may
    // legitimately return either side of this epoch.
    return false;
  }
  if (failpoint::Evaluate(failpoint::Site::kWalFsyncFail)) {
    ++p.round_fsync_failures;
    return false;
  }
  if (::fsync(p.fd) != 0) {
    ++p.round_fsync_failures;
    return false;
  }

  p.segment_written += total;
  p.segment_max_epoch = epoch;
  p.round_bytes = total;
  p.round_records = n_records;
  ResetStaging(&p.payload);

  if (p.segment_written >= config_.segment_bytes) {
    {
      // Published under the lock so a concurrent truncation sees the
      // segment only once its byte range is final.
      std::lock_guard<std::mutex> g(p.segments_mu);
      p.closed_segments.push_back({p.segment_index, p.segment_max_epoch});
    }
    CloseSegment(p);
    OpenNextSegment(p);
    ++p.round_segments_opened;
  }
  return true;
}

uint64_t LogManager::TruncateSegmentsBefore(uint64_t cut_epoch) {
  if (crashed()) return 0;
  // One truncator at a time: the pop-unlink-repush below must not
  // interleave with another truncator or each stream's front order (and
  // the contiguous-suffix invariant) would be lost. Flusher rotation only
  // pushes at the back and is excluded only for the O(1) deque ops.
  std::lock_guard<std::mutex> tg(truncate_mu_);
  uint64_t deleted = 0;
  for (auto& pp : partitions_) {
    Partition& p = *pp;
    // Collect deletable entries under segments_mu_, run the filesystem
    // I/O outside it: rotation must never block behind unlink + dir fsync.
    std::vector<ClosedSegment> victims;
    {
      std::lock_guard<std::mutex> g(p.segments_mu);
      while (!p.closed_segments.empty() &&
             p.closed_segments.front().max_epoch <= cut_epoch) {
        victims.push_back(p.closed_segments.front());
        p.closed_segments.pop_front();
      }
    }
    size_t done = 0;
    for (; done < victims.size(); ++done) {
      const std::string path = SegmentPath(p.id, victims[done].index);
      if (::unlink(path.c_str()) != 0 && errno != ENOENT) break;
      ++deleted;
    }
    if (done < victims.size()) {
      // Unlink failure: put the survivors back at the front, in order, so
      // a later truncation pass retries them (the suffix stays contiguous).
      std::lock_guard<std::mutex> g(p.segments_mu);
      for (size_t j = victims.size(); j > done; --j) {
        p.closed_segments.push_front(victims[j - 1]);
      }
    }
  }
  if (deleted > 0) FsyncDir(config_.dir);
  return deleted;
}

std::string LogManager::SegmentPath(uint32_t partition,
                                    uint32_t index) const {
  char name[32];
  if (partitions_.size() <= 1) {
    std::snprintf(name, sizeof(name), "wal-%06u.log", index);
  } else {
    std::snprintf(name, sizeof(name), "wal-p%02u-%06u.log", partition,
                  index);
  }
  return config_.dir + "/" + name;
}

void LogManager::OpenNextSegment(Partition& p) {
  ++p.segment_index;
  const std::string path = SegmentPath(p.id, p.segment_index);
  p.fd = ::open(path.c_str(), O_CREAT | O_WRONLY | O_TRUNC, 0644);
  MV3C_CHECK(p.fd >= 0);
  const SegmentHeader h = MakeSegmentHeader();
  MV3C_CHECK(
      WriteFully(p.fd, reinterpret_cast<const uint8_t*>(&h), sizeof(h)));
  // Make the segment's directory entry durable: a crash right after
  // rotation must not lose the whole file.
  FsyncDir(config_.dir);
  p.segment_written = sizeof(h);
  p.segment_max_epoch = 0;
}

void LogManager::CloseSegment(Partition& p) {
  if (p.fd < 0) return;
  ::close(p.fd);
  p.fd = -1;
}

}  // namespace mv3c::wal
