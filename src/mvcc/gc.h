#ifndef MV3C_MVCC_GC_H_
#define MV3C_MVCC_GC_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/failpoint.h"
#include "common/spinlock.h"
#include "common/thread_safety.h"
#include "mvcc/timestamp.h"
#include "mvcc/version.h"
#include "mvcc/version_arena.h"
#include "obs/trace.h"

namespace mv3c {

/// A committed transaction's entry in the recently-committed list: its
/// commit timestamp plus its committed versions (Definition 2.2 — only the
/// newest version per object survives commit). The undo buffers of the
/// recently committed transactions are what validation matches predicates
/// against (paper §2.1/§2.4).
struct CommittedRecord {
  Timestamp commit_ts = 0;
  std::vector<VersionBase*> versions;
  std::atomic<CommittedRecord*> next{nullptr};
};

/// Grace-period garbage collector for versions and recently-committed
/// records.
///
/// Readers traverse version chains and the RC list without locks, so
/// unlinked nodes cannot be freed immediately. Every retired node carries
/// the manager's CurrentEra() at retirement — `commit high-water mark + 1`
/// since the §5h timestamp refactor. Start timestamps are drawn from the
/// same mark (start = hwm + 1), so any transaction that could have
/// observed the node has a start timestamp <= era (a later beginner's
/// start exceeding the era implies it read a hwm published after the
/// unlink, hence cannot reach the node — see TrimRecentlyCommitted). A
/// node is therefore safe to free once every registered start strictly
/// exceeds its era (paper §5: versions are reclaimed once no older active
/// transaction can read them); the manager's AcquireReclaimCuts computes
/// that bound.
class GarbageCollector {
 public:
  GarbageCollector() = default;
  GarbageCollector(const GarbageCollector&) = delete;
  GarbageCollector& operator=(const GarbageCollector&) = delete;
  ~GarbageCollector() { CollectAll(); }

  void RetireVersion(VersionBase* v, Timestamp era) MV3C_EXCLUDES(lock_) {
    SpinLockGuard g(lock_);
    versions_.push_back({era, v});
  }

  /// Retires a transaction's whole retire list under one lock acquisition
  /// (Transaction::FlushRetired, once per commit or abort).
  void RetireVersions(const std::vector<VersionBase*>& vs, Timestamp era)
      MV3C_EXCLUDES(lock_) {
    SpinLockGuard g(lock_);
    for (VersionBase* v : vs) versions_.push_back({era, v});
  }

  void RetireRecord(CommittedRecord* r, Timestamp era) MV3C_EXCLUDES(lock_) {
    SpinLockGuard g(lock_);
    records_.push_back({era, r});
  }

  /// Frees retired nodes whose era is strictly below `safe_before` (the
  /// oldest active start timestamp). Returns the number of nodes freed.
  size_t Collect(Timestamp safe_before) {
    if (failpoint::Evaluate(failpoint::Site::kGcReclaim)) {
      // Injected lagging collector: skip this reclamation round so retired
      // nodes pile up, stressing the grace-period safety of every reader
      // standing on an unlinked version.
      return 0;
    }
    const size_t freed = CollectImpl(safe_before);
    MV3C_TRACE_EVENT(obs::TraceEvent::kGc, freed);
    return freed;
  }

  /// Frees everything unconditionally; only valid when no transaction is
  /// active (shutdown, tests). Bypasses the kGcReclaim failpoint: teardown
  /// must reclaim even while a chaos schedule is armed.
  size_t CollectAll() { return CollectImpl(kDeadVersion); }

  /// Number of nodes awaiting reclamation; test/metrics helper.
  size_t PendingCount() const MV3C_EXCLUDES(lock_) {
    SpinLockGuard g(lock_);
    return versions_.size() + records_.size();
  }

 private:
  template <typename T>
  struct Retired {
    Timestamp era;
    T* node;
  };

  /// Moves the reclaimable prefix of `list` (entries are appended in
  /// roughly era order; the first one still in its grace period ends the
  /// prefix) into `out`.
  template <typename T>
  static void TakeReclaimable(std::vector<Retired<T>>& list,
                              Timestamp safe_before, std::vector<T*>* out) {
    size_t n = 0;
    while (n < list.size() && list[n].era < safe_before) ++n;
    out->reserve(n);
    for (size_t i = 0; i < n; ++i) out->push_back(list[i].node);
    list.erase(list.begin(), list.begin() + static_cast<ptrdiff_t>(n));
  }

  size_t CollectImpl(Timestamp safe_before) MV3C_EXCLUDES(lock_) {
    std::vector<VersionBase*> versions;
    std::vector<CommittedRecord*> records;
    {
      SpinLockGuard g(lock_);
      TakeReclaimable(versions_, safe_before, &versions);
      TakeReclaimable(records_, safe_before, &records);
    }
    // Destructors and block frees run outside lock_, so writers handing
    // over their retire lists never wait behind a reclamation pass; the
    // arena takes one slot lock per run of same-slot blocks rather than
    // one per node.
    VersionArena::DestroyBatch(versions);
    VersionArena::DestroyBatch(records);
    return versions.size() + records.size();
  }

  mutable SpinLock lock_;
  /// Vectors, not deques: their capacity is kept across passes, so a
  /// steady-state retire allocates nothing.
  std::vector<Retired<VersionBase>> versions_ MV3C_GUARDED_BY(lock_);
  std::vector<Retired<CommittedRecord>> records_ MV3C_GUARDED_BY(lock_);
};

}  // namespace mv3c

#endif  // MV3C_MVCC_GC_H_
