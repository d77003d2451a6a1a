#ifndef MV3C_MVCC_DATA_OBJECT_H_
#define MV3C_MVCC_DATA_OBJECT_H_

#include <atomic>

#include "common/failpoint.h"
#include "common/macros.h"
#include "common/spinlock.h"
#include "common/thread_safety.h"
#include "mvcc/timestamp.h"
#include "mvcc/version.h"
#include "mvcc/version_arena.h"

namespace mv3c {

/// Write-write conflict policy (paper §2.3.1).
enum class WwPolicy {
  /// Abort and restart a transaction as soon as it tries to write an object
  /// that has a foreign uncommitted version or a committed version newer
  /// than the writer's start timestamp (OMVCC behavior; always used for
  /// inserts and deletes).
  kFailFast,
  /// Let multiple uncommitted versions coexist in the chain; read-write
  /// conflicts are still caught by validation, and blind writes commit
  /// without conflict (§2.4.1).
  kAllowMultiple,
};

/// One row's identity plus its version chain (paper §2.2).
///
/// The chain head is an atomic pointer; readers traverse the chain without
/// locks (finding the visible version is wait-free, §5), while all chain
/// surgery (push, unlink, the §2.4.1 commit "move") happens under a per-
/// object spin lock. Unlinked versions keep their `next` pointer intact and
/// are marked dead, so a concurrent reader standing on one continues its
/// traversal safely; the garbage collector frees them after a grace period.
class DataObjectBase {
 public:
  DataObjectBase() = default;
  DataObjectBase(const DataObjectBase&) = delete;
  DataObjectBase& operator=(const DataObjectBase&) = delete;

  /// Frees the versions still linked in the chain, returning each to its
  /// arena. Retired (unlinked) versions are owned by the garbage collector
  /// instead, so there is no double free. Only runs at table teardown, when
  /// no transaction is live; the arena (owned by the TransactionManager)
  /// outlives every table.
  virtual ~DataObjectBase() {
    VersionBase* v = head_.load(std::memory_order_relaxed);
    while (v != nullptr) {
      VersionBase* next = v->next();
      VersionArena::Destroy(v);
      v = next;
    }
  }

  VersionBase* head() const { return head_.load(std::memory_order_acquire); }

  /// Finds the version visible to a transaction with the given start
  /// timestamp and transaction id (paper Definition 2.3): the transaction's
  /// own newest version, or the newest version committed before `start_ts`.
  /// Returns nullptr if the object has no visible version.
  VersionBase* FindVisible(Timestamp start_ts, Timestamp txn_id) const {
    for (VersionBase* v = head(); v != nullptr; v = v->next()) {
      const Timestamp t = v->ts();
      if (t == kDeadVersion) continue;
      if (t == txn_id) return v;               // own write, newest first
      if (IsCommitTs(t) && t < start_ts) return v;
      // Foreign uncommitted version or committed after start: skip.
    }
    return nullptr;
  }

  /// Result of attempting to add a version to the chain.
  enum class PushResult { kOk, kWwConflict };

  /// Links `v` at the head of the chain, subject to the write-write policy.
  /// `start_ts`/`txn_id` identify the writer. On kWwConflict the chain is
  /// unchanged and the caller owns `v` again.
  ///
  /// Fail-fast detection is attribute-aware (§4.1 extended to write-write
  /// conflicts): a foreign uncommitted or newer-committed version only
  /// conflicts if its modified columns intersect the new version's —
  /// writers of disjoint columns compose at commit (merge-on-commit) and
  /// any read-dependency is still caught by predicate validation. Inserts
  /// and deletes carry a full mask, so key-level operations always
  /// conflict, preserving §2.3.1's fail-fast rule for them.
  ///
  /// On success the same lock acquisition trims the chain below
  /// `trim_cut` (cooperative GC, DESIGN §2.7): committed versions older
  /// than the newest one below the cut are unlinked and handed to
  /// `retire(version)`. The cut must be a reclaim cut the manager has
  /// published (no registered or future start lies below it); 0 trims
  /// nothing.
  template <typename RetireFn>
  PushResult Push(VersionBase* v, WwPolicy policy, Timestamp start_ts,
                  Timestamp txn_id, Timestamp trim_cut, RetireFn&& retire)
      MV3C_EXCLUDES(chain_lock_) {
    if (failpoint::Evaluate(failpoint::Site::kVersionChainPush)) {
      // Injected spurious contention failure: indistinguishable from a
      // genuine write-write conflict, so the caller's rollback-and-restart
      // path handles it and serializability is unaffected.
      return PushResult::kWwConflict;
    }
    SpinLockGuard g(chain_lock_);
    if (policy == WwPolicy::kFailFast) {
      for (VersionBase* cur = head(); cur != nullptr; cur = cur->next()) {
        const Timestamp t = cur->ts();
        if (t == kDeadVersion) continue;
        if (t == txn_id) break;  // our own version; anything below is older
        if (IsTxnId(t)) {
          if (cur->modified_columns().Intersects(v->modified_columns())) {
            return PushResult::kWwConflict;
          }
          continue;  // disjoint-column foreign write; keep scanning
        }
        // Committed version: conflict if it is newer than our start AND
        // touches columns we are writing.
        if (t >= start_ts &&
            cur->modified_columns().Intersects(v->modified_columns())) {
          return PushResult::kWwConflict;
        }
        if (t < start_ts) break;  // older commits cannot conflict
      }
    }
    v->set_next(head());
    head_.store(v, std::memory_order_release);
    approx_chain_len_.fetch_add(1, std::memory_order_relaxed);
    // A chain already trimmed at a cut >= this one has nothing left to
    // cut: every commit after that trim carries a timestamp above the cut
    // (published cuts never pass hwm + 1), and the §2.4.1 move splices
    // clones above the newest committed version, never below it. So a
    // write to a hot row walks its chain once per cut advance, not once
    // per write.
    if (trim_cut > trimmed_cut_) {
      trimmed_cut_ = trim_cut;
      TrimLocked(trim_cut, retire);
    }
    return PushResult::kOk;
  }

  /// Push without trimming (recovery replay, tests).
  PushResult Push(VersionBase* v, WwPolicy policy, Timestamp start_ts,
                  Timestamp txn_id) MV3C_EXCLUDES(chain_lock_) {
    return Push(v, policy, start_ts, txn_id, /*trim_cut=*/0,
                [](VersionBase*) {});
  }

  /// Number of versions linked in the chain. Every link and unlink adjusts
  /// it under the chain lock; read without the lock it may trail a
  /// concurrent writer by a few. Triggers a fresh reclaim cut for chains
  /// the cached cut leaves long (Transaction::MaybeTruncateChain).
  uint32_t ApproxChainLength() const {
    return approx_chain_len_.load(std::memory_order_relaxed);
  }

  /// Unlinks `v` from the chain and marks it dead (rollback or repair
  /// pruning). `v`'s own next pointer is left intact for concurrent
  /// readers. The caller is responsible for retiring `v` to the garbage
  /// collector.
  void Unlink(VersionBase* v) MV3C_EXCLUDES(chain_lock_) {
    SpinLockGuard g(chain_lock_);
    UnlinkLocked(v);
  }

  /// Publishes `v` as committed with timestamp `commit_ts`, restoring the
  /// chain invariant that committed versions are ordered by commit
  /// timestamp below all uncommitted ones (§2.4.1). If foreign uncommitted
  /// versions were pushed above `v` after `v` (possible only under
  /// kAllowMultiple), `v` is marked dead and a clone of it is spliced in at
  /// the committed boundary instead, mirroring the paper's "mark deleted
  /// and insert a duplicate" move. Returns the version that now carries the
  /// committed payload (`v` itself or the clone); when a clone was used the
  /// caller must retire `v`.
  VersionBase* CommitVersion(VersionBase* v, Timestamp commit_ts)
      MV3C_EXCLUDES(chain_lock_) {
    SpinLockGuard g(chain_lock_);
    // A move is needed iff a live committed version sits above v: our
    // commit timestamp is the newest, so our version must become the head
    // of the committed suffix. Foreign uncommitted versions above v are
    // fine in place (uncommitted versions precede committed ones).
    bool needs_move = false;
    {
      VersionBase* cur = head();
      while (cur != nullptr && cur != v) {
        if (!cur->dead() && IsCommitTs(cur->ts())) {
          needs_move = true;
          break;
        }
        cur = cur->next();
      }
      MV3C_CHECK(needs_move || cur == v);
    }
    if (!needs_move) {
      v->set_ts(commit_ts);
      return v;
    }
    // Mirror the paper's §2.4.1 move: mark v deleted and splice a duplicate
    // in directly above the first live committed version (the committed-
    // suffix boundary), below any foreign uncommitted versions.
    VersionBase* dup = v->Clone();
    VersionBase* prev = nullptr;
    VersionBase* cur = head();
    while (cur != nullptr && (cur->dead() || !IsCommitTs(cur->ts()))) {
      prev = cur;
      cur = cur->next();
    }
    dup->set_next(cur);
    dup->set_ts(commit_ts);
    if (prev == nullptr) {
      head_.store(dup, std::memory_order_release);
    } else {
      prev->set_next(dup);
    }
    approx_chain_len_.fetch_add(1, std::memory_order_relaxed);
    UnlinkLocked(v);
    return dup;
  }

  /// Truncates committed versions that can no longer be seen by any active
  /// transaction: keeps the newest committed version with ts < `watermark`
  /// (it is still the visible version for transactions at the watermark)
  /// and unlinks everything older. Invokes `retire(version)` for each cut
  /// version. Returns the number of versions cut.
  template <typename RetireFn>
  size_t TruncateOlderThan(Timestamp watermark, RetireFn&& retire)
      MV3C_EXCLUDES(chain_lock_) {
    SpinLockGuard g(chain_lock_);
    return TrimLocked(watermark, retire);
  }

  /// Newest live committed version in the chain, or nullptr. Used as the
  /// merge base for partial-column commits; only meaningful inside the
  /// commit critical section (the result is otherwise immediately stale).
  VersionBase* LatestCommitted() const {
    for (VersionBase* v = head(); v != nullptr; v = v->next()) {
      if (IsCommitTs(v->ts())) return v;
    }
    return nullptr;
  }

  /// Number of live (non-dead) versions in the chain; test helper.
  size_t ChainLength() const {
    size_t n = 0;
    for (VersionBase* v = head(); v != nullptr; v = v->next()) {
      if (!v->dead()) ++n;
    }
    return n;
  }

 private:
  void UnlinkLocked(VersionBase* v) MV3C_REQUIRES(chain_lock_) {
    VersionBase* prev = nullptr;
    VersionBase* cur = head();
    while (cur != nullptr && cur != v) {
      prev = cur;
      cur = cur->next();
    }
    MV3C_CHECK(cur == v);
    if (prev == nullptr) {
      head_.store(v->next(), std::memory_order_release);
    } else {
      prev->set_next(v->next());
    }
    v->MarkDead();
    approx_chain_len_.fetch_sub(1, std::memory_order_relaxed);
  }

  /// TruncateOlderThan's body, shared with Push's trim.
  template <typename RetireFn>
  size_t TrimLocked(Timestamp watermark, RetireFn& retire)
      MV3C_REQUIRES(chain_lock_) {
    // Find the newest committed version with ts < watermark: it is still
    // the visible version for the oldest active reader; everything
    // committed below it is unreachable. Uncommitted versions below it can
    // exist (pushed under kAllowMultiple before a later writer committed
    // in place above them) and must be preserved — their owners are live.
    VersionBase* keep = nullptr;
    for (VersionBase* v = head(); v != nullptr; v = v->next()) {
      const Timestamp t = v->ts();
      if (IsCommitTs(t) && t < watermark) {
        keep = v;
        break;
      }
    }
    if (keep == nullptr) return 0;
    size_t cut = 0;
    VersionBase* prev = keep;
    VersionBase* cur = keep->next();
    while (cur != nullptr) {
      VersionBase* next = cur->next();
      if (IsTxnId(cur->ts())) {
        prev = cur;  // live uncommitted version: keep it linked
      } else {
        prev->set_next(next);
        cur->MarkDead();
        retire(cur);
        ++cut;
      }
      cur = next;
    }
    if (cut > 0) {
      approx_chain_len_.fetch_sub(
          static_cast<uint32_t>(cut), std::memory_order_relaxed);
    }
    return cut;
  }

  /// head_ stays an atomic, not MV3C_GUARDED_BY(chain_lock_): readers
  /// traverse the chain lock-free (finding the visible version is
  /// wait-free, §5); only chain *surgery* — every store to head_ and to
  /// version next pointers — runs under chain_lock_. The REQUIRES on
  /// UnlinkLocked and the EXCLUDES on the surgery entry points are the
  /// statically-checkable half of that protocol.
  std::atomic<VersionBase*> head_{nullptr};
  SpinLock chain_lock_;
  std::atomic<uint32_t> approx_chain_len_{0};
  /// Highest published reclaim cut Push has trimmed this chain at.
  Timestamp trimmed_cut_ MV3C_GUARDED_BY(chain_lock_) = 0;
};

/// Typed data object: key plus version chain.
template <typename K, typename Row>
class DataObject : public DataObjectBase {
 public:
  explicit DataObject(const K& key) : key_(key) {}

  const K& key() const { return key_; }

  /// Typed visible read; returns nullptr if no visible version or the
  /// visible version is a tombstone (row deleted).
  const Version<Row>* ReadVisible(Timestamp start_ts, Timestamp txn_id) const {
    const VersionBase* v = FindVisible(start_ts, txn_id);
    if (v == nullptr || v->tombstone()) return nullptr;
    return static_cast<const Version<Row>*>(v);
  }

 private:
  const K key_;
};

}  // namespace mv3c

#endif  // MV3C_MVCC_DATA_OBJECT_H_
