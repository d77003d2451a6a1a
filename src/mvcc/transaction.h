#ifndef MV3C_MVCC_TRANSACTION_H_
#define MV3C_MVCC_TRANSACTION_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <vector>

#include "common/column_mask.h"
#include "common/macros.h"
#include "common/status.h"
#include "mvcc/data_object.h"
#include "mvcc/gc.h"
#include "mvcc/predicate.h"
#include "mvcc/table.h"
#include "mvcc/timestamp.h"
#include "mvcc/version.h"
#include "mvcc/version_arena.h"

namespace mv3c {

namespace wal {
class LogBuffer;
}  // namespace wal

class TransactionManager;

/// Core transaction state shared by the OMVCC and MV3C engines: start
/// timestamp, transaction id, and the undo buffer (the ordered list of
/// versions this transaction created, paper §2.1/§2.2).
///
/// The typed read/write primitives below implement snapshot reads
/// (Definition 2.3), versioned updates/inserts/deletes with the per-table
/// write-write policy, rollback, and commit publication (including the
/// newest-version-per-object rule of Definition 2.2 and the §2.4.1 chain
/// move). Predicate bookkeeping — what distinguishes OMVCC's flat list from
/// MV3C's predicate graph — lives in the engine-specific wrappers.
class Transaction {
 public:
  explicit Transaction(TransactionManager* mgr) : mgr_(mgr) {}
  /// Flushes a retire list left by a transaction abandoned mid-flight.
  ~Transaction();
  Transaction(const Transaction&) = delete;
  Transaction& operator=(const Transaction&) = delete;

  TransactionManager* manager() const { return mgr_; }
  Timestamp start_ts() const { return start_ts_; }
  Timestamp txn_id() const { return txn_id_; }

  /// Reads the visible version of `obj` (nullptr if none or deleted).
  template <typename TableT>
  const Version<typename TableT::Row>* ReadVersion(
      const TableT& table, const typename TableT::Object* obj) const {
    return obj->ReadVisible(start_ts_, txn_id_);
  }

  /// Creates a new version of `obj` carrying `new_data`. `blind` marks a
  /// blind write (§2.4.1): the writer did not read the row's current value
  /// for the fields it changed, so the write cannot conflict. The MV3C
  /// facade registers the returned version with the creating predicate.
  template <typename TableT>
  WriteStatus Update(TableT& table, typename TableT::Object* obj,
                     const typename TableT::Row& new_data, ColumnMask modified,
                     bool blind, WwPolicy policy,
                     Version<typename TableT::Row>** out = nullptr) {
    using Row = typename TableT::Row;
    auto* v = arena().Create<Version<Row>>(&table, obj, txn_id_, new_data);
    v->set_modified_columns(modified);
    v->set_blind_write(blind);
    if (!PushVersion(obj, v, policy)) return WriteStatus::kWwConflict;
    if (out != nullptr) *out = v;
    return WriteStatus::kOk;
  }

  /// Inserts a row. Always fail-fast on write-write conflicts (§2.3.1:
  /// operations that create or remove keys never interleave). Returns
  /// kDuplicateKey if a live row with this key is visible.
  template <typename TableT>
  WriteStatus Insert(TableT& table, const typename TableT::Key& key,
                     const typename TableT::Row& data,
                     typename TableT::Object** out_obj = nullptr,
                     Version<typename TableT::Row>** out_version = nullptr) {
    using Row = typename TableT::Row;
    typename TableT::Object* obj = table.GetOrCreate(key);
    if (obj->ReadVisible(start_ts_, txn_id_) != nullptr) {
      return WriteStatus::kDuplicateKey;
    }
    auto* v = arena().Create<Version<Row>>(&table, obj, txn_id_, data);
    v->set_modified_columns(ColumnMask::All());
    v->set_is_insert(true);
    if (!PushVersion(obj, v, WwPolicy::kFailFast)) {
      return WriteStatus::kWwConflict;
    }
    if (out_obj != nullptr) *out_obj = obj;
    if (out_version != nullptr) *out_version = v;
    return WriteStatus::kOk;
  }

  /// Deletes a row by appending a tombstone version. The tombstone carries
  /// the before-image payload so range/filter criteria can evaluate it.
  /// Always fail-fast (§2.3.1).
  template <typename TableT>
  WriteStatus Delete(TableT& table, typename TableT::Object* obj,
                     Version<typename TableT::Row>** out_version = nullptr) {
    using Row = typename TableT::Row;
    const Version<Row>* before = obj->ReadVisible(start_ts_, txn_id_);
    MV3C_CHECK(before != nullptr);
    auto* v = arena().Create<Version<Row>>(&table, obj, txn_id_, before->data());
    v->set_modified_columns(ColumnMask::All());
    v->set_tombstone(true);
    if (!PushVersion(obj, v, WwPolicy::kFailFast)) {
      return WriteStatus::kWwConflict;
    }
    if (out_version != nullptr) *out_version = v;
    return WriteStatus::kOk;
  }

  /// Unlinks and retires every version this transaction created (rollback
  /// on user abort or full restart). The manager hands the retire list to
  /// the GC when the transaction finishes or restarts.
  void RollbackWrites() {
    for (VersionBase* v : undo_) {
      v->object()->Unlink(v);
      Retire(v);
    }
    undo_.clear();
  }

  /// Unlinks and retires one version (MV3C repair pruning, Algorithm 2
  /// lines 7 and 10). Unlinking marks the version dead; DropPrunedVersions
  /// then removes every version pruned this round from the undo buffer in
  /// one pass.
  void PruneVersion(VersionBase* v) {
    v->object()->Unlink(v);
    Retire(v);
    ++pruned_;
  }

  /// Removes the versions PruneVersion marked dead from the undo buffer,
  /// keeping the order of the rest ("remove them from the undo buffer").
  /// Reading the dead versions' timestamps is safe: this transaction is
  /// still registered, so the GC grace period keeps every version it
  /// retired allocated.
  void DropPrunedVersions() {
    const size_t dropped = std::erase_if(
        undo_, [](const VersionBase* v) { return v->dead(); });
    MV3C_CHECK(dropped == pruned_);  // every pruned version was ours
    pruned_ = 0;
  }

  /// Commits all versions at `commit_ts`: enforces Definition 2.2 (only
  /// the newest version per object survives; superseded ones are unlinked),
  /// performs the §2.4.1 move where needed, and returns the recently-
  /// committed record (nullptr for read-only transactions). Must be called
  /// from inside the manager's commit critical section.
  ///
  /// O(n log n) in the write-set size: one sort of (object, undo index)
  /// pairs groups each object's versions, then one reverse pass over the
  /// undo buffer publishes or drops each version. The scratch vectors are
  /// members reused across commits, so once warm the only allocation left
  /// is the record's own version array.
  CommittedRecord* PublishCommit(Timestamp commit_ts) {
    if (undo_.empty()) return nullptr;
    auto* rec = arena().Create<CommittedRecord>();
    rec->commit_ts = commit_ts;
    rec->versions.reserve(undo_.size());
    // Per-object union of modified-column masks: the surviving (newest)
    // version represents the transaction's whole effect on the object, so
    // its mask for validation purposes is the union, and columns outside
    // the union are merged from the latest committed version (making
    // partial-column writes compose with concurrent committers).
    const uint32_t n = static_cast<uint32_t>(undo_.size());
    by_object_.clear();
    for (uint32_t i = 0; i < n; ++i) {
      by_object_.push_back({undo_[i]->object(), i});
    }
    std::sort(by_object_.begin(), by_object_.end(),
              [](const WriteRef& x, const WriteRef& y) {
                if (x.object != y.object) {
                  return std::less<const DataObjectBase*>()(x.object,
                                                            y.object);
                }
                return x.index < y.index;
              });
    outcome_.resize(n);
    for (uint32_t b = 0, e = 0; b < n; b = e) {
      ColumnMask effect;
      for (e = b; e < n && by_object_[e].object == by_object_[b].object; ++e) {
        effect |= undo_[by_object_[e].index]->modified_columns();
        outcome_[by_object_[e].index].survives = false;
      }
      outcome_[by_object_[e - 1].index] = {effect, true};  // the newest
    }
    for (uint32_t i = n; i-- > 0;) {
      VersionBase* v = undo_[i];
      if (!outcome_[i].survives) {
        // An older version of an object we already committed the newest
        // version for: it never becomes visible (Definition 2.2).
        v->object()->Unlink(v);
        Retire(v);
        continue;
      }
      const ColumnMask effect = outcome_[i].effect;
      if (!v->is_insert() && !v->tombstone() &&
          effect != ColumnMask::All()) {
        const VersionBase* base = v->object()->LatestCommitted();
        if (base != nullptr && !base->tombstone()) {
          v->MergeColumnsFrom(*base, effect);
        }
      }
      v->set_modified_columns(effect);
      VersionBase* committed = v->object()->CommitVersion(v, commit_ts);
      if (committed != v) Retire(v);  // the §2.4.1 move used a clone
      rec->versions.push_back(committed);
    }
    undo_.clear();
    return rec;
  }

  const std::vector<VersionBase*>& undo_buffer() const { return undo_; }

  /// Hands every version this transaction unlinked — its own rollbacks,
  /// prunes and superseded versions, and other writers' versions its
  /// pushes trimmed — to the GC in one batch. The manager calls it once
  /// per commit, abort or restart.
  void FlushRetired();

  // --- manager-facing lifecycle hooks (see TransactionManager) ---

  void OnBegin(Timestamp start, Timestamp id, uint32_t slot) {
    start_ts_ = start;
    txn_id_ = id;
    slot_ = slot;
    validated_up_to_ = start;
    wal_epoch_ = 0;
    wal_repaired_ = false;
  }
  void OnNewStartTs(Timestamp start) { start_ts_ = start; }
  uint32_t slot() const { return slot_; }

  /// Highest commit timestamp already covered by a validation pass. Every
  /// recently-committed record with commit_ts <= this value has been
  /// matched against the transaction's predicates (or committed before the
  /// transaction's current lifetime); later passes only examine newer
  /// records. Initialized to the start timestamp; kept across repair
  /// rounds (§2.5), reset on a full restart.
  Timestamp validated_up_to() const { return validated_up_to_; }
  void set_validated_up_to(Timestamp ts) {
    if (ts > validated_up_to_) validated_up_to_ = ts;
  }
  void ResetValidationWatermark() { validated_up_to_ = start_ts_; }

  // --- durability hooks (inert while the manager's WAL is disabled) ---

  /// Per-worker WAL staging buffer; the manager's commit path creates one
  /// lazily for this transaction context and reuses it across Begins.
  wal::LogBuffer* wal_buffer() const { return wal_buffer_; }
  void set_wal_buffer(wal::LogBuffer* b) { wal_buffer_ = b; }

  /// Epoch the last commit's redo records were tagged with; 0 when nothing
  /// was logged. The commit is durable once the log's durable epoch
  /// reaches it (TransactionManager::WalWaitDurable).
  uint64_t wal_epoch() const { return wal_epoch_; }
  void set_wal_epoch(uint64_t e) { wal_epoch_ = e; }

  /// Set by the MV3C executor when the transaction went through at least
  /// one repair round before committing; stamped on its redo records
  /// (kFlagRepaired) so tests can assert only the final write set is
  /// logged. Reset by OnBegin.
  bool wal_repaired() const { return wal_repaired_; }
  void set_wal_repaired() { wal_repaired_ = true; }

 private:
  /// Links `v` into `obj`'s chain, trimming the chain at the manager's
  /// cached reclaim cut in the same lock acquisition (DESIGN §2.7), and
  /// records it in the undo buffer. On a write-write conflict `v` was
  /// never linked, never observed, and is freed at once.
  bool PushVersion(DataObjectBase* obj, VersionBase* v, WwPolicy policy) {
    if (obj->Push(v, policy, start_ts_, txn_id_, CachedReclaimCut(),
                  [this](VersionBase* dead) { Retire(dead); }) !=
        DataObjectBase::PushResult::kOk) {
      VersionArena::Destroy(v);
      return false;
    }
    undo_.push_back(v);
    MaybeTruncateChain(obj);
    return true;
  }

  /// Queues an unlinked version for the GC; FlushRetired hands the queue
  /// over. Waiting is safe: the grace period then starts from the
  /// hand-over's era, which is no earlier than the unlink's.
  void Retire(VersionBase* v) { retired_.push_back(v); }

  // Defined in transaction_manager.h (needs the manager's GC and clock).
  Timestamp CachedReclaimCut() const;
  void MaybeTruncateChain(DataObjectBase* obj);
  VersionArena& arena() const;

  /// PublishCommit scratch: the write set sorted by object, and per undo
  /// index whether the version survives and, if so, its object's union
  /// mask.
  struct WriteRef {
    DataObjectBase* object;
    uint32_t index;
  };
  struct Outcome {
    ColumnMask effect;
    bool survives;
  };

  TransactionManager* mgr_;
  Timestamp start_ts_ = 0;
  Timestamp txn_id_ = 0;
  uint32_t slot_ = ~0u;
  std::vector<VersionBase*> undo_;
  std::vector<VersionBase*> retired_;  // unlinked, not yet handed to the GC
  size_t pruned_ = 0;  // PruneVersion calls not yet dropped from undo_
  std::vector<WriteRef> by_object_;
  std::vector<Outcome> outcome_;
  Timestamp validated_up_to_ = 0;
  wal::LogBuffer* wal_buffer_ = nullptr;
  uint64_t wal_epoch_ = 0;
  bool wal_repaired_ = false;
};

}  // namespace mv3c

#endif  // MV3C_MVCC_TRANSACTION_H_
