#ifndef MV3C_MVCC_VERSION_H_
#define MV3C_MVCC_VERSION_H_

#include <atomic>
#include <cstddef>
#include <cstdint>

#include "common/column_mask.h"
#include "mvcc/timestamp.h"
#include "mvcc/version_arena.h"

namespace mv3c {

class DataObjectBase;
class TableBase;
class PredicateBase;

/// One version of one data object (paper Definition 2.1): the 4-tuple
/// (T, O, A, N) plus the MV3C bookkeeping fields.
///
/// * T is `ts`: the owning transaction's id while uncommitted, the commit
///   timestamp afterwards, or kDeadVersion after rollback/prune.
/// * O is `object`, a back reference to the data object whose chain holds
///   this version.
/// * A is the row payload stored in the typed subclass Version<Row>.
/// * N, the within-transaction version identifier, is realized by chain
///   order: a transaction's newer version for the same object always sits
///   closer to the chain head, and superseded versions are marked dead at
///   commit (Definition 2.2 keeps only the newest per object).
///
/// The `next_in_predicate` field is MV3C's single extra pointer per version
/// (§6.2 measures its memory overhead): it links the versions produced
/// inside one closure into an intrusive list (V(X)) so that Repair can
/// discard exactly the versions of the invalidated sub-graph without any
/// per-predicate allocation.
class VersionBase {
 public:
  VersionBase(TableBase* table, DataObjectBase* object, Timestamp ts)
      : ts_(ts), next_(nullptr), table_(table), object_(object) {}

  VersionBase(const VersionBase&) = delete;
  VersionBase& operator=(const VersionBase&) = delete;
  virtual ~VersionBase() = default;

  Timestamp ts() const { return ts_.load(std::memory_order_acquire); }
  void set_ts(Timestamp ts) { ts_.store(ts, std::memory_order_release); }

  VersionBase* next() const { return next_.load(std::memory_order_acquire); }
  void set_next(VersionBase* n) { next_.store(n, std::memory_order_release); }

  TableBase* table() const { return table_; }
  DataObjectBase* object() const { return object_; }

  /// Next version in the owning predicate's V(X) list (paper §6.2: the
  /// one extra pointer MV3C adds to each version).
  VersionBase* next_in_predicate() const { return next_in_predicate_; }
  void set_next_in_predicate(VersionBase* v) { next_in_predicate_ = v; }

  /// Columns modified relative to the previous committed version; supports
  /// attribute-level predicate validation (§4.1). Inserts and deletes set
  /// the full mask.
  ///
  /// Stored atomically: PublishCommit rewrites the mask (the §2.4.1 merge
  /// of a transaction's per-object effects) on a version that is already
  /// linked in its chain, concurrently with fail-fast Push scans reading
  /// it. Relaxed ordering suffices — pre-commit readers only make a
  /// conservative conflict heuristic (the columns a stale read misses are
  /// carried by the writer's older chained version, which the same scan
  /// visits), and the committed value is ordered by the release store of
  /// the commit timestamp.
  ColumnMask modified_columns() const {
    return ColumnMask(modified_bits_.load(std::memory_order_relaxed));
  }
  void set_modified_columns(ColumnMask m) {
    modified_bits_.store(m.bits(), std::memory_order_relaxed);
  }

  /// True if this version logically deletes the row.
  bool tombstone() const { return tombstone_; }
  void set_tombstone(bool t) { tombstone_ = t; }

  /// True if this version creates the row (no earlier committed version).
  bool is_insert() const { return is_insert_; }
  void set_is_insert(bool i) { is_insert_ = i; }

  /// True if this version was written without reading the row's current
  /// value (paper §2.4.1); blind writes never cause validation conflicts
  /// for the writing transaction.
  bool blind_write() const { return blind_write_; }
  void set_blind_write(bool b) { blind_write_ = b; }

  bool dead() const { return ts() == kDeadVersion; }
  void MarkDead() { set_ts(kDeadVersion); }

  /// Allocates a copy of this version (payload, flags, masks) with the same
  /// timestamp; used by the §2.4.1 commit "move", which replaces a version
  /// buried under foreign uncommitted versions with a duplicate at the
  /// committed-suffix boundary.
  virtual VersionBase* Clone() const = 0;

  /// Copies every column NOT in `modified` from `base`'s payload into this
  /// version's payload. Called inside the commit critical section on rows
  /// that implement MergeFrom (see MergeableRow below), so that partial-
  /// column writes (attribute-level validation, §4.1; blind writes,
  /// §2.4.1) compose with concurrently committed writes to other columns
  /// instead of clobbering them with the writer's stale snapshot. No-op for
  /// rows without MergeFrom (full-row semantics).
  virtual void MergeColumnsFrom(const VersionBase& base,
                                ColumnMask modified) = 0;

  /// Returns the newest committed version strictly older than this one in
  /// its chain: the before-image used by scan predicates to detect rows
  /// leaving a result-set. Returns nullptr for inserts.
  const VersionBase* BeforeImage() const {
    for (const VersionBase* v = next(); v != nullptr; v = v->next()) {
      const Timestamp t = v->ts();
      if (IsCommitTs(t)) return v;
    }
    return nullptr;
  }

 private:
  std::atomic<Timestamp> ts_;
  std::atomic<VersionBase*> next_;  // next-older version in the chain
  TableBase* table_;
  DataObjectBase* object_;
  VersionBase* next_in_predicate_ = nullptr;  // MV3C extra pointer (V(X))
  std::atomic<uint64_t> modified_bits_{ColumnMask::All().bits()};
  bool tombstone_ = false;
  bool is_insert_ = false;
  bool blind_write_ = false;
};

/// Rows that support per-column merging implement
///   void MergeFrom(const Row& base, ColumnMask modified);
/// copying every column NOT in `modified` from `base` into *this. Tables
/// whose workloads use attribute-level masks or blind writes on disjoint
/// columns should implement it; rows without it use full-row semantics
/// (each write is expected to carry ColumnMask::All() or concurrent writers
/// always modify the same column set).
template <typename Row>
concept MergeableRow = requires(Row& dst, const Row& src, ColumnMask m) {
  { dst.MergeFrom(src, m) };
};

/// Typed version carrying the row payload by value.
template <typename Row>
class Version : public VersionBase {
 public:
  Version(TableBase* table, DataObjectBase* object, Timestamp ts,
          const Row& data)
      : VersionBase(table, object, ts), data_(data) {}

  const Row& data() const { return data_; }
  /// The payload of a version is immutable once published (paper §2.2);
  /// mutation is only allowed by the owner before the version is visible.
  Row* mutable_data() { return &data_; }

  VersionBase* Clone() const override {
    // Sibling allocation: the clone comes from the same arena as the
    // original, so exclusive-repair/§2.4.1 copies don't bypass the arena
    // (satellite 2) and Destroy's slab lookup stays valid for every version.
    auto* copy = VersionArena::CreateSibling<Version<Row>>(
        this, table(), object(), ts(), data_);
    copy->set_modified_columns(modified_columns());
    copy->set_tombstone(tombstone());
    copy->set_is_insert(is_insert());
    copy->set_blind_write(blind_write());
    return copy;
  }

  void MergeColumnsFrom(const VersionBase& base,
                        ColumnMask modified) override {
    if constexpr (MergeableRow<Row>) {
      data_.MergeFrom(static_cast<const Version<Row>&>(base).data(),
                      modified);
    }
  }

 private:
  Row data_;
};

}  // namespace mv3c

#endif  // MV3C_MVCC_VERSION_H_
