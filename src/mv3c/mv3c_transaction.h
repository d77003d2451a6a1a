#ifndef MV3C_MV3C_MV3C_TRANSACTION_H_
#define MV3C_MV3C_MV3C_TRANSACTION_H_

#include <algorithm>
#include <functional>
#include <optional>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/failpoint.h"
#include "common/macros.h"
#include "common/retry_policy.h"
#include "common/status.h"
#include "mvcc/predicate.h"
#include "mvcc/transaction.h"
#include "mvcc/transaction_manager.h"
#include "obs/engine_stats.h"  // Mv3cStats (migrated to the obs layer)

namespace mv3c {

/// What a transaction does when validation finds a conflict (DESIGN §3).
/// kRepair is MV3C: repair the invalidated part of the predicate graph.
/// kRestart is OMVCC, the baseline MV3C extends (paper §2.1): roll back and
/// re-execute from scratch. Under kRestart reads keep a flat predicate list
/// and run their closures inline, every write is fail-fast, and validation
/// stops at the first conflict, so the baseline pays for no graph.
enum class ConflictPolicy { kRepair, kRestart };

/// The MV3C DSL front end (paper §2.2/§2.3 and Figure 3).
///
/// A transaction program is a callable `ExecStatus(Mv3cTransaction&)` that
/// issues reads through `Lookup`, `Scan` and `RangeScan`. Each read creates
/// an MV3C predicate and immediately executes the closure bound to it; data
/// manipulation inside a closure registers the created versions with the
/// enclosing predicate (V(X)), and nested reads become child predicates
/// (D(X)). The resulting runtime predicate graph drives the Validation
/// (Algorithm 1) and Repair (Algorithm 2) phases.
///
/// Closure rules (Definition 2.5): closures must be deterministic and must
/// capture outer context by value (transaction inputs, ancestor results);
/// they receive the predicate's fresh result on every (re-)execution.
///
/// Under ConflictPolicy::kRestart the same programs run as OMVCC: each read
/// registers its criterion in a flat list and calls its closure once,
/// inline; nothing is kept for a repair.
class Mv3cTransaction {
 public:
  explicit Mv3cTransaction(TransactionManager* mgr,
                           ConflictPolicy policy = ConflictPolicy::kRepair)
      : mgr_(mgr), inner_(mgr), policy_(policy) {}
  Mv3cTransaction(const Mv3cTransaction&) = delete;
  Mv3cTransaction& operator=(const Mv3cTransaction&) = delete;
  ~Mv3cTransaction() { ResetGraph(); }

  Transaction& inner() { return inner_; }
  TransactionManager* manager() const { return mgr_; }
  Mv3cStats& stats() { return stats_; }
  const Mv3cStats& stats() const { return stats_; }
  bool repairs() const { return policy_ == ConflictPolicy::kRepair; }

  // ----------------------------------------------------------------------
  // Reads: predicate-creating DSL operations.
  // ----------------------------------------------------------------------

  /// Typed predicate node: a criterion plus its evaluation function stored
  /// by value, so executing or re-executing a closure costs one virtual
  /// call and no type-erasure allocations (§6.2 depends on this).
  template <typename Criterion, typename Eval>
  class Node final : public Criterion {
   public:
    template <typename... Args>
    explicit Node(Eval eval, Args&&... args)
        : Criterion(std::forward<Args>(args)...), eval_(std::move(eval)) {}
    ExecStatus Reexecute() override { return eval_(this); }

   private:
    Eval eval_;
  };

  /// Point lookup by primary key. The closure receives the data object (or
  /// nullptr if the key never existed) and the visible row (nullptr if
  /// absent or deleted):
  ///   ExecStatus closure(Mv3cTransaction&, TableT::Object*, const Row*)
  template <typename TableT, typename Closure>
  ExecStatus Lookup(TableT& table, const typename TableT::Key& key,
                    ColumnMask monitored, Closure closure) {
    if (!repairs()) {
      AddFlat(pool_.Create<KeyEqCriterion<TableT>>(&table, key), monitored);
      typename TableT::Object* obj = table.Find(key);
      return closure(*this, obj, ReadRow(table, obj));
    }
    auto eval = [this, &table, key,
                 closure = std::move(closure)](PredicateBase* self)
        -> ExecStatus {
      typename TableT::Object* obj = table.Find(key);
      const typename TableT::Row* row = ReadRow(table, obj);
      return RunClosure(
          self, [&](Mv3cTransaction& t) { return closure(t, obj, row); });
    };
    using NodeT = Node<KeyEqCriterion<TableT>, decltype(eval)>;
    NodeT* p = pool_.Create<NodeT>(std::move(eval), &table, key);
    p->set_monitored(monitored);
    AttachToGraph(p);
    return p->Reexecute();
  }

  /// Full-table scan with a row filter (e.g. the Bonus program of the
  /// Banking example). The closure receives the result set:
  ///   ExecStatus closure(Mv3cTransaction&,
  ///                      const std::vector<ScanEntry<TableT>>&)
  /// When `reuse_result_set` is set (§4.2), repair patches the previous
  /// result set by re-reading only the objects touched by conflicting
  /// transactions instead of re-scanning the table.
  template <typename TableT, typename Closure>
  ExecStatus Scan(TableT& table,
                  std::function<bool(const typename TableT::Row&)> filter,
                  ColumnMask monitored, bool reuse_result_set,
                  Closure closure) {
    if (!repairs()) {
      AddFlat(pool_.Create<RowFilterCriterion<TableT>>(&table, filter),
              monitored);
      std::vector<ScanEntry<TableT>> entries;
      ScanTable(table, filter, &entries);
      return closure(*this, entries);
    }
    // The node owns the result set by value: a repair round patches it in
    // place (§4.2), and no heap object lives beside the node.
    auto eval = [this, &table, filter, closure = std::move(closure),
                 entries = std::vector<ScanEntry<TableT>>(),
                 populated = false](PredicateBase* self) mutable
        -> ExecStatus {
      if (self->reuse_result_set() && populated) {
        FixResultSet(table, self, filter, &entries);
      } else {
        ScanTable(table, filter, &entries);
        populated = true;
      }
      self->conflict_versions().clear();
      return RunClosure(
          self, [&](Mv3cTransaction& t) { return closure(t, entries); });
    };
    using NodeT = Node<RowFilterCriterion<TableT>, decltype(eval)>;
    NodeT* p = pool_.Create<NodeT>(std::move(eval), &table, filter);
    p->set_monitored(monitored);
    p->set_reuse_result_set(reuse_result_set);
    AttachToGraph(p);
    return p->Reexecute();
  }

  /// Ordered-index range scan: visits rows whose entry key in `index` lies
  /// in [lo, hi] (index maps secondary keys to table objects). `extract`
  /// derives the secondary key from (primary key, row) for validation;
  /// `limit` bounds the result-set size (0 = unlimited); `reverse` scans
  /// descending. Closure as in Scan.
  template <typename TableT, typename IndexT, typename Closure>
  ExecStatus RangeScan(
      TableT& table, const IndexT& index, const typename IndexT::KeyType& lo,
      const typename IndexT::KeyType& hi,
      typename KeyRangeCriterion<TableT, typename IndexT::KeyType>::Extract
          extract,
      std::function<bool(const typename TableT::Row&)> filter,
      ColumnMask monitored, size_t limit, bool reverse, Closure closure) {
    using SecKey = typename IndexT::KeyType;
    if (!repairs()) {
      AddFlat(pool_.Create<KeyRangeCriterion<TableT, SecKey>>(
                  &table, lo, hi, extract, filter),
              monitored);
      std::vector<ScanEntry<TableT>> entries;
      ScanIndex(index, lo, hi, filter, limit, reverse, &entries);
      return closure(*this, entries);
    }
    auto eval = [this, &index, lo, hi, filter, limit, reverse,
                 closure = std::move(closure),
                 entries = std::vector<ScanEntry<TableT>>()](
                    PredicateBase* self) mutable -> ExecStatus {
      ScanIndex(index, lo, hi, filter, limit, reverse, &entries);
      return RunClosure(
          self, [&](Mv3cTransaction& t) { return closure(t, entries); });
    };
    using NodeT = Node<KeyRangeCriterion<TableT, SecKey>, decltype(eval)>;
    NodeT* p = pool_.Create<NodeT>(std::move(eval), &table, lo, hi, extract,
                                   filter);
    p->set_monitored(monitored);
    AttachToGraph(p);
    return p->Reexecute();
  }

  // ----------------------------------------------------------------------
  // Writes: version-creating operations; must run inside a closure (or at
  // the root, for blind writes).
  // ----------------------------------------------------------------------

  /// Creates a new version of `obj` carrying `new_data`; registers it with
  /// the enclosing predicate. The table's write-write policy applies unless
  /// overridden per operation (§2.3.1: "can be overridden for each
  /// individual update operation") — Example 3's heuristic: writes early in
  /// the program on which everything else depends should fail fast, since
  /// their repair is equivalent to a restart anyway; late or independent
  /// writes should allow multiple uncommitted versions and be repaired.
  /// Under kRestart every write is fail-fast: OMVCC cannot repair a second
  /// uncommitted version.
  template <typename TableT>
  ExecStatus UpdateRow(TableT& table, typename TableT::Object* obj,
                       const typename TableT::Row& new_data,
                       ColumnMask modified, bool blind = false,
                       std::optional<WwPolicy> policy_override = {}) {
    Version<typename TableT::Row>* v = nullptr;
    const WriteStatus ws = inner_.Update(
        table, obj, new_data, modified, blind,
        repairs() ? policy_override.value_or(table.ww_policy())
                  : WwPolicy::kFailFast,
        &v);
    if (ws == WriteStatus::kWwConflict) {
      return ExecStatus::kWriteWriteConflict;
    }
    if (current_parent_ != nullptr) current_parent_->AddVersion(v);
    return ExecStatus::kOk;
  }

  /// Inserts a row; the version registers with the enclosing predicate.
  template <typename TableT>
  WriteStatus InsertRow(TableT& table, const typename TableT::Key& key,
                        const typename TableT::Row& data,
                        typename TableT::Object** out_obj = nullptr) {
    typename TableT::Object* obj = nullptr;
    Version<typename TableT::Row>* v = nullptr;
    const WriteStatus ws = inner_.Insert(table, key, data, &obj, &v);
    if (ws == WriteStatus::kOk) {
      if (current_parent_ != nullptr) current_parent_->AddVersion(v);
      if (out_obj != nullptr) *out_obj = obj;
    }
    return ws;
  }

  /// Deletes a row (tombstone version).
  template <typename TableT>
  ExecStatus DeleteRow(TableT& table, typename TableT::Object* obj) {
    Version<typename TableT::Row>* v = nullptr;
    const WriteStatus ws = inner_.Delete(table, obj, &v);
    if (ws == WriteStatus::kWwConflict) {
      return ExecStatus::kWriteWriteConflict;
    }
    if (current_parent_ != nullptr) current_parent_->AddVersion(v);
    return ExecStatus::kOk;
  }

  /// Secondary-index entry for a row this transaction inserted. Applied at
  /// once: scans filter entries by version visibility. A duplicate is the
  /// same entry re-inserted by a repair round or a restart, and is ignored.
  template <typename IndexT>
  void IndexInsert(IndexT& index, const typename IndexT::KeyType& key,
                   const typename IndexT::ValueType& value) {
    (void)index.Insert(key, value);
  }

  /// Blind update (§2.4.1): updates columns of the row with key `key`
  /// without creating a read predicate; `setter(Row&)` mutates a copy of
  /// the currently visible row. Never conflicts at validation time.
  ///
  /// Correctness caveat (documented in DESIGN.md): concurrent blind writes
  /// to the same object must modify the same column set — the version
  /// stores a full row image, so disjoint-column blind writes would
  /// last-writer-win the whole row. All paper workloads satisfy this.
  /// No-op if the key has no visible row.
  ///
  /// OMVCC has no blind writes (§6.1.1: a blind write "creates a conflict
  /// in OMVCC"): under kRestart this is a read of the modified columns
  /// followed by a fail-fast read-modify-write.
  template <typename TableT, typename Setter>
  ExecStatus BlindUpdate(TableT& table, const typename TableT::Key& key,
                         ColumnMask modified, Setter setter) {
    if (!repairs()) {
      AddFlat(pool_.Create<KeyEqCriterion<TableT>>(&table, key), modified);
    }
    typename TableT::Object* obj = table.Find(key);
    const typename TableT::Row* row = ReadRow(table, obj);
    if (row == nullptr) return ExecStatus::kOk;
    typename TableT::Row copy = *row;
    setter(copy);
    return UpdateRow(table, obj, copy, modified, /*blind=*/repairs());
  }

  // ----------------------------------------------------------------------
  // Lifecycle (driven by Mv3cExecutor).
  // ----------------------------------------------------------------------

  /// Runs the program body, building the predicate graph.
  template <typename Program>
  ExecStatus RunProgram(Program&& program) {
    current_parent_ = nullptr;
    return program(*this);
  }

  /// Pre-validation outside the critical section (§5 "Parallel
  /// Validation"): matches every concurrently-committed version against
  /// every predicate, marking invalid ones (Algorithm 1 runs to completion
  /// rather than stopping at the first conflict, §2.4). Returns true iff no
  /// predicate was invalidated.
  bool PrevalidateAndMark() {
    CommittedRecord* head = mgr_->rc_head();
    bool clean = ValidateAndMark(head);
    if (InjectConflict(failpoint::Site::kPrevalidate, clean)) clean = false;
    if (head != nullptr) inner_.set_validated_up_to(head->commit_ts);
    return clean;
  }

  /// Failpoint support: true if `site` fires and injects a conflict into a
  /// validation pass that found `clean`. Under kRepair the injection marks
  /// a predicate invalid (ForceInvalidatePredicate). Under kRestart any
  /// conflict means a restart from scratch, so reporting one is always
  /// safe; the site is only consulted when the pass was clean.
  bool InjectConflict(failpoint::Site site, bool clean) {
    if (repairs()) {
      return failpoint::Evaluate(site) && ForceInvalidatePredicate();
    }
    if (!clean || !failpoint::Evaluate(site)) return false;
    ++stats_.failpoint_trips;
    return true;
  }

  /// Failpoint support: marks one valid predicate invalid, pretending a
  /// concurrent commit invalidated that read. Repair then prunes and
  /// re-executes its closure exactly as for a genuine conflict, so the
  /// injection perturbs scheduling without breaking serializability.
  /// Returns false (no injection possible) when every predicate is already
  /// invalid or the transaction has none (blind-write-only programs).
  bool ForceInvalidatePredicate() {
    for (PredicateBase* p : all_predicates_) {
      if (!p->invalid()) {
        p->set_invalid(true);
        ++stats_.invalidated_predicates;
        ++stats_.failpoint_trips;
        return true;
      }
    }
    return false;
  }

  /// Validation pass over records newer than the validated watermark
  /// starting at `from`; used by both pre-validation and the in-lock delta
  /// revalidation. Predicates are bucketed by table so each committed
  /// version is only matched against the predicates that could possibly
  /// cover it — unlike OMVCC, MV3C cannot stop at the first conflict
  /// (Algorithm 1 must find ALL invalid predicates), so pruning the match
  /// space is what keeps its validation competitive under contention.
  /// Under kRestart the pass walks the flat list, stops at the first
  /// conflict and marks nothing.
  bool ValidateAndMark(CommittedRecord* from) {
    if (!repairs()) {
      return TransactionManager::ForEachConcurrentVersion(
          from, inner_.validated_up_to(), [&](const VersionBase& v) {
            for (const PredicateBase* p : all_predicates_) {
              if (p->ConflictsWith(v)) return false;  // abort the walk
            }
            return true;
          });
    }
    RebuildTableBucketsIfNeeded();
    bool clean = true;
    TransactionManager::ForEachConcurrentVersion(
        from, inner_.validated_up_to(), [&](const VersionBase& v) {
          const std::vector<PredicateBase*>* bucket = nullptr;
          for (const auto& [table, preds] : table_buckets_) {
            if (table == v.table()) {
              bucket = &preds;
              break;
            }
          }
          if (bucket == nullptr) return true;  // no predicate on this table
          for (PredicateBase* p : *bucket) {
            // Already-invalid predicates only need further matches when
            // result-set reuse wants the conflicting versions (§4.2).
            if (p->invalid() && !p->reuse_result_set()) continue;
            if (p->ConflictsWith(v)) {
              clean = false;
              if (!p->invalid()) {
                p->set_invalid(true);
                ++stats_.invalidated_predicates;
              }
              if (p->reuse_result_set()) {
                p->conflict_versions().push_back(&v);
              }
            }
          }
          return true;
        });
    return clean;
  }

  /// The Repair algorithm (Algorithm 2): propagates invalidity to
  /// descendants, prunes the invalid sub-graphs (removing their versions
  /// from the version chains and the undo buffer), and re-executes the
  /// frontier closures under the transaction's new start timestamp.
  ExecStatus Repair() {
    ++stats_.repair_rounds;
    // Creation order is a topological order, so one forward pass spreads
    // invalidity from parents to all descendants (Algorithm 1 L2 closure).
    for (PredicateBase* p : all_predicates_) {
      if (p->parent() != nullptr && p->parent()->invalid()) {
        p->set_invalid(true);
      }
    }
    // Frontier F: invalid nodes with no invalid ancestor (line 4).
    std::vector<PredicateBase*> frontier;
    for (PredicateBase* p : all_predicates_) {
      if (p->invalid() &&
          (p->parent() == nullptr || !p->parent()->invalid())) {
        frontier.push_back(p);
      }
    }
    MV3C_DCHECK(!frontier.empty());
    // Prune (lines 5-11): collect subtrees first, then drop their versions
    // and remove the nodes from the graph.
    std::unordered_set<PredicateBase*> removed;
    for (PredicateBase* f : frontier) {
      CollectSubtree(f, &removed);
      f->ForEachVersion([this](VersionBase* v) {
        ++stats_.versions_discarded;
        inner_.PruneVersion(v);
      });
      f->ClearVersions();
    }
    if (!removed.empty()) {
      for (PredicateBase* node : removed) {
        node->ForEachVersion([this](VersionBase* v) {
          ++stats_.versions_discarded;
          inner_.PruneVersion(v);
        });
        node->ClearVersions();
      }
      table_buckets_dirty_ = true;
      std::erase_if(all_predicates_, [&](PredicateBase* p) {
        return removed.count(p) != 0;
      });
      for (PredicateBase* f : frontier) f->ClearChildren();
      for (PredicateBase* node : removed) pool_.Destroy(node);
    }
    inner_.DropPrunedVersions();
    // Re-execute the frontier closures (lines 12-14); order is irrelevant
    // because frontier nodes are independent.
    for (PredicateBase* f : frontier) {
      f->set_invalid(false);
      ++stats_.reexecuted_closures;
      const ExecStatus st = f->Reexecute();
      if (st != ExecStatus::kOk) return st;
    }
    return ExecStatus::kOk;
  }

  /// True if the transaction wrote nothing; such transactions serialize at
  /// their start timestamp and skip validation.
  bool ReadOnly() const { return inner_.undo_buffer().empty(); }

  /// True if a validation pass has marked at least one predicate invalid
  /// and no repair has cleared it yet.
  bool HasInvalidPredicates() const {
    for (const PredicateBase* p : all_predicates_) {
      if (p->invalid()) return true;
    }
    return false;
  }

  /// Rolls back all writes and destroys the predicate graph (full restart
  /// or abort path). The discarded versions go back to the arena via the
  /// GC's grace period, same as repair-pruned ones.
  void RollbackAll() {
    stats_.versions_discarded += inner_.undo_buffer().size();
    inner_.RollbackWrites();
    ResetGraph();
  }

  /// Destroys the predicate graph; node memory returns to the pool for
  /// the next program (§6.2).
  void ResetGraph() {
    for (PredicateBase* p : all_predicates_) pool_.Destroy(p);
    all_predicates_.clear();
    current_parent_ = nullptr;
    table_buckets_dirty_ = true;
  }

  /// Number of live predicates; tests/metrics.
  size_t PredicateCount() const { return all_predicates_.size(); }
  const std::vector<PredicateBase*>& predicates() const {
    return all_predicates_;
  }

 private:
  void AttachToGraph(PredicateBase* node) {
    table_buckets_dirty_ = true;
    node->set_parent(current_parent_);
    if (current_parent_ != nullptr) current_parent_->AddChild(node);
    all_predicates_.push_back(node);
  }

  /// kRestart: a criterion with no parent, children, versions or closure.
  void AddFlat(PredicateBase* p, ColumnMask monitored) {
    p->set_monitored(monitored);
    all_predicates_.push_back(p);
  }

  template <typename TableT>
  const typename TableT::Row* ReadRow(TableT& table,
                                      typename TableT::Object* obj) {
    const auto* v = obj == nullptr ? nullptr : inner_.ReadVersion(table, obj);
    return v == nullptr ? nullptr : &v->data();
  }

  /// Full-table scan into `out`: the visible rows that pass `filter`.
  template <typename TableT>
  void ScanTable(TableT& table,
                 const std::function<bool(const typename TableT::Row&)>&
                     filter,
                 std::vector<ScanEntry<TableT>>* out) {
    out->clear();
    table.ForEachObject([&](typename TableT::Object& obj) {
      const auto* v = obj.ReadVisible(inner_.start_ts(), inner_.txn_id());
      if (v != nullptr && filter(v->data())) out->push_back({&obj, v->data()});
    });
  }

  /// Ordered-index range scan into `out` (see RangeScan).
  template <typename TableT, typename IndexT>
  void ScanIndex(const IndexT& index, const typename IndexT::KeyType& lo,
                 const typename IndexT::KeyType& hi,
                 const std::function<bool(const typename TableT::Row&)>&
                     filter,
                 size_t limit, bool reverse,
                 std::vector<ScanEntry<TableT>>* out) {
    out->clear();
    auto visit = [&](const typename IndexT::KeyType&,
                     typename TableT::Object* obj) -> bool {
      const auto* v = obj->ReadVisible(inner_.start_ts(), inner_.txn_id());
      if (v != nullptr && (filter == nullptr || filter(v->data()))) {
        out->push_back({obj, v->data()});
        if (limit != 0 && out->size() >= limit) return false;
      }
      return true;
    };
    if (reverse) {
      index.ScanRangeReverse(lo, hi, visit);
    } else {
      index.ScanRange(lo, hi, visit);
    }
  }

  /// Runs `body` with `p` as the enclosing predicate, so nested reads and
  /// writes attach to it.
  template <typename Body>
  ExecStatus RunClosure(PredicateBase* p, Body&& body) {
    PredicateBase* saved = current_parent_;
    current_parent_ = p;
    const ExecStatus st = body(*this);
    current_parent_ = saved;
    return st;
  }

  /// §4.2: patches a cached scan result set by re-reading only the objects
  /// named by the conflicting committed versions, instead of re-scanning.
  template <typename TableT>
  void FixResultSet(TableT& table, PredicateBase* p,
                    const std::function<bool(const typename TableT::Row&)>&
                        filter,
                    std::vector<ScanEntry<TableT>>* entries) {
    ++stats_.result_set_fixes;
    std::unordered_set<DataObjectBase*> touched;
    for (const VersionBase* cv : p->conflict_versions()) {
      touched.insert(cv->object());
    }
    for (DataObjectBase* base : touched) {
      auto* obj = static_cast<typename TableT::Object*>(base);
      const auto* v = obj->ReadVisible(inner_.start_ts(), inner_.txn_id());
      const bool in_set = v != nullptr && filter(v->data());
      auto it = std::find_if(
          entries->begin(), entries->end(),
          [obj](const ScanEntry<TableT>& e) { return e.object == obj; });
      if (in_set) {
        if (it != entries->end()) {
          it->row = v->data();
        } else {
          entries->push_back({obj, v->data()});
        }
      } else if (it != entries->end()) {
        entries->erase(it);
      }
    }
  }

  static void CollectSubtree(PredicateBase* f,
                             std::unordered_set<PredicateBase*>* out) {
    f->ForEachChild([out](PredicateBase* child) {
      out->insert(child);
      CollectSubtree(child, out);
    });
  }

  void RebuildTableBucketsIfNeeded() {
    if (!table_buckets_dirty_) return;
    for (auto& [table, preds] : table_buckets_) preds.clear();
    for (PredicateBase* p : all_predicates_) {
      std::vector<PredicateBase*>* bucket = nullptr;
      for (auto& [table, preds] : table_buckets_) {
        if (table == p->table()) {
          bucket = &preds;
          break;
        }
      }
      if (bucket == nullptr) {
        table_buckets_.push_back({p->table(), {}});
        bucket = &table_buckets_.back().second;
      }
      bucket->push_back(p);
    }
    std::erase_if(table_buckets_,
                  [](const auto& e) { return e.second.empty(); });
    table_buckets_dirty_ = false;
  }

  TransactionManager* mgr_;
  Transaction inner_;
  ConflictPolicy policy_;
  PredicatePool pool_;
  std::vector<PredicateBase*> all_predicates_;  // creation (= topo) order
  std::vector<std::pair<TableBase*, std::vector<PredicateBase*>>>
      table_buckets_;
  bool table_buckets_dirty_ = true;
  PredicateBase* current_parent_ = nullptr;
  Mv3cStats stats_;
};

}  // namespace mv3c

#endif  // MV3C_MV3C_MV3C_TRANSACTION_H_
