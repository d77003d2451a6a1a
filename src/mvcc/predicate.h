#ifndef MV3C_MVCC_PREDICATE_H_
#define MV3C_MVCC_PREDICATE_H_

#include <atomic>
#include <functional>
#include <memory>
#include <vector>

#include "common/column_mask.h"
#include "common/macros.h"
#include "common/status.h"
#include "mvcc/table.h"
#include "mvcc/version.h"

namespace mv3c {

/// Global switch for attribute-level predicate validation (§4.1). On by
/// default; the ablation benchmark turns it off to measure how many
/// spurious whole-record conflicts the column masks avoid.
inline std::atomic<bool> g_attribute_level_validation{true};

/// A predicate: a data selection criterion gathered for every read
/// operation of a transaction (paper §2.1, Definition 2.4 items (1)).
///
/// Validation implements a variant of precision locking: a transaction is
/// valid at its commit attempt iff none of the versions committed during
/// its lifetime *matches* any of its predicates. `ConflictsWith` applies
/// the attribute-level short-circuit of §4.1 before the full match.
///
/// The closure, child list and version list of an MV3C predicate
/// (Definition 2.4 items (2)-(4)) live in the MV3C engine's subclass; the
/// OMVCC engine uses bare criterion subclasses in a flat list.
class PredicateBase {
 public:
  explicit PredicateBase(TableBase* table) : table_(table) {}
  PredicateBase(const PredicateBase&) = delete;
  PredicateBase& operator=(const PredicateBase&) = delete;
  virtual ~PredicateBase() = default;

  TableBase* table() const { return table_; }

  /// Columns whose change can invalidate this predicate: the columns of
  /// the selection criterion plus the columns its consumer reads (§4.1).
  ColumnMask monitored() const { return monitored_; }
  void set_monitored(ColumnMask m) { monitored_ = m; }

  /// Full criterion match against a committed version (precision locking).
  virtual bool MatchesVersion(const VersionBase& v) const = 0;

  /// Match with the table filter and the attribute-level validation
  /// short-circuit (§4.1) applied first.
  bool ConflictsWith(const VersionBase& v) const {
    if (v.table() != table_) return false;
    if (g_attribute_level_validation.load(std::memory_order_relaxed) &&
        !monitored_.Intersects(v.modified_columns())) {
      return false;
    }
    return MatchesVersion(v);
  }

  // --- MV3C predicate-graph fields (Definition 2.4 items (2)-(4)) ---
  // The OMVCC engine keeps predicates in a flat list and leaves all of the
  // following unused; the memory cost difference between an OMVCC and an
  // MV3C predicate is modeled in bench/overhead_memory.

  /// The predicate in whose closure this predicate was created, or nullptr
  /// for a root. The parent-child relation forms the predicate graph; with
  /// closure nesting it is a forest whose creation order is a topological
  /// order (a child is always instantiated after its parent).
  PredicateBase* parent() const { return parent_; }
  void set_parent(PredicateBase* p) { parent_ = p; }

  /// D(X): predicates instantiated by this predicate's closure, as an
  /// intrusive sibling list (no per-node allocation). Non-owning: node
  /// lifetimes are managed by the engine's PredicatePool (§6.2: predicate
  /// memory is reused across program executions).
  PredicateBase* first_child() const { return first_child_; }
  PredicateBase* next_sibling() const { return next_sibling_; }
  void AddChild(PredicateBase* child) {
    child->next_sibling_ = first_child_;
    first_child_ = child;
  }
  void ClearChildren() { first_child_ = nullptr; }
  template <typename Fn>
  void ForEachChild(Fn&& fn) const {
    for (PredicateBase* c = first_child_; c != nullptr;
         c = c->next_sibling_) {
      fn(c);
    }
  }

  /// V(X): versions created by this predicate's closure (directly, not by
  /// descendant closures), threaded through the versions' single extra
  /// pointer (§6.2) — appending costs two pointer stores, no allocation.
  void AddVersion(VersionBase* v) {
    v->set_next_in_predicate(versions_head_);
    versions_head_ = v;
  }
  VersionBase* versions_head() const { return versions_head_; }
  void ClearVersions() { versions_head_ = nullptr; }
  template <typename Fn>
  void ForEachVersion(Fn&& fn) const {
    for (VersionBase* v = versions_head_; v != nullptr;) {
      VersionBase* next = v->next_in_predicate();  // fn may retire v
      fn(v);
      v = next;
    }
  }
  size_t VersionCount() const {
    size_t n = 0;
    ForEachVersion([&n](VersionBase*) { ++n; });
    return n;
  }

  /// C(X): re-evaluates the selection criterion under the transaction's
  /// current start timestamp and runs the bound closure. Overridden by the
  /// MV3C DSL's typed nodes (which store the closure by value — no type
  /// erasure on the hot path); re-invoked by the Repair algorithm. The
  /// paper notes that compiling closures efficiently is what keeps MV3C's
  /// conflict-free overhead under 1% (§6.2).
  virtual ExecStatus Reexecute() {
    MV3C_CHECK(false && "predicate without a closure cannot re-execute");
    return ExecStatus::kOk;
  }

  /// Set by the Validation algorithm when this predicate (or an ancestor)
  /// is invalid at the validation timestamp.
  bool invalid() const { return invalid_; }
  void set_invalid(bool i) { invalid_ = i; }

  /// §4.2 result-set reuse: when enabled, validation records the matching
  /// concurrently-committed versions so the repair pass can patch the
  /// result set instead of re-evaluating the criterion from scratch.
  bool reuse_result_set() const { return reuse_result_set_; }
  void set_reuse_result_set(bool r) { reuse_result_set_ = r; }
  std::vector<const VersionBase*>& conflict_versions() {
    return conflict_versions_;
  }

 private:
  TableBase* table_;
  ColumnMask monitored_ = ColumnMask::All();
  friend class PredicatePool;

  PredicateBase* parent_ = nullptr;
  PredicateBase* first_child_ = nullptr;
  PredicateBase* next_sibling_ = nullptr;
  VersionBase* versions_head_ = nullptr;
  uint32_t pool_class_ = 0;  // size class; set by PredicatePool
  bool invalid_ = false;
  bool reuse_result_set_ = false;
  std::vector<const VersionBase*> conflict_versions_;
};

/// Recycling allocator for predicate nodes. A transaction program uses a
/// small, repeating set of predicate shapes; §6.2 relies on their memory
/// being reused after the program finishes to keep the predicate overhead
/// negligible. One pool per executor (single-threaded use).
class PredicatePool {
 public:
  PredicatePool() = default;
  PredicatePool(const PredicatePool&) = delete;
  PredicatePool& operator=(const PredicatePool&) = delete;
  ~PredicatePool() {
    for (auto& bin : bins_) {
      for (void* p : bin) ::operator delete(p);
    }
  }

  /// Constructs a node of type NodeT, reusing a previously freed slot of
  /// the same size class when available.
  template <typename NodeT, typename... Args>
  NodeT* Create(Args&&... args) {
    const uint32_t cls = SizeClass(sizeof(NodeT));
    void* mem;
    if (cls < kNumClasses && !bins_[cls].empty()) {
      mem = bins_[cls].back();
      bins_[cls].pop_back();
    } else {
      mem = ::operator new(ClassBytes(cls));
    }
    NodeT* node = new (mem) NodeT(std::forward<Args>(args)...);
    node->pool_class_ = cls;
    return node;
  }

  /// Destroys a node and recycles its memory.
  void Destroy(PredicateBase* node) {
    const uint32_t cls = node->pool_class_;
    node->~PredicateBase();
    if (cls < kNumClasses) {
      bins_[cls].push_back(node);
    } else {
      ::operator delete(node);
    }
  }

 private:
  static constexpr uint32_t kGranularity = 64;
  static constexpr uint32_t kNumClasses = 32;  // up to 2 KiB pooled

  static uint32_t SizeClass(size_t bytes) {
    const uint32_t cls =
        static_cast<uint32_t>((bytes + kGranularity - 1) / kGranularity);
    return cls;  // classes >= kNumClasses fall through to plain new/delete
  }
  static size_t ClassBytes(uint32_t cls) {
    return static_cast<size_t>(cls) * kGranularity;
  }

  std::vector<void*> bins_[kNumClasses];
};

/// One entry of a scan result-set: the data object plus a snapshot copy of
/// its visible row.
template <typename TableT>
struct ScanEntry {
  typename TableT::Object* object;
  typename TableT::Row row;
};

/// Criterion: the row with primary key == `key` (point lookups, present or
/// absent — an absent row still yields a predicate, which is what detects
/// phantom inserts of that key).
template <typename TableT>
class KeyEqCriterion : public PredicateBase {
 public:
  using Key = typename TableT::Key;
  using Object = typename TableT::Object;

  KeyEqCriterion(TableT* table, const Key& key)
      : PredicateBase(table), key_(key) {}

  const Key& key() const { return key_; }

  bool MatchesVersion(const VersionBase& v) const override {
    const auto* obj = static_cast<const Object*>(v.object());
    return obj->key() == key_;
  }

 private:
  Key key_;
};

/// Criterion: all rows satisfying `filter` (full-table scans, e.g. the
/// Bonus program of the Banking example). A committed version conflicts if
/// its row enters the result set (new value matches), leaves it (before
/// image matches), or a matching row is deleted.
template <typename TableT>
class RowFilterCriterion : public PredicateBase {
 public:
  using Row = typename TableT::Row;
  using Filter = std::function<bool(const Row&)>;

  RowFilterCriterion(TableT* table, Filter filter)
      : PredicateBase(table), filter_(std::move(filter)) {}

  const Filter& filter() const { return filter_; }

  bool MatchesVersion(const VersionBase& v) const override {
    const auto& tv = static_cast<const Version<Row>&>(v);
    if (!v.tombstone() && filter_(tv.data())) return true;
    const VersionBase* before = v.BeforeImage();
    if (before != nullptr && !before->tombstone() &&
        filter_(static_cast<const Version<Row>*>(before)->data())) {
      return true;
    }
    return false;
  }

 private:
  Filter filter_;
};

/// Criterion: all rows whose derived secondary key lies in [lo, hi]
/// (ordered-index range scans, e.g. TPC-C customers by last name or the
/// oldest undelivered NEW-ORDER). `extract` derives the secondary key from
/// (primary key, row); an optional residual row filter narrows further.
template <typename TableT, typename SecKey>
class KeyRangeCriterion : public PredicateBase {
 public:
  using Key = typename TableT::Key;
  using Row = typename TableT::Row;
  using Object = typename TableT::Object;
  using Extract = std::function<SecKey(const Key&, const Row&)>;
  using Filter = std::function<bool(const Row&)>;

  KeyRangeCriterion(TableT* table, SecKey lo, SecKey hi, Extract extract,
                    Filter filter = nullptr)
      : PredicateBase(table),
        lo_(std::move(lo)),
        hi_(std::move(hi)),
        extract_(std::move(extract)),
        filter_(std::move(filter)) {}

  bool MatchesVersion(const VersionBase& v) const override {
    const auto* obj = static_cast<const Object*>(v.object());
    const auto& tv = static_cast<const Version<Row>&>(v);
    if (!v.tombstone() && RowInRange(obj->key(), tv.data())) return true;
    const VersionBase* before = v.BeforeImage();
    if (before != nullptr && !before->tombstone() &&
        RowInRange(obj->key(),
                   static_cast<const Version<Row>*>(before)->data())) {
      return true;
    }
    return false;
  }

 private:
  bool RowInRange(const Key& key, const Row& row) const {
    const SecKey k = extract_(key, row);
    if (k < lo_ || hi_ < k) return false;
    return filter_ == nullptr || filter_(row);
  }

  SecKey lo_, hi_;
  Extract extract_;
  Filter filter_;
};

}  // namespace mv3c

#endif  // MV3C_MVCC_PREDICATE_H_
