#ifndef MV3C_MVCC_TABLE_H_
#define MV3C_MVCC_TABLE_H_

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <deque>
#include <string>
#include <type_traits>

#include "common/macros.h"
#include "common/prefetch.h"
#include "common/spinlock.h"
#include "common/thread_safety.h"
#include "index/cuckoo_map.h"
#include "mvcc/data_object.h"
#include "mvcc/version.h"

namespace mv3c {

/// Type-erased table interface. Versions reference their table so that
/// engine-generic code (validation, garbage collection) can dispatch back
/// to typed operations.
class TableBase {
 public:
  explicit TableBase(std::string name, WwPolicy policy)
      : name_(std::move(name)), ww_policy_(policy) {}
  TableBase(const TableBase&) = delete;
  TableBase& operator=(const TableBase&) = delete;
  virtual ~TableBase() = default;

  const std::string& name() const { return name_; }

  /// Write-write conflict policy for updates of this table (paper §2.3.1:
  /// configurable system-wide or table-wide, overridable per operation).
  WwPolicy ww_policy() const { return ww_policy_; }
  void set_ww_policy(WwPolicy p) { ww_policy_ = p; }

  /// Durability identity: tables registered with a wal::Catalog get a
  /// nonzero stable id that keys their redo records; tables left at
  /// kNoWalId are invisible to the log (their writes are not serialized).
  static constexpr uint32_t kNoWalId = 0;
  uint32_t wal_id() const { return wal_id_; }
  void set_wal_id(uint32_t id) { wal_id_ = id; }

  /// Type-erased redo serialization of one version (key + after-image),
  /// used by the commit-path serializer which only holds VersionBase*.
  /// Zero sizes mean the table's key/row are not trivially copyable and
  /// the table cannot be logged (Catalog refuses to register it).
  virtual uint32_t WalKeyBytes() const { return 0; }
  virtual uint32_t WalRowBytes() const { return 0; }
  virtual void WalEncodeKey(const VersionBase& v, void* out) const {
    (void)v;
    (void)out;
  }
  virtual void WalEncodeRow(const VersionBase& v, void* out) const {
    (void)v;
    (void)out;
  }

 private:
  const std::string name_;
  WwPolicy ww_policy_;
  uint32_t wal_id_ = kNoWalId;
};

/// An in-memory multi-version table: a concurrent cuckoo hash map from
/// primary keys to data objects, each holding a version chain (paper §5).
///
/// Data objects are allocated from an append-only arena (std::deque) so
/// their addresses stay stable for the lifetime of the table; logical
/// deletion happens through tombstone versions, never by removing objects.
template <typename K, typename RowT>
class Table : public TableBase {
 public:
  using Key = K;
  using Row = RowT;
  using Object = DataObject<K, RowT>;

  Table(std::string name, size_t expected_rows = 1024,
        WwPolicy policy = WwPolicy::kFailFast)
      : TableBase(std::move(name), policy), index_(expected_rows) {}

  /// Returns the data object for `key`, or nullptr if no row with this key
  /// was ever inserted.
  Object* Find(const K& key) const {
    Object* obj = nullptr;
    (void)index_.Find(key, &obj);  // miss leaves obj nullptr, the signal
    return obj;
  }

  /// Returns the data object for `key`, creating an empty one (no versions)
  /// if absent. Used by inserts.
  Object* GetOrCreate(const K& key) {
    Object* obj = nullptr;
    if (index_.Find(key, &obj)) return obj;
    Object* fresh = Allocate(key);
    if (index_.Insert(key, fresh)) return fresh;
    // Lost the race; the winner's object is authoritative. The loser stays
    // in the arena unused (objects are arena-owned and cheap).
    MV3C_CHECK(index_.Find(key, &obj));
    return obj;
  }

  /// Group prefetch (Chen et al., ICDE 2004): starts the cache misses of a
  /// read of each of `keys[0..n)` so they overlap instead of running one
  /// after another. A read of a cold row misses three times in a row:
  /// index bucket, data object, head version. Each stage below runs over a
  /// chunk of keys before the next starts, so a stage's misses are in
  /// flight together and the next stage finds its input cached. A key
  /// with no data object stops after its Find, leaving its buckets cached
  /// for a later GetOrCreate.
  ///
  /// A hint, not a read: it records nothing for any transaction, changes
  /// no counter, allocates nothing and leaves every result as it was (the
  /// lookup it repeats is the ordinary index Find).
  void Prefetch(const K* keys, size_t n) const {
    constexpr size_t kChunk = 16;
    Object* objs[kChunk];
    for (size_t base = 0; base < n; base += kChunk) {
      const size_t m = std::min(kChunk, n - base);
      for (size_t i = 0; i < m; ++i) index_.Prefetch(keys[base + i]);
      for (size_t i = 0; i < m; ++i) {
        objs[i] = Find(keys[base + i]);
        if (objs[i] != nullptr) PrefetchBytes(objs[i], sizeof(Object));
      }
      for (size_t i = 0; i < m; ++i) {
        if (objs[i] == nullptr) continue;
        const VersionBase* v = objs[i]->head();
        if (v != nullptr) PrefetchBytes(v, kVersionPrefetchBytes);
      }
    }
  }

  /// Applies `fn(Object&)` to every data object (weakly consistent under
  /// concurrent inserts). Scans filter visibility per object themselves.
  template <typename Fn>
  void ForEachObject(Fn&& fn) const {
    index_.ForEach([&fn](const K&, Object* obj) { fn(*obj); });
  }

  /// Number of data objects ever created (including logically deleted and
  /// ghost rows from rolled-back inserts).
  size_t ObjectCount() const { return index_.Size(); }

  /// Whether this table's writes can be serialized into the redo log: the
  /// log is a memcpy format, so key and row must be trivially copyable.
  static constexpr bool kWalEncodable =
      std::is_trivially_copyable_v<K> && std::is_trivially_copyable_v<RowT>;

  uint32_t WalKeyBytes() const override {
    return kWalEncodable ? sizeof(K) : 0;
  }
  uint32_t WalRowBytes() const override {
    return kWalEncodable ? sizeof(RowT) : 0;
  }
  void WalEncodeKey(const VersionBase& v, void* out) const override {
    if constexpr (kWalEncodable) {
      std::memcpy(out, &static_cast<const Object*>(v.object())->key(),
                  sizeof(K));
    } else {
      (void)v;
      (void)out;
    }
  }
  void WalEncodeRow(const VersionBase& v, void* out) const override {
    if constexpr (kWalEncodable) {
      std::memcpy(out, &static_cast<const Version<RowT>&>(v).data(),
                  sizeof(RowT));
    } else {
      (void)v;
      (void)out;
    }
  }

  /// Approximate object-arena footprint (headers/keys only — the versions
  /// hanging off the chains live in the manager's VersionArena, whose
  /// held_bytes covers them). Reported by bench/overhead_memory.
  size_t ApproxObjectBytes() const {
    SpinLockGuard g(arena_lock_);
    return arena_.size() * sizeof(Object);
  }

 private:
  /// The head version's header (timestamp, chain link) and the start of
  /// its row: what a visible-version search and a first column read touch.
  static constexpr size_t kVersionPrefetchBytes =
      std::min<size_t>(sizeof(Version<RowT>), 2 * MV3C_CACHELINE_SIZE);

  Object* Allocate(const K& key) {
    SpinLockGuard g(arena_lock_);
    arena_.emplace_back(key);
    return &arena_.back();
  }

  CuckooMap<K, Object*> index_;
  mutable SpinLock arena_lock_;
  std::deque<Object> arena_ MV3C_GUARDED_BY(arena_lock_);
};

}  // namespace mv3c

#endif  // MV3C_MVCC_TABLE_H_
