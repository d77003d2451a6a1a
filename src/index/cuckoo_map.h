#ifndef MV3C_INDEX_CUCKOO_MAP_H_
#define MV3C_INDEX_CUCKOO_MAP_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "common/failpoint.h"
#include "common/macros.h"
#include "common/prefetch.h"
#include "common/spinlock.h"
#include "common/thread_safety.h"

namespace mv3c {

/// Concurrent bucketized cuckoo hash map with lock striping.
///
/// This is the primary-key index used by every MVCC table, modeled on the
/// concurrent cuckoo hashing design the paper cites for its table
/// implementation (§5, "each table is implemented as a concurrent cuckoo
/// hash-map of primary keys to data objects").
///
/// Design:
///   * Buckets hold kSlotsPerBucket (key, value) slots plus one occupancy
///     byte; each key has two candidate buckets derived from one hash
///     (partial-key cuckoo hashing: the alternate bucket follows from the
///     current one and the key's hash). Slots store no hash — eviction and
///     resize recompute it from the key, which keeps a uint64 -> pointer
///     slot at 16 bytes and a bucket at 72.
///   * A fixed array of spin locks is striped over buckets; operations lock
///     the (one or two) involved buckets in stripe order, so there is no
///     global lock on the fast path.
///   * Inserts displace entries along a BFS-discovered cuckoo path of
///     bounded depth; if no path exists the table doubles in size under a
///     full-table lock. Operations detect a concurrent resize by observing a
///     changed bucket mask after acquiring their stripe locks and retry.
///
/// Values are stored by value; MVCC tables store stable `DataObject*`
/// pointers so references handed out remain valid across resizes.
///
/// Thread safety: all public member functions are thread-safe. `ForEach` is
/// weakly consistent: it observes every entry present for the whole call and
/// may or may not observe concurrent inserts.
template <typename K, typename V, typename Hash = std::hash<K>>
class CuckooMap {
 public:
  static constexpr int kSlotsPerBucket = 4;

  /// Creates a map with capacity for roughly `initial_capacity` entries
  /// before the first resize.
  explicit CuckooMap(size_t initial_capacity = 1024) {
    size_t buckets = 16;
    while (buckets * kSlotsPerBucket < initial_capacity * 2) buckets <<= 1;
    buckets_.resize(buckets);
    bucket_mask_.store(buckets - 1, std::memory_order_relaxed);
    bucket_hint_.store(buckets_.data(), std::memory_order_relaxed);
  }

  CuckooMap(const CuckooMap&) = delete;
  CuckooMap& operator=(const CuckooMap&) = delete;

  /// Inserts (key, value). Returns false (and leaves the map unchanged) if
  /// the key is already present.
  [[nodiscard]] bool Insert(const K& key, const V& value)
      MV3C_EXCLUDES(evict_lock_) {
    const uint64_t h = HashOf(key);
    bool injected_retry = false;
    while (true) {
      if (!injected_retry &&
          failpoint::Evaluate(failpoint::Site::kCuckooInsert)) {
        // Injected spurious restart: behave as if a concurrent resize
        // invalidated the optimistic snapshot, exercising the retry path
        // without needing a real racing resize. One shot per call so an
        // always-firing config cannot livelock the insert.
        injected_retry = true;
        continue;
      }
      const size_t mask = Mask();
      const size_t b1 = h & mask;
      const size_t b2 = AltIndexOf(b1, h, mask);
      {
        TwoBucketGuard guard(this, b1, b2);
        if (Mask() != mask) continue;  // resized under us; recompute
        if (FindInBucket(b1, key) >= 0 || FindInBucket(b2, key) >= 0) {
          return false;
        }
        if (TryInsertIntoBucket(b1, key, value) ||
            TryInsertIntoBucket(b2, key, value)) {
          size_.fetch_add(1, std::memory_order_relaxed);
          return true;
        }
      }
      // Both candidate buckets are full: displace along a cuckoo path, or
      // grow the table if no short path exists.
      InsertResult r = InsertWithEviction(key, value, h);
      if (r == InsertResult::kInserted) {
        size_.fetch_add(1, std::memory_order_relaxed);
        return true;
      }
      if (r == InsertResult::kDuplicate) return false;
      if (r == InsertResult::kNeedResize) Resize(mask);
      // kRetry falls through to the top of the loop.
    }
  }

  /// Looks up `key`. Returns true and copies the value into `*out` if found.
  [[nodiscard]] bool Find(const K& key, V* out) const {
    const uint64_t h = HashOf(key);
    auto* self = const_cast<CuckooMap*>(this);
    while (true) {
      const size_t mask = Mask();
      const size_t b1 = h & mask;
      const size_t b2 = AltIndexOf(b1, h, mask);
      TwoBucketGuard guard(self, b1, b2);
      if (Mask() != mask) continue;
      int s = FindInBucket(b1, key);
      if (s >= 0) {
        *out = buckets_[b1].slots[s].value;
        return true;
      }
      s = FindInBucket(b2, key);
      if (s >= 0) {
        *out = buckets_[b2].slots[s].value;
        return true;
      }
      return false;
    }
  }

  /// Starts loading `key`'s two candidate buckets into the cache, so a
  /// following Find or Insert of it does not wait on memory. A hint, not a
  /// lookup: it takes no lock and reads no slot. The bucket array address
  /// comes from `bucket_hint_`, not `buckets_`, which a concurrent Resize
  /// replaces; a hint that trails a resize, or pairs with a newer mask,
  /// prefetches a stale or out-of-range address, which never faults.
  void Prefetch(const K& key) const {
    const uint64_t h = HashOf(key);
    const size_t mask = bucket_mask_.load(std::memory_order_relaxed);
    const uintptr_t base = reinterpret_cast<uintptr_t>(
        bucket_hint_.load(std::memory_order_relaxed));
    const size_t b1 = h & mask;
    const size_t b2 = AltIndexOf(b1, h, mask);
    PrefetchBytes(base + b1 * sizeof(Bucket), sizeof(Bucket));
    PrefetchBytes(base + b2 * sizeof(Bucket), sizeof(Bucket));
  }

  /// Returns true if `key` is present.
  [[nodiscard]] bool Contains(const K& key) const {
    V ignored;
    return Find(key, &ignored);
  }

  /// Removes `key`. Returns true if it was present.
  bool Erase(const K& key) {
    const uint64_t h = HashOf(key);
    while (true) {
      const size_t mask = Mask();
      const size_t b1 = h & mask;
      const size_t b2 = AltIndexOf(b1, h, mask);
      TwoBucketGuard guard(this, b1, b2);
      if (Mask() != mask) continue;
      for (size_t b : {b1, b2}) {
        const int s = FindInBucket(b, key);
        if (s >= 0) {
          buckets_[b].Vacate(s);
          size_.fetch_sub(1, std::memory_order_relaxed);
          return true;
        }
      }
      return false;
    }
  }

  /// Applies `fn(key, value)` to every entry. Weakly consistent under
  /// concurrent mutation (locks one bucket at a time).
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    auto* self = const_cast<CuckooMap*>(this);
    for (size_t b = 0;; ++b) {
      SpinLockGuard g(self->LockFor(b));
      if (b > Mask()) break;  // bucket count can only grow
      const Bucket& bucket = buckets_[b];
      for (int s = 0; s < kSlotsPerBucket; ++s) {
        if (bucket.Occupied(s)) fn(bucket.slots[s].key, bucket.slots[s].value);
      }
    }
  }

  /// Number of entries currently stored.
  size_t Size() const { return size_.load(std::memory_order_relaxed); }

  /// Number of buckets (kSlotsPerBucket slots each); exposed for tests.
  size_t BucketCount() const { return Mask() + 1; }

 private:
  struct Slot {
    K key{};
    V value{};
  };
  struct Bucket {
    Slot slots[kSlotsPerBucket];
    uint8_t occupied = 0;  // bit s set iff slots[s] holds an entry

    bool Occupied(int s) const { return (occupied >> s) & 1u; }
    void Fill(int s) { occupied |= static_cast<uint8_t>(1u << s); }
    void Vacate(int s) { occupied &= static_cast<uint8_t>(~(1u << s)); }
  };
  static_assert(kSlotsPerBucket <= 8, "occupancy is one byte per bucket");

  enum class InsertResult { kInserted, kDuplicate, kNeedResize, kRetry };

  /// Finalizing mixer (splitmix64): the map cannot trust the user hash to
  /// spread entropy — std::hash for integers is the identity on common
  /// implementations, and composite keys packed into integers often carry
  /// all their entropy in the high bits while bucket selection uses the
  /// low ones (without mixing, such keys pile onto one bucket pair and
  /// resizing can never separate them).
  static uint64_t MixHash(uint64_t x) {
    x ^= x >> 30;
    x *= 0xBF58476D1CE4E5B9ULL;
    x ^= x >> 27;
    x *= 0x94D049BB133111EBULL;
    x ^= x >> 31;
    return x;
  }

  uint64_t HashOf(const K& key) const { return MixHash(hasher_(key)); }

  static constexpr size_t kNumLocks = 1 << 12;
  static constexpr int kMaxBfsNodes = 256;

  size_t Mask() const { return bucket_mask_.load(std::memory_order_acquire); }

  SpinLock& LockFor(size_t bucket) const {
    return locks_[bucket & (kNumLocks - 1)];
  }

  /// Locks the stripe locks of two buckets in stripe order (deduplicating a
  /// shared stripe) and releases them on destruction.
  /// The stripe pair is chosen dynamically (bucket index modulo the stripe
  /// count, deduplicated and ordered), so the acquisitions are invisible to
  /// the static analysis: clang capabilities must be named expressions, and
  /// `locks_[l1_]`/`locks_[l2_]` resolve only at run time. The guard's
  /// lock/unlock pairing is structural (RAII + the held_ flag); the
  /// discipline itself is exercised dynamically by the TSan chaos suite
  /// (tests/chaos_serializability_test.cc) and tests/index_test.cc.
  class TwoBucketGuard {
   public:
    TwoBucketGuard(CuckooMap* map, size_t b1, size_t b2)
        MV3C_NO_THREAD_SAFETY_ANALYSIS : map_(map) {
      l1_ = b1 & (kNumLocks - 1);
      l2_ = b2 & (kNumLocks - 1);
      if (l1_ > l2_) std::swap(l1_, l2_);
      map_->locks_[l1_].lock();
      if (l2_ != l1_) map_->locks_[l2_].lock();
    }
    ~TwoBucketGuard() { Release(); }
    void Release() MV3C_NO_THREAD_SAFETY_ANALYSIS {
      if (!held_) return;
      if (l2_ != l1_) map_->locks_[l2_].unlock();
      map_->locks_[l1_].unlock();
      held_ = false;
    }

   private:
    CuckooMap* map_;
    size_t l1_, l2_;
    bool held_ = true;
  };

  /// Partial-key cuckoo hashing: the alternate bucket is derived from the
  /// current bucket and the key's hash alone (eviction and resize rehash
  /// the stored key). xor keeps the mapping an involution.
  static size_t AltIndexOf(size_t index, uint64_t h, size_t mask) {
    const uint64_t tag = (h >> 32) | 1;
    return (index ^ (tag * 0x5BD1E995ULL)) & mask;
  }

  int FindInBucket(size_t b, const K& key) const {
    const Bucket& bucket = buckets_[b];
    for (int s = 0; s < kSlotsPerBucket; ++s) {
      if (bucket.Occupied(s) && bucket.slots[s].key == key) return s;
    }
    return -1;
  }

  bool TryInsertIntoBucket(size_t b, const K& key, const V& value) {
    Bucket& bucket = buckets_[b];
    for (int s = 0; s < kSlotsPerBucket; ++s) {
      if (!bucket.Occupied(s)) {
        bucket.Fill(s);
        bucket.slots[s].key = key;
        bucket.slots[s].value = value;
        return true;
      }
    }
    return false;
  }

  /// One node of the BFS displacement search: (bucket, slot) whose occupant
  /// would move to its alternate bucket.
  struct PathEntry {
    size_t bucket;
    int slot;
    int parent;  // index into the BFS frontier, -1 for roots
  };

  /// Attempts to make room by evicting along a BFS path of bounded size,
  /// then inserts. Serialized by `evict_lock_` (evictions are rare); bucket
  /// locks are still taken for each displacement so readers stay correct.
  InsertResult InsertWithEviction(const K& key, const V& value, uint64_t h)
      MV3C_EXCLUDES(evict_lock_) {
    SpinLockGuard evict_guard(evict_lock_);
    const size_t mask = Mask();
    const size_t b1 = h & mask;
    const size_t b2 = AltIndexOf(b1, h, mask);

    // BFS over displacement candidates starting from both home buckets.
    std::vector<PathEntry> frontier;
    frontier.reserve(kMaxBfsNodes + 2 * kSlotsPerBucket);
    for (size_t b : {b1, b2}) {
      for (int s = 0; s < kSlotsPerBucket; ++s) {
        frontier.push_back({b, s, -1});
      }
    }
    int found = -1;
    for (size_t head = 0;
         head < frontier.size() && frontier.size() < kMaxBfsNodes; ++head) {
      const PathEntry e = frontier[head];
      size_t target;
      {
        SpinLockGuard g(LockFor(e.bucket));
        if (Mask() != mask) return InsertResult::kRetry;
        const Bucket& bucket = buckets_[e.bucket];
        if (!bucket.Occupied(e.slot)) {
          found = static_cast<int>(head);
          break;
        }
        target = AltIndexOf(e.bucket, HashOf(bucket.slots[e.slot].key), mask);
      }
      {
        SpinLockGuard g(LockFor(target));
        if (Mask() != mask) return InsertResult::kRetry;
        bool has_free = false;
        for (int s = 0; s < kSlotsPerBucket; ++s) {
          if (!buckets_[target].Occupied(s)) {
            frontier.push_back({target, s, static_cast<int>(head)});
            found = static_cast<int>(frontier.size()) - 1;
            has_free = true;
            break;
          }
        }
        if (!has_free) {
          for (int s = 0; s < kSlotsPerBucket; ++s) {
            frontier.push_back({target, s, static_cast<int>(head)});
          }
        }
      }
      if (found >= 0) break;
    }
    if (found < 0) return InsertResult::kNeedResize;

    // Walk the path backwards, moving occupants one hop towards the free
    // slot. Each hop locks the pair of buckets involved.
    int cur = found;
    while (frontier[cur].parent >= 0) {
      const PathEntry& dst = frontier[cur];
      const PathEntry& src = frontier[frontier[cur].parent];
      TwoBucketGuard g(this, src.bucket, dst.bucket);
      if (Mask() != mask) return InsertResult::kRetry;
      Bucket& from = buckets_[src.bucket];
      Bucket& to = buckets_[dst.bucket];
      if (to.Occupied(dst.slot) || !from.Occupied(src.slot) ||
          AltIndexOf(src.bucket, HashOf(from.slots[src.slot].key), mask) !=
              dst.bucket) {
        // A concurrent erase/insert changed the landscape; retry outside.
        return InsertResult::kRetry;
      }
      to.slots[dst.slot] = from.slots[src.slot];
      to.Fill(dst.slot);
      from.Vacate(src.slot);
      cur = frontier[cur].parent;
    }
    // The root slot (in one of the home buckets) is now free.
    const PathEntry& root = frontier[cur];
    TwoBucketGuard g(this, b1, b2);
    if (Mask() != mask) return InsertResult::kRetry;
    if (FindInBucket(b1, key) >= 0 || FindInBucket(b2, key) >= 0) {
      return InsertResult::kDuplicate;
    }
    Bucket& bucket = buckets_[root.bucket];
    if (bucket.Occupied(root.slot)) return InsertResult::kRetry;
    bucket.Fill(root.slot);
    bucket.slots[root.slot].key = key;
    bucket.slots[root.slot].value = value;
    return InsertResult::kInserted;
  }

  /// Doubles the bucket array under the eviction lock plus every stripe
  /// lock. No-op if another thread already resized past `observed_mask`.
  /// Analysis suppressed: the all-stripes acquisition loop (and its two
  /// reverse-release exits) iterates over an array of capabilities, which
  /// the static analysis cannot enumerate; callers still get the
  /// EXCLUDES(evict_lock_) self-deadlock check.
  void Resize(size_t observed_mask)
      MV3C_EXCLUDES(evict_lock_) MV3C_NO_THREAD_SAFETY_ANALYSIS {
    SpinLockGuard evict_guard(evict_lock_);
    for (size_t i = 0; i < kNumLocks; ++i) locks_[i].lock();
    if (Mask() != observed_mask) {
      for (size_t i = kNumLocks; i-- > 0;) locks_[i].unlock();
      return;
    }
    // Split rule: doubling keeps bucket j's low bits, so a key held in old
    // bucket j can land only in j or j + n. Placing it by the role it had
    // there (home when (h & old_mask) == j, alternate otherwise) sends it
    // to the one of those two that is its new home or new alternate. Every
    // new bucket then takes keys from exactly one old bucket, at most
    // kSlotsPerBucket of them, so placement cannot fail and the table grows
    // exactly 2x.
    std::vector<Bucket> old = std::move(buckets_);
    buckets_.assign(2 * old.size(), Bucket{});
    const size_t new_mask = buckets_.size() - 1;
    for (size_t j = 0; j < old.size(); ++j) {
      const Bucket& bucket = old[j];
      for (int s = 0; s < kSlotsPerBucket; ++s) {
        if (!bucket.Occupied(s)) continue;
        const Slot& slot = bucket.slots[s];
        const uint64_t h = HashOf(slot.key);
        const size_t home = h & new_mask;
        const size_t target = (h & observed_mask) == j
                                  ? home
                                  : AltIndexOf(home, h, new_mask);
        MV3C_CHECK(TryInsertIntoBucket(target, slot.key, slot.value));
      }
    }
    bucket_hint_.store(buckets_.data(), std::memory_order_relaxed);
    bucket_mask_.store(buckets_.size() - 1, std::memory_order_release);
    for (size_t i = kNumLocks; i-- > 0;) locks_[i].unlock();
  }

  const Hash hasher_{};
  /// Guarded by the *stripe set*: a slot in bucket b may be touched only
  /// with LockFor(b) held (or every stripe, during Resize). Striping is a
  /// dynamic discipline clang capabilities cannot name, so there is no
  /// MV3C_GUARDED_BY here; see TwoBucketGuard for the dynamic coverage.
  // mv3c-lint: allow(guarded_by_coverage)
  std::vector<Bucket> buckets_;
  std::atomic<size_t> bucket_mask_;
  /// `buckets_.data()`, republished by every Resize, for Prefetch alone:
  /// a prefetch may use an address that is already stale, but reading the
  /// vector itself without a stripe lock would race with Resize.
  std::atomic<const Bucket*> bucket_hint_{nullptr};
  mutable SpinLock locks_[kNumLocks];
  SpinLock evict_lock_;
  std::atomic<size_t> size_{0};
};

}  // namespace mv3c

#endif  // MV3C_INDEX_CUCKOO_MAP_H_
