#ifndef MV3C_INDEX_ORDERED_INDEX_H_
#define MV3C_INDEX_ORDERED_INDEX_H_

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>

#include "common/macros.h"
#include "common/spinlock.h"
#include "common/thread_safety.h"

namespace mv3c {

/// Partition extractor that maps every key to one partition; usable when an
/// index is small or scanned rarely enough that sharding does not pay off.
struct SinglePartition {
  template <typename K>
  size_t operator()(const K&) const {
    return 0;
  }
};

namespace detail {

/// B+-tree map from K to V; not thread-safe (an OrderedIndex shard lock
/// guards each one). Keys need only `operator<`; K and V must be
/// default-constructible and are copied.
///
/// Leaves are sorted arrays of up to kLeafSlots keys with their values in a
/// parallel array, doubly linked in key order, so a scan binary-searches one
/// leaf and then walks arrays. Inner nodes hold up to kInnerSlots children
/// and the sorted separators between them: child i covers
/// [keys[i-1], keys[i]). Every node is a plain `new`.
///
/// Split rules: a full node splits in half, except that an insert past the
/// last key of the rightmost leaf starts a new leaf holding only that key
/// (and the inner splits above it start new right-spine nodes the same way),
/// so indexes filled in ascending key order stay packed. Erase never merges:
/// a leaf may stay underfull, an emptied leaf is unlinked and freed, an
/// emptied inner node is freed, and a root left with one child is replaced
/// by that child. Each insert and erase visits one node per level and moves
/// entries within one node per level.
template <typename K, typename V>
class BPlusTree {
 public:
  static constexpr int kLeafSlots = 64;
  static constexpr int kInnerSlots = 64;

  BPlusTree() = default;
  BPlusTree(const BPlusTree&) = delete;
  BPlusTree& operator=(const BPlusTree&) = delete;
  ~BPlusTree() {
    if (root_ != nullptr) Free(root_, height_);
  }

  size_t size() const { return size_; }
  /// Inner levels above the leaves (0: the root is a leaf).
  int height() const { return height_; }

  /// Inserts (key, value); returns false if the key already exists.
  bool Insert(const K& key, const V& value) {
    if (root_ == nullptr) root_ = last_ = new Leaf;
    Path path;
    Leaf* leaf = Descend(key, &path);
    const int pos = LowerBound(leaf, key);
    if (pos < leaf->count && !(key < leaf->keys[pos])) return false;
    ++size_;
    if (leaf->count < kLeafSlots) {
      PutAt(leaf, pos, key, value);
      return true;
    }
    Leaf* right = new Leaf;
    const bool append = leaf == last_ && pos == leaf->count;
    if (append) {
      PutAt(right, 0, key, value);
    } else {
      constexpr int kHalf = kLeafSlots / 2;
      std::copy(leaf->keys + kHalf, leaf->keys + kLeafSlots, right->keys);
      std::copy(leaf->vals + kHalf, leaf->vals + kLeafSlots, right->vals);
      leaf->count = kHalf;
      right->count = kLeafSlots - kHalf;
      if (pos <= kHalf) {
        PutAt(leaf, pos, key, value);
      } else {
        PutAt(right, pos - kHalf, key, value);
      }
    }
    right->prev = leaf;
    right->next = leaf->next;
    if (leaf->next != nullptr) {
      leaf->next->prev = right;
    } else {
      last_ = right;
    }
    leaf->next = right;
    AddChild(path, right->keys[0], right, append);
    return true;
  }

  /// Removes `key`; returns true if it was present.
  bool Erase(const K& key) {
    if (root_ == nullptr) return false;
    Path path;
    Leaf* leaf = Descend(key, &path);
    const int pos = LowerBound(leaf, key);
    if (pos == leaf->count || key < leaf->keys[pos]) return false;
    std::copy(leaf->keys + pos + 1, leaf->keys + leaf->count,
              leaf->keys + pos);
    std::copy(leaf->vals + pos + 1, leaf->vals + leaf->count,
              leaf->vals + pos);
    --leaf->count;
    --size_;
    if (leaf->count > 0 || height_ == 0) return true;
    if (leaf->prev != nullptr) leaf->prev->next = leaf->next;
    if (leaf->next != nullptr) {
      leaf->next->prev = leaf->prev;
    } else {
      last_ = leaf->prev;
    }
    delete leaf;
    // Drop the freed child from its parent, and any inner node that thereby
    // loses its last child from its own parent. The root keeps >= 2
    // children (see below), so the loop stops at or before it.
    for (int d = height_ - 1; d >= 0; --d) {
      Inner* in = path.nodes[d];
      RemoveChild(in, path.slots[d]);
      if (in->count > 0) break;
      MV3C_DCHECK(d > 0);
      delete in;
    }
    while (height_ > 0 && AsInner(root_)->count == 1) {
      Inner* old = AsInner(root_);
      root_ = old->children[0];
      delete old;
      --height_;
    }
    return true;
  }

  /// Returns the value stored under `key`, or nullptr.
  const V* Find(const K& key) const {
    if (root_ == nullptr) return nullptr;
    const Leaf* leaf = FindLeaf(key);
    const int pos = LowerBound(leaf, key);
    if (pos == leaf->count || key < leaf->keys[pos]) return nullptr;
    return &leaf->vals[pos];
  }

  /// Applies `fn(key, value) -> bool` to the entries in [lo, hi] in key
  /// order until fn returns false.
  template <typename Fn>
  void Scan(const K& lo, const K& hi, Fn& fn) const {
    if (root_ == nullptr) return;
    const Leaf* leaf = FindLeaf(lo);
    for (int pos = LowerBound(leaf, lo); leaf != nullptr;
         leaf = leaf->next, pos = 0) {
      for (; pos < leaf->count; ++pos) {
        if (hi < leaf->keys[pos]) return;
        if (!fn(leaf->keys[pos], leaf->vals[pos])) return;
      }
    }
  }

  /// As Scan, in reverse key order.
  template <typename Fn>
  void ScanReverse(const K& lo, const K& hi, Fn& fn) const {
    if (root_ == nullptr) return;
    const Leaf* leaf = FindLeaf(hi);
    int pos = static_cast<int>(
        std::upper_bound(leaf->keys, leaf->keys + leaf->count, hi) -
        leaf->keys);
    while (leaf != nullptr) {
      while (pos > 0) {
        --pos;
        if (leaf->keys[pos] < lo) return;
        if (!fn(leaf->keys[pos], leaf->vals[pos])) return;
      }
      leaf = leaf->prev;
      if (leaf != nullptr) pos = leaf->count;
    }
  }

 private:
  /// Deep enough for any reachable tree: the root gains a level only when
  /// it is full, so a height-h tree has seen more than 32^(h-1) inserts.
  static constexpr int kMaxHeight = 16;

  struct Node {
    int count = 0;  // entries in a leaf, children in an inner node
  };
  struct Leaf : Node {
    Leaf* prev = nullptr;
    Leaf* next = nullptr;
    K keys[kLeafSlots];
    V vals[kLeafSlots];
  };
  struct Inner : Node {
    K keys[kInnerSlots - 1];
    Node* children[kInnerSlots];
  };
  /// The inner nodes a descent passed, root first, and the child index it
  /// took in each.
  struct Path {
    Inner* nodes[kMaxHeight];
    int slots[kMaxHeight];
  };

  static Inner* AsInner(Node* n) { return static_cast<Inner*>(n); }

  static int ChildIndex(const Inner* in, const K& key) {
    return static_cast<int>(
        std::upper_bound(in->keys, in->keys + in->count - 1, key) - in->keys);
  }
  static int LowerBound(const Leaf* leaf, const K& key) {
    return static_cast<int>(
        std::lower_bound(leaf->keys, leaf->keys + leaf->count, key) -
        leaf->keys);
  }

  const Leaf* FindLeaf(const K& key) const {
    const Node* n = root_;
    for (int level = height_; level > 0; --level) {
      const Inner* in = static_cast<const Inner*>(n);
      n = in->children[ChildIndex(in, key)];
    }
    return static_cast<const Leaf*>(n);
  }

  Leaf* Descend(const K& key, Path* path) {
    Node* n = root_;
    for (int d = 0; d < height_; ++d) {
      Inner* in = AsInner(n);
      const int i = ChildIndex(in, key);
      path->nodes[d] = in;
      path->slots[d] = i;
      n = in->children[i];
    }
    return static_cast<Leaf*>(n);
  }

  static void PutAt(Leaf* leaf, int pos, const K& key, const V& value) {
    std::copy_backward(leaf->keys + pos, leaf->keys + leaf->count,
                       leaf->keys + leaf->count + 1);
    std::copy_backward(leaf->vals + pos, leaf->vals + leaf->count,
                       leaf->vals + leaf->count + 1);
    leaf->keys[pos] = key;
    leaf->vals[pos] = value;
    ++leaf->count;
  }

  /// Inserts `child` (whose smallest key is `sep`) right after the child
  /// the descent took at the deepest inner level, splitting full inner
  /// nodes upward and growing a new root if the old one splits.
  void AddChild(const Path& path, K sep, Node* child, bool append) {
    for (int d = height_ - 1; d >= 0; --d) {
      Inner* in = path.nodes[d];
      const int i = path.slots[d];
      if (in->count < kInnerSlots) {
        PutChild(in, i, sep, child);
        return;
      }
      Inner* right = new Inner;
      MV3C_DCHECK(!append || i + 1 == in->count);
      if (append) {
        right->children[0] = child;
        right->count = 1;
      } else {
        // Lay out the kInnerSlots + 1 children (and their separators) the
        // insert produces, then split them in half; the middle separator
        // moves up.
        K keys[kInnerSlots];
        Node* children[kInnerSlots + 1];
        std::copy(in->keys, in->keys + i, keys);
        keys[i] = sep;
        std::copy(in->keys + i, in->keys + kInnerSlots - 1, keys + i + 1);
        std::copy(in->children, in->children + i + 1, children);
        children[i + 1] = child;
        std::copy(in->children + i + 1, in->children + kInnerSlots,
                  children + i + 2);
        constexpr int kLeft = (kInnerSlots + 2) / 2;
        constexpr int kRight = kInnerSlots + 1 - kLeft;
        std::copy(keys, keys + kLeft - 1, in->keys);
        std::copy(children, children + kLeft, in->children);
        in->count = kLeft;
        std::copy(keys + kLeft, keys + kInnerSlots, right->keys);
        std::copy(children + kLeft, children + kInnerSlots + 1,
                  right->children);
        right->count = kRight;
        sep = keys[kLeft - 1];
      }
      child = right;
    }
    MV3C_CHECK(height_ + 1 < kMaxHeight);
    Inner* root = new Inner;
    root->children[0] = root_;
    root->children[1] = child;
    root->keys[0] = sep;
    root->count = 2;
    root_ = root;
    ++height_;
  }

  static void PutChild(Inner* in, int i, const K& sep, Node* child) {
    std::copy_backward(in->keys + i, in->keys + in->count - 1,
                       in->keys + in->count);
    std::copy_backward(in->children + i + 1, in->children + in->count,
                       in->children + in->count + 1);
    in->keys[i] = sep;
    in->children[i + 1] = child;
    ++in->count;
  }

  /// Removes child i and one adjacent separator; the left neighbour (or,
  /// for child 0, the right one) takes over its key range.
  static void RemoveChild(Inner* in, int i) {
    std::copy(in->children + i + 1, in->children + in->count,
              in->children + i);
    if (in->count > 1) {
      const int k = i > 0 ? i - 1 : 0;
      std::copy(in->keys + k + 1, in->keys + in->count - 1, in->keys + k);
    }
    --in->count;
  }

  static void Free(Node* n, int level) {
    if (level == 0) {
      delete static_cast<Leaf*>(n);
      return;
    }
    Inner* in = AsInner(n);
    for (int i = 0; i < in->count; ++i) Free(in->children[i], level - 1);
    delete in;
  }

  Node* root_ = nullptr;
  Leaf* last_ = nullptr;  // rightmost leaf: the append-split test
  int height_ = 0;  // inner levels above the leaves
  size_t size_ = 0;
};

}  // namespace detail

/// Concurrent ordered secondary index, sharded by a key-prefix partition.
///
/// TPC-C needs ordered access paths the primary-key cuckoo index cannot
/// serve: customers by (w, d, last-name), orders by (w, d, c, o-id desc),
/// the oldest undelivered NEW-ORDER per (w, d), and recent order-lines for
/// STOCK-LEVEL. All of these scans are confined to one logical partition
/// (a warehouse/district prefix of the composite key), which this index
/// exploits: keys are sharded by `Partition(key)` and a range scan may only
/// span keys with `Partition(lo) == Partition(hi)`. Each shard is a
/// B+-tree (detail::BPlusTree) under the shard's spinlock.
///
/// Every shard carries a structural version counter, bumped on insert and
/// erase. Single-version engines (OCC, SILO) validate scans against it to
/// detect phantoms; the MVCC engines do not need it (phantoms are caught by
/// predicate matching against concurrently committed versions).
///
/// Thread safety: all operations are thread-safe; scans hold the shard lock
/// for their duration, so scan bodies must be short and must not touch the
/// same index.
template <typename K, typename V, typename Partition, size_t kNumShards = 64>
class OrderedIndex {
 public:
  using KeyType = K;
  using ValueType = V;

  OrderedIndex() = default;
  OrderedIndex(const OrderedIndex&) = delete;
  OrderedIndex& operator=(const OrderedIndex&) = delete;

  /// Inserts (key, value); returns false if the key already exists.
  [[nodiscard]] bool Insert(const K& key, const V& value) {
    Shard& shard = ShardFor(key);
    SpinLockGuard g(shard.lock);
    const bool inserted = shard.tree.Insert(key, value);
    if (inserted) shard.version.fetch_add(1, std::memory_order_release);
    return inserted;
  }

  /// Removes `key`; returns true if it was present.
  bool Erase(const K& key) {
    Shard& shard = ShardFor(key);
    SpinLockGuard g(shard.lock);
    const bool erased = shard.tree.Erase(key);
    if (erased) shard.version.fetch_add(1, std::memory_order_release);
    return erased;
  }

  /// Looks up `key`; returns true and fills `*out` if found.
  [[nodiscard]] bool Find(const K& key, V* out) const {
    const Shard& shard = ShardFor(key);
    SpinLockGuard g(shard.lock);
    const V* v = shard.tree.Find(key);
    if (v == nullptr) return false;
    *out = *v;
    return true;
  }

  /// Applies `fn(key, value) -> bool` to entries in [lo, hi] in key order,
  /// stopping early when fn returns false. lo and hi must belong to the
  /// same partition.
  template <typename Fn>
  void ScanRange(const K& lo, const K& hi, Fn&& fn) const {
    MV3C_DCHECK(partition_(lo) == partition_(hi));
    const Shard& shard = ShardFor(lo);
    SpinLockGuard g(shard.lock);
    shard.tree.Scan(lo, hi, fn);
  }

  /// Applies `fn(key, value) -> bool` to entries in [lo, hi] in REVERSE key
  /// order, stopping early when fn returns false. Same partition rule.
  template <typename Fn>
  void ScanRangeReverse(const K& lo, const K& hi, Fn&& fn) const {
    MV3C_DCHECK(partition_(lo) == partition_(hi));
    const Shard& shard = ShardFor(lo);
    SpinLockGuard g(shard.lock);
    shard.tree.ScanReverse(lo, hi, fn);
  }

  /// Returns the structural version of the shard holding `key`'s partition.
  uint64_t ShardVersion(const K& key) const {
    return ShardFor(key).version.load(std::memory_order_acquire);
  }

  /// Reference to the shard's version counter, for engines that register
  /// it in a validation node set (OCC/SILO phantom detection).
  const std::atomic<uint64_t>& ShardVersionRef(const K& key) const {
    return ShardFor(key).version;
  }

  /// Total number of entries (linearizable only when quiescent).
  size_t Size() const {
    size_t n = 0;
    for (const Shard& s : shards_) {
      SpinLockGuard g(s.lock);
      n += s.tree.size();
    }
    return n;
  }

 private:
  struct Shard {
    mutable SpinLock lock;
    /// Guarded: every structural read and write of the tree goes through
    /// the shard lock; `version` stays an atomic because OCC/SILO read it
    /// lock-free during validation.
    detail::BPlusTree<K, V> tree MV3C_GUARDED_BY(lock);
    std::atomic<uint64_t> version{0};
  };

  Shard& ShardFor(const K& key) {
    return shards_[partition_(key) % kNumShards];
  }
  const Shard& ShardFor(const K& key) const {
    return shards_[partition_(key) % kNumShards];
  }

  Partition partition_;
  Shard shards_[kNumShards];
};

}  // namespace mv3c

#endif  // MV3C_INDEX_ORDERED_INDEX_H_
