// Property and stress tests for the index substrates: the concurrent
// cuckoo hash map (primary-key index, §5), the tables' group prefetch
// over it, and the partitioned ordered index (TPC-C secondary access
// paths). Randomized operation sequences are
// checked against std:: reference models.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <iterator>
#include <map>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/random.h"
#include "index/cuckoo_map.h"
#include "index/ordered_index.h"
#include "mvcc/table.h"
#include "mvcc/transaction.h"
#include "mvcc/transaction_manager.h"
#include "sv/sv_table.h"

namespace mv3c {
namespace {

TEST(CuckooMapTest, InsertFindErase) {
  CuckooMap<uint64_t, int> map(16);
  EXPECT_TRUE(map.Insert(1, 10));
  EXPECT_TRUE(map.Insert(2, 20));
  EXPECT_FALSE(map.Insert(1, 99));  // duplicate
  int v = 0;
  EXPECT_TRUE(map.Find(1, &v));
  EXPECT_EQ(v, 10);
  EXPECT_TRUE(map.Find(2, &v));
  EXPECT_EQ(v, 20);
  EXPECT_FALSE(map.Find(3, &v));
  EXPECT_TRUE(map.Erase(1));
  EXPECT_FALSE(map.Erase(1));
  EXPECT_FALSE(map.Find(1, &v));
  EXPECT_EQ(map.Size(), 1u);
}

TEST(CuckooMapTest, GrowsPastInitialCapacity) {
  CuckooMap<uint64_t, uint64_t> map(4);
  const size_t initial_buckets = map.BucketCount();
  for (uint64_t i = 0; i < 10000; ++i) {
    ASSERT_TRUE(map.Insert(i, i * 3));
  }
  EXPECT_GT(map.BucketCount(), initial_buckets);
  EXPECT_EQ(map.Size(), 10000u);
  for (uint64_t i = 0; i < 10000; ++i) {
    uint64_t v = 0;
    ASSERT_TRUE(map.Find(i, &v)) << i;
    ASSERT_EQ(v, i * 3);
  }
}

TEST(CuckooMapTest, ForEachVisitsEveryEntry) {
  CuckooMap<uint64_t, uint64_t> map(64);
  for (uint64_t i = 0; i < 500; ++i) ASSERT_TRUE(map.Insert(i, i));
  uint64_t count = 0, sum = 0;
  map.ForEach([&](uint64_t k, uint64_t v) {
    ++count;
    sum += v;
  });
  EXPECT_EQ(count, 500u);
  EXPECT_EQ(sum, 499u * 500 / 2);
}

// Randomized differential test against std::unordered_map.
class CuckooMapRandomTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CuckooMapRandomTest, MatchesReferenceModel) {
  Xoshiro256 rng(GetParam());
  CuckooMap<uint64_t, uint64_t> map(8);
  std::unordered_map<uint64_t, uint64_t> ref;
  for (int op = 0; op < 20000; ++op) {
    const uint64_t key = rng.NextBounded(2000);
    switch (rng.NextBounded(3)) {
      case 0: {
        const uint64_t val = rng.Next();
        const bool inserted = map.Insert(key, val);
        const bool ref_inserted = ref.emplace(key, val).second;
        ASSERT_EQ(inserted, ref_inserted);
        break;
      }
      case 1: {
        uint64_t v = 0;
        const bool found = map.Find(key, &v);
        auto it = ref.find(key);
        ASSERT_EQ(found, it != ref.end());
        if (found) {
          ASSERT_EQ(v, it->second);
        }
        break;
      }
      case 2: {
        ASSERT_EQ(map.Erase(key), ref.erase(key) > 0);
        break;
      }
    }
  }
  ASSERT_EQ(map.Size(), ref.size());
  size_t visited = 0;
  map.ForEach([&](uint64_t k, uint64_t v) {
    ++visited;
    auto it = ref.find(k);
    ASSERT_NE(it, ref.end());
    ASSERT_EQ(v, it->second);
  });
  ASSERT_EQ(visited, ref.size());
}

INSTANTIATE_TEST_SUITE_P(Seeds, CuckooMapRandomTest,
                         ::testing::Values(1, 2, 3, 17, 1234567));

TEST(CuckooMapTest, ConcurrentInsertsAndReads) {
  CuckooMap<uint64_t, uint64_t> map(128);
  constexpr int kThreads = 4;
  constexpr uint64_t kPerThread = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&map, t] {
      for (uint64_t i = 0; i < kPerThread; ++i) {
        const uint64_t key = static_cast<uint64_t>(t) * kPerThread + i;
        ASSERT_TRUE(map.Insert(key, key + 1));
        uint64_t v = 0;
        ASSERT_TRUE(map.Find(key, &v));
        ASSERT_EQ(v, key + 1);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(map.Size(), kThreads * kPerThread);
  for (uint64_t key = 0; key < kThreads * kPerThread; ++key) {
    uint64_t v = 0;
    ASSERT_TRUE(map.Find(key, &v));
    ASSERT_EQ(v, key + 1);
  }
}

TEST(CuckooMapTest, ConcurrentMixedWorkloadKeepsDisjointKeySpacesIntact) {
  CuckooMap<uint64_t, uint64_t> map(64);
  constexpr int kThreads = 4;
  std::vector<std::thread> threads;
  std::atomic<bool> failed{false};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Xoshiro256 rng(t + 1);
      std::unordered_map<uint64_t, uint64_t> ref;
      const uint64_t base = static_cast<uint64_t>(t) << 32;
      for (int op = 0; op < 30000 && !failed; ++op) {
        const uint64_t key = base + rng.NextBounded(512);
        switch (rng.NextBounded(3)) {
          case 0: {
            const bool i1 = map.Insert(key, key);
            const bool i2 = ref.emplace(key, key).second;
            if (i1 != i2) failed = true;
            break;
          }
          case 1: {
            uint64_t v;
            if (map.Find(key, &v) != (ref.count(key) > 0)) failed = true;
            break;
          }
          case 2: {
            if (map.Erase(key) != (ref.erase(key) > 0)) failed = true;
            break;
          }
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_FALSE(failed.load());
}

// Regression: keys whose entropy is exclusively in the HIGH bits (packed
// composite keys, e.g. TPC-C's (w,d,o,ol) encoding) must still spread over
// buckets. With an identity std::hash and no internal mixing, every such
// key selects the same bucket pair and the map resizes forever once the
// pair overflows.
TEST(CuckooMapTest, HighBitOnlyKeysDoNotCollapse) {
  CuckooMap<uint64_t, uint64_t> map(1 << 10);
  for (uint64_t d = 0; d < 32; ++d) {
    for (uint64_t o = 0; o < 64; ++o) {
      const uint64_t key = (d << 28) * 16 + o * 16;  // low bits repeat
      ASSERT_TRUE(map.Insert(key, d * 1000 + o)) << d << "," << o;
    }
  }
  EXPECT_EQ(map.Size(), 32u * 64u);
  // The table must not have ballooned: 2048 entries fit comfortably in a
  // few thousand buckets.
  EXPECT_LE(map.BucketCount(), 1u << 14);
  uint64_t v = 0;
  ASSERT_TRUE(map.Find((7ULL << 28) * 16 + 5 * 16, &v));
  EXPECT_EQ(v, 7005u);
}

// Regression: a resize grows the table exactly 2x. Resizes trigger near
// 90% load, where a greedy rehash into a 2x table finds both home buckets
// of ~a thousand keys full; the old fallback doubled again until every key
// fit, so a large table grew 8x in one step (TPC-C's order_line index:
// 9 -> 72 MiB). Each key now keeps the role (home or alternate) it had, so
// a new bucket receives keys from exactly one old bucket and never
// overflows.
TEST(CuckooMapTest, ResizeExactlyDoubles) {
  for (const size_t capacity : {size_t{1} << 10, size_t{1} << 14}) {
    CuckooMap<uint64_t, uint64_t> map(capacity);
    size_t buckets = map.BucketCount();
    size_t resizes = 0;
    const uint64_t n = 8 * capacity;
    for (uint64_t i = 0; i < n; ++i) {
      const uint64_t key = i * 0x9E3779B97F4A7C15ULL;
      ASSERT_TRUE(map.Insert(key, i));
      if (map.BucketCount() != buckets) {
        ASSERT_EQ(map.BucketCount(), 2 * buckets)
            << "capacity " << capacity << ", resize " << resizes
            << " at size " << map.Size();
        buckets = map.BucketCount();
        ++resizes;
      }
    }
    EXPECT_GE(resizes, 2u) << "capacity " << capacity;
    EXPECT_EQ(map.Size(), n);
    for (uint64_t i = 0; i < n; ++i) {
      uint64_t v = 0;
      ASSERT_TRUE(map.Find(i * 0x9E3779B97F4A7C15ULL, &v)) << i;
      ASSERT_EQ(v, i);
    }
  }
}

// ---------------------------------------------------------------------------
// Prefetch: a read hint over the cuckoo index, never a read
// ---------------------------------------------------------------------------

struct PrefetchRow {
  uint64_t value = 0;
};

// A prefetch takes no lock, so it can meet a Resize mid-flight: it reads
// the bucket array's address from an atomic hint that trails the resize,
// never the vector itself, and prefetching a stale address is harmless.
// One thread grows a map and a table through several resizes while
// another prefetches windows straddling the insert frontier (present keys
// with a head version, absent keys, more than one prefetch chunk). The
// tsan-chaos job runs this under TSan.
TEST(PrefetchTest, SafeAgainstResizeAndAbsentKeys) {
  TransactionManager mgr;
  CuckooMap<uint64_t, uint64_t> map(16);
  Table<uint64_t, PrefetchRow> table("prefetch", 16);
  constexpr uint64_t kKeys = 1 << 14;
  constexpr uint64_t kBatch = 32;
  constexpr uint64_t kWindow = 40;
  const size_t initial_buckets = map.BucketCount();
  std::atomic<bool> reader_started{false};
  std::atomic<uint64_t> inserted{0};
  std::thread writer([&] {
    while (!reader_started.load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
    for (uint64_t base = 0; base < kKeys; base += kBatch) {
      Transaction t(&mgr);
      mgr.Begin(&t);
      for (uint64_t k = base; k < base + kBatch; ++k) {
        ASSERT_TRUE(map.Insert(k, k + 1));
        ASSERT_EQ(t.Insert(table, k, PrefetchRow{k + 1}), WriteStatus::kOk);
      }
      ASSERT_TRUE(mgr.TryCommit(&t, [](CommittedRecord*) { return true; }));
      inserted.store(base + kBatch, std::memory_order_release);
    }
  });
  reader_started.store(true, std::memory_order_release);
  uint64_t front;
  do {
    front = inserted.load(std::memory_order_acquire);
    uint64_t keys[kWindow];
    const uint64_t first = front - std::min(front, kWindow / 2);
    for (uint64_t i = 0; i < kWindow; ++i) keys[i] = first + i;
    for (const uint64_t k : keys) map.Prefetch(k);
    table.Prefetch(keys, kWindow);
  } while (front < kKeys);
  writer.join();

  EXPECT_GE(map.BucketCount(), 8 * initial_buckets);  // three resizes
  EXPECT_EQ(map.Size(), kKeys);
  EXPECT_EQ(table.ObjectCount(), kKeys);  // absent keys stayed absent
  for (uint64_t k = 0; k < kKeys; ++k) {
    uint64_t v = 0;
    ASSERT_TRUE(map.Find(k, &v)) << k;
    ASSERT_EQ(v, k + 1);
    const auto* obj = table.Find(k);
    ASSERT_NE(obj, nullptr) << k;
    const auto* row = obj->ReadVisible(kTxnIdBase - 1, 0);
    ASSERT_NE(row, nullptr) << k;
    ASSERT_EQ(row->data().value, k + 1);
  }
}

TEST(PrefetchTest, EmptyTableAndNoKeysAreNoOps) {
  CuckooMap<uint64_t, uint64_t> map(16);
  Table<uint64_t, PrefetchRow> table("empty", 16);
  sv::SvTable<uint64_t, PrefetchRow> sv_table("empty_sv", 16);
  const uint64_t keys[] = {0, 1, 42, ~uint64_t{0}};
  for (const uint64_t k : keys) map.Prefetch(k);
  table.Prefetch(keys, std::size(keys));
  table.Prefetch(keys, 0);
  table.Prefetch(nullptr, 0);
  sv_table.Prefetch(keys, std::size(keys));
  sv_table.Prefetch(keys, 0);
  sv_table.Prefetch(nullptr, 0);
  EXPECT_EQ(map.Size(), 0u);
  EXPECT_EQ(table.ObjectCount(), 0u);
  EXPECT_EQ(sv_table.RecordCount(), 0u);
  for (const uint64_t k : keys) {
    EXPECT_FALSE(map.Contains(k));
    EXPECT_EQ(table.Find(k), nullptr);
    EXPECT_EQ(sv_table.Find(k), nullptr);
  }
}

// ---------------------------------------------------------------------------
// OrderedIndex
// ---------------------------------------------------------------------------

struct PairKey {
  uint32_t partition;
  uint64_t seq;
  friend bool operator<(const PairKey& a, const PairKey& b) {
    return a.partition != b.partition ? a.partition < b.partition
                                      : a.seq < b.seq;
  }
  friend bool operator==(const PairKey& a, const PairKey& b) {
    return a.partition == b.partition && a.seq == b.seq;
  }
};
struct PairPartition {
  size_t operator()(const PairKey& k) const { return k.partition; }
};
using TestIndex = OrderedIndex<PairKey, uint64_t, PairPartition, 16>;

TEST(OrderedIndexTest, InsertFindErase) {
  TestIndex idx;
  EXPECT_TRUE(idx.Insert({1, 10}, 100));
  EXPECT_FALSE(idx.Insert({1, 10}, 200));
  uint64_t v = 0;
  EXPECT_TRUE(idx.Find({1, 10}, &v));
  EXPECT_EQ(v, 100u);
  EXPECT_TRUE(idx.Erase({1, 10}));
  EXPECT_FALSE(idx.Find({1, 10}, &v));
}

TEST(OrderedIndexTest, ScanRangeInOrder) {
  TestIndex idx;
  for (uint64_t s = 0; s < 100; ++s) ASSERT_TRUE(idx.Insert({3, s}, s * 2));
  for (uint64_t s = 0; s < 100; ++s) {
    ASSERT_TRUE(idx.Insert({4, s}, 777));  // other partition
  }
  std::vector<uint64_t> seen;
  idx.ScanRange({3, 10}, {3, 19}, [&](const PairKey& k, uint64_t v) {
    seen.push_back(v);
    return true;
  });
  ASSERT_EQ(seen.size(), 10u);
  for (size_t i = 0; i < seen.size(); ++i) EXPECT_EQ(seen[i], (10 + i) * 2);
}

TEST(OrderedIndexTest, ScanRangeReverseAndEarlyStop) {
  TestIndex idx;
  for (uint64_t s = 0; s < 50; ++s) ASSERT_TRUE(idx.Insert({7, s}, s));
  std::vector<uint64_t> seen;
  idx.ScanRangeReverse({7, 0}, {7, 49}, [&](const PairKey&, uint64_t v) {
    seen.push_back(v);
    return seen.size() < 3;
  });
  ASSERT_EQ(seen.size(), 3u);
  EXPECT_EQ(seen[0], 49u);
  EXPECT_EQ(seen[1], 48u);
  EXPECT_EQ(seen[2], 47u);
}

TEST(OrderedIndexTest, ShardVersionBumpsOnStructuralChange) {
  TestIndex idx;
  const uint64_t v0 = idx.ShardVersion({5, 0});
  ASSERT_TRUE(idx.Insert({5, 1}, 1));
  const uint64_t v1 = idx.ShardVersion({5, 0});
  EXPECT_GT(v1, v0);
  idx.Erase({5, 1});
  EXPECT_GT(idx.ShardVersion({5, 0}), v1);
  // Duplicate insert does not bump.
  ASSERT_TRUE(idx.Insert({5, 2}, 1));
  const uint64_t v2 = idx.ShardVersion({5, 0});
  EXPECT_FALSE(idx.Insert({5, 2}, 9));
  EXPECT_EQ(idx.ShardVersion({5, 0}), v2);
}

/// Checks `idx`'s [lo, hi] scans in both directions, stopping after `limit`
/// entries (0 = all), against the model.
void ExpectScansMatch(const TestIndex& idx,
                      const std::map<PairKey, uint64_t>& ref,
                      const PairKey& lo, const PairKey& hi, size_t limit) {
  auto collect = [&](bool reverse) {
    std::vector<uint64_t> got;
    auto fn = [&](const PairKey& k, uint64_t v) {
      EXPECT_EQ(k.seq, v);
      got.push_back(v);
      return limit == 0 || got.size() < limit;
    };
    if (reverse) {
      idx.ScanRangeReverse(lo, hi, fn);
    } else {
      idx.ScanRange(lo, hi, fn);
    }
    return got;
  };
  std::vector<uint64_t> fwd;
  for (auto it = ref.lower_bound(lo); it != ref.end() && !(hi < it->first) &&
                                      (limit == 0 || fwd.size() < limit);
       ++it) {
    fwd.push_back(it->second);
  }
  std::vector<uint64_t> rev;
  for (auto it = ref.upper_bound(hi);
       it != ref.begin() && (limit == 0 || rev.size() < limit);) {
    --it;
    if (it->first < lo) break;
    rev.push_back(it->second);
  }
  ASSERT_EQ(collect(false), fwd) << lo.partition << " [" << lo.seq << ", "
                                 << hi.seq << "] limit " << limit;
  ASSERT_EQ(collect(true), rev) << lo.partition << " [" << lo.seq << ", "
                                << hi.seq << "] limit " << limit;
}

/// Random inserts, erases, lookups and scans over four partitions, checked
/// against std::map, in three phases per partition: ascending appends (the
/// right-edge split), a random mix, then erasing from the left edge until
/// the shard is empty and appending again. Every operation also checks
/// that the shard version moved exactly when the operation changed the
/// shard. ~130k operations; shards reach two inner levels (checked on a
/// bare tree below).
TEST(OrderedIndexTest, RandomizedAgainstStdMap) {
  constexpr uint32_t kParts = 4;
  constexpr uint64_t kSeqs = 24000;
  Xoshiro256 rng(42);
  TestIndex idx;
  std::map<PairKey, uint64_t> ref;
  auto insert = [&](const PairKey& key) {
    const uint64_t before = idx.ShardVersion(key);
    const bool want = ref.emplace(key, key.seq).second;
    ASSERT_EQ(idx.Insert(key, key.seq), want);
    ASSERT_EQ(idx.ShardVersion(key), before + (want ? 1 : 0));
  };
  auto erase = [&](const PairKey& key) {
    const uint64_t before = idx.ShardVersion(key);
    const bool want = ref.erase(key) > 0;
    ASSERT_EQ(idx.Erase(key), want);
    ASSERT_EQ(idx.ShardVersion(key), before + (want ? 1 : 0));
  };
  auto random_scan = [&](uint32_t part) {
    uint64_t a = rng.NextBounded(kSeqs);
    uint64_t b = rng.NextBounded(kSeqs);
    if (b < a) std::swap(a, b);
    const size_t limit = rng.NextBounded(2) == 0 ? 0 : 1 + rng.NextBounded(300);
    ExpectScansMatch(idx, ref, {part, a}, {part, b}, limit);
  };
  // Phase 1: ascending appends, with duplicate re-inserts and a few scans.
  for (uint32_t part = 0; part < kParts; ++part) {
    for (uint64_t s = 0; s < kSeqs / 2; s += 1 + rng.NextBounded(2)) {
      insert({part, s});
      if (rng.NextBounded(16) == 0) insert({part, s});  // duplicate
      if (rng.NextBounded(512) == 0) random_scan(part);
    }
  }
  ASSERT_EQ(idx.Size(), ref.size());
  // Phase 2: random mix over the whole key range.
  for (int op = 0; op < 60000; ++op) {
    const uint32_t part = static_cast<uint32_t>(rng.NextBounded(kParts));
    const PairKey key{part, rng.NextBounded(kSeqs)};
    switch (rng.NextBounded(8)) {
      case 0: case 1: case 2:
        insert(key);
        break;
      case 3: case 4:
        erase(key);
        break;
      case 5: case 6: {
        uint64_t v = 0;
        const auto it = ref.find(key);
        ASSERT_EQ(idx.Find(key, &v), it != ref.end());
        if (it != ref.end()) {
          ASSERT_EQ(v, it->second);
        }
        break;
      }
      case 7:
        random_scan(part);
        break;
    }
  }
  ASSERT_EQ(idx.Size(), ref.size());
  // Phase 3: empty two partitions from the left edge (as Delivery drains
  // the NEW-ORDER queue), checking the head of the shard as it shrinks,
  // then append into the emptied shards again.
  for (uint32_t part = 0; part < 2; ++part) {
    for (uint64_t s = 0; s < kSeqs; ++s) {
      erase({part, s});
      if (s % 997 == 0) ExpectScansMatch(idx, ref, {part, 0}, {part, kSeqs}, 5);
    }
    uint64_t v = 0;
    ASSERT_FALSE(idx.Find({part, 0}, &v));
    ExpectScansMatch(idx, ref, {part, 0}, {part, kSeqs}, 0);
    for (uint64_t s = kSeqs; s < kSeqs + 3000; ++s) insert({part, s});
    ExpectScansMatch(idx, ref, {part, 0}, {part, 2 * kSeqs}, 0);
  }
  for (uint32_t part = 0; part < kParts; ++part) {
    ExpectScansMatch(idx, ref, {part, 0}, {part, 2 * kSeqs}, 0);
  }
  ASSERT_EQ(idx.Size(), ref.size());
}

/// Appending keys in order fills leaves exactly (the right-edge split), so
/// scans that start or stop at a multiple of the leaf size start or stop
/// exactly at a leaf boundary.
TEST(OrderedIndexTest, ScansStartAndStopAtLeafBoundaries) {
  constexpr uint64_t kLeaf = detail::BPlusTree<PairKey, uint64_t>::kLeafSlots;
  constexpr uint64_t kKeys = kLeaf * 70;  // enough leaves for two levels
  TestIndex idx;
  std::map<PairKey, uint64_t> ref;
  for (uint64_t s = 0; s < kKeys; ++s) {
    ASSERT_TRUE(idx.Insert({9, s}, s));
    ref.emplace(PairKey{9, s}, s);
  }
  for (uint64_t b = 0; b <= kKeys; b += kLeaf * 3) {
    for (uint64_t lo : {b, b + 1, b > 0 ? b - 1 : 0}) {
      for (uint64_t hi : {b + kLeaf - 1, b + kLeaf, b + 2 * kLeaf - 1}) {
        for (size_t limit : {size_t{0}, size_t{1}, size_t{kLeaf},
                             size_t{kLeaf + 1}}) {
          ExpectScansMatch(idx, ref, {9, lo}, {9, hi}, limit);
        }
      }
    }
  }
  // Empty ranges: between keys, and past either end.
  ExpectScansMatch(idx, ref, {9, kKeys}, {9, kKeys + 100}, 0);
  ExpectScansMatch(idx, ref, {9, 5}, {9, 4}, 0);
}

/// The bare tree: ascending appends keep leaves full and the tree grows to
/// two inner levels; mid-range inserts split in half; erasing everything
/// from the left edge frees every node back to an empty root leaf.
TEST(BPlusTreeTest, GrowsAndShrinksWithTheModel) {
  using Tree = detail::BPlusTree<uint64_t, uint64_t>;
  Tree tree;
  std::map<uint64_t, uint64_t> ref;
  using Entries = std::vector<std::pair<uint64_t, uint64_t>>;
  auto expect_equal = [&] {
    Entries got;
    auto fn = [&](uint64_t k, uint64_t v) {
      got.emplace_back(k, v);
      return true;
    };
    tree.Scan(0, UINT64_MAX, fn);
    ASSERT_EQ(got, Entries(ref.begin(), ref.end()));
    Entries back;
    auto rfn = [&](uint64_t k, uint64_t v) {
      back.emplace_back(k, v);
      return true;
    };
    tree.ScanReverse(0, UINT64_MAX, rfn);
    ASSERT_EQ(back, Entries(ref.rbegin(), ref.rend()));
    ASSERT_EQ(tree.size(), ref.size());
  };
  // 64 * 64 + 1 appended keys need 65 full leaves: one root cannot hold
  // them, so a second inner level appears.
  constexpr uint64_t kAppends = Tree::kLeafSlots * Tree::kInnerSlots + 1;
  for (uint64_t k = 0; k < kAppends; ++k) {
    ASSERT_TRUE(tree.Insert(k * 4, k));
    ref.emplace(k * 4, k);
  }
  EXPECT_EQ(tree.height(), 2);
  expect_equal();
  Xoshiro256 rng(7);
  for (int op = 0; op < 40000; ++op) {
    const uint64_t k = rng.NextBounded(kAppends * 4);
    if (rng.NextBounded(3) == 0) {
      ASSERT_EQ(tree.Erase(k), ref.erase(k) > 0);
    } else {
      ASSERT_EQ(tree.Insert(k, op), ref.emplace(k, op).second);
    }
    const uint64_t* v = tree.Find(k);
    const auto it = ref.find(k);
    ASSERT_EQ(v != nullptr, it != ref.end());
    if (v != nullptr) {
      ASSERT_EQ(*v, it->second);
    }
  }
  EXPECT_GE(tree.height(), 2);
  expect_equal();
  while (!ref.empty()) {
    ASSERT_TRUE(tree.Erase(ref.begin()->first));
    ref.erase(ref.begin());
  }
  EXPECT_EQ(tree.height(), 0);
  ASSERT_FALSE(tree.Erase(0));
  expect_equal();
  for (uint64_t k = 0; k < 1000; ++k) {
    ASSERT_TRUE(tree.Insert(k, k));
    ref.emplace(k, k);
  }
  expect_equal();
}

/// Four threads insert, scan and erase on two shared shards (run under
/// TSan in CI). Each thread owns the keys congruent to its id, so at the
/// end the index must hold exactly the keys each thread left in place;
/// every scan must see ascending (or descending) keys within its bounds.
TEST(OrderedIndexTest, ConcurrentInsertScanEraseOnSharedShards) {
  constexpr int kThreads = 4;
  constexpr uint64_t kPerThread = 6000;
  TestIndex idx;
  std::atomic<bool> ok{true};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Xoshiro256 rng(100 + t);
      for (uint64_t i = 0; i < kPerThread; ++i) {
        const uint64_t seq = i * kThreads + t;
        const uint32_t part = static_cast<uint32_t>(seq % 2);
        if (!idx.Insert({part, seq}, seq)) ok = false;
        if (i % 3 == 2) {
          // Erase one of this thread's earlier keys; keep the rest.
          const uint64_t old = (i - 2) * kThreads + t;
          if (!idx.Erase({static_cast<uint32_t>(old % 2), old})) ok = false;
        }
        if (i % 8 == 0) {
          const uint64_t lo = rng.NextBounded(kPerThread * kThreads);
          const uint64_t hi = lo + rng.NextBounded(400);
          uint64_t prev = 0;
          bool first = true;
          auto check = [&](const PairKey& k, uint64_t v, bool reverse) {
            if (k.seq != v || k.seq < lo || k.seq > hi) ok = false;
            if (!first && (reverse ? k.seq >= prev : k.seq <= prev)) {
              ok = false;
            }
            first = false;
            prev = k.seq;
            return true;
          };
          idx.ScanRange({part, lo}, {part, hi},
                        [&](const PairKey& k, uint64_t v) {
                          return check(k, v, false);
                        });
          first = true;
          idx.ScanRangeReverse({part, lo}, {part, hi},
                               [&](const PairKey& k, uint64_t v) {
                                 return check(k, v, true);
                               });
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  ASSERT_TRUE(ok.load());
  size_t expected = 0;
  for (int t = 0; t < kThreads; ++t) {
    for (uint64_t i = 0; i < kPerThread; ++i) {
      const uint64_t seq = i * kThreads + t;
      const bool erased = i + 2 < kPerThread && (i + 2) % 3 == 2;
      uint64_t v = 0;
      ASSERT_EQ(idx.Find({static_cast<uint32_t>(seq % 2), seq}, &v), !erased)
          << seq;
      expected += erased ? 0 : 1;
    }
  }
  EXPECT_EQ(idx.Size(), expected);
}

}  // namespace
}  // namespace mv3c
