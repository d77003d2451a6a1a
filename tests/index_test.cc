// Property and stress tests for the index substrates: the concurrent
// cuckoo hash map (primary-key index, §5) and the partitioned ordered
// index (TPC-C secondary access paths). Randomized operation sequences are
// checked against std:: reference models.

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/random.h"
#include "index/cuckoo_map.h"
#include "index/ordered_index.h"

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

TEST(OrderedIndexTest, RandomizedAgainstStdMap) {
  Xoshiro256 rng(42);
  TestIndex idx;
  std::map<PairKey, uint64_t> ref;
  for (int op = 0; op < 20000; ++op) {
    PairKey key{static_cast<uint32_t>(rng.NextBounded(8)),
                rng.NextBounded(200)};
    switch (rng.NextBounded(4)) {
      case 0:
        ASSERT_EQ(idx.Insert(key, key.seq), ref.emplace(key, key.seq).second);
        break;
      case 1:
        ASSERT_EQ(idx.Erase(key), ref.erase(key) > 0);
        break;
      case 2: {
        uint64_t v;
        ASSERT_EQ(idx.Find(key, &v), ref.count(key) > 0);
        break;
      }
      case 3: {
        // Range scan within the partition, compared to the model.
        const PairKey lo{key.partition, 0};
        const PairKey hi{key.partition, 199};
        std::vector<uint64_t> got;
        idx.ScanRange(lo, hi, [&](const PairKey&, uint64_t v) {
          got.push_back(v);
          return true;
        });
        std::vector<uint64_t> want;
        for (auto it = ref.lower_bound(lo);
             it != ref.end() && !(hi < it->first); ++it) {
          want.push_back(it->second);
        }
        ASSERT_EQ(got, want);
        break;
      }
    }
  }
  ASSERT_EQ(idx.Size(), ref.size());
}

}  // namespace
}  // namespace mv3c
