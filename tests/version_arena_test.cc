// VersionArena unit tests: size-class blocks and their reuse, the
// drain/retire/recycle lifecycle, the bounded freelist, oversize fallback,
// sibling allocation (the Clone() path), failpoint-deferred retirement, and
// the double-free backstop. Engine-level integration (watermark interplay,
// chaos) lives in gc_test.cc and chaos_serializability_test.cc.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

#include "common/failpoint.h"
#include "mvcc/version.h"
#include "mvcc/version_arena.h"

namespace mv3c {
namespace {

namespace fp = ::mv3c::failpoint;

// 64 bytes, 16-aligned: packs the 65472-byte slab payload exactly
// (1023 objects), so one extra allocation forces a seal.
struct PackedObj {
  uint64_t payload[8] = {0};
};
static_assert(sizeof(PackedObj) == 64);
constexpr size_t kPerSlab =
    arena_internal::kSlabPayloadBytes / sizeof(PackedObj);

class VersionArenaTest : public ::testing::Test {};

TEST_F(VersionArenaTest, CreateDestroyRoundTrip) {
  VersionArena arena;
  PackedObj* p = arena.Create<PackedObj>();
  ASSERT_NE(p, nullptr);
  p->payload[0] = 42;  // the memory is writable
  VersionArena::Stats s = arena.snapshot();
  EXPECT_EQ(s.allocations, 1u);
  EXPECT_EQ(s.frees, 0u);
  EXPECT_EQ(s.slabs_created, 1u);
  EXPECT_GE(s.bytes_bumped, sizeof(PackedObj));
  VersionArena::Destroy(p);
  s = arena.snapshot();
  EXPECT_EQ(s.frees, 1u);
  // The slab is still its slot's allocation target: no retirement, no
  // recycle.
  EXPECT_EQ(s.slabs_retired, 0u);
}

TEST_F(VersionArenaTest, SealedAndDrainedSlabRecyclesOntoFreelist) {
  VersionArena arena;
  std::vector<PackedObj*> objs;
  // Fill slab 1 exactly, then one more to force the seal + a second slab.
  for (size_t i = 0; i < kPerSlab + 1; ++i) {
    objs.push_back(arena.Create<PackedObj>());
  }
  VersionArena::Stats s = arena.snapshot();
  EXPECT_EQ(s.slabs_created, 2u);
  // Drain slab 1: the last free retires it and recycles it.
  for (size_t i = 0; i < kPerSlab; ++i) VersionArena::Destroy(objs[i]);
  s = arena.snapshot();
  EXPECT_EQ(s.slabs_retired, 1u);
  EXPECT_EQ(s.slabs_recycled, 1u);
  EXPECT_EQ(s.freelist_slabs, 1u);
  EXPECT_EQ(s.slabs_freed, 0u);
  // The next slab roll-over takes the recycled slab instead of allocating.
  for (size_t i = 0; i < kPerSlab; ++i) {
    objs.push_back(arena.Create<PackedObj>());
  }
  s = arena.snapshot();
  EXPECT_EQ(s.slabs_created, 2u) << "recycled slab must be reused";
  EXPECT_EQ(s.freelist_slabs, 0u);
  for (size_t i = kPerSlab; i < objs.size(); ++i) {
    VersionArena::Destroy(objs[i]);
  }
}

TEST_F(VersionArenaTest, ObjectsNeverStraddleASlabBoundary) {
  VersionArena arena;
  // Several size classes, each filled past one slab: every block must end
  // inside its own slab, and blocks of different classes never share one.
  struct Odd {
    uint8_t b[48];
  };
  struct Wide {
    uint8_t b[1000];  // a 1024-byte class block
  };
  std::vector<PackedObj*> packed;
  std::vector<Odd*> odd;
  std::vector<Wide*> wide;
  for (size_t i = 0; i < kPerSlab + 1; ++i) {
    packed.push_back(arena.Create<PackedObj>());
    odd.push_back(arena.Create<Odd>());
  }
  for (size_t i = 0; i < 2 * arena_internal::kSlabPayloadBytes / 1024; ++i) {
    wide.push_back(arena.Create<Wide>());
  }
  auto inside = [](const void* p, size_t n) {
    const auto* slab = reinterpret_cast<const uint8_t*>(
        arena_internal::Slab::Of(p));
    const auto* b = static_cast<const uint8_t*>(p);
    return b >= slab + arena_internal::kSlabHeaderBytes &&
           b + n <= slab + arena_internal::kSlabBytes;
  };
  for (PackedObj* p : packed) EXPECT_TRUE(inside(p, sizeof(PackedObj)));
  for (Odd* p : odd) EXPECT_TRUE(inside(p, sizeof(Odd)));
  for (Wide* p : wide) EXPECT_TRUE(inside(p, sizeof(Wide)));
  EXPECT_NE(arena_internal::Slab::Of(packed.front()),
            arena_internal::Slab::Of(odd.front()));
  EXPECT_GE(arena.snapshot().slabs_created, 6u);
  for (PackedObj* p : packed) VersionArena::Destroy(p);
  for (Odd* p : odd) VersionArena::Destroy(p);
  for (Wide* p : wide) VersionArena::Destroy(p);
}

TEST_F(VersionArenaTest, FreelistIsBounded) {
  VersionArena arena;
  // Create and fully drain far more slabs than the freelist keeps. Drains
  // happen while later slabs are still live, so recycled slabs pile up
  // faster than reuse consumes them.
  const size_t kSlabs = VersionArena::kMaxFreeSlabs + 8;
  std::vector<std::vector<PackedObj*>> per_slab(kSlabs);
  for (size_t i = 0; i < kSlabs; ++i) {
    for (size_t j = 0; j < kPerSlab; ++j) {
      per_slab[i].push_back(arena.Create<PackedObj>());
    }
  }
  PackedObj* sentinel = arena.Create<PackedObj>();  // seals the last full slab
  for (auto& objs : per_slab) {
    for (PackedObj* p : objs) VersionArena::Destroy(p);
  }
  VersionArena::Destroy(sentinel);
  const VersionArena::Stats s = arena.snapshot();
  EXPECT_EQ(s.slabs_retired, kSlabs);
  EXPECT_LE(s.freelist_slabs, VersionArena::kMaxFreeSlabs);
  EXPECT_GT(s.slabs_freed, 0u) << "beyond the bound, slabs go to the OS";
  EXPECT_EQ(s.slabs_recycled + s.slabs_freed, s.slabs_retired);
}

TEST_F(VersionArenaTest, OversizeObjectGetsDedicatedBlockAndFreesEagerly) {
  VersionArena arena;
  struct Big {
    uint8_t bytes[arena_internal::kSlabPayloadBytes + 1000];
  };
  const uint64_t held_before = arena.snapshot().held_bytes;
  Big* big = arena.Create<Big>();
  big->bytes[sizeof(big->bytes) - 1] = 7;
  VersionArena::Stats s = arena.snapshot();
  EXPECT_EQ(s.oversize_allocs, 1u);
  EXPECT_GT(s.held_bytes, held_before + sizeof(Big) - 1);
  VersionArena::Destroy(big);
  s = arena.snapshot();
  // Oversize blocks never enter the freelist; the memory returns at once.
  EXPECT_EQ(s.held_bytes, held_before);
  EXPECT_GT(s.slabs_freed, 0u);
}

TEST_F(VersionArenaTest, CreateSiblingAllocatesFromTheSameArena) {
  VersionArena arena;
  PackedObj* a = arena.Create<PackedObj>();
  PackedObj* b = VersionArena::CreateSibling<PackedObj>(a);
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(arena_internal::Slab::Of(a)->owner,
            arena_internal::Slab::Of(b)->owner);
  EXPECT_EQ(arena.snapshot().allocations, 2u);
  VersionArena::Destroy(a);
  VersionArena::Destroy(b);
  EXPECT_EQ(arena.snapshot().frees, 2u);
}

TEST_F(VersionArenaTest, FailpointDefersRetirementUntilDrain) {
  fp::Reset(/*seed=*/3);
  VersionArena arena;
  std::vector<PackedObj*> objs;
  for (size_t i = 0; i < kPerSlab + 1; ++i) {
    objs.push_back(arena.Create<PackedObj>());
  }
  {
    fp::Config cfg;
    cfg.probability = 1.0;
    fp::ScopedArm arm(fp::Site::kGcReclaim, cfg);
    for (size_t i = 0; i < kPerSlab; ++i) VersionArena::Destroy(objs[i]);
  }
  VersionArena::Stats s = arena.snapshot();
  EXPECT_EQ(s.retirements_deferred, 1u);
  EXPECT_EQ(s.deferred_slabs, 1u);
  EXPECT_EQ(s.slabs_recycled + s.slabs_freed, 0u);
  EXPECT_EQ(arena.DrainDeferred(), 1u);
  s = arena.snapshot();
  EXPECT_EQ(s.deferred_slabs, 0u);
  EXPECT_EQ(s.slabs_recycled, 1u);
  VersionArena::Destroy(objs.back());
  fp::Reset(0);
}

TEST_F(VersionArenaTest, DrainedAllocationTargetIsReusedInPlace) {
  VersionArena arena;
  // Fill slab 1 exactly and destroy everything: it is its slot's
  // allocation target, so it stays (no retirement), and the next
  // allocation reuses one of its freed blocks instead of a second slab.
  std::vector<PackedObj*> objs;
  for (size_t i = 0; i < kPerSlab; ++i) objs.push_back(arena.Create<PackedObj>());
  arena_internal::Slab* slab = arena_internal::Slab::Of(objs.front());
  for (PackedObj* p : objs) VersionArena::Destroy(p);
  VersionArena::Stats s = arena.snapshot();
  EXPECT_EQ(s.slabs_retired, 0u) << "the allocation target must stay";
  PackedObj* extra = arena.Create<PackedObj>();
  EXPECT_EQ(arena_internal::Slab::Of(extra), slab);
  s = arena.snapshot();
  EXPECT_EQ(s.slabs_retired, 0u);
  EXPECT_EQ(s.slabs_created, 1u);
  VersionArena::Destroy(extra);
}

TEST_F(VersionArenaTest, FreedBlocksAreReusedSoLongLivedObjectsDoNotPinMemory) {
  // A long-lived object every 100 allocations: with slab-granular
  // reclamation each slab would keep a few survivors and never drain, so
  // held memory would grow with the allocation count. Freed blocks are
  // reused instead, so held memory tracks the live objects (1000 of them
  // here, two slabs' worth).
  struct Row {
    int64_t v = 0;
  };
  VersionArena arena;
  std::vector<VersionBase*> kept;
  uint64_t start_held = 0;
  for (int i = 0; i < 100000; ++i) {
    auto* v = arena.Create<Version<Row>>(/*table=*/nullptr,
                                         /*object=*/nullptr, Timestamp{1},
                                         Row{i});
    if (i % 100 == 0) {
      kept.push_back(v);
    } else {
      VersionArena::Destroy(static_cast<VersionBase*>(v));
    }
    if (i == 99) start_held = arena.snapshot().held_bytes;
  }
  const VersionArena::Stats s = arena.snapshot();
  EXPECT_GT(start_held, 0u);
  EXPECT_LE(s.held_bytes, 2 * start_held);
  EXPECT_EQ(arena.live_objects(), kept.size());
  VersionArena::DestroyBatch(kept);
  EXPECT_EQ(arena.live_objects(), 0u);
}

TEST_F(VersionArenaTest, CrossThreadFreesReturnBlocksToTheOwningSlab) {
  // Two allocating threads hand every object to a third that frees them in
  // batches, as the GC frees other workers' versions; the blocks must come
  // back to their owners' slabs and be reused there, with the live count
  // exact at the end.
  VersionArena arena;
  std::mutex mu;
  std::vector<PackedObj*> handed;
  std::atomic<int> producing{2};
  constexpr int kPerThread = 50000;
  constexpr size_t kMaxOutstanding = 2048;
  auto produce = [&](int seed) {
    for (int i = 0; i < kPerThread; ++i) {
      PackedObj* p = arena.Create<PackedObj>();
      p->payload[0] = static_cast<uint64_t>(seed * kPerThread + i);
      while (true) {
        {
          std::lock_guard<std::mutex> g(mu);
          if (handed.size() < kMaxOutstanding) {
            handed.push_back(p);
            break;
          }
        }
        std::this_thread::yield();  // let the freeing thread catch up
      }
    }
    producing.fetch_sub(1, std::memory_order_release);
  };
  std::thread a(produce, 0);
  std::thread b(produce, 1);
  std::vector<PackedObj*> batch;
  while (true) {
    const bool done = producing.load(std::memory_order_acquire) == 0;
    {
      std::lock_guard<std::mutex> g(mu);
      batch.swap(handed);
    }
    VersionArena::DestroyBatch(batch);
    batch.clear();
    if (done) {
      std::lock_guard<std::mutex> g(mu);
      if (handed.empty()) break;
    }
  }
  a.join();
  b.join();
  const VersionArena::Stats s = arena.snapshot();
  EXPECT_EQ(s.allocations, 2u * kPerThread);
  EXPECT_EQ(s.frees, 2u * kPerThread);
  EXPECT_EQ(arena.live_objects(), 0u);
  // 100k objects of 64 bytes are 100 slabs' worth; with at most a few
  // thousand alive at once, reuse keeps the arena far below that.
  EXPECT_LT(s.slabs_created, 50u);
}

using VersionArenaDeathTest = VersionArenaTest;

TEST_F(VersionArenaDeathTest, DoubleFreeIsCaught) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  // Under -DMV3C_SANITIZE=address the poisoned range reports first; without
  // it, the second free drops the slab's creation reference and the
  // MV3C_CHECK in ReleaseObject aborts. Either way: death.
  EXPECT_DEATH(
      {
        VersionArena arena;
        PackedObj* p = arena.Create<PackedObj>();
        VersionArena::Destroy(p);
        VersionArena::Destroy(p);
      },
      "");
}

#if defined(MV3C_ARENA_ASAN)
// 256-byte row: the payload extends far past the VersionBase subobject.
struct WideRow {
  uint64_t cells[32] = {0};
};

TEST_F(VersionArenaDeathTest, DestroyThroughBasePointerPoisonsFullPayload) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  // Destroy is reached via VersionBase* (GC, chain teardown); the poisoned
  // extent must be the whole block, not sizeof(VersionBase), or a
  // use-after-reclaim on the row payload escapes ASan.
  EXPECT_DEATH(
      {
        VersionArena arena;
        auto* v = arena.Create<Version<WideRow>>(
            /*table=*/nullptr, /*object=*/nullptr, Timestamp{1}, WideRow{});
        const uint64_t* payload = &v->data().cells[31];
        VersionArena::Destroy(static_cast<VersionBase*>(v));
        volatile uint64_t sink = *payload;
        (void)sink;
      },
      "use-after-poison");
}
#endif

#ifndef NDEBUG
TEST_F(VersionArenaDeathTest, LeakAtDestructionAbortsInDebug) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  // A version outliving the arena means a table or the GC outlived the
  // TransactionManager; the destructor logs the leak count in every build
  // and aborts under !NDEBUG instead of leaving a silent use-after-free.
  EXPECT_DEATH(
      {
        VersionArena arena;
        arena.Create<PackedObj>();  // never destroyed
      },
      "leaked at arena destruction");
}
#endif

}  // namespace
}  // namespace mv3c
