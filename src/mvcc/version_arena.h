#ifndef MV3C_MVCC_VERSION_ARENA_H_
#define MV3C_MVCC_VERSION_ARENA_H_

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <new>
#include <utility>
#include <vector>

#include "common/failpoint.h"
#include "common/macros.h"
#include "common/spinlock.h"
#include "common/thread_safety.h"

// ASan manual poisoning: freed blocks are poisoned so a double free (second
// destructor call) or a use-after-reclaim reports immediately under
// -DMV3C_SANITIZE=address, even though the memory is never returned to the
// system allocator while its slab holds other live objects.
#if defined(__SANITIZE_ADDRESS__)
#define MV3C_ARENA_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define MV3C_ARENA_ASAN 1
#endif
#endif
#if defined(MV3C_ARENA_ASAN)
#include <sanitizer/asan_interface.h>
#endif

namespace mv3c {

namespace obs {
class MetricsRegistry;
}

class VersionArena;

namespace arena_internal {

/// Slab geometry. Slabs are allocated aligned to their own size so that any
/// interior pointer recovers its slab header with one mask (Slab::Of) —
/// freeing needs neither a size nor an arena reference at the call site.
inline constexpr size_t kSlabBytes = 64 * 1024;
inline constexpr size_t kSlabHeaderBytes = 64;
inline constexpr size_t kAllocAlign = 16;
inline constexpr size_t kSlabPayloadBytes = kSlabBytes - kSlabHeaderBytes;

/// Size classes: 16-byte steps up to 512 bytes, then four classes per
/// doubling up to 16 KiB (at least three blocks per slab). Larger objects
/// get a dedicated oversize block.
inline constexpr size_t kSmallClassBytes = 512;
inline constexpr size_t kMaxClassBytes = 16 * 1024;
inline constexpr uint32_t kSmallClasses = kSmallClassBytes / kAllocAlign;
inline constexpr uint32_t kNumSizeClasses = kSmallClasses + 5 * 4;

/// Class of a request already rounded up to kAllocAlign and at most
/// kMaxClassBytes.
constexpr uint32_t SizeClassOf(size_t need) {
  if (need <= kSmallClassBytes) {
    return static_cast<uint32_t>(need / kAllocAlign) - 1;
  }
  // need lies in (2^k, 2^(k+1)]; that range is split into four steps.
  const uint32_t k = static_cast<uint32_t>(std::bit_width(need - 1)) - 1;
  const size_t step = size_t{1} << (k - 2);
  const uint32_t j = static_cast<uint32_t>(
      (need - (size_t{1} << k) + step - 1) / step);  // 1..4
  return kSmallClasses + (k - 9) * 4 + (j - 1);
}

constexpr size_t ClassBlockBytes(uint32_t c) {
  if (c < kSmallClasses) return (c + 1) * kAllocAlign;
  const uint32_t k = 9 + (c - kSmallClasses) / 4;
  const uint32_t j = (c - kSmallClasses) % 4 + 1;
  return (size_t{1} << k) + j * (size_t{1} << (k - 2));
}
static_assert(SizeClassOf(kSmallClassBytes + kAllocAlign) == kSmallClasses);
static_assert(ClassBlockBytes(SizeClassOf(kMaxClassBytes)) == kMaxClassBytes);
static_assert(SizeClassOf(kMaxClassBytes) == kNumSizeClasses - 1);

/// Slab header; the payload follows at kSlabHeaderBytes.
///
/// A slab serves one size class of one thread slot. Its payload is carved
/// into equal blocks: never-used blocks come from the `bump` tail, freed
/// blocks go onto the intrusive `free` list and are handed out first. Every
/// field below `owner` is guarded by the owning slot's lock — allocations
/// and frees from any thread take it (which lock guards a slab is a runtime
/// property, so the fields carry no MV3C_GUARDED_BY). A slab is *listed* on
/// its slot's per-class avail list while it has a free block; a full slab
/// is unlisted and relisted by the free that opens a hole in it. A listed
/// slab that drains to zero live objects is retired — unless it is the
/// list head, the slot's allocation target — and recycled onto the arena's
/// bounded freelist (any class may adopt it) or released to the system.
struct alignas(kSlabHeaderBytes) Slab {
  VersionArena* owner = nullptr;
  void* free = nullptr;   // freed blocks, linked through their first word
  Slab* prev = nullptr;   // avail-list links
  Slab* next = nullptr;
  uint32_t capacity = 0;  // usable payload bytes
  uint32_t block = 0;     // block size (the whole payload when oversize)
  uint32_t bump = 0;      // offset of the first never-used block
  uint32_t live = 0;      // blocks currently allocated
  uint16_t slot = 0;      // owning thread slot
  uint8_t size_class = 0;
  bool oversize = false;  // dedicated block for one over-large object
  bool listed = false;    // on the slot's avail list for its class

  uint8_t* payload() {
    return reinterpret_cast<uint8_t*>(this) + kSlabHeaderBytes;
  }
  bool HasRoom() const { return free != nullptr || bump + block <= capacity; }

  static Slab* Of(const void* p) {
    return reinterpret_cast<Slab*>(reinterpret_cast<uintptr_t>(p) &
                                   ~static_cast<uintptr_t>(kSlabBytes - 1));
  }
};
static_assert(sizeof(Slab) <= kSlabHeaderBytes,
              "slab header must fit in the reserved prefix");

}  // namespace arena_internal

/// Unified version-memory lifecycle: a per-thread, size-segregated slab
/// arena with epoch-based reclamation for `Version<Row>` and
/// `CommittedRecord` objects (DESIGN §5c).
///
/// * Allocation: each thread maps to one of kThreadSlots cache-line-
///   isolated slots; a slot keeps, per size class, a list of slabs with a
///   free block. Allocating pops the head slab's free list (or carves its
///   never-used tail) under the slot's spin lock.
/// * Freeing never touches the system allocator: the object's destructor
///   runs (payloads may own memory) and its block goes back onto its
///   slab's free list under the owning slot's lock, so the next allocation
///   of that size class on that slot reuses it. Live counts stay exact
///   whichever thread frees. The epoch contract is unchanged: linked-then-
///   unlinked versions are freed only after the oldest-active-start-
///   timestamp watermark passes their retirement era, so no reader can
///   stand on a destroyed version; never-linked versions (fail-fast push
///   conflicts) free immediately because no other transaction observed
///   them. DestroyBatch frees a GC pass's worth with one slot lock per run
///   of blocks from the same slot.
/// * Slab reclamation: a slab that drains to zero live objects while not
///   its slot's allocation target is retired, then recycled into a bounded
///   freelist or released. The `gc-reclaim` failpoint covers retirement: a
///   firing parks the slab on a deferred list (a lagging collector),
///   drained by the next retirement, DrainDeferred(), or the destructor.
///
/// Create/Destroy/CreateSibling are the only allocation paths for versions
/// and committed records in the codebase (lint-enforced: no_raw_version_new).
class VersionArena {
 public:
  /// Bound on recycled slabs kept for reuse (4 MiB at 64 KiB slabs);
  /// beyond it, retired slabs go back to the system allocator.
  static constexpr size_t kMaxFreeSlabs = 64;
  static constexpr size_t kThreadSlots = 64;

  /// Counter snapshot for benchmarks, tests and /metrics. `bytes_bumped`
  /// is the cumulative block bytes handed out; `held_bytes`/
  /// `peak_held_bytes` approximate the arena's RSS contribution (slab
  /// memory currently / maximally held, including freelisted slabs).
  struct Stats {
    uint64_t slabs_created = 0;
    uint64_t slabs_live = 0;       // currently held (incl. freelist)
    uint64_t peak_slabs_live = 0;
    uint64_t slabs_retired = 0;    // drained-and-released transitions
    uint64_t slabs_recycled = 0;   // retired slabs reset onto the freelist
    uint64_t slabs_freed = 0;      // retired slabs released to the system
    uint64_t retirements_deferred = 0;  // gc-reclaim failpoint firings
    uint64_t deferred_slabs = 0;   // currently parked awaiting drain
    uint64_t freelist_slabs = 0;   // currently recycled and ready
    uint64_t bytes_bumped = 0;
    uint64_t allocations = 0;
    uint64_t frees = 0;
    uint64_t oversize_allocs = 0;
    uint64_t held_bytes = 0;
    uint64_t peak_held_bytes = 0;
  };

  VersionArena() = default;
  VersionArena(const VersionArena&) = delete;
  VersionArena& operator=(const VersionArena&) = delete;
  ~VersionArena();

  /// Allocates and constructs a T. All versions and committed records MUST
  /// come from here (or CreateSibling) so that Destroy's slab lookup is
  /// valid for every such pointer in the system.
  template <typename T, typename... Args>
  T* Create(Args&&... args) {
    return new (AllocateRaw(sizeof(T))) T(std::forward<Args>(args)...);
  }

  /// Destroys an arena-created object: runs the destructor (virtual
  /// dispatch frees typed payloads through base pointers) and returns the
  /// block to its slab, poisoned under ASan. Safe to call from any thread;
  /// the epoch watermark is the caller's contract (see class comment).
  template <typename T>
  static void Destroy(T* p) {
    if (p == nullptr) return;
    p->~T();
    ReleaseBlock(p);
  }

  /// Destroys every object in `objs` (the GC's free path). Objects go in
  /// chunks: destructors run outside any lock, then the chunk's blocks are
  /// returned taking an owning slot's lock once per run of blocks from
  /// that slot rather than once per object. A chunk is still in cache for
  /// its second touch, and it bounds how long a worker's slot lock is held.
  template <typename T>
  static void DestroyBatch(const std::vector<T*>& objs) {
    constexpr size_t kChunk = 64;
    void* blocks[kChunk];
    for (size_t i = 0; i < objs.size(); i += kChunk) {
      const size_t n = std::min(kChunk, objs.size() - i);
      for (size_t j = 0; j < n; ++j) {
        T* p = objs[i + j];
        p->~T();
        blocks[j] = p;
      }
      ReleaseBlocks(blocks, n);
    }
  }

  /// Allocates a T from the same arena as `sibling` (which must itself be
  /// arena-created). This is how Version::Clone() — called deep inside the
  /// commit critical section with no transaction context — reaches the
  /// right arena without threading a reference through every chain
  /// operation.
  template <typename T, typename... Args>
  static T* CreateSibling(const void* sibling, Args&&... args) {
    VersionArena* owner = arena_internal::Slab::Of(sibling)->owner;
    return owner->Create<T>(std::forward<Args>(args)...);
  }

  /// Recycles slabs whose retirement was deferred by the `gc-reclaim`
  /// failpoint. Called by TransactionManager::CollectGarbage so the chaos
  /// suite's "backlog drains once injection stops" invariant covers slab
  /// retirement too. Returns the number of slabs drained.
  size_t DrainDeferred() MV3C_EXCLUDES(slabs_lock_);

  Stats snapshot() const MV3C_EXCLUDES(slabs_lock_);

  /// Objects allocated and not yet destroyed; two relaxed loads, so a
  /// /metrics scrape can read it while workers run. A scrape racing an
  /// allocate-then-free may see the free without the allocation, hence
  /// the clamp.
  uint64_t live_objects() const {
    const uint64_t freed = frees_.load(std::memory_order_relaxed);
    const uint64_t allocated = allocations_.load(std::memory_order_relaxed);
    return allocated > freed ? allocated - freed : 0;
  }
  uint64_t held_bytes() const {
    return held_bytes_.load(std::memory_order_relaxed);
  }

  /// Optional registry for the kArenaRetire phase histogram (set by the
  /// owning TransactionManager; null is fine — timers tolerate it). The
  /// registry must outlive the arena.
  void set_metrics(obs::MetricsRegistry* m) { metrics_ = m; }

 private:
  struct AvailList {
    arena_internal::Slab* head = nullptr;
    arena_internal::Slab* tail = nullptr;
  };
  struct alignas(MV3C_CACHELINE_SIZE) ThreadSlot {
    SpinLock lock;
    /// Per size class, the slot's slabs that have a free block; the head
    /// is the allocation target. The lock also covers every slab header
    /// field of the slabs this slot owns (see arena_internal::Slab).
    AvailList avail[arena_internal::kNumSizeClasses] MV3C_GUARDED_BY(lock);
  };

  static void PoisonRange(void* p, size_t n) {
#if defined(MV3C_ARENA_ASAN)
    __asan_poison_memory_region(p, n);
#else
    (void)p;
    (void)n;
#endif
  }
  static void UnpoisonRange(void* p, size_t n) {
#if defined(MV3C_ARENA_ASAN)
    __asan_unpoison_memory_region(p, n);
#else
    (void)p;
    (void)n;
#endif
  }

  static uint32_t ThreadSlotIndex();

  void* AllocateRaw(size_t bytes) MV3C_EXCLUDES(slabs_lock_);
  void* AllocateOversize(size_t bytes) MV3C_EXCLUDES(slabs_lock_);
  static void ReleaseBlock(void* p);
  static void ReleaseBlocks(void* const* blocks, size_t n);

  /// Hands out one block of class `c` from the slot's head slab, or
  /// nullptr when the slot has no slab with room.
  static void* PopLocked(ThreadSlot& slot, uint32_t c)
      MV3C_REQUIRES(slot.lock);
  /// Returns `p` to `slab` (owned by `slot`). Returns the slab when it
  /// drained and was unlinked: the caller retires it after dropping the
  /// lock.
  static arena_internal::Slab* FreeLocked(ThreadSlot& slot,
                                          arena_internal::Slab* slab, void* p)
      MV3C_REQUIRES(slot.lock);
  static void PushFront(AvailList& list, arena_internal::Slab* slab);
  static void PushBack(AvailList& list, arena_internal::Slab* slab);
  static void Unlist(AvailList& list, arena_internal::Slab* slab);

  static void RetireSlab(arena_internal::Slab* slab);
  /// Parks the slab on the freelist (returns nullptr) or unlinks it from
  /// the owned set and returns it for the caller to release *after* the
  /// lock is dropped — operator delete can take a libc lock or a syscall
  /// and must never run inside the spinlock's critical section (the
  /// lock_scope_io rule, DESIGN §5j).
  [[nodiscard]] arena_internal::Slab* RecycleOrDetachLocked(
      arena_internal::Slab* slab) MV3C_REQUIRES(slabs_lock_);
  static void ReleaseSlabMemory(arena_internal::Slab* slab);
  arena_internal::Slab* TakeSlab() MV3C_EXCLUDES(slabs_lock_);
  arena_internal::Slab* NewSlab(size_t total_bytes, bool oversize)
      MV3C_EXCLUDES(slabs_lock_);

  ThreadSlot slots_[kThreadSlots];
  /// Set once by the owning TransactionManager during single-threaded setup
  /// (set_metrics), read-only afterwards; a GUARDED_BY would force a lock
  /// acquisition onto every allocation-path phase timer.
  // mv3c-lint: allow(guarded_by_coverage)
  obs::MetricsRegistry* metrics_ = nullptr;

  mutable SpinLock slabs_lock_;
  std::vector<arena_internal::Slab*> freelist_ MV3C_GUARDED_BY(slabs_lock_);
  std::vector<arena_internal::Slab*> all_ MV3C_GUARDED_BY(slabs_lock_);
  std::vector<arena_internal::Slab*> deferred_ MV3C_GUARDED_BY(slabs_lock_);

  std::atomic<uint64_t> slabs_created_{0};
  std::atomic<uint64_t> peak_slabs_live_{0};
  std::atomic<uint64_t> slabs_retired_{0};
  std::atomic<uint64_t> slabs_recycled_{0};
  std::atomic<uint64_t> slabs_freed_{0};
  std::atomic<uint64_t> retirements_deferred_{0};
  std::atomic<uint64_t> bytes_bumped_{0};
  std::atomic<uint64_t> allocations_{0};
  std::atomic<uint64_t> frees_{0};
  std::atomic<uint64_t> oversize_allocs_{0};
  std::atomic<uint64_t> held_bytes_{0};
  std::atomic<uint64_t> peak_held_bytes_{0};
};

}  // namespace mv3c

#endif  // MV3C_MVCC_VERSION_ARENA_H_
