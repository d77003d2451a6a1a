#include "mvcc/version_arena.h"

#include <cstdio>
#include <cstring>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace mv3c {

using arena_internal::ClassBlockBytes;
using arena_internal::kAllocAlign;
using arena_internal::kMaxClassBytes;
using arena_internal::kSlabBytes;
using arena_internal::kSlabHeaderBytes;
using arena_internal::Slab;
using arena_internal::SizeClassOf;

namespace {

std::atomic<uint32_t> g_thread_counter{0};

/// Written into the second word of every freed block (the first holds the
/// free-list link) and cleared when the block is handed out again, so
/// freeing a block twice is caught even while its slab holds other live
/// objects. Blocks are at least 16 bytes, so both words always exist.
constexpr uint64_t kFreedMark = 0xF4EEB10CF4EEB10CULL;

/// Monotonic max for relaxed peak counters.
void UpdatePeak(std::atomic<uint64_t>& peak, uint64_t value) {
  uint64_t cur = peak.load(std::memory_order_relaxed);
  while (cur < value &&
         !peak.compare_exchange_weak(cur, value, std::memory_order_relaxed)) {
  }
}

}  // namespace

uint32_t VersionArena::ThreadSlotIndex() {
  // Threads are striped over the slots round-robin at first use; a slot is
  // a set of per-class slab lists plus a spin lock, so two threads sharing
  // a slot is a throughput matter, never a correctness one.
  thread_local const uint32_t idx =
      g_thread_counter.fetch_add(1, std::memory_order_relaxed) % kThreadSlots;
  return idx;
}

VersionArena::~VersionArena() {
  DrainDeferred();
  // Detach the whole owned set under the lock, then leak-check and release
  // outside it: operator delete and stderr diagnostics are blocking calls
  // that must not run inside a spinlock critical section (lock_scope_io,
  // DESIGN §5j). Freelisted slabs are a subset of all_, so clearing the
  // freelist here cannot strand memory.
  std::vector<Slab*> owned;
  {
    SpinLockGuard g(slabs_lock_);
    owned.swap(all_);
    freelist_.clear();
  }
  // By construction the arena outlives every table and the GC that allocate
  // from it (it is destroyed with the TransactionManager, after the tables'
  // chains and the GC's lists have run their destructors), so every object
  // must have been Destroy()ed by now. An ordering violation — a table or
  // the GC outliving its manager — would later dereference the freed slab
  // headers released below; fail loudly here instead of as a silent
  // use-after-free: log always, abort in debug builds. No thread allocates
  // or frees any more, so the live counts are read without slot locks.
  uint64_t leaked = 0;
  for (Slab* slab : owned) leaked += slab->live;
  if (MV3C_UNLIKELY(leaked != 0)) {
    std::fprintf(stderr,
                 "VersionArena: %llu object(s) leaked at arena destruction; "
                 "a table or the GC outlived its TransactionManager?\n",
                 static_cast<unsigned long long>(leaked));
    MV3C_DCHECK(leaked == 0 && "versions leaked past arena destruction");
  }
  // Release the memory regardless — ASan's leak checker would otherwise
  // double-report every payload inside.
  for (Slab* slab : owned) ReleaseSlabMemory(slab);
}

Slab* VersionArena::NewSlab(size_t total_bytes, bool oversize) {
  void* mem = ::operator new(total_bytes, std::align_val_t(kSlabBytes));
  Slab* slab = new (mem) Slab();
  slab->owner = this;
  slab->capacity = static_cast<uint32_t>(total_bytes - kSlabHeaderBytes);
  slab->oversize = oversize;
  uint64_t live_slabs = 0;
  {
    SpinLockGuard g(slabs_lock_);
    all_.push_back(slab);
    live_slabs = all_.size();
  }
  slabs_created_.fetch_add(1, std::memory_order_relaxed);
  const uint64_t held =
      held_bytes_.fetch_add(total_bytes, std::memory_order_relaxed) +
      total_bytes;
  UpdatePeak(peak_held_bytes_, held);
  UpdatePeak(peak_slabs_live_, live_slabs);
  return slab;
}

Slab* VersionArena::TakeSlab() {
  Slab* slab = nullptr;
  {
    SpinLockGuard g(slabs_lock_);
    if (!freelist_.empty()) {
      slab = freelist_.back();
      freelist_.pop_back();
    }
  }
  if (slab == nullptr) return NewSlab(kSlabBytes, /*oversize=*/false);
  // Hand-over to the new owner: freelisted slabs keep their retired state
  // (payload poisoned) until this point, so a stale pointer into a
  // recycled slab keeps reporting under ASan for as long as possible.
  UnpoisonRange(slab->payload(), slab->capacity);
  return slab;
}

void* VersionArena::AllocateRaw(size_t bytes) {
  const size_t need = (bytes + kAllocAlign - 1) & ~(kAllocAlign - 1);
  if (MV3C_UNLIKELY(need > kMaxClassBytes)) return AllocateOversize(need);
  const uint32_t c = SizeClassOf(need);
  const uint32_t slot_index = ThreadSlotIndex();
  ThreadSlot& slot = slots_[slot_index];
  void* p = nullptr;
  {
    SpinLockGuard g(slot.lock);
    p = PopLocked(slot, c);
  }
  if (p == nullptr) {
    // The slot has no room in this class: adopt a slab outside the slot
    // lock (TakeSlab may reach operator new), then allocate from it.
    Slab* fresh = TakeSlab();
    fresh->free = nullptr;
    fresh->block = static_cast<uint32_t>(ClassBlockBytes(c));
    fresh->bump = 0;
    fresh->live = 0;
    fresh->slot = static_cast<uint16_t>(slot_index);
    fresh->size_class = static_cast<uint8_t>(c);
    SpinLockGuard g(slot.lock);
    PushFront(slot.avail[c], fresh);
    p = PopLocked(slot, c);
  }
  allocations_.fetch_add(1, std::memory_order_relaxed);
  bytes_bumped_.fetch_add(ClassBlockBytes(c), std::memory_order_relaxed);
  return p;
}

void* VersionArena::PopLocked(ThreadSlot& slot, uint32_t c) {
  AvailList& list = slot.avail[c];
  Slab* slab = list.head;
  if (slab == nullptr) return nullptr;
  void* p = slab->free;
  if (p != nullptr) {
    UnpoisonRange(p, slab->block);
    std::memcpy(&slab->free, p, sizeof(void*));
  } else {
    p = slab->payload() + slab->bump;
    slab->bump += slab->block;
  }
  const uint64_t cleared = 0;  // drop kFreedMark
  std::memcpy(static_cast<uint8_t*>(p) + sizeof(void*), &cleared,
              sizeof(cleared));
  ++slab->live;
  if (!slab->HasRoom()) Unlist(list, slab);
  return p;
}

Slab* VersionArena::FreeLocked(ThreadSlot& slot, Slab* slab, void* p) {
  // The first word links the free list, the second carries kFreedMark.
  // A block freed twice still carries the mark; under
  // -DMV3C_SANITIZE=address reading the poisoned block reports first.
  uint8_t* bytes = static_cast<uint8_t*>(p);
  uint64_t mark = 0;
  std::memcpy(&mark, bytes + sizeof(void*), sizeof(mark));
  MV3C_CHECK(slab->live != 0 && mark != kFreedMark &&
             "version arena double free");
  std::memcpy(bytes, &slab->free, sizeof(void*));
  std::memcpy(bytes + sizeof(void*), &kFreedMark, sizeof(kFreedMark));
  slab->free = p;
  PoisonRange(p, slab->block);
  --slab->live;
  AvailList& list = slot.avail[slab->size_class];
  // Relisted at the back: the head keeps filling, so a slab whose objects
  // are mostly gone gets the chance to drain completely.
  if (!slab->listed) PushBack(list, slab);
  if (slab->live == 0 && list.head != slab) {
    Unlist(list, slab);
    return slab;
  }
  return nullptr;
}

void VersionArena::PushFront(AvailList& list, Slab* slab) {
  slab->prev = nullptr;
  slab->next = list.head;
  if (list.head != nullptr) {
    list.head->prev = slab;
  } else {
    list.tail = slab;
  }
  list.head = slab;
  slab->listed = true;
}

void VersionArena::PushBack(AvailList& list, Slab* slab) {
  slab->next = nullptr;
  slab->prev = list.tail;
  if (list.tail != nullptr) {
    list.tail->next = slab;
  } else {
    list.head = slab;
  }
  list.tail = slab;
  slab->listed = true;
}

void VersionArena::Unlist(AvailList& list, Slab* slab) {
  if (slab->prev != nullptr) {
    slab->prev->next = slab->next;
  } else {
    list.head = slab->next;
  }
  if (slab->next != nullptr) {
    slab->next->prev = slab->prev;
  } else {
    list.tail = slab->prev;
  }
  slab->prev = slab->next = nullptr;
  slab->listed = false;
}

void* VersionArena::AllocateOversize(size_t bytes) {
  // One dedicated block per over-large object (none of the current version
  // or record types hits this; rows carried by value could), released
  // eagerly by its Destroy. The destroying thread can only reach this slab
  // via the returned pointer, so the plain stores below are ordered before
  // its reads.
  Slab* slab = NewSlab(kSlabHeaderBytes + bytes, /*oversize=*/true);
  slab->block = static_cast<uint32_t>(bytes);
  slab->live = 1;
  oversize_allocs_.fetch_add(1, std::memory_order_relaxed);
  allocations_.fetch_add(1, std::memory_order_relaxed);
  bytes_bumped_.fetch_add(bytes, std::memory_order_relaxed);
  return slab->payload();
}

void VersionArena::ReleaseBlock(void* p) { ReleaseBlocks(&p, 1); }

void VersionArena::ReleaseBlocks(void* const* blocks, size_t n) {
  size_t i = 0;
  while (i < n) {
    Slab* slab = Slab::Of(blocks[i]);
    VersionArena* owner = slab->owner;
    if (slab->oversize) {
      MV3C_CHECK(slab->live == 1 && "version arena double free");
      slab->live = 0;
      owner->frees_.fetch_add(1, std::memory_order_relaxed);
      RetireSlab(slab);
      ++i;
      continue;
    }
    // One lock acquisition for the run of blocks owned by this slot. A
    // slab's owner, slot and oversize flag are fixed while it holds a live
    // block, so they can be read before taking that slot's lock. A drained
    // slab ends the run: it is retired after the lock is dropped.
    const uint16_t slot_index = slab->slot;
    ThreadSlot& slot = owner->slots_[slot_index];
    Slab* drained = nullptr;
    const size_t begin = i;
    {
      SpinLockGuard g(slot.lock);
      while (true) {
        drained = FreeLocked(slot, slab, blocks[i]);
        if (drained != nullptr || ++i == n) break;
        slab = Slab::Of(blocks[i]);
        if (slab->oversize || slab->owner != owner ||
            slab->slot != slot_index) {
          break;
        }
      }
    }
    if (drained != nullptr) ++i;
    owner->frees_.fetch_add(i - begin, std::memory_order_relaxed);
    if (drained != nullptr) RetireSlab(drained);
  }
}

void VersionArena::RetireSlab(Slab* slab) {
  // Called once per drain: the slab is off every avail list and holds no
  // live object, so no other thread can reach it.
  VersionArena* owner = slab->owner;
  obs::ScopedPhaseTimer timer(owner->metrics_, obs::Phase::kArenaRetire);
  MV3C_TRACE_EVENT(obs::TraceEvent::kArenaRetire,
                   owner->slabs_retired_.load(std::memory_order_relaxed));
  owner->slabs_retired_.fetch_add(1, std::memory_order_relaxed);
  PoisonRange(slab->payload(), slab->capacity);
  if (failpoint::Evaluate(failpoint::Site::kGcReclaim)) {
    // Injected lagging collector at slab granularity: park the slab on the
    // deferred list instead of recycling, stressing the drain paths
    // (DrainDeferred, the next retirement, teardown).
    owner->retirements_deferred_.fetch_add(1, std::memory_order_relaxed);
    SpinLockGuard g(owner->slabs_lock_);
    owner->deferred_.push_back(slab);
    return;
  }
  // Recycle-or-detach runs under the lock; releasing a detached slab's
  // memory waits until the guard closes (lock_scope_io, DESIGN §5j). A
  // retirement still doubles as a drain point for previously deferred
  // slabs — the O(1) swap takes the whole backlog so a chaos schedule
  // cannot strand them until teardown.
  Slab* detached = nullptr;
  std::vector<Slab*> parked;
  {
    SpinLockGuard g(owner->slabs_lock_);
    detached = owner->RecycleOrDetachLocked(slab);
    parked.swap(owner->deferred_);
  }
  if (detached != nullptr) ReleaseSlabMemory(detached);
  for (Slab* p : parked) {
    Slab* freed = nullptr;
    {
      SpinLockGuard g(owner->slabs_lock_);
      freed = owner->RecycleOrDetachLocked(p);
    }
    if (freed != nullptr) ReleaseSlabMemory(freed);
  }
}

arena_internal::Slab* VersionArena::RecycleOrDetachLocked(Slab* slab) {
  if (!slab->oversize && freelist_.size() < kMaxFreeSlabs) {
    // The slab parks in its retired state (payload poisoned); AllocateRaw
    // re-initializes it for whichever slot and class adopts it.
    freelist_.push_back(slab);
    slabs_recycled_.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
  }
  // Unlink and account under the lock; the caller owns the actual release.
  // Once detached the slab is unreachable (it is off all_/freelist_/
  // deferred_ and every avail list), so freeing it lock-free is safe.
  all_.erase(std::remove(all_.begin(), all_.end(), slab), all_.end());
  const uint64_t total = kSlabHeaderBytes + static_cast<uint64_t>(slab->capacity);
  held_bytes_.fetch_sub(total, std::memory_order_relaxed);
  slabs_freed_.fetch_add(1, std::memory_order_relaxed);
  return slab;
}

void VersionArena::ReleaseSlabMemory(Slab* slab) {
  UnpoisonRange(slab->payload(), slab->capacity);
  slab->~Slab();
  ::operator delete(slab, std::align_val_t(kSlabBytes));
}

size_t VersionArena::DrainDeferred() {
  std::vector<Slab*> parked;
  {
    SpinLockGuard g(slabs_lock_);
    parked.swap(deferred_);
  }
  for (Slab* slab : parked) {
    Slab* detached = nullptr;
    {
      SpinLockGuard g(slabs_lock_);
      detached = RecycleOrDetachLocked(slab);
    }
    if (detached != nullptr) ReleaseSlabMemory(detached);
  }
  return parked.size();
}

VersionArena::Stats VersionArena::snapshot() const {
  Stats s;
  s.slabs_created = slabs_created_.load(std::memory_order_relaxed);
  s.peak_slabs_live = peak_slabs_live_.load(std::memory_order_relaxed);
  s.slabs_retired = slabs_retired_.load(std::memory_order_relaxed);
  s.slabs_recycled = slabs_recycled_.load(std::memory_order_relaxed);
  s.slabs_freed = slabs_freed_.load(std::memory_order_relaxed);
  s.retirements_deferred =
      retirements_deferred_.load(std::memory_order_relaxed);
  s.bytes_bumped = bytes_bumped_.load(std::memory_order_relaxed);
  s.allocations = allocations_.load(std::memory_order_relaxed);
  s.frees = frees_.load(std::memory_order_relaxed);
  s.oversize_allocs = oversize_allocs_.load(std::memory_order_relaxed);
  s.held_bytes = held_bytes_.load(std::memory_order_relaxed);
  s.peak_held_bytes = peak_held_bytes_.load(std::memory_order_relaxed);
  SpinLockGuard g(slabs_lock_);
  s.slabs_live = all_.size();
  s.deferred_slabs = deferred_.size();
  s.freelist_slabs = freelist_.size();
  return s;
}

}  // namespace mv3c
