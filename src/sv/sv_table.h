#ifndef MV3C_SV_SV_TABLE_H_
#define MV3C_SV_SV_TABLE_H_

#include <algorithm>
#include <atomic>
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

namespace mv3c {

/// Single-version in-memory storage shared by the OCC and SILO baselines
/// (the paper compares against THEDB's OCC and SILO implementations on
/// TPC-C, §6.1.1). Each record carries one Silo-style TID word:
///
///   bit 63: LOCK   — held by a committing writer
///   bit 62: ABSENT — the slot exists but holds no live row
///   bits 0..61     — the record's version number (grows on every commit)
///
/// Readers copy the row optimistically and retry until they observe the
/// same unlocked TID before and after the copy.
namespace sv {

inline constexpr uint64_t kLockBit = 1ULL << 63;
inline constexpr uint64_t kAbsentBit = 1ULL << 62;
inline constexpr uint64_t kTidMask = kAbsentBit - 1;

inline bool IsLocked(uint64_t w) { return (w & kLockBit) != 0; }
inline bool IsAbsent(uint64_t w) { return (w & kAbsentBit) != 0; }

/// Row copies under the TID-word seqlock. A reader may copy a row while a
/// committer installs it; the reader's TID re-check or commit validation
/// discards a torn copy, but two overlapping plain memcpys would still be
/// a data race in the C++ memory model (and under TSan). Both sides
/// therefore move the shared row as relaxed atomic words, bytes where a
/// word would be misaligned or overrun; the chunking depends only on the
/// shared address and size, so reader and writer always access the same
/// units. `kToShared` picks the direction (install vs read). Relaxed word
/// accesses compile to plain moves; `may_alias` makes the word view of a
/// row legal.
template <bool kToShared>
inline void SeqlockCopy(void* dst, const void* src, size_t n) {
  using Word = uint64_t __attribute__((may_alias));
  auto* d = static_cast<unsigned char*>(dst);
  const auto* s = static_cast<const unsigned char*>(src);
  const unsigned char* shared = kToShared ? d : s;
  for (size_t i = 0; i < n;) {
    if (n - i >= 8 && reinterpret_cast<uintptr_t>(shared + i) % 8 == 0) {
      Word w;
      if constexpr (kToShared) {
        std::memcpy(&w, s + i, 8);
        __atomic_store_n(reinterpret_cast<Word*>(d + i), w, __ATOMIC_RELAXED);
      } else {
        w = __atomic_load_n(reinterpret_cast<const Word*>(s + i),
                            __ATOMIC_RELAXED);
        std::memcpy(d + i, &w, 8);
      }
      i += 8;
    } else {
      if constexpr (kToShared) {
        __atomic_store_n(d + i, s[i], __ATOMIC_RELAXED);
      } else {
        d[i] = __atomic_load_n(s + i, __ATOMIC_RELAXED);
      }
      ++i;
    }
  }
}

/// One record: TID word, the owning key, and the row payload in place. The
/// key is stored on the record (set once at allocation, immutable after)
/// so the redo serializer can reach it from a write-set entry without an
/// index lookup; record addresses are stable (deque arena), so pointers to
/// it stay valid for the transaction's lifetime.
template <typename K, typename Row>
struct Record {
  static_assert(std::is_trivially_copyable_v<Row>,
                "single-version rows are copied with memcpy");
  static_assert(std::is_trivially_copyable_v<K>,
                "single-version keys are logged with memcpy");
  std::atomic<uint64_t> tid{kAbsentBit};
  K key_{};
  Row row{};

  const K& key() const { return key_; }

  /// Optimistically reads a stable snapshot of the row; returns the TID
  /// word observed (possibly ABSENT). Spins across concurrent installs.
  uint64_t ReadStable(Row* out) const {
    while (true) {
      const uint64_t v1 = tid.load(std::memory_order_acquire);
      if (IsLocked(v1)) continue;
      SeqlockCopy<false>(out, &row, sizeof(Row));
      std::atomic_thread_fence(std::memory_order_acquire);
      const uint64_t v2 = tid.load(std::memory_order_acquire);
      if (v1 == v2) return v1;
    }
  }
};

/// A single-version table: cuckoo index from key to arena-allocated
/// records. Records are never physically removed; deletion sets ABSENT.
template <typename K, typename RowT>
class SvTable {
 public:
  using Key = K;
  using Row = RowT;
  using Rec = Record<K, RowT>;
  /// The MVCC tables' name for a row's storage, so code written over both
  /// stores (the TPC-C database) can name either.
  using Object = Rec;

  explicit SvTable(std::string name, size_t expected_rows = 1024)
      : name_(std::move(name)), index_(expected_rows) {}
  SvTable(const SvTable&) = delete;
  SvTable& operator=(const SvTable&) = delete;

  const std::string& name() const { return name_; }

  Rec* Find(const K& key) const {
    Rec* r = nullptr;
    (void)index_.Find(key, &r);  // miss leaves r nullptr, the signal
    return r;
  }

  /// Group prefetch of `keys[0..n)`, the single-version twin of
  /// Table::Prefetch: the index buckets of a chunk of keys, then each
  /// present key's record, whose row is stored in place (two misses per
  /// cold read instead of three). A hint: it reads no row and records
  /// nothing for any transaction.
  void Prefetch(const K* keys, size_t n) const {
    constexpr size_t kChunk = 16;
    for (size_t base = 0; base < n; base += kChunk) {
      const size_t m = std::min(kChunk, n - base);
      for (size_t i = 0; i < m; ++i) index_.Prefetch(keys[base + i]);
      for (size_t i = 0; i < m; ++i) {
        if (const Rec* r = Find(keys[base + i])) {
          PrefetchBytes(r, sizeof(Rec));
        }
      }
    }
  }

  /// Returns the record for `key`, creating an ABSENT one if needed.
  Rec* GetOrCreate(const K& key) {
    Rec* r = Find(key);
    if (r != nullptr) return r;
    Rec* fresh = Allocate(key);
    if (index_.Insert(key, fresh)) return fresh;
    MV3C_CHECK(index_.Find(key, &r));  // insert loser: winner must exist
    return r;
  }

  /// Non-transactional load (initial population, WAL replay): installs the
  /// row, present, at `tid` (1 for population; replay passes the record's
  /// commit TID). Returns the record.
  Rec* LoadRow(const K& key, const RowT& row, uint64_t tid = 1) {
    Rec* r = GetOrCreate(key);
    r->row = row;
    r->tid.store(tid & kTidMask, std::memory_order_release);
    return r;
  }

  /// Non-transactional delete (WAL replay of a tombstone record): marks
  /// the row ABSENT at `tid`.
  void LoadTombstone(const K& key, uint64_t tid = 1) {
    Rec* r = GetOrCreate(key);
    r->tid.store((tid & kTidMask) | kAbsentBit, std::memory_order_release);
  }

  /// Conditional loads for checkpoint-based recovery: the WAL suffix may
  /// replay a commit the checkpoint already captured (the fuzzy scan races
  /// installs of epochs past the cut), so a load only applies when its TID
  /// is at least as new as what the record holds. Equal TIDs re-apply: the
  /// suffix record is then the very commit the checkpoint captured (or a
  /// later write of the same multi-write transaction), so re-application
  /// is idempotent — and required for last-write-wins within one TID.
  /// Fresh records carry version 0 (the ABSENT sentinel masks to 0), so
  /// loading into an empty table degenerates to the unconditional paths.
  void LoadRowIfNewer(const K& key, const RowT& row, uint64_t tid) {
    Rec* r = GetOrCreate(key);
    if ((tid & kTidMask) <
        (r->tid.load(std::memory_order_acquire) & kTidMask)) {
      return;
    }
    r->row = row;
    r->tid.store(tid & kTidMask, std::memory_order_release);
  }

  void LoadTombstoneIfNewer(const K& key, uint64_t tid) {
    Rec* r = GetOrCreate(key);
    if ((tid & kTidMask) <
        (r->tid.load(std::memory_order_acquire) & kTidMask)) {
      return;
    }
    r->tid.store((tid & kTidMask) | kAbsentBit, std::memory_order_release);
  }

  size_t RecordCount() const { return index_.Size(); }

  /// Applies `fn(const K&, const Rec&)` to every record, live or ABSENT
  /// (weakly consistent under concurrent inserts); state digests filter
  /// visibility themselves.
  template <typename Fn>
  void ForEachRecord(Fn&& fn) const {
    index_.ForEach([&fn](const K& k, Rec* r) { fn(k, *r); });
  }

  /// Durability identity, mirroring TableBase::wal_id on the MVCC side:
  /// nonzero once the table is registered with a wal::Catalog.
  uint32_t wal_id() const { return wal_id_; }
  void set_wal_id(uint32_t id) { wal_id_ = id; }

  /// Approximate record-arena footprint; the single-version counterpart of
  /// VersionArena's held_bytes, reported by bench/overhead_memory.
  size_t ApproxArenaBytes() const {
    SpinLockGuard g(arena_lock_);
    return arena_.size() * sizeof(Rec);
  }

 private:
  Rec* Allocate(const K& key) {
    SpinLockGuard g(arena_lock_);
    arena_.emplace_back();
    arena_.back().key_ = key;
    return &arena_.back();
  }

  const std::string name_;
  CuckooMap<K, Rec*> index_;
  mutable SpinLock arena_lock_;
  std::deque<Rec> arena_ MV3C_GUARDED_BY(arena_lock_);
  /// Registration-phase metadata: set_wal_id runs while the catalog wires
  /// tables to the log, before any worker starts; read-only afterwards.
  // mv3c-lint: allow(guarded_by_coverage)
  uint32_t wal_id_ = 0;
};

}  // namespace sv
}  // namespace mv3c

#endif  // MV3C_SV_SV_TABLE_H_
