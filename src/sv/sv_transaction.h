#ifndef MV3C_SV_SV_TRANSACTION_H_
#define MV3C_SV_SV_TRANSACTION_H_

#include <cstdint>
#include <cstring>
#include <functional>
#include <vector>

#include "common/column_mask.h"
#include "common/macros.h"
#include "common/status.h"
#include "sv/sv_table.h"

namespace mv3c::sv {

/// Read-set entry: the TID word observed for a record (including ABSENT
/// observations, which protect repeatable non-existence).
struct SvRead {
  const std::atomic<uint64_t>* tid_word;
  uint64_t observed;
};

/// Node-set entry: an ordered-index shard version observed by a range
/// scan; re-validated at commit to catch phantoms (Silo's node-set
/// technique, reused by our OCC for simplicity).
struct SvNode {
  const std::atomic<uint64_t>* version;
  uint64_t observed;
};

/// Write-set entry. Row images live in the transaction's byte arena and
/// are installed with memcpy while the record is locked.
struct SvWrite {
  enum class Op : uint8_t { kUpdate, kInsert, kDelete };
  std::atomic<uint64_t>* tid_word;
  void* dst;
  size_t size;
  size_t buf_offset;
  Op op;
  /// Durability identity: the owning table's wal_id (0 when the table is
  /// not WAL-registered — the redo serializer skips such entries) and the
  /// record's stored key (stable address, deque arena).
  uint32_t wal_table_id;
  uint32_t key_bytes;
  const void* key;
};

/// One row of a range scan's result set, as the closure API hands it over.
template <typename TableT>
struct ScanEntry {
  typename TableT::Rec* object;
  typename TableT::Row row;
};

/// The read phase of a single-version optimistic transaction: collects
/// read, node and write sets; the commit protocol (OCC or SILO) consumes
/// them. Transaction programs are `ExecStatus(SvTransaction&)` callables,
/// shared verbatim between the two engines. Besides the primitives
/// (Read/Insert/Update/Delete/ObserveNode) it offers the MVCC closure API
/// (Lookup/RangeScan/UpdateRow/InsertRow/DeleteRow/IndexInsert), so one
/// workload body also runs on MV3C and OMVCC.
///
/// Row images are bump-allocated into a per-transaction byte arena that is
/// reused across transactions — the single-version mirror of the MVCC
/// VersionArena (DESIGN §5c): the hot path never touches the system
/// allocator, and Clear() bounds the retained capacity so one oversized
/// transaction cannot pin memory forever. WriteArenaStats tracks the churn
/// for the overhead_memory benchmark.
///
/// A transaction reads its own writes: a read, scan or insert of a record
/// it already wrote sees the last buffered image (or absent after a
/// buffered delete), as an MVCC transaction sees its own version, and adds
/// no read-set entry. The record's first access recorded the observation
/// that commit validates; every write goes through a prior read or insert,
/// so there always is one. A record written twice is installed in write
/// order, the last image winning (InstallWrites).
class SvTransaction {
 public:
  /// Undo/write-buffer churn counters; mirrors VersionArena::Stats for the
  /// single-version engines.
  struct WriteArenaStats {
    uint64_t bytes_pushed = 0;  // cumulative row-image bytes buffered
    uint64_t peak_bytes = 0;    // largest single-transaction buffer
    uint64_t shrinks = 0;       // capacity releases at Clear()
  };

  /// Retained-capacity bound: a transaction whose write buffer grew past
  /// this is released back to the allocator at Clear() instead of kept.
  static constexpr size_t kMaxRetainedArenaBytes = 64 * 1024;

  SvTransaction() { arena_.reserve(4096); }
  SvTransaction(const SvTransaction&) = delete;
  SvTransaction& operator=(const SvTransaction&) = delete;

  /// Reads `key`; returns true and fills `*out` if a live row exists. A
  /// record this transaction already wrote reads as its last buffered
  /// image (absent after a buffered delete), and the observation recorded
  /// at the record's first access stays the one validated; otherwise the
  /// observation is recorded either way.
  template <typename TableT>
  bool Read(const TableT& table, const typename TableT::Key& key,
            typename TableT::Row* out,
            typename TableT::Rec** rec_out = nullptr) {
    typename TableT::Rec* rec = table.Find(key);
    if (rec_out != nullptr) *rec_out = rec;
    if (rec == nullptr) {
      // Key never existed: nothing to observe. A concurrent insert will be
      // caught by the node set if the access came from a scan; point
      // lookups of never-inserted keys are stable in our workloads.
      return false;
    }
    return ReadRecord(rec, out);
  }

  /// Buffers an update of a record previously read.
  template <typename TableT>
  void Update(TableT& table, typename TableT::Rec* rec,
              const typename TableT::Row& new_row) {
    const size_t off = Push(&new_row, sizeof(new_row));
    writes_.push_back({&rec->tid, &rec->row, sizeof(new_row), off,
                       SvWrite::Op::kUpdate, table.wal_id(),
                       static_cast<uint32_t>(sizeof(rec->key())), &rec->key()});
  }

  /// Buffers an insert; returns false if a live row with the key exists in
  /// the current snapshot (the observation is registered, so a racing
  /// insert is caught at validation).
  template <typename TableT>
  bool Insert(TableT& table, const typename TableT::Key& key,
              const typename TableT::Row& row,
              typename TableT::Rec** rec_out = nullptr) {
    typename TableT::Rec* rec = table.GetOrCreate(key);
    if (const SvWrite* own = LastWrite(&rec->tid)) {
      if (own->op != SvWrite::Op::kDelete) return false;
    } else {
      typename TableT::Row ignored;
      const uint64_t w = rec->ReadStable(&ignored);
      reads_.push_back({&rec->tid, w});
      if (!IsAbsent(w)) return false;
    }
    const size_t off = Push(&row, sizeof(row));
    writes_.push_back({&rec->tid, &rec->row, sizeof(row), off,
                       SvWrite::Op::kInsert, table.wal_id(),
                       static_cast<uint32_t>(sizeof(rec->key())), &rec->key()});
    if (rec_out != nullptr) *rec_out = rec;
    return true;
  }

  /// Buffers a delete of a record previously read.
  template <typename TableT>
  void Delete(TableT& table, typename TableT::Rec* rec) {
    writes_.push_back({&rec->tid, &rec->row, 0, 0, SvWrite::Op::kDelete,
                       table.wal_id(),
                       static_cast<uint32_t>(sizeof(rec->key())), &rec->key()});
  }

  // ----------------------------------------------------------------------
  // The closure API of Mv3cTransaction, over the primitives above. Closures
  // run inline, once, as under ConflictPolicy::kRestart. Column masks and
  // MVCC write-write policy overrides are accepted and ignored: a
  // single-version write buffers the full row, and every conflict surfaces
  // at commit validation.
  // ----------------------------------------------------------------------

  /// Point read; calls `closure(t, rec, row)` with the record (nullptr if
  /// the key never existed) and the row (nullptr if absent).
  template <typename TableT, typename Closure>
  ExecStatus Lookup(const TableT& table, const typename TableT::Key& key,
                    ColumnMask /*monitored*/, Closure&& closure) {
    typename TableT::Row row;
    typename TableT::Rec* rec = nullptr;
    const bool live = Read(table, key, &row, &rec);
    return closure(*this, rec, live ? &row : nullptr);
  }

  /// Ordered-index range scan over [lo, hi]: registers the shard version
  /// (phantoms) and a read per visited record, collects up to `limit` live
  /// rows passing `filter` (0 = unlimited; `reverse` scans descending), and
  /// calls `closure(t, entries)`. `extract` only serves MVCC validation.
  template <typename TableT, typename IndexT, typename Extract,
            typename Closure>
  ExecStatus RangeScan(
      const TableT& /*table*/, const IndexT& index,
      const typename IndexT::KeyType& lo, const typename IndexT::KeyType& hi,
      const Extract& /*extract*/,
      const std::function<bool(const typename TableT::Row&)>& filter,
      ColumnMask /*monitored*/, size_t limit, bool reverse,
      Closure&& closure) {
    ObserveNode(&index.ShardVersionRef(lo));
    std::vector<ScanEntry<TableT>> entries;
    auto visit = [&](const typename IndexT::KeyType&,
                     typename TableT::Rec* rec) {
      typename TableT::Row row;
      if (!ReadRecord(rec, &row) || (filter != nullptr && !filter(row))) {
        return true;
      }
      entries.push_back({rec, row});
      return limit == 0 || entries.size() < limit;
    };
    if (reverse) {
      index.ScanRangeReverse(lo, hi, visit);
    } else {
      index.ScanRange(lo, hi, visit);
    }
    return closure(*this, entries);
  }

  /// Full-row update; the trailing MVCC-only arguments (blind flag,
  /// write-write policy) are ignored.
  template <typename TableT, typename... MvccOnly>
  ExecStatus UpdateRow(TableT& table, typename TableT::Rec* rec,
                       const typename TableT::Row& row,
                       ColumnMask /*modified*/, const MvccOnly&...) {
    Update(table, rec, row);
    return ExecStatus::kOk;
  }

  template <typename TableT>
  WriteStatus InsertRow(TableT& table, const typename TableT::Key& key,
                        const typename TableT::Row& row,
                        typename TableT::Rec** rec_out = nullptr) {
    return Insert(table, key, row, rec_out) ? WriteStatus::kOk
                                            : WriteStatus::kDuplicateKey;
  }

  template <typename TableT>
  ExecStatus DeleteRow(TableT& table, typename TableT::Rec* rec) {
    Delete(table, rec);
    return ExecStatus::kOk;
  }

  /// Secondary-index entry for a row this transaction inserts. Deferred to
  /// install, so an index shard version moves only when a commit happens;
  /// the insert validated that the key was free, so the entry is new.
  template <typename IndexT>
  void IndexInsert(IndexT& index, const typename IndexT::KeyType& key,
                   const typename IndexT::ValueType& value) {
    OnInstall([&index, key, value] { MV3C_CHECK(index.Insert(key, value)); });
  }

  /// Registers an index-shard version for phantom validation.
  void ObserveNode(const std::atomic<uint64_t>* version) {
    nodes_.push_back({version, version->load(std::memory_order_acquire)});
  }

  /// Registers a callback to run once the writes are installed, before
  /// Commit returns: inside OCC's validation mutex, and under SILO after
  /// the write set's new TIDs are published. IndexInsert uses it.
  void OnInstall(std::function<void()> fn) {
    install_hooks_.push_back(std::move(fn));
  }

  std::vector<SvRead>& reads() { return reads_; }
  std::vector<SvNode>& nodes() { return nodes_; }
  std::vector<SvWrite>& writes() { return writes_; }
  const std::vector<SvWrite>& writes() const { return writes_; }
  const std::vector<std::function<void()>>& install_hooks() const {
    return install_hooks_;
  }
  const uint8_t* arena() const { return arena_.data(); }
  const WriteArenaStats& arena_stats() const { return arena_stats_; }

  void Clear() {
    reads_.clear();
    nodes_.clear();
    writes_.clear();
    install_hooks_.clear();
    if (arena_.capacity() > kMaxRetainedArenaBytes) {
      arena_ = {};
      arena_.reserve(4096);
      ++arena_stats_.shrinks;
    } else {
      arena_.clear();
    }
  }

  /// True if the write entry's record is also in this transaction's write
  /// set (used by SILO read validation: locked-by-me is fine).
  bool WritesWord(const std::atomic<uint64_t>* word) const {
    for (const SvWrite& w : writes_) {
      if (w.tid_word == word) return true;
    }
    return false;
  }

 private:
  /// The last buffered write of the record whose TID word is `word`, or
  /// nullptr if this transaction has not written it.
  const SvWrite* LastWrite(const std::atomic<uint64_t>* word) const {
    for (size_t i = writes_.size(); i > 0; --i) {
      if (writes_[i - 1].tid_word == word) return &writes_[i - 1];
    }
    return nullptr;
  }

  /// Reads `rec` into `*out`, returning whether the row is live: this
  /// transaction's last buffered image if it wrote the record (absent for a
  /// delete), else the committed row, whose observation is recorded.
  template <typename Rec, typename Row>
  bool ReadRecord(Rec* rec, Row* out) {
    if (const SvWrite* own = LastWrite(&rec->tid)) {
      if (own->op == SvWrite::Op::kDelete) return false;
      std::memcpy(out, arena_.data() + own->buf_offset, sizeof(Row));
      return true;
    }
    const uint64_t w = rec->ReadStable(out);
    reads_.push_back({&rec->tid, w});
    return !IsAbsent(w);
  }

  size_t Push(const void* src, size_t n) {
    const size_t off = arena_.size();
    arena_.resize(off + n);
    std::memcpy(arena_.data() + off, src, n);
    arena_stats_.bytes_pushed += n;
    if (arena_.size() > arena_stats_.peak_bytes) {
      arena_stats_.peak_bytes = arena_.size();
    }
    return off;
  }

  std::vector<SvRead> reads_;
  std::vector<SvNode> nodes_;
  std::vector<SvWrite> writes_;
  std::vector<std::function<void()>> install_hooks_;
  std::vector<uint8_t> arena_;
  WriteArenaStats arena_stats_;
};

/// Installs the write set at `commit_tid`; every record must be locked (or
/// the caller must hold the global validation mutex).
inline void InstallWrites(SvTransaction& t, uint64_t commit_tid) {
  const auto& writes = t.writes();
  for (size_t i = 0; i < writes.size(); ++i) {
    const SvWrite& w = writes[i];
    if (w.op != SvWrite::Op::kDelete) {
      SeqlockCopy<true>(w.dst, t.arena() + w.buf_offset, w.size);
    }
    // If a later entry targets the same record (a transaction may write a
    // record more than once), defer the TID publication — publishing now
    // would drop the lock while the later memcpy is still pending and let
    // readers accept a torn row.
    bool later_write_same_record = false;
    for (size_t j = i + 1; j < writes.size(); ++j) {
      if (writes[j].tid_word == w.tid_word) {
        later_write_same_record = true;
        break;
      }
    }
    if (later_write_same_record) continue;
    uint64_t word = commit_tid;
    if (w.op == SvWrite::Op::kDelete) word |= kAbsentBit;
    w.tid_word->store(word, std::memory_order_release);
  }
  for (const auto& hook : t.install_hooks()) hook();
}

}  // namespace mv3c::sv

#endif  // MV3C_SV_SV_TRANSACTION_H_
