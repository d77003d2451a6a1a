#ifndef MV3C_WAL_LOG_MVCC_H_
#define MV3C_WAL_LOG_MVCC_H_

// Commit-path redo serializer for the MVCC engines (MV3C and OMVCC).
// Included by transaction_manager.h; the wal core (log_manager/log_buffer/
// wal_format) stays mvcc-free, this header is the one-way bridge from mvcc
// types into it.

#include <cstdint>
#include <cstring>
#include <vector>

#include "mvcc/gc.h"
#include "mvcc/table.h"
#include "mvcc/timestamp.h"
#include "mvcc/version.h"
#include "obs/metrics.h"
#include "wal/log_manager.h"
#include "wal/wal_format.h"

namespace mv3c::wal {

/// Serializes one committed transaction's write set into `buf` (created
/// lazily from `lm` on first use; the caller caches it per transaction
/// context). Must run inside the commit critical section, right after
/// PublishCommit: the CommittedRecord's versions are exactly the
/// transaction's newest surviving version per object — for a repaired MV3C
/// transaction that is the *final* (post-repair) write set by
/// construction, so repair rounds never leak discarded writes into the
/// log. Running in-lock also means GC can't reclaim the versions under us;
/// the cost is a few memcpys, the I/O happens on the writer thread.
///
/// Returns the epoch the records were tagged with, or 0 when the
/// transaction touched no WAL-registered table (nothing to wait for).
/// Because `commit_ts`'s epoch component is read from the same shared
/// clock moments earlier in the same critical section (DESIGN §5h), the
/// tag returned here is always >= TsEpoch(commit_ts) — checkpoint epoch
/// cuts therefore never truncate a block whose records carry timestamps
/// from a later epoch than the block's tag.
inline uint64_t LogMvccCommit(LogManager& lm, LogBuffer*& buf,
                              const CommittedRecord& rec,
                              Timestamp commit_ts, bool repaired) {
  bool any = false;
  for (const VersionBase* v : rec.versions) {
    if (v->table()->wal_id() != TableBase::kNoWalId) {
      any = true;
      break;
    }
  }
  if (!any) return 0;
  obs::ScopedPhaseTimer timer(&lm.metrics(), obs::Phase::kLogSerialize);
  // Bind the buffer to this thread's commit-TID lane: log partitioning
  // then follows the §5h per-lane TID layout, and a worker's transactions
  // stay in one partition's stream.
  if (buf == nullptr) buf = lm.CreateBuffer(ThisThreadTidLane());
  return buf->AppendTransaction(
      [&](std::vector<uint8_t>& out, uint32_t& n_records) {
        for (const VersionBase* v : rec.versions) {
          const TableBase* table = v->table();
          if (table->wal_id() == TableBase::kNoWalId) continue;
          const bool del = v->tombstone();
          RecordHeader h{};
          h.table_id = table->wal_id();
          h.commit_ts = commit_ts;
          h.column_mask = v->modified_columns().bits();
          h.key_bytes = table->WalKeyBytes();
          h.val_bytes = del ? 0 : table->WalRowBytes();
          h.type = static_cast<uint8_t>(del ? RecordType::kDelete
                                            : RecordType::kUpsert);
          h.flags =
              static_cast<uint8_t>((v->is_insert() ? kFlagInsert : 0) |
                                   (repaired ? kFlagRepaired : 0));
          // Encode in place (key and after-image copied straight into the
          // buffer through the table's type-erased virtuals), then patch
          // the CRC over the finished span — same layout AppendRecord
          // produces for callers that have contiguous bytes at hand.
          const size_t base = out.size();
          const size_t len =
              sizeof(RecordHeader) + h.key_bytes + h.val_bytes;
          out.resize(base + len);
          uint8_t* p = out.data() + base;
          std::memcpy(p, &h, sizeof(h));
          table->WalEncodeKey(*v, p + sizeof(h));
          if (h.val_bytes != 0) {
            table->WalEncodeRow(*v, p + sizeof(h) + h.key_bytes);
          }
          const uint32_t crc = crc32::Compute(p, len);
          std::memcpy(p, &crc, sizeof(crc));
          ++n_records;
        }
      });
}

}  // namespace mv3c::wal

#endif  // MV3C_WAL_LOG_MVCC_H_
