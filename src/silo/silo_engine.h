#ifndef MV3C_SILO_SILO_ENGINE_H_
#define MV3C_SILO_SILO_ENGINE_H_

#include <algorithm>
#include <atomic>
#include <vector>

#include "obs/metrics.h"
#include "sv/sv_transaction.h"
#include "wal/log_sv.h"

namespace mv3c {

/// SILO-style decentralized OCC baseline (Tu et al., SOSP'13, simplified):
/// commit locks the write set in address order, re-validates the read set
/// (a record locked by the transaction itself is fine) and the scan node
/// set, derives the commit TID locally from everything observed, installs,
/// and unlocks by publishing the new TID. There is no global coordination
/// point; the epoch machinery that Silo uses for logging/RCU is not needed
/// in this in-memory reproduction.
class SiloEngine {
 public:
  /// `timing_sampled` is the executor's per-transaction sampling decision
  /// (all-or-none per transaction, see OccEngine::Commit for the bias
  /// argument); `*commit_tid_out` (optional) receives the commit TID on
  /// success (the WAL's commit_ts for SV); `*wal_epoch_out` the redo
  /// records' epoch tag (0 when nothing logged).
  bool Commit(sv::SvTransaction& t, bool timing_sampled = false,
              uint64_t* commit_tid_out = nullptr,
              uint64_t* wal_epoch_out = nullptr) {
    // Phase 1: lock the write set in a deterministic order.
    std::vector<std::atomic<uint64_t>*> locked;
    locked.reserve(t.writes().size());
    std::vector<const sv::SvWrite*> ws;
    ws.reserve(t.writes().size());
    for (const sv::SvWrite& w : t.writes()) ws.push_back(&w);
    std::sort(ws.begin(), ws.end(),
              [](const sv::SvWrite* a, const sv::SvWrite* b) {
                return a->tid_word < b->tid_word;
              });
    uint64_t max_tid = 0;
    bool ok = true;
    for (size_t wi = 0; wi < ws.size(); ++wi) {
      const sv::SvWrite* w = ws[wi];
      // A transaction may write the same record more than once (e.g. a
      // TPC-C order containing the same item twice updates that stock row
      // per line); after sorting, duplicates are adjacent — skip them, the
      // lock is already ours.
      if (wi > 0 && ws[wi - 1]->tid_word == w->tid_word) continue;
      uint64_t cur = w->tid_word->load(std::memory_order_acquire);
      while (true) {
        if (sv::IsLocked(cur)) {
          // Contended: abort rather than spin (wound-free, no deadlock).
          ok = false;
          break;
        }
        if (w->tid_word->compare_exchange_weak(cur, cur | sv::kLockBit,
                                               std::memory_order_acq_rel)) {
          locked.push_back(w->tid_word);
          max_tid = std::max(max_tid, cur & sv::kTidMask);
          break;
        }
      }
      if (!ok) break;
    }
    // Phase 2: validate reads and scan nodes.
    {
      obs::ScopedPhaseTimer timer(timing_sampled ? &metrics_ : nullptr,
                                  obs::Phase::kValidate);
      if (ok) {
        for (const sv::SvRead& r : t.reads()) {
          const uint64_t cur = r.tid_word->load(std::memory_order_acquire);
          if (cur == r.observed) continue;
          // Locked by us with an otherwise unchanged TID is still valid.
          if (sv::IsLocked(cur) && (cur & ~sv::kLockBit) == r.observed &&
              t.WritesWord(r.tid_word)) {
            continue;
          }
          ok = false;
          break;
        }
      }
      if (ok) {
        for (const sv::SvNode& n : t.nodes()) {
          if (n.version->load(std::memory_order_acquire) != n.observed) {
            ok = false;
            break;
          }
        }
      }
    }
    if (!ok) {
      for (std::atomic<uint64_t>* w : locked) {
        w->fetch_and(~sv::kLockBit, std::memory_order_release);
      }
      return false;
    }
    // Phase 3: derive the commit TID and install.
    for (const sv::SvRead& r : t.reads()) {
      max_tid = std::max(max_tid, r.observed & sv::kTidMask);
    }
    max_tid = std::max(max_tid, last_tid_);
    const uint64_t commit_tid = max_tid + 1;
    last_tid_ = commit_tid;
    // Serialize redo and install in one buffer-lock hold (wal/log_sv.h):
    // the write set is still locked, so a dependent transaction cannot
    // read these writes (and draw its own, possibly earlier, epoch tag)
    // until after ours is drawn — durable epoch prefixes stay causally
    // consistent — and the shared lock hold keeps fuzzy checkpoints from
    // missing commits whose epochs they truncate. Silo TIDs are
    // per-engine, but conflicting transactions always have ordered TIDs
    // (locks/reads propagate max_tid), so TID-sorted replay is correct.
    if (wal_ != nullptr) {
      const uint64_t e =
          wal::LogSvCommitAndInstall(*wal_, wal_buf_, t, commit_tid);
      if (wal_epoch_out != nullptr) *wal_epoch_out = e;
    } else {
      sv::InstallWrites(t, commit_tid);  // clears the lock bits
    }
    if (commit_tid_out != nullptr) *commit_tid_out = commit_tid;
    return true;
  }

  obs::MetricsRegistry& metrics() { return metrics_; }

  /// Attaches the group-commit log. SILO engines are per-executor, so the
  /// staging buffer is single-writer by construction.
  void set_wal(wal::LogManager* lm) { wal_ = lm; }

 private:
  uint64_t last_tid_ = 1;  // per-engine-instance (one engine per worker)
  obs::MetricsRegistry metrics_;
  wal::LogManager* wal_ = nullptr;
  wal::LogBuffer* wal_buf_ = nullptr;
};

}  // namespace mv3c

#endif  // MV3C_SILO_SILO_ENGINE_H_
