#ifndef MV3C_OCC_OCC_ENGINE_H_
#define MV3C_OCC_OCC_ENGINE_H_

#include <atomic>
#include <mutex>

#include "obs/metrics.h"
#include "sv/sv_transaction.h"
#include "wal/log_sv.h"

namespace mv3c {

/// Classic OCC baseline (Kung–Robinson style with serial validation): the
/// read phase runs lock-free; validation and the write phase execute in a
/// single global critical section, which makes the check "did any record I
/// read change since I read it, and did any scanned index node change"
/// atomic with the installation of the write set.
class OccEngine {
 public:
  /// Validates and commits `t`. Returns true on commit; on false the
  /// caller rolls back (clears the sets) and restarts the program.
  /// `timing_sampled` is the calling executor's per-*transaction* sampling
  /// decision (obs::kPhaseSampleEvery): a sampled transaction has ALL its
  /// phases timed, an unsampled one none — an engine-local per-phase
  /// sampler would decouple the validate samples from the execute/commit
  /// samples and bias the phase-breakdown ratios. Since OCC shares one
  /// engine across executors the registry stays synchronized for the
  /// (rare, post-measurement) recording step. `*commit_tid_out` (optional)
  /// receives the commit TID on success (the WAL's commit_ts for SV);
  /// `*wal_epoch_out` the redo records' epoch tag (0 when nothing logged).
  bool Commit(sv::SvTransaction& t, bool timing_sampled = false,
              uint64_t* commit_tid_out = nullptr,
              uint64_t* wal_epoch_out = nullptr) {
    std::lock_guard<std::mutex> g(mu_);
    {
      obs::ScopedPhaseTimer timer(timing_sampled ? &metrics_ : nullptr,
                                  obs::Phase::kValidate);
      for (const sv::SvRead& r : t.reads()) {
        if (r.tid_word->load(std::memory_order_acquire) != r.observed) {
          return false;
        }
      }
      for (const sv::SvNode& n : t.nodes()) {
        if (n.version->load(std::memory_order_acquire) != n.observed) {
          return false;
        }
      }
    }
    const uint64_t commit_tid =
        tid_seq_.fetch_add(1, std::memory_order_relaxed);
    // Serialize redo and install in one buffer-lock hold (wal/log_sv.h):
    // the mutex keeps the writes invisible to dependent committers until
    // after our epoch tag is drawn (causal epoch prefixes), and the shared
    // lock hold keeps fuzzy checkpoints from missing commits whose epochs
    // they truncate.
    if (wal_ != nullptr) {
      const uint64_t e =
          wal::LogSvCommitAndInstall(*wal_, wal_buf_, t, commit_tid);
      if (wal_epoch_out != nullptr) *wal_epoch_out = e;
    } else {
      sv::InstallWrites(t, commit_tid);
    }
    if (commit_tid_out != nullptr) *commit_tid_out = commit_tid;
    return true;
  }

  obs::MetricsRegistry& metrics() { return metrics_; }

  /// Attaches the group-commit log; commits of WAL-registered tables start
  /// serializing redo records. One staging buffer per engine is enough —
  /// the validation mutex already serializes committers.
  void set_wal(wal::LogManager* lm) { wal_ = lm; }

 private:
  std::mutex mu_;
  std::atomic<uint64_t> tid_seq_{2};
  obs::MetricsRegistry metrics_;
  wal::LogManager* wal_ = nullptr;
  wal::LogBuffer* wal_buf_ = nullptr;  // guarded by mu_
};

}  // namespace mv3c

#endif  // MV3C_OCC_OCC_ENGINE_H_
