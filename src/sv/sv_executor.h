#ifndef MV3C_SV_SV_EXECUTOR_H_
#define MV3C_SV_SV_EXECUTOR_H_

#include <algorithm>
#include <functional>
#include <utility>

#include "common/failpoint.h"
#include "common/macros.h"
#include "common/retry_policy.h"
#include "common/status.h"
#include "obs/engine_stats.h"  // SvStats (migrated to the obs layer)
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sv/sv_transaction.h"

namespace mv3c {

/// Step-based driver adapter for the single-version engines, so OCC and
/// SILO plug into the same WindowDriver/ThreadDriver as the MVCC engines.
/// `Engine` provides `bool Commit(sv::SvTransaction&)`; OCC shares one
/// engine across executors (global validation mutex), SILO takes one per
/// executor. The retry policy is the one bound on the abort-and-retry loop
/// — precisely the livelock regime CCBench shows dominating OCC at high
/// contention. Giving up drops the read/write sets, which is a complete
/// rollback: single-version transactions buffer their writes locally.
template <typename Engine>
class SvExecutor {
 public:
  using Program = std::function<ExecStatus(sv::SvTransaction&)>;

  explicit SvExecutor(Engine* engine, RetryPolicy policy = {})
      : engine_(engine), ctrl_(policy) {
    obs::RegisterCounters(&metrics_, &stats_);
  }

  void Reset(Program program) {
    program_ = std::move(program);
    ctrl_.Reset();
    txn_.Clear();
  }

  /// Single-version OCC has no global begin (no timestamp to draw); the
  /// executor-local sequence number stands in for a txn id in traces.
  void Begin() {
    // Per-transaction phase-timing sample (obs::kPhaseSampleEvery).
    timed_metrics_ = sampler_.Tick() ? &metrics_ : nullptr;
    MV3C_TRACE_EVENT(obs::TraceEvent::kBegin, ++seq_);
  }

  StepResult Step() {
    txn_.Clear();
    ExecStatus st;
    {
      obs::ScopedPhaseTimer timer(timed_metrics_, obs::Phase::kExecute);
      st = program_(txn_);
    }
    if (st == ExecStatus::kUserAbort) {
      ++stats_.user_aborts;
      MV3C_TRACE_EVENT(obs::TraceEvent::kAbort, seq_);
      return StepResult::kUserAborted;
    }
    // Any other status is a conflict the program detected itself (an insert
    // that found its key taken by a concurrent commit): retry it like a
    // failed validation.
    bool committed = false;
    uint64_t commit_tid = 0;
    uint64_t wal_epoch = 0;
    if (st == ExecStatus::kOk) {
      // An injected validation failure must be decided *before* Commit
      // runs: a successful Commit installs the write set, after which
      // pretending failure would double-apply the writes on retry.
      if (failpoint::Evaluate(failpoint::Site::kSvCommitValidate)) {
        ++stats_.failpoint_trips;
      } else {
        obs::ScopedPhaseTimer timer(timed_metrics_, obs::Phase::kCommit);
        committed = engine_->Commit(txn_, timed_metrics_ != nullptr,
                                    &commit_tid, &wal_epoch);
      }
    }
    if (committed) {
      ++stats_.commits;
      last_commit_epoch_ = wal_epoch;
      MV3C_TRACE_EVENT(obs::TraceEvent::kCommit, seq_);
      return StepResult::kCommitted;
    }
    ++stats_.validation_failures;
    MV3C_TRACE_EVENT(obs::TraceEvent::kValidateFail, seq_);
    const RetryDecision d = ctrl_.OnFailure();
    stats_.max_rounds = std::max<uint64_t>(stats_.max_rounds,
                                           ctrl_.attempts());
    stats_.backoff_us = ctrl_.backoff_us_total();
    if (d == RetryDecision::kGiveUp) {
      txn_.Clear();
      ++stats_.exhausted;
      MV3C_TRACE_EVENT(obs::TraceEvent::kAbort, seq_);
      return StepResult::kExhausted;
    }
    return StepResult::kNeedsRetry;
  }

  /// Runs the transaction to completion; bounded by the attempt budget.
  StepResult Run(Program program) {
    Reset(std::move(program));
    Begin();
    StepResult r;
    do {
      r = Step();
    } while (r == StepResult::kNeedsRetry);
    return r;
  }

  /// Run() for callers that cannot tolerate failure (population loaders,
  /// test fixtures): checks the transaction committed. [[nodiscard]] on
  /// StepResult forces every other Run call site to consume its result.
  void MustRun(Program program) {
    MV3C_CHECK(Run(std::move(program)) == StepResult::kCommitted);
  }

  sv::SvTransaction& txn() { return txn_; }
  obs::MetricsRegistry& metrics() { return metrics_; }
  const SvStats& stats() const { return stats_; }
  uint32_t attempts() const { return ctrl_.attempts(); }

  /// WAL epoch of the last commit's redo records (0 when nothing was
  /// logged). The executor never waits for durability: a caller that needs
  /// a durable commit waits for this epoch on the engine's log
  /// (LogManager::WaitCommitDurable), as for Mv3cExecutor.
  uint64_t last_commit_epoch() const { return last_commit_epoch_; }

 private:
  Engine* engine_;
  RetryController ctrl_;
  sv::SvTransaction txn_;
  Program program_;
  SvStats stats_;
  // Executor registries are single-threaded; recording skips the lock.
  // timed_metrics_ is the per-transaction sampling decision (Begin()).
  obs::MetricsRegistry metrics_{obs::RecordSync::kUnsynchronized};
  obs::MetricsRegistry* timed_metrics_ = nullptr;
  obs::PhaseSampler sampler_;
  uint64_t seq_ = 0;
  uint64_t last_commit_epoch_ = 0;
};

}  // namespace mv3c

#endif  // MV3C_SV_SV_EXECUTOR_H_
