#ifndef MV3C_MV3C_MV3C_EXECUTOR_H_
#define MV3C_MV3C_MV3C_EXECUTOR_H_

#include <algorithm>
#include <functional>
#include <utility>

#include "common/failpoint.h"
#include "common/macros.h"
#include "common/retry_policy.h"
#include "common/status.h"
#include "mv3c/mv3c_transaction.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace mv3c {

/// Drives one logical MV3C transaction through the lifecycle of paper
/// Figure 4: Start -> Execution -> Validation -> (Commit | Repair ->
/// Validation ...), with fail-fast write-write conflicts causing a full
/// rollback-and-restart and user aborts terminating the transaction.
///
/// Under ConflictPolicy::kRestart the same executor is the OMVCC baseline
/// (paper §2.1): a failed validation rolls back and re-executes the
/// program from scratch, and repair, §4.3 exclusive repair and the retry
/// policy's escalations are never entered.
///
/// The executor is deliberately *step*-based: `Begin()` draws the start
/// timestamp; each `Step()` performs the pending work (first execution,
/// repair, or restart re-execution) followed by one commit attempt. The
/// multi-threaded driver loops `Step()` until completion; the window driver
/// (Appendix C simulated concurrency) interleaves steps of many executors,
/// moving transactions that fail to the next window exactly as the paper
/// describes.
///
/// Every failed round consults the RetryController, which walks the
/// starvation-free escalation ladder (common/retry_policy.h):
/// repair -> §4.3 exclusive repair -> kExhausted. Under kRestart the
/// ladder degenerates to restart-with-backoff until the budget runs out.
/// The budget is the only bound on a Step() loop and ends it even under
/// adversarial contention or failpoint injection. kExhausted rolls the
/// transaction back and removes it from the active table, exactly like a
/// user abort, so the system stays consistent when a transaction is shed.
///
/// Version memory on every path here — repair pruning, restart rollback,
/// abort, exhaustion — flows back to the manager's VersionArena: unlinked
/// versions via the GC grace period, never-linked ones (fail-fast push
/// conflicts) immediately inside Transaction's write primitives. The
/// executor itself never frees a version (DESIGN §5c); the per-transaction
/// churn shows up as Mv3cStats::versions_discarded.
class Mv3cExecutor {
 public:
  using Program = std::function<ExecStatus(Mv3cTransaction&)>;

  explicit Mv3cExecutor(TransactionManager* mgr, RetryPolicy retry = {},
                        ConflictPolicy conflict = ConflictPolicy::kRepair)
      : ctrl_(retry), txn_(mgr, conflict) {
    obs::RegisterCounters(&metrics_, &txn_.stats());
  }

  /// Installs the program of the next logical transaction.
  void Reset(Program program) {
    program_ = std::move(program);
    phase_ = Phase::kExecute;
    // Threshold 0 means "exclusive from the very first commit attempt".
    exclusive_mode_ =
        txn_.repairs() && ctrl_.policy().exclusive_repair_after == 0;
    ctrl_.Reset();
    txn_.ResetGraph();  // drop any graph left from the previous transaction
  }

  /// Starts the transaction (draws start timestamp and transaction id).
  void Begin() {
    txn_.manager()->Begin(&txn_.inner());
    // Phase timing is sampled per transaction (obs::kPhaseSampleEvery):
    // every phase of a sampled transaction is timed, unsampled ones skip
    // the TSC reads entirely via the null-registry timer.
    timed_metrics_ = sampler_.Tick() ? &metrics_ : nullptr;
    MV3C_TRACE_EVENT(obs::TraceEvent::kBegin, txn_.inner().txn_id());
  }

  /// Performs the pending work and one validation/commit attempt. Each
  /// sub-step runs under a scoped phase timer (obs::Phase) so benchmarks
  /// can report where per-transaction time goes (DESIGN §5d).
  StepResult Step() {
    ExecStatus st = ExecStatus::kOk;
    switch (phase_) {
      case Phase::kExecute:
      case Phase::kRestart: {
        obs::ScopedPhaseTimer timer(timed_metrics_, obs::Phase::kExecute);
        st = txn_.RunProgram(program_);
        break;
      }
      case Phase::kRepair: {
        obs::ScopedPhaseTimer timer(timed_metrics_, obs::Phase::kRepair);
        MV3C_TRACE_EVENT(obs::TraceEvent::kRepairRound,
                         txn_.inner().txn_id());
        // Durability note: repaired transactions log only their *final*
        // write set (the post-repair CommittedRecord); this flag just
        // stamps kFlagRepaired on those records for tests/wal_dump.
        txn_.inner().set_wal_repaired();
        st = txn_.Repair();
        break;
      }
    }
    if (st == ExecStatus::kUserAbort) return FinishUserAbort();
    if (st == ExecStatus::kWriteWriteConflict) return BeginRestart();

    if (txn_.ReadOnly()) {
      txn_.manager()->CommitReadOnly(&txn_.inner());
      last_commit_ts_ = txn_.inner().start_ts();
      last_commit_epoch_ = 0;  // nothing logged
      ++txn_.stats().commits;
      txn_.ResetGraph();
      MV3C_TRACE_EVENT(obs::TraceEvent::kCommit, txn_.inner().txn_id());
      return StepResult::kCommitted;
    }

    if (exclusive_mode_) {
      // §4.3: the bulk of validation still runs outside the lock (marking
      // only); the in-lock pass covers the delta, and if anything is
      // invalid the repair itself runs inside the critical section so the
      // transaction is guaranteed to commit right after.
      ++txn_.stats().exclusive_repairs;
      {
        obs::ScopedPhaseTimer timer(timed_metrics_, obs::Phase::kValidate);
        txn_.PrevalidateAndMark();
      }
      ExecStatus xs;
      {
        obs::ScopedPhaseTimer commit_timer(timed_metrics_,
                                           obs::Phase::kCommit);
        xs = txn_.manager()->TryCommitExclusive(
            &txn_.inner(),
            [this](CommittedRecord* head) {
              bool delta_clean = txn_.ValidateAndMark(head);
              if (txn_.InjectConflict(
                      failpoint::Site::kCommitExclusiveDelta, delta_clean)) {
                delta_clean = false;
              }
              return delta_clean && !txn_.HasInvalidPredicates();
            },
            [this]() {
              ++txn_.stats().validation_failures;
              MV3C_TRACE_EVENT(obs::TraceEvent::kValidateFail,
                               txn_.inner().txn_id());
              txn_.inner().set_wal_repaired();  // §4.3 in-lock repair
              return txn_.Repair();
            },
            &last_commit_ts_);
      }
      if (xs == ExecStatus::kOk) {
        ++txn_.stats().commits;
        txn_.ResetGraph();
        MV3C_TRACE_EVENT(obs::TraceEvent::kCommit, txn_.inner().txn_id());
        last_commit_epoch_ = txn_.inner().wal_epoch();
        return StepResult::kCommitted;
      }
      if (xs == ExecStatus::kUserAbort) return FinishUserAbort();
      return BeginRestart();
    }
    {
      obs::ScopedPhaseTimer timer(timed_metrics_, obs::Phase::kValidate);
      if (!txn_.PrevalidateAndMark()) {
        // Conflicts found outside the critical section: draw the new start
        // timestamp (§2.5) and repair in the next step.
        txn_.manager()->Retimestamp(&txn_.inner());
        return FailRound();
      }
    }
    bool committed;
    {
      obs::ScopedPhaseTimer timer(timed_metrics_, obs::Phase::kCommit);
      committed = txn_.manager()->TryCommit(
          &txn_.inner(),
          [this](CommittedRecord* head) {
            bool ok = txn_.ValidateAndMark(head);
            if (txn_.InjectConflict(failpoint::Site::kCommitDelta, ok)) {
              ok = false;
            }
            return ok;
          },
          &last_commit_ts_);
    }
    if (committed) {
      ++txn_.stats().commits;
      txn_.ResetGraph();
      MV3C_TRACE_EVENT(obs::TraceEvent::kCommit, txn_.inner().txn_id());
      last_commit_epoch_ = txn_.inner().wal_epoch();
      return StepResult::kCommitted;
    }
    return FailRound();
  }

  /// Convenience driver: runs the transaction to completion. The loop is
  /// bounded by the retry policy's attempt budget (kExhausted is terminal).
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

  Mv3cTransaction& txn() { return txn_; }
  obs::MetricsRegistry& metrics() { return metrics_; }
  const Mv3cStats& stats() const { return txn_.stats(); }
  Timestamp last_commit_ts() const { return last_commit_ts_; }
  /// WAL epoch the last commit's redo records were tagged with; 0 when
  /// nothing was logged (read-only, or no WAL). The executor never waits
  /// for durability: a caller that acknowledges it waits once for the
  /// largest epoch of everything it acknowledges
  /// (TransactionManager::WalWaitDurable; DESIGN §5k group commit).
  uint64_t last_commit_epoch() const { return last_commit_epoch_; }
  uint32_t attempts() const { return ctrl_.attempts(); }
  const RetryPolicy& retry_policy() const { return ctrl_.policy(); }

 private:
  enum class Phase { kExecute, kRepair, kRestart };

  StepResult FinishUserAbort() {
    txn_.RollbackAll();
    txn_.manager()->FinishAborted(&txn_.inner());
    ++txn_.stats().user_aborts;
    MV3C_TRACE_EVENT(obs::TraceEvent::kAbort, txn_.inner().txn_id());
    return StepResult::kUserAborted;
  }

  StepResult FinishExhausted() {
    txn_.RollbackAll();
    txn_.manager()->FinishAborted(&txn_.inner());
    ++txn_.stats().exhausted;
    MV3C_TRACE_EVENT(obs::TraceEvent::kAbort, txn_.inner().txn_id());
    return StepResult::kExhausted;
  }

  /// Records one failed round with the controller and mirrors its state
  /// into the stats counters; returns the escalation decision.
  RetryDecision NoteFailure() {
    const RetryDecision d = ctrl_.OnFailure();
    Mv3cStats& s = txn_.stats();
    s.max_rounds = std::max<uint64_t>(s.max_rounds, ctrl_.attempts());
    s.backoff_us = ctrl_.backoff_us_total();
    if (d == RetryDecision::kExclusiveRepair && txn_.repairs() &&
        !exclusive_mode_) {
      exclusive_mode_ = true;
      ++s.escalations;
    }
    return d;
  }

  /// Rolls back every write and re-executes the program from scratch
  /// under a fresh start timestamp.
  void RestartFromScratch() {
    txn_.RollbackAll();
    txn_.manager()->Restart(&txn_.inner());
    phase_ = Phase::kRestart;
  }

  /// A fail-fast write-write conflict. OMVCC restarts before it asks the
  /// retry policy and MV3C after, which only shows when the budget runs
  /// out (OMVCC then counts the restart too); each keeps its order.
  StepResult BeginRestart() {
    if (!txn_.repairs()) {
      RestartFromScratch();
      ++txn_.stats().ww_restarts;
      return NoteFailure() == RetryDecision::kGiveUp ? FinishExhausted()
                                                     : StepResult::kNeedsRetry;
    }
    if (NoteFailure() == RetryDecision::kGiveUp) return FinishExhausted();
    RestartFromScratch();
    ++txn_.stats().ww_restarts;
    return StepResult::kNeedsRetry;
  }

  StepResult FailRound() {
    ++txn_.stats().validation_failures;
    MV3C_TRACE_EVENT(obs::TraceEvent::kValidateFail, txn_.inner().txn_id());
    if (NoteFailure() == RetryDecision::kGiveUp) return FinishExhausted();
    if (!txn_.repairs()) {
      // The failed validation already drew the new start timestamp
      // (Retimestamp, or inside the commit critical section): discard
      // everything and re-execute at it.
      txn_.RollbackAll();
      txn_.inner().ResetValidationWatermark();
      phase_ = Phase::kRestart;
      return StepResult::kNeedsRetry;
    }
    phase_ = Phase::kRepair;
    return StepResult::kNeedsRetry;
  }

  RetryController ctrl_;
  Mv3cTransaction txn_;
  Program program_;
  Phase phase_ = Phase::kExecute;
  bool exclusive_mode_ = false;
  Timestamp last_commit_ts_ = 0;
  uint64_t last_commit_epoch_ = 0;
  // Executor registries are single-threaded (one executor per window
  // slot); recording skips the lock. timed_metrics_ is the per-transaction
  // sampling decision: &metrics_ or null, refreshed in Begin().
  obs::MetricsRegistry metrics_{obs::RecordSync::kUnsynchronized};
  obs::MetricsRegistry* timed_metrics_ = nullptr;
  obs::PhaseSampler sampler_;
};

}  // namespace mv3c

#endif  // MV3C_MV3C_MV3C_EXECUTOR_H_
