#ifndef MV3C_COMMON_STATUS_H_
#define MV3C_COMMON_STATUS_H_

namespace mv3c {

/// Outcome of executing one round of a transaction program body.
/// [[nodiscard]]: silently dropping an engine status is how the PR 1
/// workload-loader bug slipped in; every producer of these enums now
/// requires the caller to consume (or explicitly void-cast) the result.
///
/// The concurrency-control engines never use C++ exceptions; transaction
/// program bodies report their fate through this enum and the engine reacts
/// (commit attempt, rollback, restart, or repair).
enum class [[nodiscard]] ExecStatus {
  /// The program body ran to completion; the transaction may attempt commit.
  kOk,
  /// The program requested a rollback (e.g. insufficient funds). The
  /// transaction is rolled back and NOT restarted: this is a user abort.
  kUserAbort,
  /// A write-write conflict was detected under the fail-fast policy. The
  /// transaction is rolled back and restarted from scratch with a new
  /// start timestamp.
  kWriteWriteConflict,
};

/// Outcome of one write primitive (shared by the MVCC and single-version
/// stores, so workload code written over both can test it).
enum class WriteStatus {
  kOk,
  /// Fail-fast write-write conflict (paper §2.3.1): a foreign uncommitted
  /// version exists, or a committed version newer than our start timestamp.
  kWwConflict,
  /// Insert found a live visible row with the same key.
  kDuplicateKey,
};

/// Outcome of driving a transaction to completion (including restarts or
/// repair rounds, depending on the engine).
enum class [[nodiscard]] TxnOutcome {
  /// Committed successfully.
  kCommitted,
  /// Rolled back on the program's own request; never restarted.
  kUserAborted,
};

/// Outcome of one executor step (one slice of work under a driver). Shared
/// by all engines so that the threaded and window drivers are generic.
enum class [[nodiscard]] StepResult {
  kCommitted,
  kUserAborted,
  /// The transaction needs another step: validation failed (repair or
  /// restart pending) or it hit a fail-fast write-write conflict.
  kNeedsRetry,
  /// The transaction exceeded its retry-policy attempt budget and was
  /// rolled back and abandoned instead of spinning (starvation backstop;
  /// see common/retry_policy.h). Terminal, like kUserAborted.
  kExhausted,
};

inline const char* ToString(StepResult r) {
  switch (r) {
    case StepResult::kCommitted:
      return "Committed";
    case StepResult::kUserAborted:
      return "UserAborted";
    case StepResult::kNeedsRetry:
      return "NeedsRetry";
    case StepResult::kExhausted:
      return "Exhausted";
  }
  return "?";
}

inline const char* ToString(ExecStatus s) {
  switch (s) {
    case ExecStatus::kOk:
      return "Ok";
    case ExecStatus::kUserAbort:
      return "UserAbort";
    case ExecStatus::kWriteWriteConflict:
      return "WriteWriteConflict";
  }
  return "?";
}

}  // namespace mv3c

#endif  // MV3C_COMMON_STATUS_H_
