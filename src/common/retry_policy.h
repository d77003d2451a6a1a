#ifndef MV3C_COMMON_RETRY_POLICY_H_
#define MV3C_COMMON_RETRY_POLICY_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <thread>

#include "common/macros.h"
#include "common/random.h"

namespace mv3c {

/// Starvation-free retry policy shared by every executor and driver.
///
/// MV3C's pitch is graceful recovery from conflict, but recovery that can
/// loop forever is not graceful: under extreme contention the OCC family
/// livelocks (CCBench, Tanabe et al., VLDB 2020). This policy is the one
/// bound on every retry loop (drivers and the served host step until the
/// executor stops returning kNeedsRetry) and defines the escalation ladder
///
///   repair -> exclusive repair (§4.3) -> give up
///
/// with optional exponential backoff + jitter between rounds. "Give up"
/// surfaces as StepResult::kExhausted instead of an unbounded spin; the
/// caller decides whether to re-queue, shed, or report the transaction.
struct RetryPolicy {
  /// Total failed rounds (validation failures + write-write restarts) a
  /// transaction may burn before it gives up with kExhausted. Must be
  /// nonzero: every retry loop ends.
  uint32_t max_attempts = 1024;

  /// After this many failed rounds a repair-capable engine escalates to
  /// §4.3 exclusive repair (validation + repair inside the commit critical
  /// section, guaranteeing commit on that attempt). Negative disables the
  /// escalation; engines without repair ignore it.
  int exclusive_repair_after = -1;

  /// First backoff delay in microseconds; 0 disables backoff entirely
  /// (the default: the single-threaded window driver is deterministic and
  /// benchmarks must not pay for sleeping).
  uint32_t backoff_initial_us = 0;
  /// Backoff cap in microseconds (exponential growth stops here).
  uint32_t backoff_max_us = 1024;
  /// Seed of the per-controller jitter PRNG; jitter draws are deterministic
  /// per (seed, round), keeping chaos runs reproducible.
  uint64_t jitter_seed = 0x5EEDF00DULL;
};

/// The paper's §4.3 heuristic, used by the benchmarks, the served host and
/// the engine pins: after this many failed validation rounds the repair
/// executes inside the commit critical section and the transaction is
/// guaranteed to commit ("a heuristic is to apply this optimization after
/// N rounds of validation failures"). The RetryPolicy default (-1) leaves
/// the escalation off.
inline constexpr int kExclusiveRepairAfter = 3;

/// What an executor should do after a failed round.
enum class RetryDecision {
  /// Repair (or re-run, for restart-based engines) and try again.
  kRetry,
  /// Escalate to §4.3 exclusive repair on the next commit attempt.
  kExclusiveRepair,
  /// The attempt budget is exhausted: stop retrying, report kExhausted.
  kGiveUp,
};

/// Per-transaction retry state: counts failed rounds, applies the
/// escalation ladder, and performs exponential backoff with jitter.
/// Executors call Reset() per transaction and OnFailure() per failed round.
class RetryController {
 public:
  explicit RetryController(const RetryPolicy& policy = {})
      : policy_(policy), jitter_(policy.jitter_seed) {
    MV3C_CHECK(policy_.max_attempts != 0);
    Reset();
  }

  void Reset() {
    attempts_ = 0;
    backoff_us_ = policy_.backoff_initial_us;
  }

  /// Records one failed round and returns the escalation decision. When
  /// backoff is enabled, sleeps here (between rounds, outside any lock).
  RetryDecision OnFailure() {
    ++attempts_;
    if (attempts_ >= policy_.max_attempts) return RetryDecision::kGiveUp;
    Backoff();
    if (policy_.exclusive_repair_after >= 0 &&
        attempts_ >=
            static_cast<uint32_t>(policy_.exclusive_repair_after)) {
      return RetryDecision::kExclusiveRepair;
    }
    return RetryDecision::kRetry;
  }

  /// Failed rounds since Reset().
  uint32_t attempts() const { return attempts_; }
  /// Total microseconds spent backing off since construction.
  uint64_t backoff_us_total() const { return backoff_us_total_; }
  const RetryPolicy& policy() const { return policy_; }

 private:
  void Backoff() {
    if (policy_.backoff_initial_us == 0) return;
    // Full jitter: sleep a uniform draw from [0, backoff_us_]; decorrelates
    // retry herds without ever waiting longer than the deterministic cap.
    const uint64_t us = jitter_.NextBounded(backoff_us_ + 1);
    if (us > 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(us));
      backoff_us_total_ += us;
    }
    backoff_us_ = std::min<uint64_t>(backoff_us_ * 2, policy_.backoff_max_us);
  }

  RetryPolicy policy_;
  Xoshiro256 jitter_;
  uint32_t attempts_ = 0;
  uint64_t backoff_us_ = 0;
  uint64_t backoff_us_total_ = 0;
};

}  // namespace mv3c

#endif  // MV3C_COMMON_RETRY_POLICY_H_
