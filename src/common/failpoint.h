#ifndef MV3C_COMMON_FAILPOINT_H_
#define MV3C_COMMON_FAILPOINT_H_

#include <atomic>
#include <cstdint>

#include "common/macros.h"

namespace mv3c {
namespace failpoint {

/// Deterministic failpoint injection for the MVCC substrate.
///
/// Named failpoints sit in the hot paths of the engines (version-chain
/// push, pre-validation, the in-lock delta validation of
/// TryCommit/TryCommitExclusive, Retimestamp, GC reclamation, cuckoo-map
/// insert, WAL and checkpoint I/O) in every build. A site can be *armed*
/// at run time with an action and a firing probability;
/// evaluation is driven by a single seeded xoshiro PRNG, so one seed
/// reproduces the exact fault schedule on a single-threaded driver (the
/// reproducibility contract the chaos tests rely on).
///
/// A disarmed site costs one relaxed atomic load of a bitmask (`Evaluate`).

/// Compiled-in failpoint sites. Each names one hot-path location.
enum class Site : uint8_t {
  /// DataObjectBase::Push — firing mimics a spurious CAS/contention failure:
  /// the push reports a write-write conflict although none exists.
  kVersionChainPush = 0,
  /// Mv3cTransaction::PrevalidateAndMark (both conflict policies) — firing
  /// forces a validation failure outside the critical section.
  kPrevalidate,
  /// The delta revalidation inside TransactionManager::TryCommit — firing
  /// forces the in-lock validation to fail, sending the transaction back to
  /// repair/restart from inside the commit critical section.
  kCommitDelta,
  /// The delta revalidation inside TryCommitExclusive — firing forces the
  /// §4.3 in-lock repair path to run.
  kCommitExclusiveDelta,
  /// TransactionManager::Retimestamp — delay/yield only; widens the window
  /// between validation failure and the next repair round.
  kRetimestamp,
  /// GarbageCollector::Collect — firing skips one reclamation round,
  /// simulating a lagging collector racing active readers.
  kGcReclaim,
  /// CuckooMap::Insert — firing forces one retry of the optimistic insert
  /// loop, exercising the resize/path-invalidation code.
  kCuckooInsert,
  /// SILO/OCC commit validation — firing forces a validation failure.
  kSvCommitValidate,
  /// LogManager::FlushRound — firing truncates the epoch block mid-write
  /// (half its bytes reach the file) and then freezes the log, the classic
  /// torn-tail crash the recovery CRC check must detect.
  kWalShortWrite,
  /// LogManager::FlushRound — firing freezes the log after the block's
  /// bytes reached the file but before fsync: the block may or may not
  /// survive, recovery must accept either outcome.
  kWalCrashAfterAppend,
  /// LogManager::FlushRound — firing makes the epoch's fsync fail; the log
  /// freezes without acknowledging the epoch.
  kWalFsyncFail,
  /// Checkpointer::TakeCheckpoint — firing truncates a checkpoint table
  /// segment mid-write (half its bytes reach the file) and aborts the
  /// checkpoint, leaving a torn segment with no manifest pointing at it.
  kCkptCrashMidSegment,
  /// Checkpointer::TakeCheckpoint — firing aborts after every table
  /// segment is durable but before the manifest is published: the
  /// checkpoint data exists yet must be invisible to recovery.
  kCkptCrashBeforeManifest,
  /// Checkpointer::TakeCheckpoint — firing aborts after the manifest is
  /// published but before WAL truncation / old-checkpoint retirement:
  /// recovery must prefer the new manifest and tolerate the extra history.
  kCkptCrashAfterManifestBeforeTruncate,
  /// Checkpointer::TakeCheckpoint — firing makes a checkpoint fsync fail;
  /// the checkpoint aborts without publishing (and without truncating).
  kCkptFsyncFail,

  kNumSites,
};

inline constexpr int kNumSites = static_cast<int>(Site::kNumSites);

/// What an armed site does when it fires.
enum class Action : uint8_t {
  /// Report an injected failure to the call site (forced validation
  /// failure, spurious CAS failure — the site decides what failing means).
  kFail,
  /// Busy-wait for `delay_us` microseconds, then report no failure.
  kDelay,
  /// std::this_thread::yield(), then report no failure.
  kYield,
};

/// Arming configuration of one site.
struct Config {
  Action action = Action::kFail;
  /// Probability in [0,1] that an evaluation fires. 1.0 fires always.
  double probability = 1.0;
  /// Microseconds to spin for Action::kDelay.
  uint32_t delay_us = 0;
  /// Maximum number of firings before the site disarms itself; 0 means
  /// unlimited. Lets a test force exactly one fault.
  uint64_t max_trips = 0;
};

/// Reseeds the PRNG and clears all arming state, trip counters, and the
/// schedule hash. Call at the start of every chaos run.
void Reset(uint64_t seed);

/// Arms `site` with `config`. Evaluations at the site start rolling the
/// PRNG; every roll consumes PRNG state whether or not the site fires, so
/// the fault schedule is a pure function of (seed, evaluation order).
void Arm(Site site, const Config& config);

/// Disarms `site`; evaluations return to the one-load fast path.
void Disarm(Site site);

/// Disarms every site (keeps counters and the schedule hash).
void DisarmAll();

/// Number of times `site` fired since the last Reset.
uint64_t Trips(Site site);

/// Total firings across all sites since the last Reset.
uint64_t TotalTrips();

/// Number of evaluations (armed rolls, fired or not) at `site`.
uint64_t Evaluations(Site site);

/// FNV-1a hash over the sequence of (site, evaluation index) pairs that
/// fired; two runs with the same seed and workload must produce the same
/// value — the reproducibility contract checked by failpoint_test.
uint64_t ScheduleHash();

/// Human-readable site name (for logs and test diagnostics).
const char* Name(Site site);

namespace internal {
/// Bitmask of armed sites; bit i == Site(i) armed.
extern std::atomic<uint32_t> g_armed_mask;
/// Slow path: rolls the PRNG, performs delay/yield, bumps counters.
/// Returns true iff the site fired with Action::kFail.
bool EvaluateSlow(Site site);
}  // namespace internal

/// Evaluates `site`: false when the site is disarmed (one relaxed load),
/// otherwise rolls the PRNG and returns true iff an injected *failure*
/// should be reported (delay/yield actions perform their effect and return
/// false).
inline bool Evaluate(Site site) {
  const uint32_t mask =
      internal::g_armed_mask.load(std::memory_order_relaxed);
  if (MV3C_LIKELY((mask & (1u << static_cast<int>(site))) == 0)) {
    return false;
  }
  return internal::EvaluateSlow(site);
}

/// RAII arming for tests: arms on construction, disarms on destruction.
class ScopedArm {
 public:
  ScopedArm(Site site, const Config& config) : site_(site) {
    Arm(site, config);
  }
  ~ScopedArm() { Disarm(site_); }
  ScopedArm(const ScopedArm&) = delete;
  ScopedArm& operator=(const ScopedArm&) = delete;

 private:
  Site site_;
};

}  // namespace failpoint
}  // namespace mv3c

#endif  // MV3C_COMMON_FAILPOINT_H_
