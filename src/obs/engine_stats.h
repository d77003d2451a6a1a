#ifndef MV3C_OBS_ENGINE_STATS_H_
#define MV3C_OBS_ENGINE_STATS_H_

// The engines' counter structs, migrated onto the observability layer
// (ISSUE 3): the structs still live as plain fields inside the
// transactions/executors — an increment is one add, in every build — but
// their *definitions* live here, next to the registration functions that
// publish every field on a MetricsRegistry under its native name. That
// registration is what lets bench/runners.h aggregate any engine with one
// generic Snapshot()/Merge() instead of the old duck-typed `requires`
// blocks that silently remapped OMVCC validation_failures into a shared
// "conflict_rounds" field (and aliased MV3C repair_rounds onto it).
//
// CI greps for new `struct ...Stats` definitions outside src/obs/ — add
// counters here (with a registration entry) or not at all.

#include <algorithm>
#include <atomic>
#include <cstdint>

#include "obs/metrics.h"

namespace mv3c {

/// MV3C engine statistics; accumulated across the transactions an executor
/// runs, reported by benchmarks under these field names. Under the OMVCC
/// policy (ConflictPolicy::kRestart) the repair-only counters stay 0.
struct Mv3cStats {
  uint64_t commits = 0;
  uint64_t user_aborts = 0;
  uint64_t ww_restarts = 0;           // fail-fast write-write restarts
  uint64_t validation_failures = 0;   // failed validation rounds
  uint64_t repair_rounds = 0;         // Repair algorithm invocations
  uint64_t invalidated_predicates = 0;
  uint64_t reexecuted_closures = 0;   // frontier closures re-run by Repair
  uint64_t result_set_fixes = 0;      // §4.2 patched scans
  uint64_t exclusive_repairs = 0;     // §4.3 in-critical-section repairs
  uint64_t escalations = 0;           // retry-policy ladder transitions
  uint64_t exhausted = 0;             // gave up after the attempt budget
  uint64_t backoff_us = 0;            // microseconds slept backing off
  uint64_t failpoint_trips = 0;       // injected faults observed
  uint64_t max_rounds = 0;            // most failed rounds in one txn
  uint64_t versions_discarded = 0;    // versions returned to the arena by
                                      // rollback/repair before commit

  void Add(const Mv3cStats& o) {
    commits += o.commits;
    user_aborts += o.user_aborts;
    ww_restarts += o.ww_restarts;
    validation_failures += o.validation_failures;
    repair_rounds += o.repair_rounds;
    invalidated_predicates += o.invalidated_predicates;
    reexecuted_closures += o.reexecuted_closures;
    result_set_fixes += o.result_set_fixes;
    exclusive_repairs += o.exclusive_repairs;
    escalations += o.escalations;
    exhausted += o.exhausted;
    backoff_us += o.backoff_us;
    failpoint_trips += o.failpoint_trips;
    max_rounds = std::max(max_rounds, o.max_rounds);
    versions_discarded += o.versions_discarded;
  }
};

/// Statistics for the single-version engines (OCC, SILO).
struct SvStats {
  uint64_t commits = 0;
  uint64_t user_aborts = 0;
  uint64_t validation_failures = 0;  // abort-and-restart rounds
  uint64_t exhausted = 0;            // gave up after the attempt budget
  uint64_t backoff_us = 0;           // microseconds slept backing off
  uint64_t failpoint_trips = 0;      // injected faults observed
  uint64_t max_rounds = 0;           // most failed rounds in one txn

  void Add(const SvStats& o) {
    commits += o.commits;
    user_aborts += o.user_aborts;
    validation_failures += o.validation_failures;
    exhausted += o.exhausted;
    backoff_us += o.backoff_us;
    failpoint_trips += o.failpoint_trips;
    max_rounds = std::max(max_rounds, o.max_rounds);
  }
};

/// Statistics of the serving front-end (DESIGN §5k). Unlike the engine
/// stats these are atomics: the I/O thread and every worker increment them
/// while /metrics scrapes concurrently, so a snapshot must be a relaxed
/// load, not a racy read of a plain field. Increments stay one uncontended
/// atomic add — negligible next to a syscall-bearing request path.
struct ServerStats {
  std::atomic<uint64_t> connections_opened{0};
  std::atomic<uint64_t> connections_closed{0};
  std::atomic<uint64_t> protocol_errors{0};   // framing violations (CRC, magic…)
  std::atomic<uint64_t> requests_received{0};
  std::atomic<uint64_t> responses_sent{0};
  std::atomic<uint64_t> txn_committed{0};
  std::atomic<uint64_t> txn_user_aborted{0};
  std::atomic<uint64_t> txn_exhausted{0};     // engine gave up under contention
  std::atomic<uint64_t> shed_overload{0};     // admission queue full
  std::atomic<uint64_t> shed_rate_limited{0}; // per-client token bucket empty
  std::atomic<uint64_t> bad_requests{0};
  std::atomic<uint64_t> pings{0};
};

/// One relaxed increment — the only write ServerStats fields ever see.
inline void Bump(std::atomic<uint64_t>& c) {
  c.fetch_add(1, std::memory_order_relaxed);
}

namespace obs {

/// Publishes every Mv3cStats field on `reg` under its native name. `s`
/// must outlive the registry's last Snapshot().
inline void RegisterCounters(MetricsRegistry* reg, const Mv3cStats* s) {
  reg->RegisterCounter("commits", &s->commits);
  reg->RegisterCounter("user_aborts", &s->user_aborts);
  reg->RegisterCounter("ww_restarts", &s->ww_restarts);
  reg->RegisterCounter("validation_failures", &s->validation_failures);
  reg->RegisterCounter("repair_rounds", &s->repair_rounds);
  reg->RegisterCounter("invalidated_predicates", &s->invalidated_predicates);
  reg->RegisterCounter("reexecuted_closures", &s->reexecuted_closures);
  reg->RegisterCounter("result_set_fixes", &s->result_set_fixes);
  reg->RegisterCounter("exclusive_repairs", &s->exclusive_repairs);
  reg->RegisterCounter("escalations", &s->escalations);
  reg->RegisterCounter("exhausted", &s->exhausted);
  reg->RegisterCounter("backoff_us", &s->backoff_us);
  reg->RegisterCounter("failpoint_trips", &s->failpoint_trips);
  reg->RegisterCounter("max_rounds", &s->max_rounds, MergeKind::kMax);
  reg->RegisterCounter("versions_discarded", &s->versions_discarded);
}

inline void RegisterCounters(MetricsRegistry* reg, const SvStats* s) {
  reg->RegisterCounter("commits", &s->commits);
  reg->RegisterCounter("user_aborts", &s->user_aborts);
  reg->RegisterCounter("validation_failures", &s->validation_failures);
  reg->RegisterCounter("exhausted", &s->exhausted);
  reg->RegisterCounter("backoff_us", &s->backoff_us);
  reg->RegisterCounter("failpoint_trips", &s->failpoint_trips);
  reg->RegisterCounter("max_rounds", &s->max_rounds, MergeKind::kMax);
}

inline void RegisterCounters(MetricsRegistry* reg, const ServerStats* s) {
  reg->RegisterAtomicCounter("connections_opened", &s->connections_opened);
  reg->RegisterAtomicCounter("connections_closed", &s->connections_closed);
  reg->RegisterAtomicCounter("protocol_errors", &s->protocol_errors);
  reg->RegisterAtomicCounter("requests_received", &s->requests_received);
  reg->RegisterAtomicCounter("responses_sent", &s->responses_sent);
  reg->RegisterAtomicCounter("txn_committed", &s->txn_committed);
  reg->RegisterAtomicCounter("txn_user_aborted", &s->txn_user_aborted);
  reg->RegisterAtomicCounter("txn_exhausted", &s->txn_exhausted);
  reg->RegisterAtomicCounter("shed_overload", &s->shed_overload);
  reg->RegisterAtomicCounter("shed_rate_limited", &s->shed_rate_limited);
  reg->RegisterAtomicCounter("bad_requests", &s->bad_requests);
  reg->RegisterAtomicCounter("pings", &s->pings);
}

}  // namespace obs
}  // namespace mv3c

#endif  // MV3C_OBS_ENGINE_STATS_H_
