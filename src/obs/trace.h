#ifndef MV3C_OBS_TRACE_H_
#define MV3C_OBS_TRACE_H_

// Per-thread lock-free event tracer (DESIGN §5d): each thread that emits
// an event owns a fixed 64 K-entry ring buffer (overwrite-oldest), so
// recording is a thread-local pointer load, one array store and one index
// bump — nothing shared, nothing locked, safe on every hot path including
// inside the commit critical section. Buffers register themselves with a
// global list on first use; Drain() walks all of them after the run and
// returns the surviving events in timestamp order, and WriteChromeJson()
// serializes them as Chrome trace_event JSON (load chrome://tracing or
// https://ui.perfetto.dev; see scripts/README_tracing.md).
//
// Tracing is gated on a process-global enable flag: disabled (the
// default), a compiled-in call site costs one relaxed atomic load and a
// predicted branch.

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <vector>

#include "common/macros.h"
#include "obs/metrics.h"  // TscNow

namespace mv3c::obs {

/// What happened. The set mirrors the phase taxonomy: lifecycle edges of
/// one transaction plus the shared maintenance events.
enum class TraceEvent : uint8_t {
  kBegin = 0,       // transaction drew its start timestamp
  kValidateFail,    // a validation round failed (repair/restart follows)
  kRepairRound,     // an MV3C repair round started
  kCommit,          // commit succeeded
  kAbort,           // user abort or retry-budget exhaustion
  kGc,              // a CollectGarbage round ran (id = nodes freed)
  kArenaRetire,     // a version slab retired (id = slab address low bits)
  kNumEvents,
};

inline const char* TraceEventName(TraceEvent e) {
  static constexpr const char* kNames[static_cast<int>(
      TraceEvent::kNumEvents)] = {"begin",  "validate_fail", "repair_round",
                                  "commit", "abort",         "gc",
                                  "arena_retire"};
  return kNames[static_cast<int>(e)];
}

inline constexpr size_t kTraceCapacity = 64 * 1024;  // events per thread

struct TraceRecord {
  uint64_t tsc = 0;
  uint64_t id = 0;   // transaction id / event payload
  uint32_t tid = 0;  // small per-thread ordinal, assigned on first event
  TraceEvent kind = TraceEvent::kBegin;
};

class Tracer {
 public:
  /// Turns recording on or off process-wide. Buffers are lazily created
  /// per thread on the first recorded event and survive until Reset().
  static void SetEnabled(bool on) {
    enabled_.store(on, std::memory_order_relaxed);
  }
  static bool enabled() { return enabled_.load(std::memory_order_relaxed); }

  static void Record(TraceEvent kind, uint64_t id) {
    if (MV3C_LIKELY(!enabled())) return;
    RecordSlow(kind, id);
  }

  /// Moves every surviving event (oldest first, globally sorted by
  /// timestamp) into `*out` and clears the rings. Returns the event count.
  static size_t Drain(std::vector<TraceRecord>* out);

  /// Drains and writes Chrome trace_event JSON ("ph":"i" instant events,
  /// microsecond timestamps relative to the earliest event).
  static void WriteChromeJson(std::FILE* f);

  /// Drops all per-thread buffers (tests); existing threads re-register on
  /// their next recorded event.
  static void Reset();

 private:
  static void RecordSlow(TraceEvent kind, uint64_t id);

  static std::atomic<bool> enabled_;
};

/// Benchmark hooks: MV3C_TRACE=<path> in the environment switches tracing
/// on at startup and dumps the Chrome JSON at exit.
void EnableTraceFromEnv();
void DumpTraceIfRequested();

#define MV3C_TRACE_EVENT(kind, id) ::mv3c::obs::Tracer::Record((kind), (id))

}  // namespace mv3c::obs

#endif  // MV3C_OBS_TRACE_H_
