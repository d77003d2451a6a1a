#ifndef MV3C_DRIVER_WINDOW_DRIVER_H_
#define MV3C_DRIVER_WINDOW_DRIVER_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "common/macros.h"
#include "common/status.h"

namespace mv3c {

/// Aggregate outcome of driving a transaction stream.
struct DriveResult {
  uint64_t committed = 0;
  uint64_t user_aborted = 0;
  uint64_t exhausted = 0;    // gave up after the retry budget
  uint64_t escalations = 0;  // failed rounds that re-entered the window
  uint64_t max_rounds = 0;   // most rounds any one transaction took
  uint64_t steps = 0;        // total executor steps (execution slices)
  double seconds = 0;        // wall-clock time of the run
};

/// Maintenance cadence shared by every driver and the served host: one
/// firing per this many completed transactions.
inline constexpr uint64_t kMaintenanceEveryCompletions = 1024;

/// Window-based simulated concurrency (paper Appendix C).
///
/// Given a window size N, N transactions are picked from the input stream;
/// all of them start, then they execute, and finally they validate and
/// commit one after the other — all on a single thread, which makes runs
/// deterministic and decouples the concurrency level from the core count.
/// Transactions that fail validation acquire a new timestamp immediately
/// (inside their commit attempt) and their repair/re-execution moves to the
/// next window; N = 1 is serial execution.
///
/// `Executor` must provide: Reset(Program), Begin(), Step() -> StepResult.
template <typename Executor>
class WindowDriver {
 public:
  using Program = typename Executor::Program;
  /// Returns the next transaction program, or nullopt at end of stream.
  using ProgramSource = std::function<std::optional<Program>()>;
  /// Invoked periodically (see the maintenance cadence below) for
  /// maintenance such as garbage collection.
  using MaintenanceFn = std::function<void()>;
  /// Invoked when a transaction finishes: the stream index it was drawn at,
  /// its outcome, and its executor (e.g. for last_commit_ts()).
  using CompletionFn =
      std::function<void(uint64_t stream_index, StepResult, Executor&)>;

  /// `make_executor` creates one executor per window slot.
  template <typename MakeExecutor>
  WindowDriver(size_t window_size, MakeExecutor&& make_executor,
               MaintenanceFn maintenance = nullptr)
      : maintenance_(std::move(maintenance)) {
    MV3C_CHECK(window_size >= 1);
    slots_.reserve(window_size);
    for (size_t i = 0; i < window_size; ++i) {
      slots_.push_back(Slot{make_executor(), false});
    }
  }

  /// Maintenance cadence: one firing per kMaintenanceEveryCompletions
  /// completed transactions OR per kMaintenanceEverySteps executor steps
  /// since the last firing, whichever comes first. The step bound exists
  /// because completions alone stall under extreme contention (transactions
  /// retrying for many rounds complete nothing, yet the recently-committed
  /// list and the retired-version backlog keep growing). Both counters
  /// reset together on every firing so the two triggers can never stack
  /// into back-to-back GC passes.
  static constexpr uint64_t kMaintenanceEverySteps = 2048;

  /// Drives the stream to completion and returns aggregate counts,
  /// including the wall-clock `seconds` of the whole run.
  DriveResult Run(const ProgramSource& next_program) {
    DriveResult result;
    const auto run_start = std::chrono::steady_clock::now();
    uint64_t completions_since_maintenance = 0;
    uint64_t steps_since_maintenance = 0;
    const auto run_maintenance = [&] {
      completions_since_maintenance = 0;
      steps_since_maintenance = 0;
      maintenance_();
    };
    bool stream_open = true;
    while (true) {
      // Refill: start fresh transactions in the free slots (they must all
      // start before any executes, so they are genuinely concurrent).
      bool any_busy = false;
      for (Slot& slot : slots_) {
        if (!slot.busy && stream_open) {
          std::optional<Program> p = next_program();
          if (!p.has_value()) {
            stream_open = false;
          } else {
            slot.executor->Reset(std::move(*p));
            slot.executor->Begin();
            slot.busy = true;
            slot.rounds = 0;
            slot.stream_index = next_index_++;
          }
        }
        any_busy |= slot.busy;
      }
      if (!any_busy) break;
      // Execute + validate/commit one after the other.
      for (Slot& slot : slots_) {
        if (!slot.busy) continue;
        ++result.steps;
        if (maintenance_ != nullptr &&
            ++steps_since_maintenance >= kMaintenanceEverySteps) {
          run_maintenance();
        }
        StepResult r = slot.executor->Step();
        if (r == StepResult::kNeedsRetry) {
          // A failed round re-enters the next window. Count it — silent
          // re-queuing is how starvation hides; the executor's retry
          // budget ends the loop with kExhausted.
          ++slot.rounds;
          ++result.escalations;
          result.max_rounds = std::max<uint64_t>(result.max_rounds,
                                                 slot.rounds);
          continue;
        }
        slot.busy = false;
        if (r == StepResult::kCommitted) {
          ++result.committed;
        } else if (r == StepResult::kExhausted) {
          ++result.exhausted;
        } else {
          ++result.user_aborted;
        }
        if (on_complete_ != nullptr) {
          on_complete_(slot.stream_index, r, *slot.executor);
        }
        if (maintenance_ != nullptr &&
            ++completions_since_maintenance >= kMaintenanceEveryCompletions) {
          run_maintenance();
        }
      }
    }
    result.seconds = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - run_start)
                         .count();
    return result;
  }

  /// Access to the slot executors (for stats aggregation).
  std::vector<Executor*> executors() {
    std::vector<Executor*> out;
    out.reserve(slots_.size());
    for (Slot& s : slots_) out.push_back(s.executor.get());
    return out;
  }

  void set_on_complete(CompletionFn fn) { on_complete_ = std::move(fn); }

 private:
  struct Slot {
    std::unique_ptr<Executor> executor;
    bool busy;
    uint32_t rounds = 0;
    uint64_t stream_index = 0;
  };

  std::vector<Slot> slots_;
  MaintenanceFn maintenance_;
  CompletionFn on_complete_;
  uint64_t next_index_ = 0;
};

/// Convenience: a ProgramSource over a fixed count, generating each program
/// from an index.
template <typename Program>
std::function<std::optional<Program>()> CountedSource(
    uint64_t count, std::function<Program(uint64_t)> generate) {
  auto next = std::make_shared<uint64_t>(0);
  return [count, generate = std::move(generate), next]()
             -> std::optional<Program> {
    if (*next >= count) return std::nullopt;
    return generate((*next)++);
  };
}

}  // namespace mv3c

#endif  // MV3C_DRIVER_WINDOW_DRIVER_H_
