#ifndef MV3C_DRIVER_THREAD_DRIVER_H_
#define MV3C_DRIVER_THREAD_DRIVER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "common/status.h"
#include "driver/window_driver.h"

namespace mv3c {

/// Multi-threaded driver: a fixed pool of worker threads consumes a queue
/// of transactions (paper §6.1.1: "a fixed number of worker threads for
/// handling a queue of transactions"). Each worker owns one executor and
/// steps each transaction until it commits, aborts or exhausts the
/// executor's retry budget, retrying through repair/restart as its engine
/// dictates.
///
/// `Executor` must provide: Reset(Program), Begin(), Step() -> StepResult.
template <typename Executor>
class ThreadDriver {
 public:
  using Program = typename Executor::Program;

  /// `make_executor(worker_id)` creates the per-worker executor;
  /// `program_at(txn_index, worker_id)` generates the i-th transaction.
  /// Worker 0 runs `maintenance` every kMaintenanceEveryCompletions of its
  /// own completions.
  template <typename MakeExecutor, typename ProgramAt>
  static DriveResult Run(size_t num_threads, uint64_t num_txns,
                         MakeExecutor&& make_executor, ProgramAt&& program_at,
                         std::function<void()> maintenance = nullptr) {
    std::atomic<uint64_t> next{0};
    std::atomic<uint64_t> committed{0}, user_aborted{0}, exhausted{0};
    std::atomic<uint64_t> escalations{0}, max_rounds{0}, steps{0};
    std::vector<std::unique_ptr<Executor>> executors;
    executors.reserve(num_threads);
    for (size_t w = 0; w < num_threads; ++w) {
      executors.push_back(make_executor(w));
    }
    const auto t0 = std::chrono::steady_clock::now();
    auto worker = [&](size_t w) {
      Executor& exec = *executors[w];
      uint64_t local_commits = 0, local_aborts = 0, local_exhausted = 0;
      uint64_t local_escalations = 0, local_max_rounds = 0, local_steps = 0;
      uint64_t since_maintenance = 0;
      while (true) {
        const uint64_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= num_txns) break;
        exec.Reset(program_at(i, w));
        exec.Begin();
        StepResult r;
        uint32_t rounds = 0;
        while (true) {
          ++local_steps;
          r = exec.Step();
          if (r != StepResult::kNeedsRetry) break;
          ++rounds;
          ++local_escalations;
        }
        if (rounds > local_max_rounds) local_max_rounds = rounds;
        if (r == StepResult::kCommitted) {
          ++local_commits;
        } else if (r == StepResult::kExhausted) {
          ++local_exhausted;
        } else {
          ++local_aborts;
        }
        if (w == 0 && maintenance != nullptr &&
            ++since_maintenance >= kMaintenanceEveryCompletions) {
          since_maintenance = 0;
          maintenance();
        }
      }
      committed.fetch_add(local_commits, std::memory_order_relaxed);
      user_aborted.fetch_add(local_aborts, std::memory_order_relaxed);
      exhausted.fetch_add(local_exhausted, std::memory_order_relaxed);
      escalations.fetch_add(local_escalations, std::memory_order_relaxed);
      steps.fetch_add(local_steps, std::memory_order_relaxed);
      uint64_t seen = max_rounds.load(std::memory_order_relaxed);
      while (seen < local_max_rounds &&
             !max_rounds.compare_exchange_weak(seen, local_max_rounds,
                                               std::memory_order_relaxed)) {
      }
    };
    std::vector<std::thread> threads;
    threads.reserve(num_threads);
    for (size_t w = 0; w < num_threads; ++w) threads.emplace_back(worker, w);
    for (auto& t : threads) t.join();
    const auto t1 = std::chrono::steady_clock::now();

    DriveResult result;
    // Relaxed snapshot reads: every writer thread has been join()ed above,
    // and join() establishes a happens-before with each worker's final
    // fetch_add, so no ordering stronger than relaxed is needed here.
    result.committed = committed.load(std::memory_order_relaxed);
    result.user_aborted = user_aborted.load(std::memory_order_relaxed);
    result.exhausted = exhausted.load(std::memory_order_relaxed);
    result.escalations = escalations.load(std::memory_order_relaxed);
    result.max_rounds = max_rounds.load(std::memory_order_relaxed);
    result.steps = steps.load(std::memory_order_relaxed);
    result.seconds = std::chrono::duration<double>(t1 - t0).count();
    return result;
  }
};

}  // namespace mv3c

#endif  // MV3C_DRIVER_THREAD_DRIVER_H_
