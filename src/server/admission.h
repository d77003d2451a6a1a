#ifndef MV3C_SERVER_ADMISSION_H_
#define MV3C_SERVER_ADMISSION_H_

// Admission control for the serving front-end (DESIGN §5k): a per-client
// token bucket (rate limiting — protects the server from one greedy
// client) in front of one bounded admission queue (load shedding —
// protects the engine from aggregate overload). Both reject *before* the
// request touches the engine, so under overload the expensive path — MVCC
// version churn, repair rounds, WAL serialization — is reserved for the
// requests the server has decided to serve, and everything else costs one
// response frame. The shed response carries a server-computed
// retry-after, so backoff pressure is driven by the server's actual
// service rate rather than client guesswork.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>
#include <vector>

namespace mv3c::server {

/// Classic token bucket over a monotonic nanosecond clock. Not thread-safe
/// — each connection owns one and only the I/O thread touches it.
class TokenBucket {
 public:
  /// `rate` tokens per second, up to `burst` accumulated. rate <= 0 means
  /// unlimited (TryTake always succeeds).
  TokenBucket(double rate, double burst) : rate_(rate), burst_(burst) {}

  /// Takes one token if available. On refusal, *retry_after_us receives
  /// the exact time until the next token accrues.
  bool TryTake(uint64_t now_ns, uint32_t* retry_after_us) {
    if (rate_ <= 0) return true;
    Refill(now_ns);
    if (tokens_ >= 1.0) {
      tokens_ -= 1.0;
      return true;
    }
    const double deficit_s = (1.0 - tokens_) / rate_;
    *retry_after_us = static_cast<uint32_t>(deficit_s * 1e6) + 1;
    return false;
  }

  double tokens() const { return tokens_; }

 private:
  void Refill(uint64_t now_ns) {
    if (last_ns_ == 0) {
      last_ns_ = now_ns;
      tokens_ = burst_;
      return;
    }
    const double dt = static_cast<double>(now_ns - last_ns_) * 1e-9;
    last_ns_ = now_ns;
    tokens_ += dt * rate_;
    if (tokens_ > burst_) tokens_ = burst_;
  }

  double rate_;
  double burst_;
  double tokens_ = 0;
  uint64_t last_ns_ = 0;
};

/// One admitted request, queued between the I/O thread and the worker
/// pool. `conn_id` routes the response back (the server resolves it to a
/// live connection — or drops the response if the client already left).
struct QueuedRequest {
  uint64_t conn_id = 0;
  uint64_t request_id = 0;
  uint16_t opcode = 0;
  uint64_t enqueue_ns = 0;  // for ResponseHeader::queue_us
  std::vector<uint8_t> params;
};

/// Bounded MPMC queue with load-shedding semantics: producers never block
/// (TryPush fails when full — that *is* the admission decision), consumers
/// block until work arrives or the queue is closed. Workers pop small
/// batches so one mutex acquisition amortizes over several transactions
/// entering the engine's epoch pipeline together.
class AdmissionQueue {
 public:
  explicit AdmissionQueue(size_t depth) : depth_(depth) {}

  /// Non-blocking; returns false (sheds) when the queue is at depth.
  bool TryPush(QueuedRequest&& r) {
    {
      std::lock_guard<std::mutex> g(mu_);
      if (closed_ || q_.size() >= depth_) return false;
      q_.push_back(std::move(r));
      if (q_.size() > peak_depth_) peak_depth_ = q_.size();
    }
    cv_.notify_one();
    return true;
  }

  /// Pops up to `max` requests, blocking while the queue is empty and
  /// open. Returns an empty vector only when the queue is closed and
  /// drained — the worker's exit signal. With `block` false it returns at
  /// once, empty also when the queue is merely empty.
  std::vector<QueuedRequest> PopBatch(size_t max, bool block = true) {
    std::unique_lock<std::mutex> g(mu_);
    if (block) cv_.wait(g, [&] { return closed_ || !q_.empty(); });
    std::vector<QueuedRequest> out;
    while (!q_.empty() && out.size() < max) {
      out.push_back(std::move(q_.front()));
      q_.pop_front();
    }
    return out;
  }

  /// Closes the queue: pending requests still drain, new pushes fail,
  /// and PopBatch returns empty once drained.
  void Close() {
    {
      std::lock_guard<std::mutex> g(mu_);
      closed_ = true;
    }
    cv_.notify_all();
  }

  size_t depth() const {
    std::lock_guard<std::mutex> g(mu_);
    return q_.size();
  }
  /// High-water mark of the queue length — the overload test's "bounded
  /// queue depth" witness.
  size_t peak_depth() const {
    std::lock_guard<std::mutex> g(mu_);
    return peak_depth_;
  }
  size_t capacity() const { return depth_; }

 private:
  const size_t depth_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<QueuedRequest> q_;
  size_t peak_depth_ = 0;
  bool closed_ = false;
};

/// Exponentially-weighted estimate of per-transaction service time,
/// updated by workers after every completed request and read by the I/O
/// thread to compute overload retry-after hints. Stored in a single
/// atomic; the EWMA update races benignly (a lost update nudges the
/// estimate by one sample).
class ServiceTimeEstimate {
 public:
  void Record(uint64_t service_ns) {
    const uint64_t prev = ewma_ns_.load(std::memory_order_relaxed);
    const uint64_t next =
        prev == 0 ? service_ns : prev - (prev >> 3) + (service_ns >> 3);
    ewma_ns_.store(next, std::memory_order_relaxed);
  }

  uint64_t ewma_ns() const { return ewma_ns_.load(std::memory_order_relaxed); }

  /// Retry-after for a shed request: the time the current backlog takes to
  /// drain at the estimated service rate, clamped to [min, max]. The clamp
  /// floor keeps shed clients from hammering a momentarily-empty estimate;
  /// the ceiling keeps a cold estimate from parking clients for minutes.
  uint32_t RetryAfterUs(size_t backlog) const {
    const uint64_t ewma = ewma_ns();
    const uint64_t est_ns = ewma == 0 ? 1'000'000 : ewma * (backlog + 1);
    uint64_t us = est_ns / 1000;
    if (us < 200) us = 200;
    if (us > 1'000'000) us = 1'000'000;
    return static_cast<uint32_t>(us);
  }

 private:
  std::atomic<uint64_t> ewma_ns_{0};
};

inline uint64_t MonotonicNowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace mv3c::server

#endif  // MV3C_SERVER_ADMISSION_H_
