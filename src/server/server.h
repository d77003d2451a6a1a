#ifndef MV3C_SERVER_SERVER_H_
#define MV3C_SERVER_SERVER_H_

// The mv3c_serve network front-end (DESIGN §5k). One epoll I/O thread
// owns every connection: it parses CRC-framed binary requests (protocol.h),
// applies admission control (admission.h), and routes worker-produced
// responses back; a pool of worker threads pops admitted requests in
// small batches and drives them through the engine via a WorkloadHost.
// The same port speaks HTTP for observability — the first bytes of a
// connection are sniffed (binary frames open with the "MV3S" magic; no
// HTTP method starts with those bytes), and HTTP connections serve
// GET /metrics (Prometheus text exposition) and GET /healthz.
//
// Threading model:
//   * I/O thread: all sockets, all Conn state, the per-connection token
//     buckets. Nothing else touches them — no locks on the request path.
//   * Workers: pop from the AdmissionQueue (one mutex, batched), run
//     transactions, push {conn_id, ResponseHeader} onto the pending list
//     (second mutex) and wake the I/O thread through an eventfd. Under a
//     sync-ack WAL a worker parks one batch's responses while it runs the
//     next, then answers them once their epoch is durable.
//   * Scrapes: /metrics reads ServerStats atomics and the workers'
//     published engine snapshots — never the executors' live counters.

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/engine_stats.h"
#include "obs/metrics.h"
#include "server/admission.h"
#include "server/workload_host.h"

namespace mv3c::server {

struct ServerOptions {
  std::string bind_addr = "127.0.0.1";
  uint16_t port = 0;  // 0 = ephemeral; the bound port is printed/queried
  /// Admission queue depth — the overload bound. Everything past it sheds.
  size_t queue_depth = 1024;
  /// Max requests a worker pops per queue mutex acquisition.
  size_t batch = 16;
  /// Per-connection token bucket; 0 disables rate limiting.
  double client_rate = 0;
  double client_burst = 64;
  /// A client whose unread responses exceed this closes (slow reader).
  size_t max_out_buffer = 1 << 20;
  HostOptions host;
};

class Server {
 public:
  explicit Server(ServerOptions opts);
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Loads the workload, binds, listens, and spawns the I/O and worker
  /// threads. Returns false (with a message on stderr) on any failure, and
  /// before loading anything when a worker count, batch, queue depth or
  /// (with the WAL on) partition count is 0.
  bool Start();

  /// Drains admitted requests, flushes what can be flushed, closes every
  /// connection, and joins all threads. Idempotent.
  void Stop();

  uint16_t port() const { return port_; }
  const ServerStats& stats() const { return stats_; }
  size_t queue_peak_depth() const { return queue_->peak_depth(); }
  WorkloadHost* host() { return host_.get(); }

  /// The /metrics payload; public so tests can assert on the exposition
  /// without a socket.
  std::string MetricsText() const;

 private:
  struct Conn;
  struct PendingResponse {
    uint64_t conn_id;
    ResponseHeader rh;
  };
  /// A batch that has run: its responses, unsent, and the largest WAL
  /// epoch among its commits (0 when nothing was logged).
  struct RanBatch {
    std::vector<PendingResponse> responses;
    uint64_t epoch = 0;
  };

  void IoLoop();
  void WorkerLoop(size_t worker_id);
  RanBatch RunBatch(size_t worker_id,
                    const std::vector<QueuedRequest>& batch);
  void Answer(size_t worker_id, RanBatch&& ran);
  void AcceptNew();
  void HandleReadable(Conn* c);
  void HandleBinary(Conn* c, const uint8_t* data, size_t n);
  void HandleHttp(Conn* c);
  void OnFrame(Conn* c, const uint8_t* payload, uint32_t n);
  void RespondNow(Conn* c, uint64_t request_id, TxnStatus status,
                  uint32_t retry_after_us);
  void FlushOut(Conn* c);
  void CloseConn(Conn* c);
  void DrainPendingResponses();
  void PushResponses(std::vector<PendingResponse>&& batch);
  Conn* FindConn(uint64_t conn_id);
  void UpdateEpollOut(Conn* c, bool want_out);

  ServerOptions opts_;
  std::unique_ptr<WorkloadHost> host_;
  std::unique_ptr<AdmissionQueue> queue_;
  ServiceTimeEstimate svc_est_;
  ServerStats stats_;
  obs::MetricsRegistry registry_;  // views onto stats_ (atomics)

  int listen_fd_ = -1;
  int epoll_fd_ = -1;
  int wake_fd_ = -1;  // eventfd: worker->I/O wakeups and Stop()
  uint16_t port_ = 0;

  std::atomic<bool> stop_{false};
  std::atomic<bool> started_{false};
  std::thread io_thread_;
  std::vector<std::thread> workers_;

  std::mutex pending_mu_;
  std::vector<PendingResponse> pending_;  // guarded by pending_mu_

  // I/O-thread-only state (no locks): fd -> Conn and conn_id -> Conn.
  struct ConnTable;
  std::unique_ptr<ConnTable> conns_;
};

}  // namespace mv3c::server

#endif  // MV3C_SERVER_SERVER_H_
