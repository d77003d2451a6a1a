#include "server/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <optional>
#include <unordered_map>
#include <utility>

#include "obs/prom_export.h"

namespace mv3c::server {

namespace {
constexpr int kMaxEpollEvents = 128;
constexpr size_t kRecvChunk = 64 * 1024;
constexpr size_t kMaxHttpHeader = 8 * 1024;
// The sniffed protocol decision needs this many bytes ("MV3S" or not).
constexpr size_t kSniffBytes = 4;
}  // namespace

struct Server::Conn {
  int fd = -1;
  uint64_t id = 0;
  bool sniffed = false;
  bool is_http = false;
  bool closing = false;   // close as soon as `out` drains
  bool want_out = false;  // EPOLLOUT currently armed
  FrameReader reader;
  std::string sniff_buf;
  std::string http_buf;
  std::vector<uint8_t> out;
  size_t out_off = 0;
  TokenBucket bucket{0, 0};

  Conn(double rate, double burst) : bucket(rate, burst) {}
};

struct Server::ConnTable {
  std::unordered_map<int, std::unique_ptr<Conn>> by_fd;
  std::unordered_map<uint64_t, Conn*> by_id;
  std::vector<int> dead_fds;  // swept at the end of each I/O iteration
  uint64_t next_id = 1;
};

Server::Server(ServerOptions opts)
    : opts_(std::move(opts)), conns_(std::make_unique<ConnTable>()) {
  obs::RegisterCounters(&registry_, &stats_);
}

Server::~Server() { Stop(); }

bool Server::Start() {
  // Options that leave the server unable to answer: no worker, a zero pop
  // batch (PopBatch(0) is empty, so every worker would leave its loop at
  // once), no admission slot, or a WAL with no stream (0 would fall back to
  // MV3C_WAL_PARTITIONS).
  if (opts_.host.workers == 0 || opts_.batch == 0 || opts_.queue_depth == 0 ||
      (opts_.host.wal && opts_.host.wal_partitions == 0)) {
    std::fprintf(stderr,
                 "workers, batch, queue depth and WAL partitions must be "
                 "at least 1\n");
    return false;
  }
  host_ = MakeWorkloadHost(opts_.host);
  if (host_ == nullptr) return false;
  queue_ = std::make_unique<AdmissionQueue>(opts_.queue_depth);

  listen_fd_ =
      socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) {
    std::perror("socket");
    return false;
  }
  const int one = 1;
  setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(opts_.port);
  if (inet_pton(AF_INET, opts_.bind_addr.c_str(), &addr.sin_addr) != 1) {
    std::fprintf(stderr, "bad bind address '%s'\n", opts_.bind_addr.c_str());
    return false;
  }
  if (bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    std::perror("bind");
    return false;
  }
  if (listen(listen_fd_, 512) != 0) {
    std::perror("listen");
    return false;
  }
  sockaddr_in bound{};
  socklen_t blen = sizeof(bound);
  getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &blen);
  port_ = ntohs(bound.sin_port);

  epoll_fd_ = epoll_create1(EPOLL_CLOEXEC);
  wake_fd_ = eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (epoll_fd_ < 0 || wake_fd_ < 0) {
    std::perror("epoll/eventfd");
    return false;
  }
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = listen_fd_;
  epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev);
  ev.data.fd = wake_fd_;
  epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev);

  started_.store(true, std::memory_order_release);
  io_thread_ = std::thread([this] { IoLoop(); });
  workers_.reserve(host_->workers());
  for (size_t w = 0; w < host_->workers(); ++w) {
    workers_.emplace_back([this, w] { WorkerLoop(w); });
  }
  return true;
}

void Server::Stop() {
  if (!started_.exchange(false, std::memory_order_acq_rel)) return;
  // Order matters: close the queue first so workers drain what was
  // admitted and exit; their final responses land in pending_ before the
  // I/O thread is told to stop, so every admitted request is answered.
  queue_->Close();
  for (auto& t : workers_) t.join();
  workers_.clear();
  stop_.store(true, std::memory_order_release);
  eventfd_write(wake_fd_, 1);
  io_thread_.join();
  host_->Shutdown();
  if (listen_fd_ >= 0) close(listen_fd_);
  if (epoll_fd_ >= 0) close(epoll_fd_);
  if (wake_fd_ >= 0) close(wake_fd_);
  listen_fd_ = epoll_fd_ = wake_fd_ = -1;
}

// --- worker side ---

void Server::WorkerLoop(size_t worker_id) {
  // Durable-ack pipelining (DESIGN §5k): a batch whose epoch is not yet
  // durable is parked while the worker runs the next batch, and answered
  // after it, so the fsync round overlaps useful work. One batch at most
  // is parked: a worker holds no more than opts_.batch unsent responses.
  std::optional<RanBatch> parked;
  auto answer_parked = [&] {
    Answer(worker_id, std::move(*parked));
    parked.reset();
  };
  while (true) {
    // Never block on the queue while holding answers: an empty queue
    // leaves nothing to overlap with, so the parked batch goes out first.
    const std::vector<QueuedRequest> batch =
        queue_->PopBatch(opts_.batch, /*block=*/!parked.has_value());
    if (batch.empty()) {
      if (!parked) break;  // closed and drained
      answer_parked();
      continue;
    }
    if (parked && parked->epoch <= host_->WalDurableEpoch()) answer_parked();
    RanBatch ran = RunBatch(worker_id, batch);
    if (parked) {
      Bump(stats_.overlapped_batches);
      answer_parked();
    }
    // Park only a batch whose wait would block (sync-ack WAL, epoch not
    // yet durable); its fsync round starts now and overlaps the next batch.
    if (host_->RequestDurable(ran.epoch)) {
      parked = std::move(ran);
    } else {
      Answer(worker_id, std::move(ran));
    }
  }
  host_->FlushWorkerMetrics(worker_id);
}

Server::RanBatch Server::RunBatch(size_t worker_id,
                                  const std::vector<QueuedRequest>& batch) {
  RanBatch ran;
  ran.responses.reserve(batch.size());
  for (const QueuedRequest& req : batch) {
    const uint64_t t0 = MonotonicNowNs();
    const WorkloadHost::Result r =
        host_->Run(worker_id, req.opcode, req.params.data(),
                   req.params.size());
    svc_est_.Record(MonotonicNowNs() - t0);
    ResponseHeader rh{};
    rh.request_id = req.request_id;
    rh.status = static_cast<uint16_t>(r.status);
    rh.commit_ts = r.commit_ts;
    rh.rounds = r.rounds;
    const uint64_t queue_us = (t0 - req.enqueue_ns) / 1000;
    rh.queue_us = queue_us > ~0u ? ~0u : static_cast<uint32_t>(queue_us);
    switch (r.status) {
      case TxnStatus::kCommitted:
        Bump(stats_.txn_committed);
        ran.epoch = std::max(ran.epoch, r.wal_epoch);
        break;
      case TxnStatus::kUserAborted:
        Bump(stats_.txn_user_aborted);
        break;
      case TxnStatus::kExhausted:
        Bump(stats_.txn_exhausted);
        rh.retry_after_us = svc_est_.RetryAfterUs(queue_->depth());
        break;
      default:
        Bump(stats_.bad_requests);
        break;
    }
    ran.responses.push_back({req.conn_id, rh});
  }
  return ran;
}

void Server::Answer(size_t worker_id, RanBatch&& ran) {
  // Group commit (DESIGN §5k): one durable wait covers the whole batch.
  // This worker's commit epochs never decrease, so every commit of the
  // batch is tagged at or below ran.epoch; no response leaves before it.
  if (host_->WaitCommitDurable(ran.epoch)) {
    for (PendingResponse& pr : ran.responses) {
      if (pr.rh.status == static_cast<uint16_t>(TxnStatus::kCommitted)) {
        pr.rh.flags |= kRespFlagDurable;
      }
    }
  }
  // Publish before answering: a scrape that follows the last answer sees
  // every commit answered so far.
  host_->FlushWorkerMetrics(worker_id);
  PushResponses(std::move(ran.responses));
}

void Server::PushResponses(std::vector<PendingResponse>&& batch) {
  {
    std::lock_guard<std::mutex> g(pending_mu_);
    for (PendingResponse& r : batch) pending_.push_back(r);
  }
  eventfd_write(wake_fd_, 1);
}

// --- I/O side ---

void Server::IoLoop() {
  epoll_event events[kMaxEpollEvents];
  while (true) {
    const int n = epoll_wait(epoll_fd_, events, kMaxEpollEvents, -1);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      if (fd == wake_fd_) {
        eventfd_t v;
        eventfd_read(wake_fd_, &v);
        DrainPendingResponses();
        continue;
      }
      if (fd == listen_fd_) {
        AcceptNew();
        continue;
      }
      auto it = conns_->by_fd.find(fd);
      if (it == conns_->by_fd.end()) continue;
      Conn* c = it->second.get();
      if (c->fd < 0) continue;  // closed earlier this iteration
      if (events[i].events & (EPOLLHUP | EPOLLERR)) {
        CloseConn(c);
        continue;
      }
      if (events[i].events & EPOLLIN) HandleReadable(c);
      if (c->fd >= 0 && (events[i].events & EPOLLOUT)) FlushOut(c);
    }
    // Sweep connections closed during this iteration.
    for (const int fd : conns_->dead_fds) conns_->by_fd.erase(fd);
    conns_->dead_fds.clear();
    if (stop_.load(std::memory_order_acquire)) {
      // Final drain: workers have exited, every remaining response is in
      // pending_. Append them and give each socket one best-effort flush.
      DrainPendingResponses();
      for (auto& [fd, conn] : conns_->by_fd) {
        if (conn->fd >= 0 && conn->out.size() > conn->out_off) {
          FlushOut(conn.get());
        }
        if (conn->fd >= 0) CloseConn(conn.get());
      }
      conns_->by_fd.clear();
      conns_->dead_fds.clear();
      return;
    }
  }
}

void Server::AcceptNew() {
  while (true) {
    const int fd = accept4(listen_fd_, nullptr, nullptr,
                           SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) return;  // EAGAIN or transient error: epoll will re-arm
    const int one = 1;
    setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    auto conn =
        std::make_unique<Conn>(opts_.client_rate, opts_.client_burst);
    conn->fd = fd;
    conn->id = conns_->next_id++;
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = fd;
    epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev);
    conns_->by_id[conn->id] = conn.get();
    conns_->by_fd[fd] = std::move(conn);
    Bump(stats_.connections_opened);
  }
}

void Server::HandleReadable(Conn* c) {
  uint8_t buf[kRecvChunk];
  while (c->fd >= 0) {
    const ssize_t n = recv(c->fd, buf, sizeof(buf), 0);
    if (n == 0) {  // peer closed
      CloseConn(c);
      return;
    }
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == EINTR) continue;
      CloseConn(c);
      return;
    }
    const uint8_t* data = buf;
    size_t len = static_cast<size_t>(n);
    if (!c->sniffed) {
      c->sniff_buf.append(reinterpret_cast<const char*>(data), len);
      if (c->sniff_buf.size() < kSniffBytes) continue;
      c->sniffed = true;
      c->is_http = std::memcmp(c->sniff_buf.data(), "MV3S", 4) != 0;
      // Re-feed the sniffed prefix through the chosen handler.
      std::string head = std::move(c->sniff_buf);
      c->sniff_buf.clear();
      if (c->is_http) {
        c->http_buf = std::move(head);
        HandleHttp(c);
      } else {
        HandleBinary(c, reinterpret_cast<const uint8_t*>(head.data()),
                     head.size());
      }
      continue;
    }
    if (c->is_http) {
      c->http_buf.append(reinterpret_cast<const char*>(data), len);
      HandleHttp(c);
    } else {
      HandleBinary(c, data, len);
    }
  }
}

void Server::HandleBinary(Conn* c, const uint8_t* data, size_t n) {
  const bool ok = c->reader.Feed(data, n, [this, c](const uint8_t* payload,
                                                    uint32_t bytes) {
    if (c->fd < 0) return;  // closed by an earlier frame in this batch
    OnFrame(c, payload, bytes);
  });
  if (!ok && c->fd >= 0) {
    // Any framing violation is terminal (protocol.h): no resync, no
    // partial transaction — the connection dies.
    Bump(stats_.protocol_errors);
    CloseConn(c);
  }
}

void Server::OnFrame(Conn* c, const uint8_t* payload, uint32_t n) {
  if (n < sizeof(RequestHeader)) {
    Bump(stats_.protocol_errors);
    CloseConn(c);
    return;
  }
  RequestHeader rq;
  std::memcpy(&rq, payload, sizeof(rq));
  Bump(stats_.requests_received);
  if (rq.flags != 0 || rq.reserved != 0) {
    Bump(stats_.bad_requests);
    RespondNow(c, rq.request_id, TxnStatus::kBadRequest, 0);
    return;
  }
  if (rq.opcode == static_cast<uint16_t>(Op::kPing)) {
    Bump(stats_.pings);
    RespondNow(c, rq.request_id, TxnStatus::kPong, 0);
    return;
  }
  const uint8_t* params = payload + sizeof(rq);
  const size_t param_bytes = n - sizeof(rq);
  if (!host_->Accepts(rq.opcode, param_bytes)) {
    Bump(stats_.bad_requests);
    RespondNow(c, rq.request_id, TxnStatus::kBadRequest, 0);
    return;
  }
  const uint64_t now_ns = MonotonicNowNs();
  uint32_t retry_after_us = 0;
  if (!c->bucket.TryTake(now_ns, &retry_after_us)) {
    Bump(stats_.shed_rate_limited);
    RespondNow(c, rq.request_id, TxnStatus::kRateLimited, retry_after_us);
    return;
  }
  QueuedRequest req;
  req.conn_id = c->id;
  req.request_id = rq.request_id;
  req.opcode = rq.opcode;
  req.enqueue_ns = now_ns;
  req.params.assign(params, params + param_bytes);
  if (!queue_->TryPush(std::move(req))) {
    // The admission decision (DESIGN §5k): the queue is the overload
    // bound, and a full queue costs the server one response frame, not a
    // transaction. The retry hint is the backlog drain time at the
    // workers' measured service rate.
    Bump(stats_.shed_overload);
    RespondNow(c, rq.request_id, TxnStatus::kOverload,
               svc_est_.RetryAfterUs(queue_->depth()));
  }
}

void Server::RespondNow(Conn* c, uint64_t request_id, TxnStatus status,
                        uint32_t retry_after_us) {
  ResponseHeader rh{};
  rh.request_id = request_id;
  rh.status = static_cast<uint16_t>(status);
  rh.retry_after_us = retry_after_us;
  AppendResponse(&c->out, rh);
  Bump(stats_.responses_sent);
  FlushOut(c);
}

void Server::FlushOut(Conn* c) {
  while (c->out_off < c->out.size()) {
    const ssize_t n = send(c->fd, c->out.data() + c->out_off,
                           c->out.size() - c->out_off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (errno == EINTR) continue;
      CloseConn(c);
      return;
    }
    c->out_off += static_cast<size_t>(n);
  }
  if (c->out_off >= c->out.size()) {
    c->out.clear();
    c->out_off = 0;
    if (c->closing) {
      CloseConn(c);
      return;
    }
    UpdateEpollOut(c, false);
    return;
  }
  // A reader slower than its response stream cannot grow server memory
  // unboundedly: past the cap the connection is dropped.
  if (c->out.size() - c->out_off > opts_.max_out_buffer) {
    CloseConn(c);
    return;
  }
  UpdateEpollOut(c, true);
}

void Server::UpdateEpollOut(Conn* c, bool want_out) {
  if (c->want_out == want_out) return;
  c->want_out = want_out;
  epoll_event ev{};
  ev.events = EPOLLIN | (want_out ? EPOLLOUT : 0u);
  ev.data.fd = c->fd;
  epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, c->fd, &ev);
}

void Server::CloseConn(Conn* c) {
  if (c->fd < 0) return;
  epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, c->fd, nullptr);
  close(c->fd);
  conns_->by_id.erase(c->id);
  conns_->dead_fds.push_back(c->fd);
  c->fd = -1;
  Bump(stats_.connections_closed);
}

Server::Conn* Server::FindConn(uint64_t conn_id) {
  auto it = conns_->by_id.find(conn_id);
  return it == conns_->by_id.end() ? nullptr : it->second;
}

void Server::DrainPendingResponses() {
  std::vector<PendingResponse> batch;
  {
    std::lock_guard<std::mutex> g(pending_mu_);
    batch.swap(pending_);
  }
  for (const PendingResponse& r : batch) {
    Conn* c = FindConn(r.conn_id);
    if (c == nullptr || c->fd < 0) continue;  // client already left
    AppendResponse(&c->out, r.rh);
    Bump(stats_.responses_sent);
  }
  // Flush once per connection, not once per response.
  for (const PendingResponse& r : batch) {
    Conn* c = FindConn(r.conn_id);
    if (c != nullptr && c->fd >= 0 && c->out.size() > c->out_off) {
      FlushOut(c);
    }
  }
}

// --- HTTP observability endpoints ---

void Server::HandleHttp(Conn* c) {
  const size_t hdr_end = c->http_buf.find("\r\n\r\n");
  if (hdr_end == std::string::npos) {
    if (c->http_buf.size() > kMaxHttpHeader) CloseConn(c);
    return;
  }
  const size_t line_end = c->http_buf.find("\r\n");
  const std::string line = c->http_buf.substr(0, line_end);
  std::string method, path;
  const size_t sp1 = line.find(' ');
  if (sp1 != std::string::npos) {
    method = line.substr(0, sp1);
    const size_t sp2 = line.find(' ', sp1 + 1);
    path = sp2 == std::string::npos ? line.substr(sp1 + 1)
                                    : line.substr(sp1 + 1, sp2 - sp1 - 1);
  }
  std::string body;
  const char* status = "200 OK";
  const char* ctype = "text/plain; version=0.0.4; charset=utf-8";
  if (method != "GET") {
    status = "405 Method Not Allowed";
    body = "method not allowed\n";
  } else if (path == "/metrics") {
    body = MetricsText();
  } else if (path == "/healthz") {
    body = "ok\n";
  } else {
    status = "404 Not Found";
    body = "not found\n";
  }
  char hdr[256];
  const int hn = std::snprintf(hdr, sizeof(hdr),
                               "HTTP/1.1 %s\r\n"
                               "Content-Type: %s\r\n"
                               "Content-Length: %zu\r\n"
                               "Connection: close\r\n\r\n",
                               status, ctype, body.size());
  c->out.insert(c->out.end(), hdr, hdr + hn);
  c->out.insert(c->out.end(), body.begin(), body.end());
  c->closing = true;
  FlushOut(c);
}

std::string Server::MetricsText() const {
  obs::PromTextWriter w;
  obs::WriteSnapshot(&w, registry_.Snapshot(), "mv3c_server");
  w.Gauge("mv3c_server_admission_queue_depth",
          "requests currently waiting for a worker",
          static_cast<double>(queue_->depth()));
  w.Gauge("mv3c_server_admission_queue_capacity",
          "admission queue bound; pushes past it shed",
          static_cast<double>(queue_->capacity()));
  w.Gauge("mv3c_server_admission_queue_peak_depth",
          "high-water mark of the admission queue",
          static_cast<double>(queue_->peak_depth()));
  w.Gauge("mv3c_server_service_time_ewma_seconds",
          "EWMA of per-transaction service time",
          static_cast<double>(svc_est_.ewma_ns()) * 1e-9);
  // Engine counters come from the workers' *published* snapshots
  // (workload_host.h): a live scrape never races the executors' plain
  // fields. The WAL's counters (atomics) and log phases ride along.
  // Manager-level maintenance counters (gc_rounds, ...) are deliberately
  // absent — they are plain fields bumped concurrently and have no
  // race-free live view.
  obs::WriteSnapshot(&w, host_->PublishedEngineMetrics(), "mv3c_engine",
                     {{"engine", host_->engine()},
                      {"workload", host_->workload()}});
  const WorkloadHost::MemoryGauges mem = host_->EngineMemory();
  w.Gauge("mv3c_engine_arena_held_bytes",
          "version arena memory held (slabs in use or freelisted)",
          static_cast<double>(mem.arena_held_bytes));
  w.Gauge("mv3c_engine_arena_live_objects",
          "versions and commit records allocated and not yet freed",
          static_cast<double>(mem.arena_live_objects));
  w.Gauge("mv3c_engine_gc_pending",
          "unlinked versions and records waiting out their grace period",
          static_cast<double>(mem.gc_pending));
  // With the log's counters above (mv3c_engine_wal_sync_waits_total, ...),
  // commits per durable wait and the durable frontier are both visible.
  w.Gauge("mv3c_engine_wal_durable_epoch",
          "WAL epoch up to which every commit is on disk (0: no WAL)",
          static_cast<double>(host_->WalDurableEpoch()));
  return w.str();
}

}  // namespace mv3c::server
