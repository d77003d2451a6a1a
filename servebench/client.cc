// sb_client: the served-path benchmark's load generator (servebench/README.md).
//
// One process, one thread, two TCP connections to a running mv3c_serve.
// Three phases run back to back on the same connections and the same
// seeded request streams (stream.h):
//   warmup  open loop at --rate for 0.5 s; its responses are not kept
//   slo     open loop (Poisson) at --rate for --slo-s; latency is timed
//           from each request's scheduled arrival, and the send lag (how
//           late the generator handed the request to the socket) is kept
//   sat     closed loop, 128 requests in flight per connection, for
//           --sat-s; latency is timed from the first send
// Each phase stops issuing at its end and drains what is in flight (for at
// most 5 s) before the next one starts, and /metrics is scraped at
// each boundary, so a phase's client counts and the server-counter deltas
// between two scrapes cover exactly the same requests.
//
// A request answered kOverload, kRateLimited or kExhausted is sent again,
// byte for byte, once the response's retry_after_us has passed — the
// protocol's contract for those statuses (server/protocol.h). Its latency
// keeps running from the original arrival, so a refusal costs the request
// its full delay. After kMaxAttempts sends it is given up and recorded with
// the last refusal as its status.
//
// Outputs, all named from --out=PREFIX:
//   PREFIX.json           per-phase counts and client CPU time, plus the
//                         server's VmRSS/VmHWM, WAL-directory bytes and
//                         the host's CPU and steal jiffies at each boundary
//   PREFIX.<phase>.rec    one 32-byte Record (below) per finished request
//   PREFIX.<phase>.steal  the host's steal and CPU jiffies every 25 ms of
//                         the phase's issuing window (StealSample, below)
//   PREFIX.scrape<k>.txt  /metrics body at boundary k (0 after warmup,
//                         1 after slo, 2 after sat)
// run.py does every percentile and every check.
//
// Exit status: 0 when all three phases ran and every scrape succeeded
// (unanswered requests are reported, not fatal here); 1 otherwise.

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <functional>
#include <queue>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/random.h"
#include "server/admission.h"  // MonotonicNowNs
#include "server/protocol.h"
#include "stream.h"

namespace servebench {
namespace {

using mv3c::server::FrameReader;
using mv3c::server::MonotonicNowNs;
using mv3c::server::ResponseHeader;
using mv3c::server::TxnStatus;

constexpr uint32_t kMaxAttempts = 16;
constexpr size_t kConnections = 2;
// Closed loop: 2 x 128 in flight is a quarter of the server's default
// admission queue (1024), so the sat step never sheds.
constexpr size_t kOutstanding = 128;
constexpr double kWarmupS = 0.5;
constexpr double kDrainS = 5;
constexpr uint64_t kStealSampleNs = 25'000'000;
constexpr char kHost[] = "127.0.0.1";

struct Options {
  uint16_t port = 0;
  std::string workload = "banking";
  uint64_t seed = 1;
  double rate = 10000;  // open-loop arrivals/s, all connections together
  double slo_s = 4;
  double sat_s = 4;
  int server_pid = 0;   // for VmRSS/VmHWM at the boundaries
  std::string wal_dir;       // for WAL bytes at the boundaries
  std::string out;
};

/// One finished request. Written verbatim (host-endian, no padding).
struct Record {
  uint64_t at_ns;     // scheduled arrival (slo) or first issue (sat),
                      // since the phase began
  uint64_t lat_ns;    // final response receipt minus scheduled arrival
                      // (slo) or minus first send (sat)
  uint32_t lag_ns;    // first send completion minus scheduled arrival (slo)
  uint32_t queue_us;  // ResponseHeader::queue_us of the final attempt
  uint32_t rounds;    // ResponseHeader::rounds of the final attempt
  uint8_t status;     // ResponseHeader::status of the final attempt
  uint8_t attempts;   // sends it took (1 = answered first time)
  uint16_t flags;     // ResponseHeader::flags of the final attempt
};
static_assert(sizeof(Record) == 32);

/// The host's cumulative steal and total CPU jiffies (/proc/stat) at t_ns
/// since the phase began. Written verbatim like Record.
struct StealSample {
  uint64_t t_ns;
  uint64_t steal;
  uint64_t total;
};
static_assert(sizeof(StealSample) == 24);

/// Counts of one phase. Request counts (issued, committed, user_aborted,
/// gave_up, bad, unanswered) add up to `issued`; the refusal counts
/// (shed_*, exhausted) are per attempt.
struct PhaseStats {
  uint64_t issued = 0;    // requests the phase generated
  uint64_t attempts = 0;  // sends, retries included
  uint64_t sent = 0;      // sends whose last byte the socket accepted
  uint64_t committed = 0;
  uint64_t user_aborted = 0;
  uint64_t gave_up = 0;  // refused kMaxAttempts times
  uint64_t bad = 0;      // kBadRequest / kShuttingDown / unknown status
  uint64_t unanswered = 0;
  uint64_t exhausted = 0;
  uint64_t shed_overload = 0;
  uint64_t shed_rate_limited = 0;
  uint64_t protocol_error = 0;
  uint64_t dead_connections = 0;
  double wall_s = 0;   // issuing window, without the drain
  double drain_s = 0;  // time to collect the last responses
  double cpu_s = 0;    // client user+system CPU over the whole phase
  std::vector<Record> records;
  std::vector<StealSample> steal;
};

struct Pending {
  uint64_t sched_ns = 0;
  uint64_t sent_ns = 0;  // first send completion; 0 until then
  uint32_t attempts = 0;
  std::string frame;  // the wire bytes, kept for a retry
};

struct Conn {
  int fd = -1;
  bool dead = false;
  RequestStream stream;
  mv3c::Xoshiro256 gaps;
  FrameReader reader;
  std::vector<uint8_t> out;
  size_t out_off = 0;
  // Sends appended to `out` whose bytes are not all accepted yet, as
  // (end offset in `out`, request id), in offset order.
  std::deque<std::pair<size_t, uint64_t>> unsent;
  std::unordered_map<uint64_t, Pending> inflight;
  std::vector<uint8_t> frame_buf;
  uint64_t next_rid = 1;
  uint64_t next_arrival = 0;

  Conn(const Options& o, uint64_t idx)
      : stream(o.workload, o.seed, idx),
        gaps(MixSeed(o.seed, 1000 + idx)) {}
};

struct Retry {
  uint64_t due_ns;
  Conn* conn;
  uint64_t rid;
  bool operator>(const Retry& o) const { return due_ns > o.due_ns; }
};

double CpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

/// Steal and total jiffies over all CPUs, from the first line of
/// /proc/stat: user nice system idle iowait irq softirq steal (guest time
/// is already inside user and nice). 0 and 0 if unreadable.
void ReadCpuJiffies(uint64_t* steal, uint64_t* total) {
  *steal = *total = 0;
  std::ifstream f("/proc/stat");
  std::string cpu;
  f >> cpu;
  uint64_t v;
  for (int field = 0; field < 8 && f >> v; ++field) {
    if (field == 7) *steal = v;
    *total += v;
  }
}

int Connect(uint16_t port) {
  const int fd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (inet_pton(AF_INET, kHost, &addr.sin_addr) != 1 ||
      connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    close(fd);
    return -1;
  }
  return fd;
}

class Client {
 public:
  explicit Client(const Options& o) : o_(o) {}
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;
  ~Client() {
    for (Conn& c : conns_) {
      if (c.fd >= 0) close(c.fd);
    }
  }

  bool Open() {
    for (size_t i = 0; i < kConnections; ++i) {
      conns_.emplace_back(o_, i);
      Conn& c = conns_.back();
      c.fd = Connect(o_.port);
      if (c.fd < 0) {
        std::fprintf(stderr, "sb_client: connect to port %u failed\n",
                     o_.port);
        return false;
      }
      const int one = 1;
      setsockopt(c.fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      fcntl(c.fd, F_SETFL, fcntl(c.fd, F_GETFL, 0) | O_NONBLOCK);
    }
    return true;
  }

  /// Open loop: Poisson arrivals at `rate` in total for `seconds`.
  PhaseStats RunOpen(double rate, double seconds) {
    PhaseStats st;
    Begin(&st, /*open=*/true);
    const double per_conn = rate / static_cast<double>(conns_.size());
    const uint64_t t0 = MonotonicNowNs();
    const uint64_t end = t0 + static_cast<uint64_t>(seconds * 1e9);
    for (Conn& c : conns_) c.next_arrival = t0 + Gap(c, per_conn);
    while (true) {
      const uint64_t now = MonotonicNowNs();
      if (now >= end || AllDead()) break;
      uint64_t wake = std::min({end, ResendDue(now), SampleSteal(now)});
      for (Conn& c : conns_) {
        if (c.dead) continue;
        while (c.next_arrival <= now && c.next_arrival < end) {
          Issue(&c, c.next_arrival);
          c.next_arrival += Gap(c, per_conn);
        }
        wake = std::min(wake, c.next_arrival);
        Flush(&c);
      }
      Wait(wake);
    }
    EndSteal();
    st.wall_s = static_cast<double>(MonotonicNowNs() - t0) * 1e-9;
    Drain(&st);
    return st;
  }

  /// Closed loop: keeps `outstanding` requests in flight per connection; a
  /// request waiting out a retry delay still holds its slot.
  PhaseStats RunClosed(size_t outstanding, double seconds) {
    PhaseStats st;
    Begin(&st, /*open=*/false);
    const uint64_t t0 = MonotonicNowNs();
    end_ns_ = t0 + static_cast<uint64_t>(seconds * 1e9);
    for (Conn& c : conns_) {
      if (c.dead) continue;
      for (size_t i = 0; i < outstanding; ++i) Issue(&c, t0);
      Flush(&c);
    }
    while (true) {
      const uint64_t now = MonotonicNowNs();
      if (now >= end_ns_ || AllDead()) break;
      const uint64_t wake =
          std::min({end_ns_, ResendDue(now), SampleSteal(now)});
      for (Conn& c : conns_) Flush(&c);
      Wait(wake);
    }
    EndSteal();
    st.wall_s = static_cast<double>(MonotonicNowNs() - t0) * 1e-9;
    end_ns_ = 0;
    Drain(&st);
    return st;
  }

 private:
  uint64_t Gap(Conn& c, double rate) {
    // Exponential inter-arrival: -ln(U)/rate, U in (0, 1].
    const double u =
        (static_cast<double>(c.gaps.Next() >> 11) + 1.0) * 0x1.0p-53;
    return static_cast<uint64_t>(-std::log(u) / rate * 1e9);
  }

  void Begin(PhaseStats* st, bool open) {
    st_ = st;
    open_ = open;
    cpu0_ = CpuSeconds();
    phase_t0_ = MonotonicNowNs();
    next_sample_ns_ = phase_t0_;
  }

  /// Takes a steal sample when one is due; returns when the next one is.
  uint64_t SampleSteal(uint64_t now) {
    if (now >= next_sample_ns_) {
      StealSample s{now - phase_t0_, 0, 0};
      ReadCpuJiffies(&s.steal, &s.total);
      st_->steal.push_back(s);
      next_sample_ns_ = now + kStealSampleNs;
    }
    return next_sample_ns_;
  }

  void EndSteal() {
    next_sample_ns_ = 0;
    SampleSteal(MonotonicNowNs());
  }

  bool AllDead() const {
    for (const Conn& c : conns_) {
      if (!c.dead) return false;
    }
    return true;
  }

  void Issue(Conn* c, uint64_t sched_ns) {
    const uint64_t rid = c->next_rid++;
    c->frame_buf.clear();
    c->stream.Append(&c->frame_buf, rid);
    Pending& p = c->inflight[rid];
    p.sched_ns = sched_ns;
    p.frame.assign(c->frame_buf.begin(), c->frame_buf.end());
    st_->issued++;
    Send(c, rid, &p);
  }

  void Send(Conn* c, uint64_t rid, Pending* p) {
    c->out.insert(c->out.end(), p->frame.begin(), p->frame.end());
    c->unsent.emplace_back(c->out.size(), rid);
    p->attempts++;
    st_->attempts++;
  }

  /// Re-sends every retry that is due; returns when the next one is.
  uint64_t ResendDue(uint64_t now) {
    while (!retries_.empty() && retries_.top().due_ns <= now) {
      const Retry r = retries_.top();
      retries_.pop();
      auto it = r.conn->inflight.find(r.rid);
      if (it != r.conn->inflight.end() && !r.conn->dead) {
        Send(r.conn, r.rid, &it->second);
        Flush(r.conn);
      }
    }
    return retries_.empty() ? ~uint64_t{0} : retries_.top().due_ns;
  }

  void Flush(Conn* c) {
    if (c->dead) return;
    while (c->out_off < c->out.size()) {
      const ssize_t k = send(c->fd, c->out.data() + c->out_off,
                             c->out.size() - c->out_off, MSG_NOSIGNAL);
      if (k < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;
        if (errno == EINTR) continue;
        MarkDead(c);
        return;
      }
      c->out_off += static_cast<size_t>(k);
    }
    const uint64_t now = MonotonicNowNs();
    while (!c->unsent.empty() && c->unsent.front().first <= c->out_off) {
      auto it = c->inflight.find(c->unsent.front().second);
      if (it != c->inflight.end() && it->second.sent_ns == 0) {
        it->second.sent_ns = now;
      }
      st_->sent++;
      c->unsent.pop_front();
    }
    if (c->out_off >= c->out.size()) {
      c->out.clear();
      c->out_off = 0;
    }
  }

  void MarkDead(Conn* c) {
    if (c->dead) return;
    c->dead = true;
    st_->dead_connections++;
  }

  /// Sleeps in ppoll until a socket is readable (or writable with output
  /// pending) or `until_ns`, then drains every readable socket.
  void Wait(uint64_t until_ns) {
    pollfd fds[kConnections];
    size_t n = 0;
    for (Conn& c : conns_) {
      if (c.dead) continue;
      fds[n].fd = c.fd;
      fds[n].events = POLLIN | (c.out_off < c.out.size() ? POLLOUT : 0);
      fds[n].revents = 0;
      ++n;
    }
    const uint64_t now = MonotonicNowNs();
    const uint64_t wait_ns = until_ns > now ? until_ns - now : 0;
    timespec ts{static_cast<time_t>(wait_ns / 1000000000ULL),
                static_cast<long>(wait_ns % 1000000000ULL)};
    if (ppoll(fds, n, &ts, nullptr) <= 0) return;
    for (Conn& c : conns_) {
      if (!c.dead) Receive(&c);
    }
  }

  void Receive(Conn* c) {
    uint8_t buf[64 * 1024];
    while (!c->dead) {
      const ssize_t k = recv(c->fd, buf, sizeof(buf), 0);
      if (k < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK) return;
        if (errno == EINTR) continue;
        MarkDead(c);
        return;
      }
      if (k == 0) {  // server closed the connection
        MarkDead(c);
        return;
      }
      const bool ok = c->reader.Feed(
          buf, static_cast<size_t>(k),
          [this, c](const uint8_t* payload, uint32_t n) {
            OnResponse(c, payload, n);
          });
      if (!ok) {
        st_->protocol_error++;
        MarkDead(c);
        return;
      }
    }
  }

  void OnResponse(Conn* c, const uint8_t* payload, uint32_t n) {
    const uint64_t now = MonotonicNowNs();
    if (n < sizeof(ResponseHeader)) {
      st_->protocol_error++;
      return;
    }
    ResponseHeader rh;
    std::memcpy(&rh, payload, sizeof(rh));
    const auto it = c->inflight.find(rh.request_id);
    if (it == c->inflight.end()) {
      st_->protocol_error++;  // an id never sent, or answered twice
      return;
    }
    Pending& p = it->second;
    const auto status = static_cast<TxnStatus>(rh.status);
    const bool refused = status == TxnStatus::kOverload ||
                         status == TxnStatus::kRateLimited ||
                         status == TxnStatus::kExhausted;
    if (status == TxnStatus::kOverload) st_->shed_overload++;
    if (status == TxnStatus::kRateLimited) st_->shed_rate_limited++;
    if (status == TxnStatus::kExhausted) st_->exhausted++;
    if (refused && p.attempts < kMaxAttempts) {
      retries_.push(Retry{now + uint64_t{rh.retry_after_us} * 1000 + 1, c,
                          rh.request_id});
      return;
    }
    Record r{};
    r.at_ns = p.sched_ns > phase_t0_ ? p.sched_ns - phase_t0_ : 0;
    r.lat_ns = now - (open_ ? p.sched_ns : std::max(p.sched_ns, p.sent_ns));
    if (open_ && p.sent_ns != 0) {
      const uint64_t lag = p.sent_ns > p.sched_ns ? p.sent_ns - p.sched_ns : 0;
      r.lag_ns = static_cast<uint32_t>(std::min<uint64_t>(lag, ~0u));
    }
    r.queue_us = rh.queue_us;
    r.rounds = rh.rounds;
    r.status = static_cast<uint8_t>(rh.status);
    r.attempts = static_cast<uint8_t>(p.attempts);
    r.flags = rh.flags;
    st_->records.push_back(r);
    c->inflight.erase(it);
    if (status == TxnStatus::kCommitted) {
      st_->committed++;
    } else if (status == TxnStatus::kUserAborted) {
      st_->user_aborted++;
    } else if (refused) {
      st_->gave_up++;
    } else {
      st_->bad++;
    }
    // Closed loop: every finished request before the deadline releases the
    // next one.
    if (!open_ && now < end_ns_) Issue(c, now);
  }

  /// Collects the phase's outstanding responses (retries included);
  /// whatever is still missing after --drain-s is counted unanswered.
  void Drain(PhaseStats* st) {
    const uint64_t t0 = MonotonicNowNs();
    const uint64_t deadline = t0 + static_cast<uint64_t>(kDrainS * 1e9);
    while (true) {
      const uint64_t now = MonotonicNowNs();
      if (now >= deadline) break;
      const uint64_t next_retry = ResendDue(now);
      bool pending = false;
      for (Conn& c : conns_) {
        Flush(&c);
        if (!c.dead && !c.inflight.empty()) pending = true;
      }
      if (!pending) break;
      Wait(std::min({deadline, now + 1'000'000, next_retry}));
    }
    for (Conn& c : conns_) {
      st->unanswered += c.inflight.size();
      c.inflight.clear();
    }
    retries_ = {};
    st->drain_s = static_cast<double>(MonotonicNowNs() - t0) * 1e-9;
    st->cpu_s = CpuSeconds() - cpu0_;
  }

  const Options& o_;
  std::deque<Conn> conns_;
  std::priority_queue<Retry, std::vector<Retry>, std::greater<Retry>> retries_;
  PhaseStats* st_ = nullptr;
  bool open_ = true;
  uint64_t end_ns_ = 0;
  uint64_t phase_t0_ = 0;
  uint64_t next_sample_ns_ = 0;
  double cpu0_ = 0;
};

/// GET /metrics over a fresh connection; returns false on any failure.
bool Scrape(const Options& o, std::string* body) {
  const int fd = Connect(o.port);
  if (fd < 0) return false;
  const char req[] =
      "GET /metrics HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n\r\n";
  size_t off = 0;
  while (off < sizeof(req) - 1) {
    const ssize_t k = send(fd, req + off, sizeof(req) - 1 - off, MSG_NOSIGNAL);
    if (k <= 0) {
      close(fd);
      return false;
    }
    off += static_cast<size_t>(k);
  }
  std::string resp;
  char buf[64 * 1024];
  while (true) {
    const ssize_t k = recv(fd, buf, sizeof(buf), 0);
    if (k < 0 && errno == EINTR) continue;
    if (k <= 0) break;
    resp.append(buf, static_cast<size_t>(k));
  }
  close(fd);
  const size_t hdr = resp.find("\r\n\r\n");
  if (resp.rfind("HTTP/1.1 200", 0) != 0 || hdr == std::string::npos) {
    return false;
  }
  *body = resp.substr(hdr + 4);
  return true;
}

/// VmRSS / VmHWM of `pid` in KiB (0 if unreadable).
void ReadMem(int pid, uint64_t* rss_kb, uint64_t* hwm_kb) {
  *rss_kb = *hwm_kb = 0;
  if (pid <= 0) return;
  std::ifstream f("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmRSS:", 0) == 0) {
      *rss_kb = std::strtoull(line.c_str() + 6, nullptr, 10);
    } else if (line.rfind("VmHWM:", 0) == 0) {
      *hwm_kb = std::strtoull(line.c_str() + 6, nullptr, 10);
    }
  }
}

uint64_t DirBytes(const std::string& dir) {
  if (dir.empty()) return 0;
  std::error_code ec;
  uint64_t total = 0;
  for (const auto& e :
       std::filesystem::recursive_directory_iterator(dir, ec)) {
    if (e.is_regular_file(ec)) total += e.file_size(ec);
  }
  return total;
}

struct Boundary {
  uint64_t rss_kb = 0;
  uint64_t hwm_kb = 0;
  uint64_t wal_bytes = 0;
  uint64_t steal_jiffies = 0;
  uint64_t cpu_jiffies = 0;
};

bool TakeBoundary(const Options& o, int k, Boundary* b) {
  // Read first: the steal window between two boundaries is the phase.
  ReadCpuJiffies(&b->steal_jiffies, &b->cpu_jiffies);
  std::string body;
  if (!Scrape(o, &body)) {
    std::fprintf(stderr, "sb_client: /metrics scrape %d failed\n", k);
    return false;
  }
  ReadMem(o.server_pid, &b->rss_kb, &b->hwm_kb);
  b->wal_bytes = DirBytes(o.wal_dir);
  std::ofstream f(o.out + ".scrape" + std::to_string(k) + ".txt");
  f << body;
  return static_cast<bool>(f);
}

template <typename T>
bool WriteRecords(const std::string& path, const std::vector<T>& v) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  const size_t n = v.empty() ? 0 : std::fwrite(v.data(), sizeof(T), v.size(), f);
  return std::fclose(f) == 0 && n == v.size();
}

void PrintPhase(std::FILE* f, const char* name, const PhaseStats& s) {
  const std::pair<const char*, uint64_t> counts[] = {
      {"issued", s.issued},
      {"attempts", s.attempts},
      {"sent", s.sent},
      {"committed", s.committed},
      {"user_aborted", s.user_aborted},
      {"gave_up", s.gave_up},
      {"bad", s.bad},
      {"unanswered", s.unanswered},
      {"exhausted", s.exhausted},
      {"shed_overload", s.shed_overload},
      {"shed_rate_limited", s.shed_rate_limited},
      {"protocol_error", s.protocol_error},
      {"dead_connections", s.dead_connections},
  };
  std::fprintf(f, "  \"%s\": {", name);
  for (const auto& [key, value] : counts) {
    std::fprintf(f, "\"%s\": %llu, ", key,
                 static_cast<unsigned long long>(value));
  }
  std::fprintf(f, "\"wall_s\": %.9f, \"drain_s\": %.9f, \"cpu_s\": %.6f},\n",
               s.wall_s, s.drain_s, s.cpu_s);
}

bool ParseFlag(const char* arg, const char* name, std::string* out) {
  const size_t n = std::strlen(name);
  if (std::strncmp(arg, name, n) != 0 || arg[n] != '=') return false;
  *out = arg + n + 1;
  return true;
}

int Main(int argc, char** argv) {
  Options o;
  std::string v;
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    if (ParseFlag(a, "--port", &v)) {
      o.port = static_cast<uint16_t>(std::strtoul(v.c_str(), nullptr, 10));
    } else if (ParseFlag(a, "--workload", &v)) {
      o.workload = v;
    } else if (ParseFlag(a, "--seed", &v)) {
      o.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (ParseFlag(a, "--rate", &v)) {
      o.rate = std::strtod(v.c_str(), nullptr);
    } else if (ParseFlag(a, "--slo-s", &v)) {
      o.slo_s = std::strtod(v.c_str(), nullptr);
    } else if (ParseFlag(a, "--sat-s", &v)) {
      o.sat_s = std::strtod(v.c_str(), nullptr);
    } else if (ParseFlag(a, "--server-pid", &v)) {
      o.server_pid = std::atoi(v.c_str());
    } else if (ParseFlag(a, "--wal-dir", &v)) {
      o.wal_dir = v;
    } else if (ParseFlag(a, "--out", &v)) {
      o.out = v;
    } else {
      std::fprintf(stderr, "sb_client: unknown flag %s\n", a);
      return 2;
    }
  }
  if (o.port == 0 || o.out.empty() || !RequestStream::Known(o.workload) ||
      o.rate <= 0) {
    std::fprintf(stderr,
                 "usage: sb_client --port=N --out=PREFIX "
                 "[--workload=banking|tatp|tpcc] [--rate=R] [--seed=N] ...\n");
    return 2;
  }
  // ppoll timeouts are the open loop's send clock: without this the
  // kernel's default 50 us timer slack would add to every send lag.
  prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);

  Client client(o);
  if (!client.Open()) return 1;
  const PhaseStats warm = client.RunOpen(o.rate, kWarmupS);
  Boundary b[3];
  bool ok = TakeBoundary(o, 0, &b[0]);
  const PhaseStats slo = client.RunOpen(o.rate, o.slo_s);
  ok = ok && TakeBoundary(o, 1, &b[1]);
  const PhaseStats sat = client.RunClosed(kOutstanding, o.sat_s);
  ok = ok && TakeBoundary(o, 2, &b[2]);

  ok = ok && WriteRecords(o.out + ".slo.rec", slo.records) &&
       WriteRecords(o.out + ".sat.rec", sat.records) &&
       WriteRecords(o.out + ".slo.steal", slo.steal) &&
       WriteRecords(o.out + ".sat.steal", sat.steal);
  std::FILE* f = std::fopen((o.out + ".json").c_str(), "w");
  if (f == nullptr) return 1;
  std::fprintf(f, "{\n");
  PrintPhase(f, "warmup", warm);
  PrintPhase(f, "slo", slo);
  PrintPhase(f, "sat", sat);
  std::fprintf(f, "  \"boundaries\": [");
  for (int k = 0; k < 3; ++k) {
    std::fprintf(f,
                 "%s{\"rss_kb\": %llu, \"hwm_kb\": %llu, \"wal_bytes\": %llu, "
                 "\"steal_jiffies\": %llu, \"cpu_jiffies\": %llu}",
                 k == 0 ? "" : ", ",
                 static_cast<unsigned long long>(b[k].rss_kb),
                 static_cast<unsigned long long>(b[k].hwm_kb),
                 static_cast<unsigned long long>(b[k].wal_bytes),
                 static_cast<unsigned long long>(b[k].steal_jiffies),
                 static_cast<unsigned long long>(b[k].cpu_jiffies));
  }
  std::fprintf(f, "],\n  \"scrapes_ok\": %s\n}\n", ok ? "true" : "false");
  if (std::fclose(f) != 0) return 1;
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace servebench

int main(int argc, char** argv) { return servebench::Main(argc, argv); }
