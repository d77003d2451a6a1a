// Open-loop load generator for the serving front-end (DESIGN §5k).
//
// Drives a running mv3c_serve over the MV3S wire protocol at a *scheduled*
// arrival rate: request send times are drawn from a Poisson process fixed
// before the server's behavior is observed, and every end-to-end latency is
// measured from the scheduled arrival — not from when the socket finally
// accepted the bytes. A server that stalls therefore accumulates the stall
// into the recorded latencies instead of silently slowing the offered load
// (the coordinated-omission trap closed-loop drivers fall into).
//
//   loadgen --port=7433 --workload=tpcc --rate=20000 --seconds=10
//       --connections=4
//
// Emits one RUNJSON line in the figure benches' format, keyed by (bench,
// engine, arrival_rate), carrying
// achieved throughput, shed fraction, committed-response p50/p99/p999, and
// how many committed responses carried the durable flag.

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/random.h"
#include "server/admission.h"  // MonotonicNowNs
#include "server/protocol.h"
#include "workloads/banking.h"
#include "workloads/tatp.h"
#include "workloads/tpcc.h"
#include "workloads/trading.h"

namespace mv3c {
namespace {

using server::FrameReader;
using server::MonotonicNowNs;
using server::Op;
using server::ResponseHeader;
using server::TxnStatus;
using server::kRespFlagDurable;

struct Options {
  std::string host = "127.0.0.1";
  uint16_t port = 0;
  std::string workload = "banking";
  std::string engine = "serve";  // label for RUNJSON (server picks engine)
  double rate = 10000;           // total scheduled arrivals/second
  double seconds = 10;
  double warmup_seconds = 1;
  double drain_seconds = 2;
  size_t connections = 4;
  uint64_t scale = 0;  // population knob; must match the server's
  uint64_t seed = 42;
  int trade_order_percent = 50;
  double alpha = 0.8;
  int fee_percent = 10;
};

/// Per-workload request factory: fills (op, params bytes) for the next
/// scheduled arrival. Population defaults mirror workload_host.cc so
/// generated keys always land inside the server-side database.
class RequestSource {
 public:
  RequestSource(const Options& o, uint64_t seed)
      : workload_(o.workload),
        banking_(o.scale != 0 ? static_cast<int64_t>(o.scale) : 100000,
                 o.fee_percent, seed),
        trading_(o.scale != 0 ? o.scale : 100000,
                 o.scale != 0 ? o.scale : 100000, o.alpha,
                 o.trade_order_percent, seed),
        tatp_(o.scale != 0 ? o.scale : 100000, seed),
        tpcc_(tpcc::TpccScale{.n_warehouses = o.scale != 0 ? o.scale : 1},
              seed) {}

  void Append(std::vector<uint8_t>* out, uint64_t request_id) {
    if (workload_ == "banking") {
      server::AppendRequest(out, request_id, Op::kBankingTransfer,
                            banking_.Next());
    } else if (workload_ == "trading") {
      const trading::TradingGenerator::Txn t = trading_.Next();
      if (t.is_trade_order) {
        server::AppendRequest(out, request_id, Op::kTradeOrder, t.order);
      } else {
        server::AppendRequest(out, request_id, Op::kPriceUpdate, t.price);
      }
    } else if (workload_ == "tatp") {
      server::AppendRequest(out, request_id, Op::kTatp, tatp_.Next());
    } else {  // tpcc
      server::AppendRequest(out, request_id, Op::kTpcc, tpcc_.Next());
    }
  }

 private:
  std::string workload_;
  banking::TransferGenerator banking_;
  trading::TradingGenerator trading_;
  tatp::TatpGenerator tatp_;
  tpcc::TpccGenerator tpcc_;
};

struct ConnStats {
  uint64_t scheduled = 0;  // arrivals the open loop generated
  uint64_t sent = 0;       // requests that reached the socket
  uint64_t acked = 0;      // responses received (any status)
  uint64_t committed = 0;
  uint64_t durable = 0;  // committed acks carrying kRespFlagDurable
  uint64_t user_aborted = 0;
  uint64_t exhausted = 0;
  uint64_t shed_overload = 0;
  uint64_t shed_rate_limited = 0;
  uint64_t bad = 0;  // kBadRequest/kShuttingDown/unknown
  uint64_t unanswered = 0;
  uint64_t retry_after_us_sum = 0;  // over shed/exhausted responses
  uint64_t protocol_error = 0;
  std::vector<uint64_t> commit_lat_ns;  // end-to-end, committed only
  std::vector<uint64_t> acked_lat_ns;   // end-to-end, every response

  void Merge(const ConnStats& o) {
    scheduled += o.scheduled;
    sent += o.sent;
    acked += o.acked;
    committed += o.committed;
    durable += o.durable;
    user_aborted += o.user_aborted;
    exhausted += o.exhausted;
    shed_overload += o.shed_overload;
    shed_rate_limited += o.shed_rate_limited;
    bad += o.bad;
    unanswered += o.unanswered;
    retry_after_us_sum += o.retry_after_us_sum;
    protocol_error += o.protocol_error;
    commit_lat_ns.insert(commit_lat_ns.end(), o.commit_lat_ns.begin(),
                         o.commit_lat_ns.end());
    acked_lat_ns.insert(acked_lat_ns.end(), o.acked_lat_ns.begin(),
                        o.acked_lat_ns.end());
  }
};

int ConnectTo(const std::string& host, uint16_t port) {
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1 ||
      connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    close(fd);
    return -1;
  }
  const int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  // Non-blocking after connect: the open loop must never stall in send()
  // while scheduled arrivals pile up behind it.
  const int fl = fcntl(fd, F_GETFL, 0);
  fcntl(fd, F_SETFL, fl | O_NONBLOCK);
  return fd;
}

/// One connection's open loop. Arrivals are Poisson at `rate` (exponential
/// inter-arrival gaps from the thread's own RNG); each response's latency
/// is response-receive-time minus *scheduled* arrival time.
void RunConn(const Options& opts, size_t idx, ConnStats* out) {
  ConnStats st;
  const int fd = ConnectTo(opts.host, opts.port);
  if (fd < 0) {
    std::fprintf(stderr, "conn %zu: connect to %s:%u failed\n", idx,
                 opts.host.c_str(), opts.port);
    st.protocol_error = 1;
    *out = std::move(st);
    return;
  }
  RequestSource source(opts, opts.seed + idx * 7919);
  Xoshiro256 rng(opts.seed + idx * 104729 + 1);
  FrameReader reader;
  std::unordered_map<uint64_t, uint64_t> inflight;  // request_id -> sched_ns
  std::vector<uint8_t> outbuf;
  size_t out_off = 0;
  // End offset in outbuf of each counted (post-warmup) request not yet
  // fully accepted by the socket; `sent` counts the ones it accepted.
  std::vector<size_t> unsent_ends;
  size_t unsent_head = 0;
  uint64_t next_request_id = 1;

  const double per_conn_rate = opts.rate / static_cast<double>(opts.connections);
  const uint64_t t0 = MonotonicNowNs();
  const uint64_t warmup_end =
      t0 + static_cast<uint64_t>(opts.warmup_seconds * 1e9);
  const uint64_t send_end = t0 + static_cast<uint64_t>(
                                     (opts.warmup_seconds + opts.seconds) * 1e9);
  const uint64_t drain_end =
      send_end + static_cast<uint64_t>(opts.drain_seconds * 1e9);
  auto next_gap_ns = [&]() -> uint64_t {
    // Exponential inter-arrival: -ln(U)/rate.
    const double u =
        (static_cast<double>(rng.Next() >> 11) + 1.0) * 0x1.0p-53;
    return static_cast<uint64_t>(-std::log(u) / per_conn_rate * 1e9);
  };
  uint64_t next_arrival = t0 + next_gap_ns();
  bool dead = false;

  auto on_response = [&](const uint8_t* payload, uint32_t n) {
    if (n < sizeof(ResponseHeader)) {
      st.protocol_error++;
      return;
    }
    ResponseHeader rh;
    std::memcpy(&rh, payload, sizeof(rh));
    const auto it = inflight.find(rh.request_id);
    if (it == inflight.end()) return;  // warmup-discarded or duplicate
    const uint64_t sched = it->second;
    inflight.erase(it);
    if (sched == 0) return;  // sent during warmup: uncounted
    const uint64_t lat = MonotonicNowNs() - sched;
    st.acked++;
    st.acked_lat_ns.push_back(lat);
    switch (static_cast<TxnStatus>(rh.status)) {
      case TxnStatus::kCommitted:
        st.committed++;
        if ((rh.flags & kRespFlagDurable) != 0) st.durable++;
        st.commit_lat_ns.push_back(lat);
        break;
      case TxnStatus::kUserAborted:
        st.user_aborted++;
        break;
      case TxnStatus::kExhausted:
        st.exhausted++;
        st.retry_after_us_sum += rh.retry_after_us;
        break;
      case TxnStatus::kOverload:
        st.shed_overload++;
        st.retry_after_us_sum += rh.retry_after_us;
        break;
      case TxnStatus::kRateLimited:
        st.shed_rate_limited++;
        st.retry_after_us_sum += rh.retry_after_us;
        break;
      default:
        st.bad++;
        break;
    }
  };

  uint8_t rbuf[64 * 1024];
  while (!dead) {
    const uint64_t now = MonotonicNowNs();
    if (now >= drain_end || (now >= send_end && inflight.empty() &&
                             out_off >= outbuf.size())) {
      break;
    }
    // 1. Generate every arrival the schedule says has happened by now.
    while (now < send_end && next_arrival <= now) {
      const uint64_t rid = next_request_id++;
      // Warmup sends carry sched=0 so their responses are not recorded.
      inflight[rid] = next_arrival < warmup_end ? 0 : next_arrival;
      source.Append(&outbuf, rid);
      if (next_arrival >= warmup_end) {
        st.scheduled++;
        unsent_ends.push_back(outbuf.size());
      }
      next_arrival += next_gap_ns();
    }
    // 2. Push pending bytes (never blocks).
    while (out_off < outbuf.size()) {
      const ssize_t k = send(fd, outbuf.data() + out_off,
                             outbuf.size() - out_off, MSG_NOSIGNAL);
      if (k < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;
        if (errno == EINTR) continue;
        dead = true;
        break;
      }
      out_off += static_cast<size_t>(k);
    }
    while (unsent_head < unsent_ends.size() &&
           unsent_ends[unsent_head] <= out_off) {
      st.sent++;
      unsent_head++;
    }
    if (out_off >= outbuf.size()) {
      outbuf.clear();
      out_off = 0;
      unsent_ends.clear();
      unsent_head = 0;
    }
    // 3. Drain responses.
    while (!dead) {
      const ssize_t k = recv(fd, rbuf, sizeof(rbuf), 0);
      if (k < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;
        if (errno == EINTR) continue;
        dead = true;
        break;
      }
      if (k == 0) {  // server closed
        dead = true;
        break;
      }
      if (!reader.Feed(rbuf, static_cast<size_t>(k), on_response)) {
        st.protocol_error++;
        dead = true;
        break;
      }
    }
    // 4. Sleep until the next scheduled arrival (bounded so response
    //    draining stays responsive).
    const uint64_t now2 = MonotonicNowNs();
    if (now2 < send_end && next_arrival > now2 && outbuf.empty()) {
      const uint64_t gap = std::min<uint64_t>(next_arrival - now2, 200'000);
      std::this_thread::sleep_for(std::chrono::nanoseconds(gap));
    }
  }
  for (const auto& [rid, sched] : inflight) {
    if (sched != 0) st.unanswered++;
  }
  close(fd);
  *out = std::move(st);
}

uint64_t Pctl(std::vector<uint64_t>& v, double p) {
  if (v.empty()) return 0;
  const size_t i = std::min(
      v.size() - 1, static_cast<size_t>(p * static_cast<double>(v.size())));
  std::nth_element(v.begin(), v.begin() + static_cast<ptrdiff_t>(i), v.end());
  return v[i];
}

[[noreturn]] void Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --port=N [--host=A] [--workload=W] [--rate=R]\n"
               "  [--seconds=S] [--warmup-seconds=S] [--drain-seconds=S]\n"
               "  [--connections=C] [--scale=N] [--seed=N] [--engine=LABEL]\n"
               "  [--trade-order-percent=P] [--alpha=A] [--fee-percent=P]\n",
               argv0);
  std::exit(2);
}

bool ParseFlag(const char* arg, const char* name, std::string* out) {
  const size_t n = std::strlen(name);
  if (std::strncmp(arg, name, n) != 0 || arg[n] != '=') return false;
  *out = arg + n + 1;
  return true;
}

}  // namespace
}  // namespace mv3c

int main(int argc, char** argv) {
  using namespace mv3c;
  Options opts;
  std::string v;
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    if (ParseFlag(a, "--host", &v)) {
      opts.host = v;
    } else if (ParseFlag(a, "--port", &v)) {
      opts.port = static_cast<uint16_t>(std::strtoul(v.c_str(), nullptr, 10));
    } else if (ParseFlag(a, "--workload", &v)) {
      opts.workload = v;
    } else if (ParseFlag(a, "--engine", &v)) {
      opts.engine = v;
    } else if (ParseFlag(a, "--rate", &v)) {
      opts.rate = std::strtod(v.c_str(), nullptr);
    } else if (ParseFlag(a, "--seconds", &v)) {
      opts.seconds = std::strtod(v.c_str(), nullptr);
    } else if (ParseFlag(a, "--warmup-seconds", &v)) {
      opts.warmup_seconds = std::strtod(v.c_str(), nullptr);
    } else if (ParseFlag(a, "--drain-seconds", &v)) {
      opts.drain_seconds = std::strtod(v.c_str(), nullptr);
    } else if (ParseFlag(a, "--connections", &v)) {
      opts.connections = std::strtoul(v.c_str(), nullptr, 10);
    } else if (ParseFlag(a, "--scale", &v)) {
      opts.scale = std::strtoull(v.c_str(), nullptr, 10);
    } else if (ParseFlag(a, "--seed", &v)) {
      opts.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (ParseFlag(a, "--trade-order-percent", &v)) {
      opts.trade_order_percent = std::atoi(v.c_str());
    } else if (ParseFlag(a, "--alpha", &v)) {
      opts.alpha = std::strtod(v.c_str(), nullptr);
    } else if (ParseFlag(a, "--fee-percent", &v)) {
      opts.fee_percent = std::atoi(v.c_str());
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", a);
      Usage(argv[0]);
    }
  }
  if (opts.port == 0) Usage(argv[0]);
  if (opts.connections == 0) opts.connections = 1;
  if (opts.workload != "banking" && opts.workload != "trading" &&
      opts.workload != "tatp" && opts.workload != "tpcc") {
    std::fprintf(stderr, "unknown workload: %s\n", opts.workload.c_str());
    return 2;
  }

  std::vector<ConnStats> per_conn(opts.connections);
  std::vector<std::thread> threads;
  threads.reserve(opts.connections);
  for (size_t i = 0; i < opts.connections; ++i) {
    threads.emplace_back(RunConn, std::cref(opts), i, &per_conn[i]);
  }
  for (auto& t : threads) t.join();

  ConnStats all;
  for (const ConnStats& c : per_conn) all.Merge(c);

  const double secs = opts.seconds;
  const double goodput = static_cast<double>(all.committed) / secs;
  const double achieved = static_cast<double>(all.acked) / secs;
  const uint64_t shed = all.shed_overload + all.shed_rate_limited;
  const double shed_fraction =
      all.acked == 0 ? 0.0
                     : static_cast<double>(shed) / static_cast<double>(all.acked);
  const uint64_t p50 = Pctl(all.commit_lat_ns, 0.50);
  const uint64_t p99 = Pctl(all.commit_lat_ns, 0.99);
  const uint64_t p999 = Pctl(all.commit_lat_ns, 0.999);
  const uint64_t ap50 = Pctl(all.acked_lat_ns, 0.50);
  const uint64_t ap99 = Pctl(all.acked_lat_ns, 0.99);

  std::printf(
      "workload=%s rate=%.0f/s x %.1fs (%zu conns): scheduled=%llu "
      "sent=%llu acked=%llu committed=%llu (%.1f/s) durable=%llu "
      "aborted=%llu exhausted=%llu "
      "shed=%llu (%.1f%%) unanswered=%llu proto_err=%llu\n",
      opts.workload.c_str(), opts.rate, secs, opts.connections,
      static_cast<unsigned long long>(all.scheduled),
      static_cast<unsigned long long>(all.sent),
      static_cast<unsigned long long>(all.acked),
      static_cast<unsigned long long>(all.committed), goodput,
      static_cast<unsigned long long>(all.durable),
      static_cast<unsigned long long>(all.user_aborted),
      static_cast<unsigned long long>(all.exhausted),
      static_cast<unsigned long long>(shed), shed_fraction * 100,
      static_cast<unsigned long long>(all.unanswered),
      static_cast<unsigned long long>(all.protocol_error));
  std::printf(
      "committed latency: p50=%.1fus p99=%.1fus p999=%.1fus; "
      "all-acked: p50=%.1fus p99=%.1fus\n",
      static_cast<double>(p50) / 1e3, static_cast<double>(p99) / 1e3,
      static_cast<double>(p999) / 1e3, static_cast<double>(ap50) / 1e3,
      static_cast<double>(ap99) / 1e3);

  // RUNJSON as the figure benches print it: "tps" is committed goodput
  // (the cross-bench comparable number); serving-specific keys ride
  // alongside.
  std::printf(
      "RUNJSON {\"bench\":\"serve_%s\",\"engine\":\"%s\",\"window\":0,"
      "\"seconds\":%.6f,\"committed\":%llu,\"durable\":%llu,"
      "\"tps\":%.1f,\"arrival_rate\":%.1f,\"scheduled\":%llu,\"sent\":%llu,"
      "\"achieved_rps\":%.1f,\"acked\":%llu,"
      "\"shed\":%llu,\"shed_fraction\":%.6f,\"exhausted\":%llu,"
      "\"unanswered\":%llu,\"p50_us\":%.1f,\"p99_us\":%.1f,"
      "\"p999_us\":%.1f,\"acked_p50_us\":%.1f,\"acked_p99_us\":%.1f}\n",
      opts.workload.c_str(), opts.engine.c_str(), secs,
      static_cast<unsigned long long>(all.committed),
      static_cast<unsigned long long>(all.durable), goodput, opts.rate,
      static_cast<unsigned long long>(all.scheduled),
      static_cast<unsigned long long>(all.sent), achieved,
      static_cast<unsigned long long>(all.acked),
      static_cast<unsigned long long>(shed), shed_fraction,
      static_cast<unsigned long long>(all.exhausted),
      static_cast<unsigned long long>(all.unanswered),
      static_cast<double>(p50) / 1e3, static_cast<double>(p99) / 1e3,
      static_cast<double>(p999) / 1e3, static_cast<double>(ap50) / 1e3,
      static_cast<double>(ap99) / 1e3);
  std::fflush(stdout);
  // Nonzero exit on protocol errors or total failure so CI notices.
  if (all.protocol_error != 0) return 1;
  if (all.acked == 0) return 1;
  return 0;
}
