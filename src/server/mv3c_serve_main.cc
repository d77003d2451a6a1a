// mv3c_serve: the single-binary serving front-end (DESIGN §5k). Hosts one
// workload on one engine behind the MV3S wire protocol + HTTP /metrics,
// and runs until SIGINT/SIGTERM.
//
//   mv3c_serve --workload=tpcc --engine=mv3c --port=7433 --workers=4
//              --wal --wal-dir=/tmp/serve-wal --ack=sync
//
// Prints "LISTENING port=<n>" once the socket is bound (port 0 picks an
// ephemeral port), which is what scripts/serve_smoke.sh and the CI
// integration job parse.

#include <charconv>
#include <cmath>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <system_error>
#include <thread>
#include <type_traits>

#include "server/server.h"

namespace {

volatile std::sig_atomic_t g_stop = 0;
void OnSignal(int) { g_stop = 1; }

bool ParseFlag(const char* arg, const char* name, std::string* out) {
  const size_t n = std::strlen(name);
  if (std::strncmp(arg, name, n) != 0 || arg[n] != '=') return false;
  *out = arg + n + 1;
  return true;
}

[[noreturn]] void Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [options]\n"
      "  --workload=banking|trading|tatp|tpcc   (default banking)\n"
      "  --engine=mv3c|omvcc                    (default mv3c)\n"
      "  --bind=ADDR          listen address (default 127.0.0.1)\n"
      "  --port=N             listen port; 0 = ephemeral (default 0)\n"
      "  --workers=N          engine worker threads (default 4)\n"
      "  --scale=N            workload population knob (0 = default)\n"
      "  --queue-depth=N      admission queue bound (default 1024)\n"
      "  --batch=N            worker pop batch (default 16)\n"
      "  --client-rate=R      per-connection token rate/s (0 = unlimited)\n"
      "  --client-burst=B     per-connection token burst (default 64)\n"
      "  --round-cap=N        per-txn retry/repair round cap (default 64)\n"
      "  --service-delay-us=N deterministic per-request delay (tests)\n"
      "  --wal                enable the write-ahead log\n"
      "  --ack=sync|async     durability ack mode with --wal (default async)\n"
      "  --wal-dir=PATH       WAL directory (required with --wal)\n"
      "  --wal-partitions=N   per-core WAL streams (default 1)\n",
      argv0);
  std::exit(2);
}

// The value of a numeric flag: the whole of `v` must be a non-negative
// number that fits T. Anything else (empty, a sign, a non-digit, trailing
// characters, out of range) prints the usage and exits 2.
template <typename T>
T ParseNumber(const char* argv0, const char* flag, const std::string& v) {
  T n{};
  const char* end = v.data() + v.size();
  const auto [p, ec] = std::from_chars(v.data(), end, n);
  bool ok = !v.empty() && ec == std::errc() && p == end;
  if constexpr (std::is_floating_point_v<T>) {
    ok = ok && std::isfinite(n) && n >= 0;
  }
  if (!ok) {
    std::fprintf(stderr, "%s: bad value '%s'\n", flag, v.c_str());
    Usage(argv0);
  }
  return n;
}

}  // namespace

int main(int argc, char** argv) {
  mv3c::server::ServerOptions opts;
  std::string v;
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    if (ParseFlag(a, "--workload", &v)) {
      opts.host.workload = v;
    } else if (ParseFlag(a, "--engine", &v)) {
      opts.host.engine = v;
    } else if (ParseFlag(a, "--bind", &v)) {
      opts.bind_addr = v;
    } else if (ParseFlag(a, "--port", &v)) {
      opts.port = ParseNumber<uint16_t>(argv[0], "--port", v);
    } else if (ParseFlag(a, "--workers", &v)) {
      opts.host.workers = ParseNumber<size_t>(argv[0], "--workers", v);
    } else if (ParseFlag(a, "--scale", &v)) {
      opts.host.scale = ParseNumber<uint64_t>(argv[0], "--scale", v);
    } else if (ParseFlag(a, "--queue-depth", &v)) {
      opts.queue_depth = ParseNumber<size_t>(argv[0], "--queue-depth", v);
    } else if (ParseFlag(a, "--batch", &v)) {
      opts.batch = ParseNumber<size_t>(argv[0], "--batch", v);
    } else if (ParseFlag(a, "--client-rate", &v)) {
      opts.client_rate = ParseNumber<double>(argv[0], "--client-rate", v);
    } else if (ParseFlag(a, "--client-burst", &v)) {
      opts.client_burst = ParseNumber<double>(argv[0], "--client-burst", v);
    } else if (ParseFlag(a, "--round-cap", &v)) {
      opts.host.round_cap = ParseNumber<uint32_t>(argv[0], "--round-cap", v);
    } else if (ParseFlag(a, "--service-delay-us", &v)) {
      opts.host.service_delay_us =
          ParseNumber<uint32_t>(argv[0], "--service-delay-us", v);
    } else if (std::strcmp(a, "--wal") == 0) {
      opts.host.wal = true;
    } else if (ParseFlag(a, "--ack", &v)) {
      if (v == "sync") {
        opts.host.sync_ack = true;
      } else if (v == "async") {
        opts.host.sync_ack = false;
      } else {
        std::fprintf(stderr, "--ack must be sync or async\n");
        return 2;
      }
    } else if (ParseFlag(a, "--wal-dir", &v)) {
      opts.host.wal_dir = v;
    } else if (ParseFlag(a, "--wal-partitions", &v)) {
      opts.host.wal_partitions =
          ParseNumber<uint32_t>(argv[0], "--wal-partitions", v);
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", a);
      Usage(argv[0]);
    }
  }
  if (opts.host.wal && opts.host.wal_dir.empty()) {
    std::fprintf(stderr, "--wal requires --wal-dir\n");
    return 2;
  }

  std::fprintf(stderr, "loading %s (%s, %zu workers)...\n",
               opts.host.workload.c_str(), opts.host.engine.c_str(),
               opts.host.workers);
  mv3c::server::Server server(opts);
  if (!server.Start()) {
    std::fprintf(stderr, "start failed\n");
    return 1;
  }
  std::printf("LISTENING port=%u\n", server.port());
  std::fflush(stdout);

  struct sigaction sa {};
  sa.sa_handler = OnSignal;
  sigaction(SIGINT, &sa, nullptr);
  sigaction(SIGTERM, &sa, nullptr);
  while (g_stop == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  std::fprintf(stderr, "shutting down...\n");
  server.Stop();

  const auto& s = server.stats();
  std::fprintf(stderr,
               "served: requests=%llu committed=%llu aborted=%llu "
               "exhausted=%llu shed_overload=%llu shed_rate=%llu "
               "proto_errors=%llu\n",
               static_cast<unsigned long long>(s.requests_received.load()),
               static_cast<unsigned long long>(s.txn_committed.load()),
               static_cast<unsigned long long>(s.txn_user_aborted.load()),
               static_cast<unsigned long long>(s.txn_exhausted.load()),
               static_cast<unsigned long long>(s.shed_overload.load()),
               static_cast<unsigned long long>(s.shed_rate_limited.load()),
               static_cast<unsigned long long>(s.protocol_errors.load()));
  return 0;
}
