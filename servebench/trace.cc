// sb_trace: the served-path benchmark's traced run (servebench/README.md).
//
// Builds one WorkloadHost in-process and drives a seeded request stream
// (stream.h — the same streams sb_client sends over TCP) through the public
// calls each server layer is made of, from two threads, one per worker id:
//
//   AppendRequest      encode one request frame           (client)
//   FrameReader::Feed  decode the frames of a batch       (server I/O)
//   TryPush            admit each request                 (admission)
//   PopBatch           take up to 16 admitted requests    (admission)
//   WorkloadHost::Run  execute one transaction            (engine, WAL)
//   FlushWorkerMetrics publish the worker's counters      (server)
//
// It is the server's worker path without sockets: requests are spans of
// one request id, each layer's span is a child of that request, and the
// layers run one after another, so a span's duration is its self time.
// For 3 s, time alternates between untraced and traced slices of 100 ms;
// the ratio of their throughputs is the tracing overhead.
//
// Outputs, named from --out=PREFIX:
//   PREFIX.json    load time, per-mode request counts and busy time,
//                  per-layer span sums, engine counters and phase sums
//   PREFIX.run_ns  one uint32 per traced WorkloadHost::Run (nanoseconds)
//   PREFIX.spans   the first spans of the traced slices as 32-byte Span
//                  records (below), written once the run has ended

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "server/admission.h"
#include "server/protocol.h"
#include "server/workload_host.h"
#include "stream.h"

namespace servebench {
namespace {

using mv3c::server::AdmissionQueue;
using mv3c::server::FrameReader;
using mv3c::server::MonotonicNowNs;
using mv3c::server::QueuedRequest;
using mv3c::server::RequestHeader;
using mv3c::server::WorkloadHost;

constexpr size_t kWorkers = 2;
constexpr size_t kBatch = 16;  // the server's default --batch
constexpr uint64_t kSliceNs = 100'000'000;
constexpr size_t kMaxSpansPerThread = 100'000;
constexpr uint64_t kRunNs = 3'000'000'000;  // untraced and traced slices

enum Layer : uint16_t {
  kEncode = 0,
  kDecode,
  kPush,
  kPop,
  kRun,
  kPublish,
  kNumLayers,
};
constexpr const char* kLayerNames[kNumLayers] = {
    "encode", "decode", "push", "pop", "run", "publish"};

/// One layer span of one request. Its parent is the request `rid`; batch
/// calls (decode, pop, publish) are split evenly over their requests.
struct Span {
  uint64_t rid;       // (producing thread << 48) | sequence
  uint64_t start_ns;  // since the run's start
  uint32_t dur_ns;
  uint16_t layer;     // Layer
  uint16_t status;    // TxnStatus, for kRun spans
  uint32_t rounds;    // WorkloadHost::Result::rounds, for kRun spans
  uint32_t worker;
};
static_assert(sizeof(Span) == 32);

struct Options {
  std::string workload = "banking";
  std::string engine = "mv3c";
  uint64_t seed = 1;
  std::string wal_dir;  // non-empty: WAL with sync acks, one partition
  std::string out;
};

struct ThreadResult {
  uint64_t requests[2] = {0, 0};  // [untraced, traced]
  uint64_t busy_ns[2] = {0, 0};
  uint64_t layer_ns[kNumLayers] = {};
  uint64_t layer_n[kNumLayers] = {};
  std::vector<uint32_t> run_ns;
  std::vector<Span> spans;
};

uint32_t Clamp32(uint64_t v) {
  return static_cast<uint32_t>(std::min<uint64_t>(v, ~0u));
}

class Tracer {
 public:
  Tracer(const Options& o, WorkloadHost* host)
      : o_(o), host_(host), queue_(1024) {}

  void Run() {
    t0_ = MonotonicNowNs();
    end_ = t0_ + kRunNs;
    std::vector<std::thread> threads;
    for (size_t w = 0; w < kWorkers; ++w) {
      threads.emplace_back([this, w] { Worker(w); });
    }
    for (auto& t : threads) t.join();
    queue_.Close();
  }

  const ThreadResult& result(size_t w) const { return results_[w]; }

 private:
  void Worker(size_t w) {
    ThreadResult& res = results_[w];
    RequestStream stream(o_.workload, o_.seed, w);
    FrameReader reader;
    std::vector<uint8_t> wire;
    std::vector<QueuedRequest> decoded;
    uint64_t seq = 0;
    while (true) {
      const uint64_t b0 = MonotonicNowNs();
      if (b0 >= end_) break;
      const bool traced = ((b0 - t0_) / kSliceNs) % 2 == 1;
      if (traced) {
        Batch<true>(w, &stream, &reader, &wire, &decoded, &seq, &res);
      } else {
        Batch<false>(w, &stream, &reader, &wire, &decoded, &seq, &res);
      }
      res.busy_ns[traced] += MonotonicNowNs() - b0;
      res.requests[traced] += kBatch;
    }
    host_->FlushWorkerMetrics(w);
  }

  void Note(ThreadResult* res, Layer l, uint64_t rid, uint64_t start,
            uint64_t dur, size_t w, uint16_t status = 0, uint32_t rounds = 0) {
    res->layer_ns[l] += dur;
    res->layer_n[l]++;
    if (res->spans.size() < kMaxSpansPerThread) {
      res->spans.push_back(Span{rid, start - t0_, Clamp32(dur), l, status,
                                rounds, static_cast<uint32_t>(w)});
    }
  }

  /// One batch through every layer: encode kBatch frames, decode them,
  /// admit each, pop a batch (possibly the other thread's requests, as in
  /// the server's shared queue), run it on worker `w`, publish metrics.
  template <bool kTraced>
  void Batch(size_t w, RequestStream* stream, FrameReader* reader,
             std::vector<uint8_t>* wire, std::vector<QueuedRequest>* decoded,
             uint64_t* seq, ThreadResult* res) {
    auto now = [] { return kTraced ? MonotonicNowNs() : 0; };
    const uint64_t first_rid = (uint64_t{w} << 48) | *seq;
    wire->clear();
    for (size_t i = 0; i < kBatch; ++i) {
      const uint64_t rid = (uint64_t{w} << 48) | (*seq)++;
      const uint64_t a = now();
      stream->Append(wire, rid);
      if (kTraced) Note(res, kEncode, rid, a, now() - a, w);
    }

    decoded->clear();
    uint64_t a = now();
    const bool ok = reader->Feed(
        wire->data(), wire->size(), [&](const uint8_t* payload, uint32_t n) {
          // What Server::OnFrame does before admission.
          RequestHeader rq;
          std::memcpy(&rq, payload, sizeof(rq));
          QueuedRequest q;
          q.request_id = rq.request_id;
          q.opcode = rq.opcode;
          q.enqueue_ns = MonotonicNowNs();
          q.params.assign(payload + sizeof(rq), payload + n);
          decoded->push_back(std::move(q));
        });
    if (!ok || decoded->size() != kBatch) {
      std::fprintf(stderr, "sb_trace: frame decode failed\n");
      std::abort();
    }
    if (kTraced) {
      const uint64_t share = (now() - a) / kBatch;
      for (size_t i = 0; i < kBatch; ++i) {
        Note(res, kDecode, first_rid + i, a + i * share, share, w);
      }
    }

    for (QueuedRequest& q : *decoded) {
      const uint64_t rid = q.request_id;
      a = now();
      if (!queue_.TryPush(std::move(q))) {
        std::fprintf(stderr, "sb_trace: admission queue full\n");
        std::abort();
      }
      if (kTraced) Note(res, kPush, rid, a, now() - a, w);
    }

    a = now();
    std::vector<QueuedRequest> batch = queue_.PopBatch(kBatch);
    if (kTraced) {
      const uint64_t share = (now() - a) / std::max<size_t>(batch.size(), 1);
      for (size_t i = 0; i < batch.size(); ++i) {
        Note(res, kPop, batch[i].request_id, a + i * share, share, w);
      }
    }

    for (QueuedRequest& q : batch) {
      a = now();
      const WorkloadHost::Result r =
          host_->Run(w, q.opcode, q.params.data(), q.params.size());
      if (kTraced) {
        const uint64_t d = now() - a;
        res->run_ns.push_back(Clamp32(d));
        Note(res, kRun, q.request_id, a, d, w, static_cast<uint16_t>(r.status),
             r.rounds);
      }
    }

    a = now();
    host_->FlushWorkerMetrics(w);
    if (kTraced) {
      const uint64_t share = (now() - a) / std::max<size_t>(batch.size(), 1);
      for (size_t i = 0; i < batch.size(); ++i) {
        Note(res, kPublish, batch[i].request_id, a + i * share, share, w);
      }
    }
  }

  const Options& o_;
  WorkloadHost* host_;
  AdmissionQueue queue_;
  uint64_t t0_ = 0;
  uint64_t end_ = 0;
  ThreadResult results_[kWorkers];
};

bool WriteFile(const std::string& path, const void* data, size_t bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  const size_t n = bytes == 0 ? 0 : std::fwrite(data, 1, bytes, f);
  return std::fclose(f) == 0 && n == bytes;
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
    if (ParseFlag(a, "--workload", &v)) {
      o.workload = v;
    } else if (ParseFlag(a, "--engine", &v)) {
      o.engine = v;
    } else if (ParseFlag(a, "--seed", &v)) {
      o.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (ParseFlag(a, "--wal-dir", &v)) {
      o.wal_dir = v;
    } else if (ParseFlag(a, "--out", &v)) {
      o.out = v;
    } else {
      std::fprintf(stderr, "sb_trace: unknown flag %s\n", a);
      return 2;
    }
  }
  if (o.out.empty() || !RequestStream::Known(o.workload)) {
    std::fprintf(stderr,
                 "usage: sb_trace --out=PREFIX [--workload=banking|tatp|tpcc]"
                 " [--engine=mv3c|omvcc] [--seed=N]"
                 " [--wal-dir=DIR]\n");
    return 2;
  }

  mv3c::server::HostOptions ho;
  ho.workload = o.workload;
  ho.engine = o.engine;
  ho.workers = kWorkers;
  if (!o.wal_dir.empty()) {
    ho.wal = true;
    ho.sync_ack = true;
    ho.wal_dir = o.wal_dir;
    ho.wal_partitions = 1;
  }
  const auto l0 = std::chrono::steady_clock::now();
  std::unique_ptr<WorkloadHost> host = mv3c::server::MakeWorkloadHost(ho);
  const double load_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - l0)
          .count();
  if (host == nullptr) return 1;

  Tracer tracer(o, host.get());
  tracer.Run();
  const mv3c::obs::MetricsSnapshot snap = host->PublishedEngineMetrics();
  host->Shutdown();

  ThreadResult all;
  for (size_t w = 0; w < kWorkers; ++w) {
    const ThreadResult& r = tracer.result(w);
    for (int m = 0; m < 2; ++m) {
      all.requests[m] += r.requests[m];
      all.busy_ns[m] += r.busy_ns[m];
    }
    for (int l = 0; l < kNumLayers; ++l) {
      all.layer_ns[l] += r.layer_ns[l];
      all.layer_n[l] += r.layer_n[l];
    }
    all.run_ns.insert(all.run_ns.end(), r.run_ns.begin(), r.run_ns.end());
    all.spans.insert(all.spans.end(), r.spans.begin(), r.spans.end());
  }
  if (!WriteFile(o.out + ".run_ns", all.run_ns.data(),
                 all.run_ns.size() * sizeof(uint32_t)) ||
      !WriteFile(o.out + ".spans", all.spans.data(),
                 all.spans.size() * sizeof(Span))) {
    return 1;
  }

  std::FILE* f = std::fopen((o.out + ".json").c_str(), "w");
  if (f == nullptr) return 1;
  std::fprintf(f,
               "{\"workload\": \"%s\", \"engine\": \"%s\", \"wal\": %s, "
               "\"load_s\": %.9f,\n",
               o.workload.c_str(), o.engine.c_str(),
               o.wal_dir.empty() ? "false" : "true", load_s);
  std::fprintf(f,
               " \"untraced\": {\"requests\": %llu, \"busy_ns\": %llu},\n"
               " \"traced\": {\"requests\": %llu, \"busy_ns\": %llu},\n",
               static_cast<unsigned long long>(all.requests[0]),
               static_cast<unsigned long long>(all.busy_ns[0]),
               static_cast<unsigned long long>(all.requests[1]),
               static_cast<unsigned long long>(all.busy_ns[1]));
  std::fprintf(f, " \"layers\": {");
  for (int l = 0; l < kNumLayers; ++l) {
    std::fprintf(f, "%s\"%s\": {\"n\": %llu, \"sum_ns\": %llu}",
                 l == 0 ? "" : ", ", kLayerNames[l],
                 static_cast<unsigned long long>(all.layer_n[l]),
                 static_cast<unsigned long long>(all.layer_ns[l]));
  }
  std::fprintf(f, "},\n \"counters\": %s,\n \"phases\": {",
               snap.CountersJson().c_str());
  bool first = true;
  for (int p = 0; p < mv3c::obs::kNumPhases; ++p) {
    const mv3c::obs::HistogramSnapshot& h = snap.phases[p];
    std::fprintf(f, "%s\"%s\": {\"count\": %llu, \"sum_ns\": %.1f}",
                 first ? "" : ", ",
                 mv3c::obs::PhaseName(static_cast<mv3c::obs::Phase>(p)),
                 static_cast<unsigned long long>(h.count),
                 h.MeanNs() * static_cast<double>(h.count));
    first = false;
  }
  std::fprintf(f, "}}\n");
  return std::fclose(f) == 0 ? 0 : 1;
}

}  // namespace
}  // namespace servebench

int main(int argc, char** argv) { return servebench::Main(argc, argv); }
