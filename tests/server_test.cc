// Serving front-end tests (DESIGN §5k): wire-protocol fuzzing (a torn,
// oversized, CRC-corrupted, or garbage byte stream must produce a clean
// connection close — never a crash or a partially-applied transaction),
// admission-control units (token bucket, bounded queue, retry-after
// estimator), and in-process socket integration including the 4x-capacity
// overload scenario the ISSUE acceptance criteria name.

#include "server/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>
#include <filesystem>
#include <future>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/failpoint.h"
#include "common/random.h"
#include "mvcc/timestamp.h"
#include "server/admission.h"
#include "server/protocol.h"
#include "server/workload_host.h"
#include "wal/catalog.h"
#include "wal/recovery.h"
#include "wal/state_hash.h"
#include "workloads/banking.h"
#include "workloads/tpcc.h"
#include "workloads/wal_registry.h"

namespace mv3c::server {
namespace {

// ---------------------------------------------------------------------------
// FrameReader: framing and fuzz
// ---------------------------------------------------------------------------

std::vector<uint8_t> OneFrame(const void* payload, uint32_t n) {
  std::vector<uint8_t> out;
  AppendFrame(&out, payload, n);
  return out;
}

TEST(FrameReaderTest, ParsesWholeAndTornFrames) {
  const char msg[] = "hello mv3c";
  std::vector<uint8_t> wire = OneFrame(msg, sizeof(msg));
  // Two copies back to back, delivered in 1-byte chunks (maximally torn).
  wire.insert(wire.end(), wire.begin(), wire.end());
  FrameReader r;
  int frames = 0;
  for (uint8_t b : wire) {
    ASSERT_TRUE(r.Feed(&b, 1, [&](const uint8_t* p, uint32_t n) {
      ASSERT_EQ(n, sizeof(msg));
      EXPECT_EQ(std::memcmp(p, msg, n), 0);
      ++frames;
    }));
  }
  EXPECT_EQ(frames, 2);
  EXPECT_EQ(r.buffered(), 0u);
}

TEST(FrameReaderTest, BadMagicIsTerminal) {
  std::vector<uint8_t> wire = OneFrame("x", 1);
  wire[0] ^= 0xFF;
  FrameReader r;
  EXPECT_FALSE(r.Feed(wire.data(), wire.size(), [](const uint8_t*, uint32_t) {
    FAIL() << "sink must not fire";
  }));
  EXPECT_EQ(r.error(), FrameReader::Error::kBadMagic);
  // Terminal: even a valid frame afterwards is refused.
  std::vector<uint8_t> good = OneFrame("y", 1);
  EXPECT_FALSE(r.Feed(good.data(), good.size(),
                      [](const uint8_t*, uint32_t) {}));
}

TEST(FrameReaderTest, HeaderCrcCatchesLengthCorruption) {
  std::vector<uint8_t> wire = OneFrame("abcd", 4);
  wire[4] ^= 0x01;  // flip a payload_bytes bit, header CRC now stale
  FrameReader r;
  EXPECT_FALSE(
      r.Feed(wire.data(), wire.size(), [](const uint8_t*, uint32_t) {}));
  EXPECT_EQ(r.error(), FrameReader::Error::kBadHeaderCrc);
}

TEST(FrameReaderTest, OversizedLengthRefusedBeforeBuffering) {
  // A *consistent* header (valid CRC) claiming a huge payload: the reader
  // must reject on the length bound, not allocate and wait for 16MB.
  FrameHeader h{};
  h.magic = kFrameMagic;
  h.payload_bytes = 16u << 20;
  h.payload_crc = 0;
  h.header_crc = FrameHeaderCrc(h);
  FrameReader r;
  EXPECT_FALSE(r.Feed(reinterpret_cast<const uint8_t*>(&h), sizeof(h),
                      [](const uint8_t*, uint32_t) {}));
  EXPECT_EQ(r.error(), FrameReader::Error::kOversized);
  EXPECT_EQ(r.buffered(), 0u);
}

TEST(FrameReaderTest, PayloadCrcCatchesBitFlip) {
  std::vector<uint8_t> wire = OneFrame("abcdefgh", 8);
  wire[sizeof(FrameHeader) + 3] ^= 0x40;
  FrameReader r;
  EXPECT_FALSE(
      r.Feed(wire.data(), wire.size(), [](const uint8_t*, uint32_t) {}));
  EXPECT_EQ(r.error(), FrameReader::Error::kBadPayloadCrc);
}

TEST(FrameReaderTest, GarbageFuzzNeverCrashesOrFiresSink) {
  // Deterministic garbage streams: every one must end in a terminal error
  // (or still be waiting for bytes) without invoking the sink — the odds
  // of random bytes forging magic + CRC32C are negligible.
  Xoshiro256 rng(0xF00D);
  for (int trial = 0; trial < 200; ++trial) {
    FrameReader r;
    bool dead = false;
    for (int chunk = 0; chunk < 16 && !dead; ++chunk) {
      uint8_t buf[64];
      const size_t n = 1 + rng.NextBounded(sizeof(buf));
      for (size_t i = 0; i < n; ++i) {
        buf[i] = static_cast<uint8_t>(rng.Next());
      }
      dead = !r.Feed(buf, n, [](const uint8_t*, uint32_t) {
        FAIL() << "garbage parsed as a frame";
      });
    }
    // Either the stream died or fewer than 16 bytes ever lined up into a
    // full header; both are acceptable, crashing is not.
    if (dead) {
      EXPECT_NE(r.error(), FrameReader::Error::kNone);
    }
  }
}

TEST(FrameReaderTest, TruncatedStreamHoldsPartialFrameOnly) {
  const char msg[] = "partial";
  std::vector<uint8_t> wire = OneFrame(msg, sizeof(msg));
  FrameReader r;
  int frames = 0;
  // All but the last byte: nothing fires, bytes stay buffered.
  ASSERT_TRUE(r.Feed(wire.data(), wire.size() - 1,
                     [&](const uint8_t*, uint32_t) { ++frames; }));
  EXPECT_EQ(frames, 0);
  EXPECT_EQ(r.buffered(), wire.size() - 1);
  ASSERT_TRUE(r.Feed(wire.data() + wire.size() - 1, 1,
                     [&](const uint8_t*, uint32_t) { ++frames; }));
  EXPECT_EQ(frames, 1);
}

// ---------------------------------------------------------------------------
// Admission units
// ---------------------------------------------------------------------------

TEST(TokenBucketTest, BurstThenRefuseThenRefill) {
  TokenBucket b(/*rate=*/1000.0, /*burst=*/3.0);
  const uint64_t t0 = 1'000'000'000;
  uint32_t ra = 0;
  EXPECT_TRUE(b.TryTake(t0, &ra));
  EXPECT_TRUE(b.TryTake(t0, &ra));
  EXPECT_TRUE(b.TryTake(t0, &ra));
  EXPECT_FALSE(b.TryTake(t0, &ra));
  EXPECT_GT(ra, 0u);
  EXPECT_LE(ra, 1001u);  // one token at 1000/s is 1ms away
  // 2ms later two tokens accrued.
  EXPECT_TRUE(b.TryTake(t0 + 2'000'000, &ra));
  EXPECT_TRUE(b.TryTake(t0 + 2'000'000, &ra));
  EXPECT_FALSE(b.TryTake(t0 + 2'000'000, &ra));
}

TEST(TokenBucketTest, ZeroRateIsUnlimited) {
  TokenBucket b(0, 0);
  uint32_t ra = 0;
  for (int i = 0; i < 1000; ++i) {
    EXPECT_TRUE(b.TryTake(123456789 + i, &ra));
  }
}

TEST(AdmissionQueueTest, BoundedPushAndBatchedPop) {
  AdmissionQueue q(4);
  for (int i = 0; i < 4; ++i) {
    QueuedRequest r;
    r.request_id = static_cast<uint64_t>(i);
    EXPECT_TRUE(q.TryPush(std::move(r)));
  }
  QueuedRequest overflow;
  EXPECT_FALSE(q.TryPush(std::move(overflow)));  // full: shed
  EXPECT_EQ(q.depth(), 4u);
  EXPECT_EQ(q.peak_depth(), 4u);

  auto batch = q.PopBatch(3);
  ASSERT_EQ(batch.size(), 3u);
  EXPECT_EQ(batch[0].request_id, 0u);  // FIFO
  EXPECT_EQ(q.depth(), 1u);
  EXPECT_EQ(q.peak_depth(), 4u);  // high-water mark sticks

  q.Close();
  EXPECT_EQ(q.PopBatch(8).size(), 1u);       // drains the remainder
  EXPECT_TRUE(q.PopBatch(8).empty());        // then reports closed
  QueuedRequest late;
  EXPECT_FALSE(q.TryPush(std::move(late)));  // closed refuses new work
}

TEST(AdmissionQueueTest, CloseWakesBlockedConsumer) {
  AdmissionQueue q(4);
  std::thread consumer([&] { EXPECT_TRUE(q.PopBatch(4).empty()); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  q.Close();
  consumer.join();
}

// A worker holding a parked batch pops without blocking: on an empty open
// queue the pop must come back at once (empty), and closing still drains
// what was admitted before reporting closed.
TEST(AdmissionQueueTest, NonBlockingPopReturnsAtOnce) {
  AdmissionQueue q(4);
  auto empty = std::async(std::launch::async,
                          [&] { return q.PopBatch(4, /*block=*/false); });
  if (empty.wait_for(std::chrono::seconds(5)) != std::future_status::ready) {
    q.Close();  // unblock the stuck pop so the test can fail cleanly
    FAIL() << "non-blocking pop blocked on an empty open queue";
  }
  EXPECT_TRUE(empty.get().empty());

  for (uint64_t i = 0; i < 3; ++i) {
    QueuedRequest r;
    r.request_id = i;
    ASSERT_TRUE(q.TryPush(std::move(r)));
  }
  auto batch = q.PopBatch(2, /*block=*/false);
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_EQ(batch[0].request_id, 0u);  // FIFO
  q.Close();
  batch = q.PopBatch(8, /*block=*/false);
  ASSERT_EQ(batch.size(), 1u);  // closed still drains the remainder
  EXPECT_EQ(batch[0].request_id, 2u);
  EXPECT_TRUE(q.PopBatch(8, /*block=*/false).empty());
  EXPECT_TRUE(q.PopBatch(8).empty());  // blocking pop: closed and drained
}

TEST(ServiceTimeEstimateTest, EwmaAndRetryAfterClamps) {
  ServiceTimeEstimate e;
  EXPECT_EQ(e.RetryAfterUs(0), 1000u);  // cold estimate: 1ms default
  for (int i = 0; i < 64; ++i) e.Record(1'000'000);  // 1ms service time
  EXPECT_NEAR(static_cast<double>(e.ewma_ns()), 1e6, 2e5);
  // Backlog of 100 at ~1ms each ~= 100ms.
  const uint32_t ra = e.RetryAfterUs(100);
  EXPECT_GE(ra, 50'000u);
  EXPECT_LE(ra, 200'000u);
  EXPECT_EQ(e.RetryAfterUs(100'000), 1'000'000u);  // ceiling: 1s
  ServiceTimeEstimate fast;
  fast.Record(10);  // 10ns service time -> floor kicks in
  EXPECT_EQ(fast.RetryAfterUs(0), 200u);
}

// ---------------------------------------------------------------------------
// Socket integration
// ---------------------------------------------------------------------------

/// Minimal blocking client for tests: connects, writes raw bytes, decodes
/// response frames.
class TestClient {
 public:
  explicit TestClient(uint16_t port) {
    fd_ = socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    connected_ =
        connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0;
    const int one = 1;
    setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  }
  ~TestClient() {
    if (fd_ >= 0) close(fd_);
  }
  bool connected() const { return connected_; }

  void SendRaw(const std::vector<uint8_t>& bytes) {
    size_t off = 0;
    while (off < bytes.size()) {
      const ssize_t k =
          send(fd_, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
      if (k <= 0) return;
      off += static_cast<size_t>(k);
    }
  }

  /// Reads until `n` responses decode, EOF, or ~deadline_ms passes.
  std::vector<ResponseHeader> ReadResponses(size_t n, int deadline_ms = 5000) {
    std::vector<ResponseHeader> out;
    uint8_t buf[16 * 1024];
    int waited = 0;
    while (out.size() < n && waited < deadline_ms) {
      pollfd p{fd_, POLLIN, 0};
      const int pr = poll(&p, 1, 50);
      if (pr == 0) {
        waited += 50;
        continue;
      }
      const ssize_t k = recv(fd_, buf, sizeof(buf), 0);
      if (k <= 0) {
        eof_ = true;
        break;
      }
      reader_.Feed(buf, static_cast<size_t>(k),
                   [&](const uint8_t* payload, uint32_t bytes) {
                     ASSERT_GE(bytes, sizeof(ResponseHeader));
                     ResponseHeader rh;
                     std::memcpy(&rh, payload, sizeof(rh));
                     out.push_back(rh);
                   });
    }
    return out;
  }

  /// True iff the server closes this connection within the deadline.
  bool WaitForClose(int deadline_ms = 5000) {
    uint8_t buf[4096];
    int waited = 0;
    while (waited < deadline_ms) {
      pollfd p{fd_, POLLIN, 0};
      const int pr = poll(&p, 1, 50);
      if (pr == 0) {
        waited += 50;
        continue;
      }
      const ssize_t k = recv(fd_, buf, sizeof(buf), 0);
      if (k == 0) return true;
      if (k < 0) return true;
    }
    return false;
  }

  /// One-shot HTTP GET; returns the full response (headers + body).
  static std::string HttpGet(uint16_t port, const std::string& path) {
    TestClient c(port);
    const std::string req = "GET " + path + " HTTP/1.1\r\nHost: t\r\n\r\n";
    c.SendRaw(std::vector<uint8_t>(req.begin(), req.end()));
    std::string resp;
    uint8_t buf[16 * 1024];
    while (true) {
      pollfd p{c.fd_, POLLIN, 0};
      if (poll(&p, 1, 3000) <= 0) break;
      const ssize_t k = recv(c.fd_, buf, sizeof(buf), 0);
      if (k <= 0) break;
      resp.append(reinterpret_cast<char*>(buf), static_cast<size_t>(k));
    }
    return resp;
  }

 private:
  int fd_ = -1;
  bool connected_ = false;
  bool eof_ = false;
  FrameReader reader_;
};

ServerOptions SmallBankingOptions() {
  ServerOptions o;
  o.host.workload = "banking";
  o.host.engine = "mv3c";
  o.host.workers = 2;
  o.host.scale = 2000;
  o.queue_depth = 256;
  return o;
}

banking::TransferParams MakeTransfer(int64_t from, int64_t to) {
  banking::TransferParams p;
  p.from = from;
  p.to = to;
  p.amount = 5;
  p.with_fee = false;
  return p;
}

// Options that leave the server unable to answer are refused before the
// host loads or any thread starts.
TEST(ServerIntegrationTest, StartRefusesOptionsThatCannotAnswer) {
  std::vector<std::pair<const char*, ServerOptions>> cases;
  ServerOptions o = SmallBankingOptions();
  o.host.workers = 0;
  cases.emplace_back("workers=0", o);
  o = SmallBankingOptions();
  o.batch = 0;
  cases.emplace_back("batch=0", o);
  o = SmallBankingOptions();
  o.queue_depth = 0;
  cases.emplace_back("queue_depth=0", o);
  o = SmallBankingOptions();
  o.host.wal = true;
  o.host.wal_dir = testing::TempDir() + "/serve_zero_partitions";
  o.host.wal_partitions = 0;
  cases.emplace_back("wal_partitions=0", o);
  for (const auto& [name, opts] : cases) {
    SCOPED_TRACE(name);
    Server server(opts);
    EXPECT_FALSE(server.Start());
    EXPECT_EQ(server.host(), nullptr) << "the host loaded anyway";
  }
}

TEST(ServerIntegrationTest, PingTransferAndBadOpcode) {
  Server server(SmallBankingOptions());
  ASSERT_TRUE(server.Start());
  TestClient c(server.port());
  ASSERT_TRUE(c.connected());

  std::vector<uint8_t> wire;
  AppendPing(&wire, 1);
  AppendRequest(&wire, 2, Op::kBankingTransfer, MakeTransfer(1, 2));
  AppendRequest(&wire, 3, Op::kTpcc, tpcc::TpccParams{});  // wrong workload
  c.SendRaw(wire);

  auto rs = c.ReadResponses(3);
  ASSERT_EQ(rs.size(), 3u);
  // Responses may interleave (ping/bad-request answer inline, the transfer
  // goes through the worker pool), so index by request_id.
  for (const ResponseHeader& rh : rs) {
    if (rh.request_id == 1) {
      EXPECT_EQ(rh.status, static_cast<uint16_t>(TxnStatus::kPong));
    } else if (rh.request_id == 2) {
      EXPECT_EQ(rh.status, static_cast<uint16_t>(TxnStatus::kCommitted));
      EXPECT_NE(rh.commit_ts, 0u);
    } else {
      EXPECT_EQ(rh.request_id, 3u);
      EXPECT_EQ(rh.status, static_cast<uint16_t>(TxnStatus::kBadRequest));
    }
  }
  EXPECT_EQ(server.stats().txn_committed.load(), 1u);
  server.Stop();
}

TEST(ServerIntegrationTest, WrongSizeParamsRejectedBeforeEngine) {
  Server server(SmallBankingOptions());
  ASSERT_TRUE(server.Start());
  TestClient c(server.port());
  ASSERT_TRUE(c.connected());
  // Right opcode, truncated params: kBadRequest, no engine entry.
  RequestHeader rq{};
  rq.request_id = 9;
  rq.opcode = static_cast<uint16_t>(Op::kBankingTransfer);
  uint8_t payload[sizeof(rq) + 3] = {};
  std::memcpy(payload, &rq, sizeof(rq));
  std::vector<uint8_t> wire;
  AppendFrame(&wire, payload, sizeof(payload));
  c.SendRaw(wire);
  auto rs = c.ReadResponses(1);
  ASSERT_EQ(rs.size(), 1u);
  EXPECT_EQ(rs[0].status, static_cast<uint16_t>(TxnStatus::kBadRequest));
  EXPECT_EQ(server.stats().txn_committed.load(), 0u);
  server.Stop();
}

TEST(ServerIntegrationTest, GarbageBytesCloseConnectionCleanly) {
  Server server(SmallBankingOptions());
  ASSERT_TRUE(server.Start());
  {
    TestClient c(server.port());
    ASSERT_TRUE(c.connected());
    // Binary-looking garbage: correct magic prefix, then noise — the
    // header CRC kills it. (Pure noise without the magic is sniffed as
    // HTTP and dies on the HTTP path; both must close cleanly.)
    std::vector<uint8_t> garbage = {'M', 'V', '3', 'S'};
    Xoshiro256 rng(7);
    for (int i = 0; i < 64; ++i) {
      garbage.push_back(static_cast<uint8_t>(rng.Next()));
    }
    c.SendRaw(garbage);
    EXPECT_TRUE(c.WaitForClose());
  }
  // The server survived and still serves.
  TestClient c2(server.port());
  ASSERT_TRUE(c2.connected());
  std::vector<uint8_t> wire;
  AppendRequest(&wire, 1, Op::kBankingTransfer, MakeTransfer(3, 4));
  c2.SendRaw(wire);
  auto rs = c2.ReadResponses(1);
  ASSERT_EQ(rs.size(), 1u);
  EXPECT_EQ(rs[0].status, static_cast<uint16_t>(TxnStatus::kCommitted));
  EXPECT_GE(server.stats().protocol_errors.load(), 1u);
  server.Stop();
}

TEST(ServerIntegrationTest, TornFrameNeverRunsPartialTransaction) {
  Server server(SmallBankingOptions());
  ASSERT_TRUE(server.Start());
  {
    TestClient c(server.port());
    ASSERT_TRUE(c.connected());
    std::vector<uint8_t> wire;
    AppendRequest(&wire, 1, Op::kBankingTransfer, MakeTransfer(1, 2));
    // Send all but the last 5 bytes, then hang up: the frame never
    // completes, so the transaction must never run.
    wire.resize(wire.size() - 5);
    c.SendRaw(wire);
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }  // client closes with a partial frame buffered server-side
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_EQ(server.stats().txn_committed.load(), 0u);
  EXPECT_EQ(server.stats().requests_received.load(), 0u);
  server.Stop();
}

TEST(ServerIntegrationTest, OversizedAndBadCrcFramesClose) {
  Server server(SmallBankingOptions());
  ASSERT_TRUE(server.Start());
  {
    // Oversized declared length with a *valid* header CRC.
    TestClient c(server.port());
    FrameHeader h{};
    h.magic = kFrameMagic;
    h.payload_bytes = 1u << 24;
    h.header_crc = FrameHeaderCrc(h);
    std::vector<uint8_t> wire(sizeof(h));
    std::memcpy(wire.data(), &h, sizeof(h));
    c.SendRaw(wire);
    EXPECT_TRUE(c.WaitForClose());
  }
  {
    // Valid header, corrupted payload byte.
    TestClient c(server.port());
    std::vector<uint8_t> wire;
    AppendRequest(&wire, 1, Op::kBankingTransfer, MakeTransfer(1, 2));
    wire[sizeof(FrameHeader) + sizeof(RequestHeader) + 2] ^= 0x10;
    c.SendRaw(wire);
    EXPECT_TRUE(c.WaitForClose());
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(server.stats().txn_committed.load(), 0u);
  EXPECT_GE(server.stats().protocol_errors.load(), 2u);
  server.Stop();
}

TEST(ServerIntegrationTest, HealthzAndMetricsOverHttp) {
  Server server(SmallBankingOptions());
  ASSERT_TRUE(server.Start());
  TestClient c(server.port());
  std::vector<uint8_t> wire;
  AppendRequest(&wire, 1, Op::kBankingTransfer, MakeTransfer(5, 6));
  c.SendRaw(wire);
  ASSERT_EQ(c.ReadResponses(1).size(), 1u);

  const std::string health = TestClient::HttpGet(server.port(), "/healthz");
  EXPECT_NE(health.find("200 OK"), std::string::npos);
  EXPECT_NE(health.find("ok"), std::string::npos);

  const std::string metrics = TestClient::HttpGet(server.port(), "/metrics");
  EXPECT_NE(metrics.find("200 OK"), std::string::npos);
  EXPECT_NE(metrics.find("mv3c_server_txn_committed_total 1"),
            std::string::npos);
  EXPECT_NE(metrics.find("mv3c_server_admission_queue_capacity"),
            std::string::npos);
  // Engine counters ride along, labeled with engine/workload.
  EXPECT_NE(metrics.find("mv3c_engine_commits_total{engine=\"mv3c\","
                         "workload=\"banking\"} 1"),
            std::string::npos);

  const std::string missing = TestClient::HttpGet(server.port(), "/nope");
  EXPECT_NE(missing.find("404"), std::string::npos);
  server.Stop();
}

TEST(ServerIntegrationTest, PerClientRateLimitSheds) {
  ServerOptions o = SmallBankingOptions();
  o.client_rate = 50;  // tokens/s
  o.client_burst = 4;
  Server server(o);
  ASSERT_TRUE(server.Start());
  TestClient c(server.port());
  std::vector<uint8_t> wire;
  for (uint64_t i = 1; i <= 20; ++i) {
    AppendRequest(&wire, i, Op::kBankingTransfer, MakeTransfer(1, 2));
  }
  c.SendRaw(wire);
  auto rs = c.ReadResponses(20);
  ASSERT_EQ(rs.size(), 20u);
  uint64_t limited = 0;
  for (const ResponseHeader& rh : rs) {
    if (rh.status == static_cast<uint16_t>(TxnStatus::kRateLimited)) {
      ++limited;
      EXPECT_GT(rh.retry_after_us, 0u);
    }
  }
  // Burst of 4 (plus whatever trickles in at 50/s): most of 20 shed.
  EXPECT_GE(limited, 10u);
  EXPECT_EQ(server.stats().shed_rate_limited.load(), limited);
  server.Stop();
}

// The 4x-capacity overload scenario: service_delay_us pins per-request
// service time so capacity is a number, the queue bound is tiny, and the
// client offers a burst far beyond both. The server must (a) stay up,
// (b) answer *every* request, (c) shed with kOverload + a retry-after
// hint, and (d) never let the queue grow past its bound.
TEST(ServerIntegrationTest, OverloadShedsBoundedWithRetryAfter) {
  ServerOptions o = SmallBankingOptions();
  o.host.workers = 2;
  o.host.service_delay_us = 2000;  // 2ms/txn -> ~1000 txn/s capacity
  o.queue_depth = 16;
  Server server(o);
  ASSERT_TRUE(server.Start());
  TestClient c(server.port());

  // With failpoints armed some admitted transactions burn repair/retry
  // rounds before committing — overload shedding must hold regardless.
  failpoint::Reset(42);
  failpoint::ScopedArm arm(failpoint::Site::kPrevalidate,
                           {.action = failpoint::Action::kFail,
                            .probability = 0.2,
                            .max_trips = 64});

  // ~4x capacity for one second: 200 requests in one burst (the queue
  // holds 16 + 2 in flight; the rest must shed immediately).
  constexpr uint64_t kBurst = 200;
  std::vector<uint8_t> wire;
  for (uint64_t i = 1; i <= kBurst; ++i) {
    AppendRequest(&wire, i, Op::kBankingTransfer,
                  MakeTransfer(1 + (i % 100), 200 + (i % 100)));
  }
  c.SendRaw(wire);
  auto rs = c.ReadResponses(kBurst, 20000);
  ASSERT_EQ(rs.size(), kBurst) << "every request must be answered";

  uint64_t committed = 0, shed = 0;
  for (const ResponseHeader& rh : rs) {
    switch (static_cast<TxnStatus>(rh.status)) {
      case TxnStatus::kCommitted:
        ++committed;
        break;
      case TxnStatus::kOverload:
        ++shed;
        // The shed response must carry a server-driven backoff hint.
        EXPECT_GE(rh.retry_after_us, 200u);
        EXPECT_LE(rh.retry_after_us, 1'000'000u);
        break;
      case TxnStatus::kExhausted:
        EXPECT_GT(rh.retry_after_us, 0u);
        break;
      default:
        break;
    }
  }
  EXPECT_GT(committed, 0u);
  EXPECT_GT(shed, 0u) << "4x capacity must shed";
  // The bound held: the queue never grew past its configured depth.
  EXPECT_LE(server.queue_peak_depth(), o.queue_depth);
  EXPECT_EQ(server.stats().shed_overload.load(), shed);
  server.Stop();
}

TEST(ServerIntegrationTest, MetricsTextMatchesServerStats) {
  Server server(SmallBankingOptions());
  ASSERT_TRUE(server.Start());
  TestClient c(server.port());
  std::vector<uint8_t> wire;
  constexpr uint64_t kN = 25;
  for (uint64_t i = 1; i <= kN; ++i) {
    AppendRequest(&wire, i, Op::kBankingTransfer,
                  MakeTransfer(1 + (i % 50), 100 + (i % 50)));
  }
  c.SendRaw(wire);
  auto rs = c.ReadResponses(kN);
  ASSERT_EQ(rs.size(), kN);
  uint64_t acked_commits = 0;
  for (const ResponseHeader& rh : rs) {
    acked_commits +=
        rh.status == static_cast<uint16_t>(TxnStatus::kCommitted);
  }
  // The Prometheus scrape's committed counter equals the client-observed
  // acked commits exactly — the CI integration job's core assertion.
  const std::string metrics = server.MetricsText();
  const std::string needle = "mv3c_server_txn_committed_total " +
                             std::to_string(acked_commits) + "\n";
  EXPECT_NE(metrics.find(needle), std::string::npos) << metrics;
  // Without a WAL no batch ever waits for durability, so none is parked.
  EXPECT_NE(metrics.find("mv3c_server_overlapped_batches_total 0\n"),
            std::string::npos)
      << metrics;
  server.Stop();
}

/// Value of the first sample of family `name`, labeled or not; -1 if the
/// scrape has none.
double SampleValue(const std::string& metrics, const std::string& name) {
  const std::string needle = "\n" + name;
  for (size_t at = metrics.find(needle); at != std::string::npos;
       at = metrics.find(needle, at + 1)) {
    const size_t end = at + needle.size();
    if (end >= metrics.size() || (metrics[end] != ' ' && metrics[end] != '{')) {
      continue;  // a longer name sharing the prefix
    }
    const size_t eol = metrics.find('\n', end);
    const size_t sp = metrics.rfind(' ', eol);
    return std::stod(metrics.substr(sp + 1, eol - sp - 1));
  }
  return -1;
}

TEST(ServerIntegrationTest, EngineMemoryGaugesStayFlatAcrossBatches) {
  Server server(SmallBankingOptions());
  ASSERT_TRUE(server.Start());
  TestClient c(server.port());
  // Fee-paying transfers: every one writes the shared fee account, the
  // hot row whose versions must not pile up. Sent in rounds below the
  // admission bound so nothing sheds; each batch spans several
  // maintenance passes on worker 0.
  uint64_t id = 0;
  auto batch = [&] {
    for (int round = 0; round < 30; ++round) {
      std::vector<uint8_t> wire;
      constexpr int kPerRound = 200;
      for (int i = 0; i < kPerRound; ++i) {
        ++id;
        banking::TransferParams p =
            MakeTransfer(1 + (id % 997), 1000 + (id % 991));
        p.with_fee = true;
        AppendRequest(&wire, id, Op::kBankingTransfer, p);
      }
      c.SendRaw(wire);
      ASSERT_EQ(c.ReadResponses(kPerRound).size(),
                static_cast<size_t>(kPerRound));
    }
  };
  batch();
  const std::string first = server.MetricsText();
  const double held1 = SampleValue(first, "mv3c_engine_arena_held_bytes");
  EXPECT_GT(held1, 0) << first;
  EXPECT_GT(SampleValue(first, "mv3c_engine_arena_live_objects"), 0);
  EXPECT_GE(SampleValue(first, "mv3c_engine_gc_pending"), 0);
  batch();
  const double held2 = SampleValue(server.MetricsText(),
                                   "mv3c_engine_arena_held_bytes");
  // The second batch allocated another ~1.7 MB of versions and records
  // (three versions and a record per transfer). Reused blocks keep the
  // arena where it stood, give or take what one maintenance interval
  // leaves unreclaimed (a few 64 KiB slabs, depending on when the last
  // pass ran before each scrape).
  EXPECT_LE(held2, held1 + 8 * 64 * 1024);
  server.Stop();
}

TEST(ServerIntegrationTest, SyncAckSetsDurableFlag) {
  ServerOptions o = SmallBankingOptions();
  o.host.wal = true;
  o.host.sync_ack = true;
  o.host.wal_dir = testing::TempDir() + "/serve_wal_" +
                   std::to_string(::getpid());
  Server server(o);
  ASSERT_TRUE(server.Start());
  TestClient c(server.port());
  std::vector<uint8_t> wire;
  AppendRequest(&wire, 1, Op::kBankingTransfer, MakeTransfer(7, 8));
  c.SendRaw(wire);
  auto rs = c.ReadResponses(1, 10000);
  ASSERT_EQ(rs.size(), 1u);
  EXPECT_EQ(rs[0].status, static_cast<uint16_t>(TxnStatus::kCommitted));
  EXPECT_NE(rs[0].flags & kRespFlagDurable, 0u);
  server.Stop();
}

// A sync-ack commit whose WAL fsync fails is still committed in memory,
// but the log crashed before it became durable: its response must not
// claim durability, and neither may any later commit's.
TEST(ServerWalTest, FailedFsyncCommitsComeBackWithoutDurableFlag) {
  ServerOptions o = SmallBankingOptions();
  o.host.wal = true;
  o.host.sync_ack = true;
  o.host.wal_dir = testing::TempDir() + "/serve_wal_fsync_fail_" +
                   std::to_string(::getpid());
  Server server(o);
  ASSERT_TRUE(server.Start());
  TestClient c(server.port());
  std::vector<uint8_t> wire;
  AppendRequest(&wire, 1, Op::kBankingTransfer, MakeTransfer(7, 8));
  c.SendRaw(wire);
  auto rs = c.ReadResponses(1, 10000);
  ASSERT_EQ(rs.size(), 1u);
  ASSERT_EQ(rs[0].status, static_cast<uint16_t>(TxnStatus::kCommitted));
  ASSERT_NE(rs[0].flags & kRespFlagDurable, 0u);

  failpoint::Reset(7);
  failpoint::ScopedArm arm(failpoint::Site::kWalFsyncFail, {});
  constexpr uint64_t kN = 8;
  wire.clear();
  for (uint64_t i = 2; i < 2 + kN; ++i) {
    AppendRequest(&wire, i, Op::kBankingTransfer,
                  MakeTransfer(static_cast<int64_t>(i), 100));
  }
  c.SendRaw(wire);
  rs = c.ReadResponses(kN, 10000);
  ASSERT_EQ(rs.size(), kN);
  for (const ResponseHeader& rh : rs) {
    EXPECT_EQ(rh.status, static_cast<uint16_t>(TxnStatus::kCommitted));
    EXPECT_EQ(rh.flags & kRespFlagDurable, 0u) << "request " << rh.request_id;
  }
  EXPECT_GT(failpoint::Trips(failpoint::Site::kWalFsyncFail), 0u);
  server.Stop();
}

// One sync-ack worker whose requests queue up behind a service delay, so
// each PopBatch takes several of them and the batch shares one durable
// wait (DESIGN §5k group commit).
ServerOptions OneWorkerSyncWalOptions(const std::string& tag) {
  ServerOptions o = SmallBankingOptions();
  o.host.workers = 1;
  o.host.service_delay_us = 1000;
  o.host.wal = true;
  o.host.sync_ack = true;
  o.host.wal_dir = testing::TempDir() + "/serve_wal_" + tag + "_" +
                   std::to_string(::getpid());
  return o;
}

std::vector<uint8_t> TransferBatch(uint64_t first_id, uint64_t n) {
  std::vector<uint8_t> wire;
  for (uint64_t i = first_id; i < first_id + n; ++i) {
    AppendRequest(&wire, i, Op::kBankingTransfer,
                  MakeTransfer(static_cast<int64_t>(i), 1000));
  }
  return wire;
}

// The flag is set only once the batch's largest epoch is durable: every
// flagged commit's epoch is at or below the durable epoch by the time its
// response can be read. The fsync failpoint is armed to stall every flush
// round 5 ms before its fsync, so a response flagged without waiting would
// arrive long before its epoch turns durable.
TEST(ServerWalTest, BatchedCommitsAreFlaggedOnlyOnceTheirEpochIsDurable) {
  Server server(OneWorkerSyncWalOptions("batched"));
  ASSERT_TRUE(server.Start());
  failpoint::Reset(11);
  failpoint::Config slow_fsync;
  slow_fsync.action = failpoint::Action::kDelay;
  slow_fsync.delay_us = 5000;
  failpoint::ScopedArm arm(failpoint::Site::kWalFsyncFail, slow_fsync);

  constexpr uint64_t kN = 12;
  TestClient c(server.port());
  c.SendRaw(TransferBatch(1, kN));
  std::vector<ResponseHeader> all;
  while (all.size() < kN) {
    const std::vector<ResponseHeader> rs = c.ReadResponses(1, 10000);
    ASSERT_FALSE(rs.empty());
    const double durable =
        SampleValue(server.MetricsText(), "mv3c_engine_wal_durable_epoch");
    for (const ResponseHeader& rh : rs) {
      ASSERT_EQ(rh.status, static_cast<uint16_t>(TxnStatus::kCommitted));
      EXPECT_NE(rh.flags & kRespFlagDurable, 0u) << "request " << rh.request_id;
      EXPECT_GE(durable, static_cast<double>(TsEpoch(rh.commit_ts)))
          << "request " << rh.request_id << " answered before its epoch "
          << "was durable";
      all.push_back(rh);
    }
  }
  const std::string m = server.MetricsText();
  // The requests really queued (one worker, 1 ms each), so batches held
  // several commits, and the durable waits were per batch, not per commit.
  EXPECT_GE(SampleValue(m, "mv3c_server_admission_queue_peak_depth"), 2);
  const double waits = SampleValue(m, "mv3c_engine_wal_sync_waits_total");
  EXPECT_GE(waits, 0);
  EXPECT_LT(waits, static_cast<double>(kN));
  EXPECT_EQ(SampleValue(m, "mv3c_engine_commits_total"),
            static_cast<double>(kN));
  server.Stop();
}

// A batch whose shared durable wait fails (the fsync of its epoch fails and
// the log crashes) answers every one of its commits without the flag.
TEST(ServerWalTest, FailedFsyncBatchComesBackWithoutDurableFlag) {
  Server server(OneWorkerSyncWalOptions("batch_fsync_fail"));
  ASSERT_TRUE(server.Start());
  failpoint::Reset(13);
  failpoint::ScopedArm arm(failpoint::Site::kWalFsyncFail, {});
  constexpr uint64_t kN = 12;
  TestClient c(server.port());
  c.SendRaw(TransferBatch(1, kN));
  const std::vector<ResponseHeader> rs = c.ReadResponses(kN, 10000);
  ASSERT_EQ(rs.size(), kN);
  for (const ResponseHeader& rh : rs) {
    EXPECT_EQ(rh.status, static_cast<uint16_t>(TxnStatus::kCommitted));
    EXPECT_EQ(rh.flags & kRespFlagDurable, 0u) << "request " << rh.request_id;
  }
  EXPECT_GT(failpoint::Trips(failpoint::Site::kWalFsyncFail), 0u);
  const std::string m = server.MetricsText();
  EXPECT_GE(SampleValue(m, "mv3c_server_admission_queue_peak_depth"), 2);
  EXPECT_GE(SampleValue(m, "mv3c_engine_wal_flush_failures_total"), 1);
  server.Stop();
}

// Busy-waits `delay_us` at the site it arms; at kWalFsyncFail it stalls
// every WAL flush round before its fsync.
failpoint::Config Stall(uint32_t delay_us) {
  failpoint::Config c;
  c.action = failpoint::Action::kDelay;
  c.delay_us = delay_us;
  return c;
}

// A worker that parks a batch must not then block on an empty queue: a
// lone request would wait for the next arrival. It is answered (durable)
// once its own flush round completes.
TEST(ServerWalTest, LoneRequestIsAnsweredWithoutASecondArrival) {
  Server server(OneWorkerSyncWalOptions("lone"));
  ASSERT_TRUE(server.Start());
  failpoint::Reset(17);
  failpoint::ScopedArm arm(failpoint::Site::kWalFsyncFail, Stall(5000));
  TestClient c(server.port());
  c.SendRaw(TransferBatch(1, 1));
  const std::vector<ResponseHeader> rs = c.ReadResponses(1, 2000);
  ASSERT_EQ(rs.size(), 1u) << "a lone parked request was never answered";
  EXPECT_EQ(rs[0].status, static_cast<uint16_t>(TxnStatus::kCommitted));
  EXPECT_NE(rs[0].flags & kRespFlagDurable, 0u);
  server.Stop();
}

// The overlap itself: while batch N waits out a 5 ms fsync stall, the
// worker runs batch N+1 (1 ms per request), so by the time N's first
// response arrives more requests have committed than one batch holds.
// A worker that waits before popping again answers N with at most
// opts.batch commits done, and the next commit lands >= 1 ms later.
// The first transaction's first write stalls 20 ms, so the I/O thread has
// queued every request by the time the worker pops again, even on a
// loaded host; without it the worker can find the queue still empty and
// answer its first batch at once.
TEST(ServerWalTest, NextBatchCommitsBeforeTheParkedBatchIsAnswered) {
  ServerOptions o = OneWorkerSyncWalOptions("overlap");
  o.batch = 4;
  Server server(o);
  ASSERT_TRUE(server.Start());
  failpoint::Reset(19);
  failpoint::ScopedArm arm(failpoint::Site::kWalFsyncFail, Stall(5000));
  failpoint::Config first_write = Stall(20000);
  first_write.max_trips = 1;
  failpoint::ScopedArm stall(failpoint::Site::kVersionChainPush, first_write);
  constexpr uint64_t kN = 12;
  TestClient c(server.port());
  c.SendRaw(TransferBatch(1, kN));
  std::vector<ResponseHeader> all = c.ReadResponses(1, 10000);
  ASSERT_FALSE(all.empty());
  const double committed_at_first_answer = SampleValue(
      server.MetricsText(), "mv3c_server_txn_committed_total");
  EXPECT_GT(committed_at_first_answer, static_cast<double>(o.batch));
  const std::vector<ResponseHeader> rest =
      c.ReadResponses(kN - all.size(), 10000);
  all.insert(all.end(), rest.begin(), rest.end());
  ASSERT_EQ(all.size(), kN);
  for (const ResponseHeader& rh : all) {
    EXPECT_EQ(rh.status, static_cast<uint16_t>(TxnStatus::kCommitted));
    EXPECT_NE(rh.flags & kRespFlagDurable, 0u) << "request " << rh.request_id;
  }
  EXPECT_GE(SampleValue(server.MetricsText(),
                        "mv3c_server_overlapped_batches_total"),
            1);
  server.Stop();
}

// Stop() closes the queue while the worker is still draining it; the last
// batch it runs is parked when the queue reports closed-and-drained, and
// the worker answers it before exiting. Every admitted request comes back
// committed and durable.
TEST(ServerWalTest, StopAnswersTheParkedBatch) {
  ServerOptions o = OneWorkerSyncWalOptions("stop_parked");
  o.batch = 4;
  Server server(o);
  ASSERT_TRUE(server.Start());
  failpoint::Reset(23);
  failpoint::ScopedArm arm(failpoint::Site::kWalFsyncFail, Stall(5000));
  constexpr uint64_t kN = 12;
  TestClient c(server.port());
  c.SendRaw(TransferBatch(1, kN));
  // The first answer comes after every request was admitted (one send,
  // read in one go) and while most of them are still queued.
  std::vector<ResponseHeader> all = c.ReadResponses(1, 10000);
  ASSERT_FALSE(all.empty());
  server.Stop();
  const std::vector<ResponseHeader> rest =
      c.ReadResponses(kN - all.size(), 5000);
  all.insert(all.end(), rest.begin(), rest.end());
  ASSERT_EQ(all.size(), kN) << "Stop() dropped admitted requests";
  for (const ResponseHeader& rh : all) {
    EXPECT_EQ(rh.status, static_cast<uint16_t>(TxnStatus::kCommitted));
    EXPECT_NE(rh.flags & kRespFlagDurable, 0u) << "request " << rh.request_id;
  }
}

// Loader commits do not wait for their epochs; the host flushes once
// before MakeWorkloadHost returns. Every block holding population records
// must therefore carry an epoch at or below the durable epoch seen at
// return: the shutdown flush finds nothing left to write.
TEST(ServerWalTest, SyncHostPopulationIsDurableWhenBuilt) {
  // Large enough that the load spans many flush rounds.
  constexpr int64_t kAccounts = 100000;
  constexpr int64_t kInitial = 1000;  // the host's initial balance
  const std::string dir = testing::TempDir() + "/serve_wal_population_" +
                          std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  HostOptions ho;
  ho.workload = "banking";
  ho.workers = 1;
  ho.scale = kAccounts;
  ho.wal = true;
  ho.sync_ack = true;
  ho.wal_dir = dir;
  ho.wal_partitions = 1;
  std::unique_ptr<WorkloadHost> host = MakeWorkloadHost(ho);
  ASSERT_NE(host, nullptr);
  const uint64_t durable_at_return = host->WalDurableEpoch();
  host->Shutdown();

  TransactionManager mgr;
  banking::BankingDb db(&mgr, kAccounts, kInitial);
  wal::Catalog cat;
  RegisterWalTables(cat, db);
  const wal::RecoveryReport rep = cat.Recover(dir);
  EXPECT_FALSE(rep.torn_tail) << rep.stop_reason;
  EXPECT_GT(rep.blocks_applied, 0u);
  EXPECT_LE(rep.max_epoch, durable_at_return)
      << "population records were still unflushed when the host was built";
  EXPECT_EQ(wal::DigestMvccTable(db.accounts).live_rows,
            static_cast<uint64_t>(kAccounts) + 1);
  EXPECT_EQ(db.TotalBalance(), kAccounts * kInitial);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace mv3c::server
