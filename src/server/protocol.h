#ifndef MV3C_SERVER_PROTOCOL_H_
#define MV3C_SERVER_PROTOCOL_H_

// Wire protocol of the serving front-end (DESIGN §5k): length-prefixed
// binary frames over TCP, each integrity-checked the same way WAL blocks
// are (src/common/crc32.h CRC32-C over header and payload separately, so a
// torn or bit-flipped frame is detected before any byte of it reaches a
// transaction). Requests and responses reuse the §5f no-padding
// discipline: every struct on the wire is trivially copyable with unique
// object representations, so memcpy framing can never leak uninitialized
// padding bytes or mis-parse across builds.
//
// A frame is:   FrameHeader | payload (payload_bytes bytes)
// A request is: RequestHeader | workload parameter struct (the native
//               TransferParams / TradeOrderParams / PriceUpdateParams /
//               TatpParams / TpccParams — asserted padding-free in their
//               own headers)
// A response:   ResponseHeader only.
//
// The protocol is deliberately host-endian, like the WAL: the load
// generator (servebench's sb_client) and the server are expected to run
// on the same architecture; this is a benchmark serving stack, not an
// interchange format. Anything that does not parse — wrong magic,
// oversized length, CRC mismatch, a torn header — closes the connection;
// there is no resynchronization state to corrupt.

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <type_traits>
#include <vector>

#include "common/crc32.h"

namespace mv3c::server {

inline constexpr uint32_t kFrameMagic = 0x5333564Du;  // "MV3S" on the wire

/// Upper bound on a frame payload. The largest request is RequestHeader +
/// TpccParams (a few hundred bytes); anything claiming more is garbage or
/// an attack, and rejecting it before allocating keeps a malicious length
/// field from ballooning connection buffers.
inline constexpr uint32_t kMaxFramePayload = 4096;

struct FrameHeader {
  uint32_t magic;          // kFrameMagic
  uint32_t payload_bytes;  // bytes following this header
  uint32_t payload_crc;    // CRC32-C over the payload bytes
  uint32_t header_crc;     // CRC32-C over the three fields above
};
static_assert(sizeof(FrameHeader) == 16);
static_assert(std::has_unique_object_representations_v<FrameHeader>);

inline uint32_t FrameHeaderCrc(const FrameHeader& h) {
  return crc32::Compute(&h, offsetof(FrameHeader, header_crc));
}

inline FrameHeader MakeFrameHeader(const void* payload, uint32_t n) {
  FrameHeader h{};
  h.magic = kFrameMagic;
  h.payload_bytes = n;
  h.payload_crc = n == 0 ? 0 : crc32::Compute(payload, n);
  h.header_crc = FrameHeaderCrc(h);
  return h;
}

/// Request opcodes. The high byte selects the workload, so a request sent
/// to a server hosting a different workload is rejected as kBadRequest
/// instead of being reinterpreted.
enum class Op : uint16_t {
  kPing = 0x0001,  // no params; answered kPong without touching the engine
  kBankingTransfer = 0x0101,  // banking::TransferParams
  kTradeOrder = 0x0201,       // trading::TradeOrderParams
  kPriceUpdate = 0x0202,      // trading::PriceUpdateParams
  kTatp = 0x0301,             // tatp::TatpParams (type field selects txn)
  kTpcc = 0x0401,             // tpcc::TpccParams (type field selects txn)
};

/// Response status. The first three mirror StepResult (the engine's
/// verdict); the rest are produced by the front-end without running a
/// transaction.
enum class TxnStatus : uint16_t {
  kCommitted = 1,
  kUserAborted = 2,
  /// Retry-policy budget exhausted under contention; the transaction was
  /// rolled back and shed. retry_after_us carries the server's backoff
  /// hint (clients MUST back off at least that long before resending).
  kExhausted = 3,
  /// Admission queue full: the request never entered the engine.
  /// retry_after_us estimates when capacity frees up.
  kOverload = 4,
  /// Per-client token bucket empty. retry_after_us is the exact time
  /// until the next token accrues.
  kRateLimited = 5,
  kBadRequest = 6,
  kShuttingDown = 7,
  kPong = 8,
};

inline const char* ToString(TxnStatus s) {
  switch (s) {
    case TxnStatus::kCommitted: return "Committed";
    case TxnStatus::kUserAborted: return "UserAborted";
    case TxnStatus::kExhausted: return "Exhausted";
    case TxnStatus::kOverload: return "Overload";
    case TxnStatus::kRateLimited: return "RateLimited";
    case TxnStatus::kBadRequest: return "BadRequest";
    case TxnStatus::kShuttingDown: return "ShuttingDown";
    case TxnStatus::kPong: return "Pong";
  }
  return "?";
}

struct RequestHeader {
  uint64_t request_id;  // client-chosen, echoed verbatim in the response
  uint16_t opcode;      // Op
  uint16_t flags;       // reserved, must be 0
  uint32_t reserved;    // must be 0
};
static_assert(sizeof(RequestHeader) == 16);
static_assert(std::has_unique_object_representations_v<RequestHeader>);

/// ResponseHeader::flags bits.
inline constexpr uint16_t kRespFlagDurable = 1u << 0;  // sync-ack commit

struct ResponseHeader {
  uint64_t request_id;
  uint16_t status;  // TxnStatus
  uint16_t flags;
  /// Server-driven backoff hint for kOverload / kRateLimited / kExhausted;
  /// 0 otherwise.
  uint32_t retry_after_us;
  /// Commit timestamp (opaque §5h composed TID) for kCommitted; 0 else.
  uint64_t commit_ts;
  uint32_t rounds;    // repair/restart rounds the transaction burned
  uint32_t queue_us;  // time spent waiting in the admission queue
};
static_assert(sizeof(ResponseHeader) == 32);
static_assert(std::has_unique_object_representations_v<ResponseHeader>);

/// Serializes one frame (header + payload) into `out`.
inline void AppendFrame(std::vector<uint8_t>* out, const void* payload,
                        uint32_t n) {
  const FrameHeader h = MakeFrameHeader(payload, n);
  const size_t base = out->size();
  out->resize(base + sizeof(h) + n);
  std::memcpy(out->data() + base, &h, sizeof(h));
  if (n != 0) std::memcpy(out->data() + base + sizeof(h), payload, n);
}

/// Request frame: RequestHeader immediately followed by the params struct.
template <typename Params>
void AppendRequest(std::vector<uint8_t>* out, uint64_t request_id, Op op,
                   const Params& params) {
  static_assert(std::is_trivially_copyable_v<Params>);
  static_assert(std::has_unique_object_representations_v<Params>,
                "wire params must be padding-free (DESIGN §5f discipline)");
  uint8_t payload[sizeof(RequestHeader) + sizeof(Params)];
  RequestHeader rh{};
  rh.request_id = request_id;
  rh.opcode = static_cast<uint16_t>(op);
  std::memcpy(payload, &rh, sizeof(rh));
  std::memcpy(payload + sizeof(rh), &params, sizeof(params));
  AppendFrame(out, payload, sizeof(payload));
}

inline void AppendPing(std::vector<uint8_t>* out, uint64_t request_id) {
  RequestHeader rh{};
  rh.request_id = request_id;
  rh.opcode = static_cast<uint16_t>(Op::kPing);
  AppendFrame(out, &rh, sizeof(rh));
}

inline void AppendResponse(std::vector<uint8_t>* out,
                           const ResponseHeader& rh) {
  AppendFrame(out, &rh, sizeof(rh));
}

/// Incremental frame parser: feed it arbitrary byte chunks (as recv
/// returns them) and it invokes the sink once per complete, CRC-verified
/// frame. Any framing violation is terminal: Feed returns false, error()
/// says why, and the connection owner must close. The parser never holds
/// more than one partial frame (bounded by kMaxFramePayload), so a slow
/// or torn sender cannot grow server memory.
class FrameReader {
 public:
  enum class Error : uint8_t {
    kNone = 0,
    kBadMagic,      // first 4 bytes of a frame are not kFrameMagic
    kBadHeaderCrc,  // header CRC mismatch (torn or corrupted header)
    kOversized,     // payload_bytes exceeds the configured maximum
    kBadPayloadCrc, // payload CRC mismatch
  };

  explicit FrameReader(uint32_t max_payload = kMaxFramePayload)
      : max_payload_(max_payload) {}

  /// Sink signature: void(const uint8_t* payload, uint32_t n).
  template <typename Sink>
  bool Feed(const uint8_t* data, size_t n, Sink&& sink) {
    if (error_ != Error::kNone) return false;
    buf_.insert(buf_.end(), data, data + n);
    size_t off = 0;
    while (buf_.size() - off >= sizeof(FrameHeader)) {
      FrameHeader h;
      std::memcpy(&h, buf_.data() + off, sizeof(h));
      if (h.magic != kFrameMagic) return Fail(Error::kBadMagic);
      if (h.header_crc != FrameHeaderCrc(h)) {
        return Fail(Error::kBadHeaderCrc);
      }
      if (h.payload_bytes > max_payload_) return Fail(Error::kOversized);
      if (buf_.size() - off < sizeof(h) + h.payload_bytes) break;  // torn
      const uint8_t* payload = buf_.data() + off + sizeof(h);
      if (h.payload_bytes != 0 &&
          crc32::Compute(payload, h.payload_bytes) != h.payload_crc) {
        return Fail(Error::kBadPayloadCrc);
      }
      sink(payload, h.payload_bytes);
      off += sizeof(h) + h.payload_bytes;
    }
    buf_.erase(buf_.begin(), buf_.begin() + static_cast<ptrdiff_t>(off));
    return true;
  }

  Error error() const { return error_; }
  size_t buffered() const { return buf_.size(); }

 private:
  bool Fail(Error e) {
    error_ = e;
    buf_.clear();
    return false;
  }

  uint32_t max_payload_;
  std::vector<uint8_t> buf_;
  Error error_ = Error::kNone;
};

inline const char* ToString(FrameReader::Error e) {
  switch (e) {
    case FrameReader::Error::kNone: return "none";
    case FrameReader::Error::kBadMagic: return "bad-magic";
    case FrameReader::Error::kBadHeaderCrc: return "bad-header-crc";
    case FrameReader::Error::kOversized: return "oversized";
    case FrameReader::Error::kBadPayloadCrc: return "bad-payload-crc";
  }
  return "?";
}

}  // namespace mv3c::server

#endif  // MV3C_SERVER_PROTOCOL_H_
