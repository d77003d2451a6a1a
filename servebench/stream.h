#ifndef SERVEBENCH_STREAM_H_
#define SERVEBENCH_STREAM_H_

// The benchmark's seeded request streams, shared by sb_client (which sends
// them over TCP) and sb_trace (which drives them through the server's
// layer calls in-process). Stream `k` of seed `s` is the same sequence of
// requests in both programs, so the traced run times exactly the
// transactions the served run measured. Population sizes are the server's
// defaults (workload_host.cc), so every generated key exists server-side.

#include <cstdint>
#include <string>
#include <vector>

#include "server/protocol.h"
#include "workloads/banking.h"
#include "workloads/tatp.h"
#include "workloads/tpcc.h"

namespace servebench {

inline constexpr int64_t kBankingAccounts = 100000;
inline constexpr uint64_t kTatpSubscribers = 100000;
inline constexpr uint64_t kTpccWarehouses = 1;
// Banking: every transfer also writes the shared fee account, the paper's
// Fig. 7 hot spot.
inline constexpr int kFeePercent = 100;

/// SplitMix64 finalizer: decorrelates the per-stream seeds so streams 0 and
/// 1 of one seed share nothing, and seed s+1 shares nothing with seed s.
inline uint64_t MixSeed(uint64_t seed, uint64_t stream) {
  uint64_t z = seed * 0x9E3779B97F4A7C15ULL + stream + 1;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

class RequestStream {
 public:
  /// `workload` is banking | tatp | tpcc.
  RequestStream(const std::string& workload, uint64_t seed, uint64_t stream)
      : workload_(workload),
        banking_(kBankingAccounts, kFeePercent, MixSeed(seed, stream)),
        tatp_(kTatpSubscribers, MixSeed(seed, stream)),
        tpcc_(mv3c::tpcc::TpccScale{.n_warehouses = kTpccWarehouses},
              MixSeed(seed, stream)) {}

  static bool Known(const std::string& w) {
    return w == "banking" || w == "tatp" || w == "tpcc";
  }

  /// Appends the next request of the stream as one wire frame.
  void Append(std::vector<uint8_t>* out, uint64_t request_id) {
    using mv3c::server::Op;
    if (workload_ == "banking") {
      mv3c::server::AppendRequest(out, request_id, Op::kBankingTransfer,
                                  banking_.Next());
    } else if (workload_ == "tatp") {
      mv3c::server::AppendRequest(out, request_id, Op::kTatp, tatp_.Next());
    } else {
      mv3c::server::AppendRequest(out, request_id, Op::kTpcc, tpcc_.Next());
    }
  }

 private:
  std::string workload_;
  mv3c::banking::TransferGenerator banking_;
  mv3c::tatp::TatpGenerator tatp_;
  mv3c::tpcc::TpccGenerator tpcc_;
};

}  // namespace servebench

#endif  // SERVEBENCH_STREAM_H_
