#ifndef MV3C_WORKLOADS_TRADING_H_
#define MV3C_WORKLOADS_TRADING_H_

#include <array>
#include <cstdint>
#include <cstring>
#include <type_traits>
#include <vector>

#include "common/cipher.h"
#include "common/macros.h"
#include "common/random.h"
#include "common/zipf.h"
#include "mv3c/mv3c_executor.h"

namespace mv3c::trading {

/// The Trading benchmark of paper Example 5: a simplified TPC-E with four
/// tables and two transaction programs. TradeOrder decrypts a customer
/// payload, reads the current prices of the ordered securities and records
/// the trade; PriceUpdate blind-writes a security's price. Instances
/// conflict when a PriceUpdate hits a security a concurrent TradeOrder
/// read; security popularity is Zipf-distributed (Figures 6(a) and 6(b)).

inline constexpr int kMaxOrderItems = 5;
inline constexpr size_t kPayloadBytes = 112;
using Blob = std::array<uint8_t, kPayloadBytes>;

// --- rows ---

inline constexpr int kColPrice = 0;

struct SecurityRow {
  uint64_t symbol = 0;
  int64_t price = 0;  // fixed-point centimes
};

struct CustomerRow {
  uint64_t cipher_key = 0;
};

struct TradeRow {
  Blob encrypted_data{};  // timestamp + item count, encrypted
};

struct TradeLineRow {
  Blob encrypted_data{};  // security id + traded price, encrypted
};

using SecurityTable = Table<uint64_t, SecurityRow>;
using CustomerTable = Table<uint64_t, CustomerRow>;
using TradeTable = Table<uint64_t, TradeRow>;
using TradeLineTable = Table<uint64_t, TradeLineRow>;  // t_id * 16 + tl_id

/// Cleartext contents of a TradeOrder payload.
struct OrderPayload {
  uint64_t trade_id = 0;
  uint64_t timestamp = 0;
  uint32_t n_items = 0;
  struct Item {
    uint64_t security_id = 0;
    int8_t buy = 1;  // +1 buy, -1 sell
  } items[kMaxOrderItems];
};
static_assert(sizeof(OrderPayload) <= kPayloadBytes);

inline Blob EncodePayload(const OrderPayload& p, uint64_t key) {
  // Copy through a zeroed struct: OrderPayload::Item has padding after
  // `buy`, and memcpy'ing `p` directly would bake whatever stack garbage
  // sits in those bytes into the ciphertext — leaking uninitialized
  // memory into logged rows and making otherwise-identical runs produce
  // different row bytes (the recovery-equivalence digests compare them).
  OrderPayload clean;
  std::memset(&clean, 0, sizeof(clean));
  clean.trade_id = p.trade_id;
  clean.timestamp = p.timestamp;
  clean.n_items = p.n_items;
  for (uint32_t i = 0; i < kMaxOrderItems; ++i) {
    // Scalar assignments, not struct copies: a trivially-copyable struct
    // assignment may lower to memcpy and drag `p`'s padding along.
    clean.items[i].security_id = p.items[i].security_id;
    clean.items[i].buy = p.items[i].buy;
  }
  Blob blob{};
  std::memcpy(blob.data(), &clean, sizeof(clean));
  StreamCipher(key).Apply(&blob);
  return blob;
}

inline OrderPayload DecodePayload(Blob blob, uint64_t key) {
  StreamCipher(key).Apply(&blob);
  OrderPayload p;
  std::memcpy(&p, blob.data(), sizeof(p));
  return p;
}

/// Deterministic cipher key of a customer (used by the loader and by
/// order generators, which play the role of the client application that
/// knows the customer's key).
inline uint64_t CustomerKeyFor(uint64_t customer_id) {
  return 0x9E3779B97F4A7C15ULL * (customer_id + 1);
}

/// The Trading database: 100k securities and 100k customers at paper
/// scale; sizes are parameters so tests can shrink them.
class TradingDb {
 public:
  TradingDb(TransactionManager* mgr, uint64_t n_securities,
            uint64_t n_customers)
      : securities("Security", n_securities, WwPolicy::kAllowMultiple),
        customers("Customer", n_customers),
        trades("Trade", 1 << 16),
        trade_lines("TradeLine", 1 << 18),
        mgr_(mgr),
        n_securities_(n_securities),
        n_customers_(n_customers) {}

  void Load() {
    Mv3cExecutor loader(mgr_);
    // 4096-row chunks cap one load transaction's undo buffer, committed
    // record and WAL staging buffer, and fix the commit boundaries that
    // recovered digests and WAL bytes depend on. (Commit is linear in the
    // write set, so the chunking saves no time.)
    for (uint64_t base = 0; base < n_securities_; base += 4096) {
      loader.MustRun([&](Mv3cTransaction& t) {
        const uint64_t end = std::min(n_securities_, base + 4096);
        for (uint64_t s = base; s < end; ++s) {
          const WriteStatus ws = t.InsertRow(
              securities, s,
              SecurityRow{s * 31, 1000 + static_cast<int64_t>(s % 900)});
          MV3C_CHECK(ws == WriteStatus::kOk);
        }
        return ExecStatus::kOk;
      });
    }
    for (uint64_t base = 0; base < n_customers_; base += 4096) {
      loader.MustRun([&](Mv3cTransaction& t) {
        const uint64_t end = std::min(n_customers_, base + 4096);
        for (uint64_t c = base; c < end; ++c) {
          const WriteStatus ws =
              t.InsertRow(customers, c, CustomerRow{CustomerKeyFor(c)});
          MV3C_CHECK(ws == WriteStatus::kOk);
        }
        return ExecStatus::kOk;
      });
    }
  }

  uint64_t n_securities() const { return n_securities_; }
  uint64_t n_customers() const { return n_customers_; }
  TransactionManager* manager() { return mgr_; }

  SecurityTable securities;
  CustomerTable customers;
  TradeTable trades;
  TradeLineTable trade_lines;

 private:
  TransactionManager* mgr_;
  uint64_t n_securities_;
  uint64_t n_customers_;
};

/// TradeOrder input: the customer id and the encrypted payload, as an
/// application would submit it.
struct TradeOrderParams {
  uint64_t customer_id = 0;
  Blob payload{};
};
// Both params travel verbatim inside serving-protocol frames
// (src/server/protocol.h), so they follow the §5f no-padding discipline.
static_assert(sizeof(TradeOrderParams) == 8 + kPayloadBytes);
static_assert(std::has_unique_object_representations_v<TradeOrderParams>);

struct PriceUpdateParams {
  uint64_t security_id = 0;
  int64_t new_price = 0;
};
static_assert(sizeof(PriceUpdateParams) == 16);
static_assert(std::has_unique_object_representations_v<PriceUpdateParams>);

// --- programs (run under both conflict policies) ---

/// TradeOrder in the MV3C DSL. The predicate graph is a root on the
/// customer row (whose closure performs the expensive decrypt+deserialize
/// and inserts the Trade row) with one child predicate per ordered
/// security (whose closure inserts that TradeLine). A conflicting
/// PriceUpdate invalidates only the touched security's predicate: repair
/// re-reads one price and re-encodes one trade line — the decryption is
/// never redone (§6.1.1).
inline Mv3cExecutor::Program Mv3cTradeOrder(TradingDb& db,
                                            TradeOrderParams params) {
  return [&db, params](Mv3cTransaction& t) -> ExecStatus {
    return t.Lookup(
        db.customers, params.customer_id, ColumnMask::All(),
        [&db, params](Mv3cTransaction& t, CustomerTable::Object*,
                      const CustomerRow* cust) -> ExecStatus {
          if (cust == nullptr) return ExecStatus::kUserAbort;
          const uint64_t key = cust->cipher_key;
          const OrderPayload order = DecodePayload(params.payload, key);
          if (order.n_items == 0 || order.n_items > kMaxOrderItems) {
            return ExecStatus::kUserAbort;
          }
          // Record the trade itself (depends only on the payload).
          OrderPayload header{};
          header.trade_id = order.trade_id;
          header.timestamp = order.timestamp;
          header.n_items = order.n_items;
          if (t.InsertRow(db.trades, order.trade_id,
                          TradeRow{EncodePayload(header, key)}) ==
              WriteStatus::kWwConflict) {
            return ExecStatus::kWriteWriteConflict;
          }
          // One child predicate per ordered security.
          for (uint32_t i = 0; i < order.n_items; ++i) {
            const OrderPayload::Item item = order.items[i];
            const uint64_t tl_key = order.trade_id * 16 + i;
            const ExecStatus st = t.Lookup(
                db.securities, item.security_id, ColumnMask::Of(kColPrice),
                [&db, key, item, tl_key](
                    Mv3cTransaction& t, SecurityTable::Object*,
                    const SecurityRow* sec) -> ExecStatus {
                  if (sec == nullptr) return ExecStatus::kUserAbort;
                  OrderPayload line{};
                  line.items[0].security_id = item.security_id;
                  line.items[0].buy = item.buy;
                  // Traded price, negative for a buy order (Example 5).
                  line.trade_id = static_cast<uint64_t>(
                      item.buy > 0 ? -sec->price : sec->price);
                  if (t.InsertRow(db.trade_lines, tl_key,
                                  TradeLineRow{EncodePayload(line, key)}) ==
                      WriteStatus::kWwConflict) {
                    return ExecStatus::kWriteWriteConflict;
                  }
                  return ExecStatus::kOk;
                });
            if (st != ExecStatus::kOk) return st;
          }
          return ExecStatus::kOk;
        });
  };
}

/// PriceUpdate: a blind write (§2.4.1) — never conflicts in MV3C. Under
/// OMVCC's restart policy it becomes a read-modify-write with fail-fast
/// write-write conflicts (§6.1.1: "PriceUpdate consists of a blind write
/// operation, which does not lead to a conflict in MV3C, but creates a
/// conflict in OMVCC").
inline Mv3cExecutor::Program Mv3cPriceUpdate(TradingDb& db,
                                             PriceUpdateParams params) {
  return [&db, params](Mv3cTransaction& t) -> ExecStatus {
    return t.BlindUpdate(
        db.securities, params.security_id, ColumnMask::Of(kColPrice),
        [params](SecurityRow& r) { r.price = params.new_price; });
  };
}

/// Generates the benchmark's transaction mix: a TradeOrder/PriceUpdate
/// stream with Zipf-distributed security ids (parameter alpha controls the
/// conflict rate).
class TradingGenerator {
 public:
  /// `trade_order_percent` of transactions are TradeOrders; the rest are
  /// PriceUpdates.
  TradingGenerator(const TradingDb& db, double alpha, int trade_order_percent,
                   uint64_t seed)
      : TradingGenerator(db.n_securities(), db.n_customers(), alpha,
                         trade_order_percent, seed) {}

  /// Db-free overload for callers that generate requests without the
  /// database at hand (tools/metrics_dump.cc); only the population sizes
  /// matter.
  TradingGenerator(uint64_t n_securities, uint64_t n_customers, double alpha,
                   int trade_order_percent, uint64_t seed)
      : zipf_(n_securities, alpha),
        n_customers_(n_customers),
        trade_order_percent_(trade_order_percent),
        rng_(seed) {}

  struct Txn {
    bool is_trade_order;
    TradeOrderParams order;
    PriceUpdateParams price;
  };

  Txn Next() {
    Txn txn;
    txn.is_trade_order =
        static_cast<int>(rng_.NextBounded(100)) < trade_order_percent_;
    if (txn.is_trade_order) {
      const uint64_t c = rng_.NextBounded(n_customers_);
      OrderPayload p{};
      p.trade_id = ++trade_seq_;
      p.timestamp = trade_seq_ * 7;
      p.n_items = 1 + static_cast<uint32_t>(rng_.NextBounded(kMaxOrderItems));
      for (uint32_t i = 0; i < p.n_items; ++i) {
        p.items[i].security_id = zipf_.Next(rng_);
        p.items[i].buy = rng_.NextBounded(2) == 0 ? 1 : -1;
      }
      txn.order.customer_id = c;
      txn.order.payload = EncodePayload(p, CustomerKeyFor(c));
    } else {
      txn.price.security_id = zipf_.Next(rng_);
      txn.price.new_price = 500 + static_cast<int64_t>(rng_.NextBounded(2000));
    }
    return txn;
  }

 private:
  ZipfGenerator zipf_;
  uint64_t n_customers_;
  int trade_order_percent_;
  Xoshiro256 rng_;
  uint64_t trade_seq_ = 0;
};

}  // namespace mv3c::trading

#endif  // MV3C_WORKLOADS_TRADING_H_
