#ifndef MV3C_WORKLOADS_TPCC_H_
#define MV3C_WORKLOADS_TPCC_H_

#include <atomic>
#include <cstdint>
#include <cstring>
#include <string>
#include <type_traits>
#include <vector>

#include "common/nurand.h"
#include "common/random.h"
#include "index/ordered_index.h"
#include "mv3c/mv3c_executor.h"

namespace mv3c::tpcc {

/// TPC-C for the MVCC engines (paper §6.1.1, Figures 8 and 11): all nine
/// tables, the full five-transaction mix, NURand key skew, and the spec's
/// 1% invalid-item rollback. Table sizes follow the spec (10 districts per
/// warehouse, 3000 customers per district, 100k items/stock) but are
/// parameters so tests can shrink them.
///
/// Contention behavior mirrors the paper's description:
///   * Payment's warehouse/district YTD read-modify-writes and New-Order's
///     stock updates run under kAllowMultiple: conflicts surface at
///     validation and MV3C repairs them.
///   * New-Order's district next-o-id bump also produces ORDER/NEW-ORDER
///     primary-key collisions between concurrent transactions; inserts are
///     always fail-fast (§2.3.1), so those conflicts prematurely abort —
///     "almost all conflicting transactions in TPC-C lead to premature
///     abort during execution" (§6.1.1).
///   * Attribute-level validation (§4.1) keeps Payment and New-Order from
///     conflicting on the rows they share (disjoint columns).

// ---------------------------------------------------------------------------
// Keys (packed into uint64 for the hash index; helpers keep the packing in
// one place).
// ---------------------------------------------------------------------------

inline constexpr uint64_t kMaxDistrictsPerW = 16;
inline constexpr uint64_t kMaxCustomersPerD = 1 << 14;
inline constexpr uint64_t kMaxOrdersPerD = 1 << 24;
inline constexpr uint64_t kMaxOrderLines = 16;

inline uint64_t DistrictKey(uint64_t w, uint64_t d) {
  return w * kMaxDistrictsPerW + d;
}
inline uint64_t CustomerKey(uint64_t w, uint64_t d, uint64_t c) {
  return DistrictKey(w, d) * kMaxCustomersPerD + c;
}
inline uint64_t OrderKey(uint64_t w, uint64_t d, uint64_t o) {
  return DistrictKey(w, d) * kMaxOrdersPerD + o;
}
inline uint64_t OrderLineKey(uint64_t w, uint64_t d, uint64_t o,
                             uint64_t ol) {
  return OrderKey(w, d, o) * kMaxOrderLines + ol;
}
inline uint64_t StockKey(uint64_t w, uint64_t i) { return (w << 20) | i; }

// ---------------------------------------------------------------------------
// Rows. Char payloads approximate the spec's record sizes (the §6.2 memory
// experiment depends on realistic big-vs-small records: Stock is big,
// History small).
// ---------------------------------------------------------------------------

inline constexpr int kColWTax = 0;
inline constexpr int kColWYtd = 1;
struct WarehouseRow {
  int64_t ytd = 0;
  int32_t tax = 0;  // basis points
  char name[10] = {};
  char address[40] = {};
  char pad_[2] = {};  // explicit tail padding: WAL rows must have none

  void MergeFrom(const WarehouseRow& base, ColumnMask modified) {
    if (!modified.Contains(kColWTax)) tax = base.tax;
    if (!modified.Contains(kColWYtd)) ytd = base.ytd;
  }
};

inline constexpr int kColDTax = 0;
inline constexpr int kColDNextOid = 1;
inline constexpr int kColDYtd = 2;
struct DistrictRow {
  int64_t ytd = 0;
  uint32_t next_o_id = 1;
  int32_t tax = 0;
  char name[10] = {};
  char address[40] = {};
  char pad_[6] = {};  // explicit tail padding: WAL rows must have none

  void MergeFrom(const DistrictRow& base, ColumnMask modified) {
    if (!modified.Contains(kColDTax)) tax = base.tax;
    if (!modified.Contains(kColDNextOid)) next_o_id = base.next_o_id;
    if (!modified.Contains(kColDYtd)) ytd = base.ytd;
  }
};

inline constexpr int kColCInfo = 0;      // discount, credit, names
inline constexpr int kColCBalance = 1;   // balance, ytd_payment, cnts
inline constexpr int kColCData = 2;      // credit data
struct CustomerRow {
  int64_t balance = -1000;  // centimes, spec: -10.00
  int64_t ytd_payment = 1000;
  int32_t payment_cnt = 1;
  int32_t delivery_cnt = 0;
  int32_t discount = 0;  // basis points
  uint16_t last_name_id = 0;
  bool bad_credit = false;
  char first[16] = {};
  char middle[2] = {'O', 'E'};
  char street[40] = {};
  char phone[16] = {};
  char data[250] = {};
  char pad_[5] = {};  // explicit tail padding: WAL rows must have none

  void MergeFrom(const CustomerRow& base, ColumnMask modified) {
    if (!modified.Contains(kColCInfo)) {
      discount = base.discount;
      last_name_id = base.last_name_id;
      bad_credit = base.bad_credit;
      std::memcpy(first, base.first, sizeof(first));
    }
    if (!modified.Contains(kColCBalance)) {
      balance = base.balance;
      ytd_payment = base.ytd_payment;
      payment_cnt = base.payment_cnt;
      delivery_cnt = base.delivery_cnt;
    }
    if (!modified.Contains(kColCData)) {
      std::memcpy(data, base.data, sizeof(data));
    }
  }
};

struct HistoryRow {
  uint64_t c_key = 0;
  uint64_t d_key = 0;
  int64_t amount = 0;
  uint64_t date = 0;
  char data[24] = {};
};

inline constexpr int kColOCarrier = 0;
inline constexpr int kColOInfo = 1;
struct OrderRow {
  uint64_t c_id = 0;
  uint64_t entry_d = 0;
  int32_t carrier_id = -1;  // -1 = undelivered
  uint8_t ol_cnt = 0;
  bool all_local = true;
  char pad_[2] = {};  // explicit tail padding: WAL rows must have none

  void MergeFrom(const OrderRow& base, ColumnMask modified) {
    if (!modified.Contains(kColOCarrier)) carrier_id = base.carrier_id;
    if (!modified.Contains(kColOInfo)) {
      c_id = base.c_id;
      entry_d = base.entry_d;
      ol_cnt = base.ol_cnt;
      all_local = base.all_local;
    }
  }
};

struct NewOrderRow {
  uint8_t filler = 0;
};

inline constexpr int kColOlDeliveryD = 0;
inline constexpr int kColOlInfo = 1;
struct OrderLineRow {
  uint64_t i_id = 0;
  uint64_t supply_w_id = 0;
  uint64_t delivery_d = 0;  // 0 = undelivered
  int64_t amount = 0;
  uint8_t quantity = 0;
  char dist_info[24] = {};
  char pad_[7] = {};  // explicit tail padding: WAL rows must have none

  void MergeFrom(const OrderLineRow& base, ColumnMask modified) {
    if (!modified.Contains(kColOlDeliveryD)) delivery_d = base.delivery_d;
    if (!modified.Contains(kColOlInfo)) {
      i_id = base.i_id;
      supply_w_id = base.supply_w_id;
      amount = base.amount;
      quantity = base.quantity;
      std::memcpy(dist_info, base.dist_info, sizeof(dist_info));
    }
  }
};

struct ItemRow {
  int64_t price = 0;
  uint32_t im_id = 0;
  char name[24] = {};
  char data[50] = {};
  char pad_[2] = {};  // explicit tail padding: WAL rows must have none
};

inline constexpr int kColSQuantity = 0;
inline constexpr int kColSCounts = 1;
struct StockRow {
  // ytd leads so the int32 trio packs without internal padding (WAL rows
  // must have none).
  int64_t ytd = 0;
  int32_t quantity = 0;
  int32_t order_cnt = 0;
  int32_t remote_cnt = 0;
  char dist[10][24] = {};
  char data[50] = {};
  char pad_[2] = {};  // explicit tail padding

  void MergeFrom(const StockRow& base, ColumnMask modified) {
    if (!modified.Contains(kColSQuantity)) quantity = base.quantity;
    if (!modified.Contains(kColSCounts)) {
      ytd = base.ytd;
      order_cnt = base.order_cnt;
      remote_cnt = base.remote_cnt;
    }
  }
};

using WarehouseTable = Table<uint64_t, WarehouseRow>;
using DistrictTable = Table<uint64_t, DistrictRow>;
using CustomerTable = Table<uint64_t, CustomerRow>;
using HistoryTable = Table<uint64_t, HistoryRow>;
using OrderTable = Table<uint64_t, OrderRow>;
using NewOrderTable = Table<uint64_t, NewOrderRow>;
using OrderLineTable = Table<uint64_t, OrderLineRow>;
using ItemTable = Table<uint64_t, ItemRow>;
using StockTable = Table<uint64_t, StockRow>;

// Secondary index key/partition types.

/// Customers ordered by (w, d, last-name id, c_id): Payment/Order-Status
/// by-last-name selection takes the middle customer of the run.
struct CustomerNameKey {
  uint64_t wd = 0;  // DistrictKey
  uint16_t last_name_id = 0;
  uint64_t c_key = 0;
  friend auto operator<=>(const CustomerNameKey&,
                          const CustomerNameKey&) = default;
};
struct CustomerNamePartition {
  size_t operator()(const CustomerNameKey& k) const { return k.wd; }
};
using CustomerNameIndex =
    OrderedIndex<CustomerNameKey, CustomerTable::Object*,
                 CustomerNamePartition>;

/// Packed-uint64 secondary indexes: dividing the key by a constant yields
/// the partition (a district, or a customer), so range scans stay within
/// one ordered shard.
template <uint64_t Divisor>
struct DivPartition {
  size_t operator()(uint64_t key) const { return key / Divisor; }
};

/// NEW-ORDER queue per district: Delivery scans ascending for the oldest
/// undelivered order.
using NewOrderIndex =
    OrderedIndex<uint64_t, NewOrderTable::Object*,
                 DivPartition<kMaxOrdersPerD>>;
/// Orders by customer (key = CustomerKey * kMaxOrdersPerD + o): Order-
/// Status scans descending for the customer's latest order.
using CustomerOrderIndex =
    OrderedIndex<uint64_t, OrderTable::Object*, DivPartition<kMaxOrdersPerD>>;
inline uint64_t CustomerOrderKey(uint64_t w, uint64_t d, uint64_t c,
                                 uint64_t o) {
  return CustomerKey(w, d, c) * kMaxOrdersPerD + o;
}
/// Order lines by district (primary-key order): Delivery reads one order's
/// lines, Stock-Level the lines of the last 20 orders.
using OrderLineIndex =
    OrderedIndex<uint64_t, OrderLineTable::Object*,
                 DivPartition<kMaxOrdersPerD * kMaxOrderLines>>;

// ---------------------------------------------------------------------------
// Database
// ---------------------------------------------------------------------------

/// Scale knobs: spec values by default, smaller for tests.
struct TpccScale {
  uint64_t n_warehouses = 1;
  uint64_t n_districts = 10;
  uint64_t n_customers_per_d = 3000;
  uint64_t n_items = 100000;
  /// Preloaded orders per district (spec: 3000, the last 900 undelivered).
  uint64_t preload_orders_per_d = 3000;
  uint64_t preload_new_orders_per_d = 900;
};

class TpccDb {
 public:
  TpccDb(TransactionManager* mgr, const TpccScale& scale)
      : warehouses("WAREHOUSE", scale.n_warehouses,
                   WwPolicy::kAllowMultiple),
        districts("DISTRICT", scale.n_warehouses * scale.n_districts,
                  WwPolicy::kAllowMultiple),
        customers("CUSTOMER",
                  scale.n_warehouses * scale.n_districts *
                      scale.n_customers_per_d,
                  WwPolicy::kAllowMultiple),
        history("HISTORY", 1 << 16),
        orders("ORDER", 1 << 16, WwPolicy::kAllowMultiple),
        new_orders("NEW-ORDER", 1 << 16),
        order_lines("ORDER-LINE", 1 << 18, WwPolicy::kAllowMultiple),
        items("ITEM", scale.n_items),
        stock("STOCK", scale.n_warehouses * scale.n_items,
              WwPolicy::kAllowMultiple),
        mgr_(mgr),
        scale_(scale) {}

  /// Populates all nine tables per the spec's rules (scaled).
  void Load(uint64_t seed = 1);

  /// Physically removes NEW-ORDER queue entries whose rows were delivered
  /// (tombstoned) and are no longer visible to any active transaction.
  /// Delivery's oldest-undelivered scan otherwise re-skips every past
  /// delivery's ghost on each run. Call from driver maintenance.
  size_t CleanupNewOrderQueue();

  TransactionManager* manager() { return mgr_; }
  const TpccScale& scale() const { return scale_; }

  /// Next history primary key (HISTORY has no natural key).
  uint64_t NextHistoryKey() {
    return history_seq_.fetch_add(1, std::memory_order_relaxed);
  }

  WarehouseTable warehouses;
  DistrictTable districts;
  CustomerTable customers;
  HistoryTable history;
  OrderTable orders;
  NewOrderTable new_orders;
  OrderLineTable order_lines;
  ItemTable items;
  StockTable stock;

  CustomerNameIndex customers_by_name;
  NewOrderIndex new_order_queue;
  CustomerOrderIndex orders_by_customer;
  OrderLineIndex order_lines_by_district;

 private:
  TransactionManager* mgr_;
  TpccScale scale_;
  std::atomic<uint64_t> history_seq_{0};
};

// ---------------------------------------------------------------------------
// Transaction inputs and generator
// ---------------------------------------------------------------------------

enum class TpccTxnType : uint8_t {
  kNewOrder,
  kPayment,
  kOrderStatus,
  kDelivery,
  kStockLevel,
};

struct NewOrderItem {
  uint64_t i_id = 0;
  uint64_t supply_w = 0;
  uint8_t quantity = 1;
  uint8_t pad_[7] = {};  // explicit tail padding: wire/no-padding contract
};
static_assert(std::has_unique_object_representations_v<NewOrderItem>);

/// Field order is wire layout: TpccParams travels verbatim inside
/// serving-protocol frames (src/server/protocol.h), so wide fields lead
/// and the byte-sized tail is padded explicitly (§5f discipline).
struct TpccParams {
  uint64_t w_id = 0;
  uint64_t d_id = 0;
  uint64_t c_id = 0;
  int64_t amount = 0;          // Payment
  uint64_t c_w_id = 0;         // Payment: customer's warehouse
  uint64_t c_d_id = 0;
  uint64_t date = 0;
  int32_t carrier_id = 0;      // Delivery
  int32_t threshold = 10;      // Stock-Level
  uint16_t c_last = 0;
  TpccTxnType type = TpccTxnType::kNewOrder;
  bool by_last_name = false;
  uint8_t ol_cnt = 0;          // New-Order
  uint8_t pad_[3] = {};
  NewOrderItem items[kMaxOrderLines];
};
static_assert(std::has_unique_object_representations_v<TpccParams>);

/// New-Order's O_ALL_LOCAL (clause 2.4.2.2): true iff every order line is
/// supplied by the home warehouse.
inline bool AllLinesLocal(const TpccParams& p) {
  for (uint8_t i = 0; i < p.ol_cnt; ++i) {
    if (p.items[i].supply_w != p.w_id) return false;
  }
  return true;
}

/// Standard-mix generator with the spec's NURand constants (clause 2.1.6)
/// and the 1% invalid-item rule.
class TpccGenerator {
 public:
  TpccGenerator(const TpccScale& scale, uint64_t seed)
      : scale_(scale),
        rng_(seed),
        nurand_c_last_(123),
        nurand_c_id_(259),
        nurand_i_id_(x_factor_) {}

  TpccParams Next();

  /// Last-name id distribution used by both the loader and the generator.
  uint16_t RandomLastName(Xoshiro256& rng, const NuRand& nurand) const {
    return static_cast<uint16_t>(nurand.Next(rng, 255, 0, 999));
  }

 private:
  TpccScale scale_;
  Xoshiro256 rng_;
  NuRand nurand_c_last_;
  NuRand nurand_c_id_;
  NuRand nurand_i_id_;
  static constexpr uint64_t x_factor_ = 42;
  uint64_t date_seq_ = 1;
};

// ---------------------------------------------------------------------------
// Transaction programs
// ---------------------------------------------------------------------------

/// The TPC-C program for `p`; the same program runs under both conflict
/// policies (MV3C repair, OMVCC restart).
Mv3cExecutor::Program Mv3cTpccProgram(TpccDb& db, const TpccParams& p);

/// TPC-C consistency conditions (spec clause 3.3.2, subset): used by tests
/// after workload runs. Returns true and fills `why` on the first
/// violation found.
bool CheckConsistency(TpccDb& db, std::string* why);

}  // namespace mv3c::tpcc

#endif  // MV3C_WORKLOADS_TPCC_H_
