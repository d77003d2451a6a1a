#ifndef MV3C_WORKLOADS_TPCC_H_
#define MV3C_WORKLOADS_TPCC_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <functional>
#include <string>
#include <type_traits>
#include <vector>

#include "common/macros.h"
#include "common/nurand.h"
#include "common/random.h"
#include "index/ordered_index.h"
#include "mv3c/mv3c_executor.h"
#include "sv/sv_transaction.h"

namespace mv3c::tpcc {

/// TPC-C (paper §6.1.1, Figures 8 and 11): all nine tables, the full
/// five-transaction mix, NURand key skew, and the spec's 1% invalid-item
/// rollback. Table sizes follow the spec (10 districts per warehouse, 3000
/// customers per district, 100k items/stock) but are parameters so tests
/// can shrink them.
///
/// The schema, loader, programs and consistency check are written once,
/// over the transaction type: Mv3cTransaction for MV3C and OMVCC (the MVCC
/// store), sv::SvTransaction for OCC and SILO (the single-version store).
/// Both instantiations live in tpcc.cc. What differs per store is only the
/// transaction adapter, the table type (TpccTable) and how the loader puts
/// a row (tpcc.cc's BatchLoader).
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

/// The table type of a TPC-C database whose programs run on `Txn`.
template <typename Txn, typename Row>
using TpccTable =
    std::conditional_t<std::is_same_v<Txn, Mv3cTransaction>,
                       Table<uint64_t, Row>, sv::SvTable<uint64_t, Row>>;

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

/// Packed-uint64 secondary indexes: dividing the key by a constant yields
/// the partition (a district, or a customer), so range scans stay within
/// one ordered shard.
template <uint64_t Divisor>
struct DivPartition {
  size_t operator()(uint64_t key) const { return key / Divisor; }
};

/// Orders-by-customer key (CustomerKey * kMaxOrdersPerD + o).
inline uint64_t CustomerOrderKey(uint64_t w, uint64_t d, uint64_t c,
                                 uint64_t o) {
  return CustomerKey(w, d, c) * kMaxOrdersPerD + o;
}

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

template <typename Txn>
class BasicTpccDb {
 public:
  /// MV3C/OMVCC (true) or OCC/SILO (false).
  static constexpr bool kMvcc = std::is_same_v<Txn, Mv3cTransaction>;

  using WarehouseTable = TpccTable<Txn, WarehouseRow>;
  using DistrictTable = TpccTable<Txn, DistrictRow>;
  using CustomerTable = TpccTable<Txn, CustomerRow>;
  using HistoryTable = TpccTable<Txn, HistoryRow>;
  using OrderTable = TpccTable<Txn, OrderRow>;
  using NewOrderTable = TpccTable<Txn, NewOrderRow>;
  using OrderLineTable = TpccTable<Txn, OrderLineRow>;
  using ItemTable = TpccTable<Txn, ItemRow>;
  using StockTable = TpccTable<Txn, StockRow>;

  using CustomerNameIndex =
      OrderedIndex<CustomerNameKey, typename CustomerTable::Object*,
                   CustomerNamePartition>;
  /// NEW-ORDER queue per district: Delivery scans ascending for the oldest
  /// undelivered order.
  using NewOrderIndex = OrderedIndex<uint64_t, typename NewOrderTable::Object*,
                                     DivPartition<kMaxOrdersPerD>>;
  /// Orders by customer (CustomerOrderKey): Order-Status scans descending
  /// for the customer's latest order.
  using CustomerOrderIndex =
      OrderedIndex<uint64_t, typename OrderTable::Object*,
                   DivPartition<kMaxOrdersPerD>>;
  /// Order lines by district (primary-key order): Delivery reads one
  /// order's lines, Stock-Level the lines of the last 20 orders.
  using OrderLineIndex =
      OrderedIndex<uint64_t, typename OrderLineTable::Object*,
                   DivPartition<kMaxOrdersPerD * kMaxOrderLines>>;

  /// An MVCC database loads (and cleans up) through `mgr`.
  BasicTpccDb(TransactionManager* mgr, const TpccScale& scale)
    requires kMvcc
      : BasicTpccDb(scale, mgr) {}
  explicit BasicTpccDb(const TpccScale& scale)
    requires(!kMvcc)
      : BasicTpccDb(scale, nullptr) {}

  /// Populates all nine tables per the spec's rules (scaled); the same
  /// seed yields the same rows in either store.
  void Load(uint64_t seed = 1);

  /// Physically removes NEW-ORDER queue entries whose rows were delivered
  /// (tombstoned) and are no longer visible to any active transaction.
  /// Delivery's oldest-undelivered scan otherwise re-skips every past
  /// delivery's ghost on each run. Call from driver maintenance.
  size_t CleanupNewOrderQueue()
    requires kMvcc;

  TransactionManager* manager()
    requires kMvcc
  {
    return mgr_;
  }
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
  BasicTpccDb(const TpccScale& scale, TransactionManager* mgr)
      : warehouses("WAREHOUSE", scale.n_warehouses),
        districts("DISTRICT", scale.n_warehouses * scale.n_districts),
        customers("CUSTOMER", scale.n_warehouses * scale.n_districts *
                                  scale.n_customers_per_d),
        history("HISTORY", 1 << 16),
        orders("ORDER", 1 << 16),
        new_orders("NEW-ORDER", 1 << 16),
        order_lines("ORDER-LINE", 1 << 18),
        items("ITEM", scale.n_items),
        stock("STOCK", scale.n_warehouses * scale.n_items),
        mgr_(mgr),
        scale_(scale) {
    if constexpr (kMvcc) {
      // The rows the mix writes concurrently allow multiple uncommitted
      // versions; conflicts on them surface at validation (see above).
      for (TableBase* t : std::initializer_list<TableBase*>{
               &warehouses, &districts, &customers, &orders, &order_lines,
               &stock}) {
        t->set_ww_policy(WwPolicy::kAllowMultiple);
      }
    }
  }

  TransactionManager* mgr_;
  TpccScale scale_;
  std::atomic<uint64_t> history_seq_{0};
};

using TpccDb = BasicTpccDb<Mv3cTransaction>;
using SingleVersionTpccDb = BasicTpccDb<sv::SvTransaction>;

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

/// Stock-Level's lookup list: the STOCK keys (warehouse `w_id`) of the
/// distinct items on `lines` (elements with `row.i_id`), in the order each
/// item first appears. Sorting (item, line) pairs packed into one word
/// keeps it O(n log n) in one allocation: the first sort groups each
/// item's lines with its first line leading, the second restores line
/// order.
template <typename Lines>
std::vector<uint64_t> DistinctStockKeys(const Lines& lines, uint64_t w_id) {
  constexpr int kBits = 20;  // item ids and line positions fit, as StockKey
  constexpr uint64_t kLow = (uint64_t{1} << kBits) - 1;
  MV3C_CHECK(lines.size() <= kLow);
  std::vector<uint64_t> v;
  v.reserve(lines.size());
  for (const auto& l : lines) {
    const uint64_t i_id = l.row.i_id;
    MV3C_DCHECK(i_id <= kLow);
    v.push_back((i_id << kBits) | v.size());
  }
  std::sort(v.begin(), v.end());
  size_t n = 0;
  uint64_t prev = ~uint64_t{0};
  for (const uint64_t x : v) {  // writes trail reads: n <= the read index
    const uint64_t i_id = x >> kBits;
    if (i_id == prev) continue;
    prev = i_id;
    v[n++] = ((x & kLow) << kBits) | i_id;  // (first line, item)
  }
  v.resize(n);
  std::sort(v.begin(), v.end());
  for (uint64_t& x : v) x = StockKey(w_id, x & kLow);
  return v;
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

/// The TPC-C program for `p`, one body per transaction type for all four
/// engines: MV3C and OMVCC run it on Mv3cTransaction (repair or restart
/// policy), OCC and SILO on sv::SvTransaction. A Stock-Level program
/// writes its answer (the number of distinct low-stock items) to
/// `stock_level_out` when that is not null, once, after its lookups.
template <typename Txn>
std::function<ExecStatus(Txn&)> TpccProgram(BasicTpccDb<Txn>& db,
                                            const TpccParams& p,
                                            int* stock_level_out = nullptr);

/// The latest committed row of a record, or nullptr; only valid when the
/// caller tolerates an instantaneous snapshot (consistency checks).
template <typename K, typename Row>
const Row* LatestRow(const DataObject<K, Row>* obj, Row*) {
  if (obj == nullptr) return nullptr;
  const auto* v = obj->ReadVisible(kTxnIdBase - 1, 0);
  return v == nullptr ? nullptr : &v->data();
}
template <typename K, typename Row>
const Row* LatestRow(const sv::Record<K, Row>* rec, Row* buf) {
  if (rec == nullptr || sv::IsAbsent(rec->ReadStable(buf))) return nullptr;
  return buf;
}

/// TPC-C consistency conditions (spec clause 3.3.2, subset): used by tests
/// after workload runs, on a quiescent database. Returns false and fills
/// `why` on the first violation found.
template <typename Txn>
bool CheckConsistency(BasicTpccDb<Txn>& db, std::string* why);

}  // namespace mv3c::tpcc

#endif  // MV3C_WORKLOADS_TPCC_H_
