#ifndef MV3C_WORKLOADS_WAL_REGISTRY_H_
#define MV3C_WORKLOADS_WAL_REGISTRY_H_

#include "wal/catalog.h"
#include "workloads/banking.h"
#include "workloads/tatp.h"
#include "workloads/tpcc.h"
#include "workloads/trading.h"

namespace mv3c {

/// Stable WAL table-id assignments per workload. The id is the only table
/// identity the log carries, so pre-crash and recovery runs must register
/// the same tables with the same ids — keeping every assignment in this
/// one header makes that invariant syntactic. Ids are scoped per workload
/// (each run recovers with one catalog for one database).

inline void RegisterWalTables(wal::Catalog& cat, banking::BankingDb& db) {
  cat.RegisterMvcc(1, &db.accounts, db.manager());
}

inline void RegisterWalTables(wal::Catalog& cat, trading::TradingDb& db) {
  cat.RegisterMvcc(1, &db.securities, db.manager());
  cat.RegisterMvcc(2, &db.customers, db.manager());
  cat.RegisterMvcc(3, &db.trades, db.manager());
  cat.RegisterMvcc(4, &db.trade_lines, db.manager());
}

inline void RegisterWalTables(wal::Catalog& cat, tatp::TatpDb& db) {
  cat.RegisterMvcc(1, &db.subscribers, db.manager());
  cat.RegisterMvcc(2, &db.access_info, db.manager());
  cat.RegisterMvcc(3, &db.special_facilities, db.manager());
  cat.RegisterMvcc(4, &db.call_forwarding, db.manager());
}

/// One id list for both TPC-C stores: MVCC (MV3C/OMVCC) and single-version
/// (OCC/SILO) databases log the same tables under the same ids.
template <typename Txn>
void RegisterWalTables(wal::Catalog& cat, tpcc::BasicTpccDb<Txn>& db) {
  auto reg = [&](uint32_t id, auto* table) {
    if constexpr (tpcc::BasicTpccDb<Txn>::kMvcc) {
      cat.RegisterMvcc(id, table, db.manager());
    } else {
      cat.RegisterSv(id, table);
    }
  };
  reg(1, &db.warehouses);
  reg(2, &db.districts);
  reg(3, &db.customers);
  reg(4, &db.history);
  reg(5, &db.orders);
  reg(6, &db.new_orders);
  reg(7, &db.order_lines);
  reg(8, &db.items);
  reg(9, &db.stock);
}

}  // namespace mv3c

#endif  // MV3C_WORKLOADS_WAL_REGISTRY_H_
