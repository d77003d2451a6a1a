#ifndef MV3C_WORKLOADS_WAL_REGISTRY_H_
#define MV3C_WORKLOADS_WAL_REGISTRY_H_

#include "wal/catalog.h"
#include "workloads/banking.h"
#include "workloads/tatp.h"
#include "workloads/tpcc.h"
#include "workloads/tpcc_sv.h"
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

inline void RegisterWalTables(wal::Catalog& cat, tpcc::TpccDb& db) {
  cat.RegisterMvcc(1, &db.warehouses, db.manager());
  cat.RegisterMvcc(2, &db.districts, db.manager());
  cat.RegisterMvcc(3, &db.customers, db.manager());
  cat.RegisterMvcc(4, &db.history, db.manager());
  cat.RegisterMvcc(5, &db.orders, db.manager());
  cat.RegisterMvcc(6, &db.new_orders, db.manager());
  cat.RegisterMvcc(7, &db.order_lines, db.manager());
  cat.RegisterMvcc(8, &db.items, db.manager());
  cat.RegisterMvcc(9, &db.stock, db.manager());
}

inline void RegisterWalTables(wal::Catalog& cat, tpcc::SvTpccDb& db) {
  cat.RegisterSv(1, &db.warehouses);
  cat.RegisterSv(2, &db.districts);
  cat.RegisterSv(3, &db.customers);
  cat.RegisterSv(4, &db.history);
  cat.RegisterSv(5, &db.orders);
  cat.RegisterSv(6, &db.new_orders);
  cat.RegisterSv(7, &db.order_lines);
  cat.RegisterSv(8, &db.items);
  cat.RegisterSv(9, &db.stock);
}

}  // namespace mv3c

#endif  // MV3C_WORKLOADS_WAL_REGISTRY_H_
