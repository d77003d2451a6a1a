#include "workloads/tpcc_sv.h"

#include <algorithm>
#include <numeric>
#include <string>

#include "common/macros.h"

namespace mv3c::tpcc {

// ---------------------------------------------------------------------------
// Loader (non-transactional; mirrors TpccDb::Load)
// ---------------------------------------------------------------------------

void SvTpccDb::Load(uint64_t seed) {
  Xoshiro256 rng(seed);
  const TpccScale& s = scale_;
  for (uint64_t i = 1; i <= s.n_items; ++i) {
    ItemRow row;
    row.price = 100 + static_cast<int64_t>(rng.NextBounded(9900));
    row.im_id = static_cast<uint32_t>(1 + rng.NextBounded(10000));
    items.LoadRow(i, row);
  }
  for (uint64_t w = 1; w <= s.n_warehouses; ++w) {
    WarehouseRow wr;
    wr.tax = static_cast<int32_t>(rng.NextBounded(2001));
    wr.ytd = 30000000;
    warehouses.LoadRow(w, wr);
    for (uint64_t i = 1; i <= s.n_items; ++i) {
      StockRow row;
      row.quantity = static_cast<int32_t>(10 + rng.NextBounded(91));
      stock.LoadRow(StockKey(w, i), row);
    }
    for (uint64_t d = 1; d <= s.n_districts; ++d) {
      DistrictRow dr;
      dr.tax = static_cast<int32_t>(rng.NextBounded(2001));
      dr.ytd = 3000000;
      dr.next_o_id = static_cast<uint32_t>(s.preload_orders_per_d + 1);
      districts.LoadRow(DistrictKey(w, d), dr);
      for (uint64_t c = 1; c <= s.n_customers_per_d; ++c) {
        CustomerRow row;
        row.last_name_id =
            c <= 1000 ? static_cast<uint16_t>(c - 1)
                      : static_cast<uint16_t>(
                            NuRand(123).Next(rng, 255, 0, 999));
        row.discount = static_cast<int32_t>(rng.NextBounded(5001));
        row.bad_credit = rng.NextBounded(100) < 10;
        const uint64_t key = CustomerKey(w, d, c);
        customers.LoadRow(key, row);
        MV3C_CHECK(customers_by_name.Insert(
            {DistrictKey(w, d), row.last_name_id, key}, customers.Find(key)));
        HistoryRow h;
        h.c_key = key;
        h.d_key = DistrictKey(w, d);
        h.amount = 1000;
        history.LoadRow(NextHistoryKey(), h);
      }
      std::vector<uint64_t> perm(s.preload_orders_per_d);
      std::iota(perm.begin(), perm.end(), 1);
      for (size_t i = perm.size(); i > 1; --i) {
        std::swap(perm[i - 1], perm[rng.NextBounded(i)]);
      }
      for (uint64_t o = 1; o <= s.preload_orders_per_d; ++o) {
        const bool delivered =
            o + s.preload_new_orders_per_d <= s.preload_orders_per_d;
        const uint64_t c = 1 + (perm[o - 1] - 1) % s.n_customers_per_d;
        OrderRow orow;
        orow.c_id = c;
        orow.entry_d = o;
        orow.ol_cnt = static_cast<uint8_t>(5 + rng.NextBounded(11));
        orow.carrier_id =
            delivered ? static_cast<int32_t>(1 + rng.NextBounded(10)) : -1;
        const uint64_t okey = OrderKey(w, d, o);
        orders.LoadRow(okey, orow);
        MV3C_CHECK(orders_by_customer.Insert(CustomerOrderKey(w, d, c, o),
                                             orders.Find(okey)));
        for (uint8_t ol = 1; ol <= orow.ol_cnt; ++ol) {
          OrderLineRow lrow;
          lrow.i_id = 1 + rng.NextBounded(s.n_items);
          lrow.supply_w_id = w;
          lrow.quantity = 5;
          lrow.delivery_d = delivered ? o : 0;
          lrow.amount =
              delivered ? 0
                        : static_cast<int64_t>(1 + rng.NextBounded(999999));
          const uint64_t lkey = OrderLineKey(w, d, o, ol);
          order_lines.LoadRow(lkey, lrow);
          MV3C_CHECK(
              order_lines_by_district.Insert(lkey, order_lines.Find(lkey)));
        }
        if (!delivered) {
          new_orders.LoadRow(okey, NewOrderRow{});
          MV3C_CHECK(new_order_queue.Insert(okey, new_orders.Find(okey)));
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Programs
// ---------------------------------------------------------------------------

namespace {

size_t MiddleIndex(size_t n) { return (n + 1) / 2 - 1; }

using Txn = sv::SvTransaction;

/// Reads the middle customer of a by-last-name run; returns nullptr if the
/// run is empty. Registers the shard version and every read.
SvCustomerTable::Rec* SelectCustomerByName(Txn& t, SvTpccDb& db, uint64_t wd,
                                           uint16_t last, CustomerRow* out,
                                           uint64_t* c_key_out) {
  t.ObserveNode(&db.customers_by_name.ShardVersionRef(
      CustomerNameKey{wd, last, 0}));
  std::vector<std::pair<uint64_t, SvCustomerTable::Rec*>> run;
  db.customers_by_name.ScanRange(
      CustomerNameKey{wd, last, 0}, CustomerNameKey{wd, last, ~0ULL},
      [&](const CustomerNameKey& k, SvCustomerTable::Rec* rec) {
        run.push_back({k.c_key, rec});
        return true;
      });
  if (run.empty()) return nullptr;
  const auto& [key, rec] = run[MiddleIndex(run.size())];
  const uint64_t w = rec->ReadStable(out);
  t.reads().push_back({&rec->tid, w});
  if (sv::IsAbsent(w)) return nullptr;
  if (c_key_out != nullptr) *c_key_out = key;
  return rec;
}

ExecStatus SvNewOrder(Txn& t, SvTpccDb& db, const TpccParams& p) {
  WarehouseRow w;
  if (!t.Read(db.warehouses, p.w_id, &w)) return ExecStatus::kUserAbort;
  CustomerRow c;
  if (!t.Read(db.customers, CustomerKey(p.w_id, p.d_id, p.c_id), &c)) {
    return ExecStatus::kUserAbort;
  }
  DistrictRow d;
  SvDistrictTable::Rec* drec = nullptr;
  if (!t.Read(db.districts, DistrictKey(p.w_id, p.d_id), &d, &drec)) {
    return ExecStatus::kUserAbort;
  }
  const uint64_t o_id = d.next_o_id;
  DistrictRow dn = d;
  dn.next_o_id = static_cast<uint32_t>(o_id + 1);
  t.Update(db.districts, drec, dn);

  OrderRow orow;
  orow.c_id = p.c_id;
  orow.entry_d = p.date;
  orow.ol_cnt = p.ol_cnt;
  orow.all_local = AllLinesLocal(p);
  const uint64_t okey = OrderKey(p.w_id, p.d_id, o_id);
  SvOrderTable::Rec* orec = nullptr;
  if (!t.Insert(db.orders, okey, orow, &orec)) {
    return ExecStatus::kUserAbort;  // duplicate o_id; validation rare-cases
  }
  SvNewOrderTable::Rec* nrec = nullptr;
  if (!t.Insert(db.new_orders, okey, NewOrderRow{}, &nrec)) {
    return ExecStatus::kUserAbort;
  }
  t.OnInstall([&db, p, o_id, okey, orec, nrec] {
    // Install hooks run exactly once at commit; o_id is fresh this txn, so
    // the secondary-index inserts must win.
    MV3C_CHECK(db.orders_by_customer.Insert(
        CustomerOrderKey(p.w_id, p.d_id, p.c_id, o_id), orec));
    MV3C_CHECK(db.new_order_queue.Insert(okey, nrec));
  });

  for (uint8_t i = 0; i < p.ol_cnt; ++i) {
    const NewOrderItem it = p.items[i];
    ItemRow item;
    if (!t.Read(db.items, it.i_id, &item)) {
      return ExecStatus::kUserAbort;  // 1% invalid item
    }
    StockRow s;
    SvStockTable::Rec* srec = nullptr;
    if (!t.Read(db.stock, StockKey(it.supply_w, it.i_id), &s, &srec)) {
      return ExecStatus::kUserAbort;
    }
    StockRow sn = s;
    if (sn.quantity - it.quantity >= 10) {
      sn.quantity -= it.quantity;
    } else {
      sn.quantity += 91 - it.quantity;
    }
    sn.ytd += it.quantity;
    sn.order_cnt += 1;
    if (it.supply_w != p.w_id) sn.remote_cnt += 1;
    t.Update(db.stock, srec, sn);

    OrderLineRow ol;
    ol.i_id = it.i_id;
    ol.supply_w_id = it.supply_w;
    ol.quantity = it.quantity;
    ol.amount = it.quantity * item.price * (10000 + w.tax) / 10000 *
                (10000 - c.discount) / 10000;
    std::memcpy(ol.dist_info, s.dist[p.d_id - 1], sizeof(ol.dist_info));
    const uint64_t lkey = OrderLineKey(p.w_id, p.d_id, o_id, i + 1);
    SvOrderLineTable::Rec* lrec = nullptr;
    if (!t.Insert(db.order_lines, lkey, ol, &lrec)) {
      return ExecStatus::kUserAbort;
    }
    t.OnInstall([&db, lkey, lrec] {
      MV3C_CHECK(db.order_lines_by_district.Insert(lkey, lrec));
    });
  }
  return ExecStatus::kOk;
}

ExecStatus SvPayment(Txn& t, SvTpccDb& db, const TpccParams& p) {
  WarehouseRow w;
  SvWarehouseTable::Rec* wrec = nullptr;
  if (!t.Read(db.warehouses, p.w_id, &w, &wrec)) {
    return ExecStatus::kUserAbort;
  }
  WarehouseRow wn = w;
  wn.ytd += p.amount;
  t.Update(db.warehouses, wrec, wn);

  DistrictRow d;
  SvDistrictTable::Rec* drec = nullptr;
  if (!t.Read(db.districts, DistrictKey(p.w_id, p.d_id), &d, &drec)) {
    return ExecStatus::kUserAbort;
  }
  DistrictRow dn = d;
  dn.ytd += p.amount;
  t.Update(db.districts, drec, dn);

  CustomerRow c;
  SvCustomerTable::Rec* crec = nullptr;
  uint64_t c_key = 0;
  if (p.by_last_name) {
    const uint64_t wd = DistrictKey(p.c_w_id, p.c_d_id);
    crec = SelectCustomerByName(t, db, wd, p.c_last, &c, &c_key);
    if (crec == nullptr) return ExecStatus::kUserAbort;
  } else {
    c_key = CustomerKey(p.c_w_id, p.c_d_id, p.c_id);
    if (!t.Read(db.customers, c_key, &c, &crec)) {
      return ExecStatus::kUserAbort;
    }
  }
  CustomerRow cn = c;
  cn.balance -= p.amount;
  cn.ytd_payment += p.amount;
  cn.payment_cnt += 1;
  if (c.bad_credit) {
    std::memmove(cn.data + 16, cn.data, sizeof(cn.data) - 16);
    std::memcpy(cn.data, &c_key, sizeof(c_key));
    std::memcpy(cn.data + 8, &p.amount, sizeof(p.amount));
  }
  t.Update(db.customers, crec, cn);

  HistoryRow h;
  h.c_key = c_key;
  h.d_key = DistrictKey(p.w_id, p.d_id);
  h.amount = p.amount;
  h.date = p.date;
  if (!t.Insert(db.history, db.NextHistoryKey(), h)) {
    return ExecStatus::kUserAbort;
  }
  return ExecStatus::kOk;
}

ExecStatus SvOrderStatus(Txn& t, SvTpccDb& db, const TpccParams& p) {
  uint64_t c_id = p.c_id;
  if (p.by_last_name) {
    CustomerRow c;
    const uint64_t wd = DistrictKey(p.w_id, p.d_id);
    uint64_t c_key = 0;
    SvCustomerTable::Rec* crec =
        SelectCustomerByName(t, db, wd, p.c_last, &c, &c_key);
    if (crec == nullptr) return ExecStatus::kUserAbort;
    c_id = c_key % kMaxCustomersPerD;
  } else {
    CustomerRow c;
    if (!t.Read(db.customers, CustomerKey(p.w_id, p.d_id, p.c_id), &c)) {
      return ExecStatus::kUserAbort;
    }
  }
  t.ObserveNode(&db.orders_by_customer.ShardVersionRef(
      CustomerOrderKey(p.w_id, p.d_id, c_id, 0)));
  SvOrderTable::Rec* last_order = nullptr;
  uint64_t last_okey = 0;
  db.orders_by_customer.ScanRangeReverse(
      CustomerOrderKey(p.w_id, p.d_id, c_id, 0),
      CustomerOrderKey(p.w_id, p.d_id, c_id, kMaxOrdersPerD - 1),
      [&](const uint64_t key, SvOrderTable::Rec* rec) {
        last_order = rec;
        last_okey = key;
        return false;
      });
  if (last_order == nullptr) return ExecStatus::kUserAbort;
  OrderRow o;
  const uint64_t w = last_order->ReadStable(&o);
  t.reads().push_back({&last_order->tid, w});
  if (sv::IsAbsent(w)) return ExecStatus::kUserAbort;
  const uint64_t o_id = last_okey % kMaxOrdersPerD;
  for (uint64_t ol = 1; ol <= o.ol_cnt; ++ol) {
    OrderLineRow l;
    t.Read(db.order_lines, OrderLineKey(p.w_id, p.d_id, o_id, ol), &l);
  }
  return ExecStatus::kOk;
}

ExecStatus SvDelivery(Txn& t, SvTpccDb& db, const TpccParams& p) {
  for (uint64_t d = 1; d <= db.scale().n_districts; ++d) {
    t.ObserveNode(
        &db.new_order_queue.ShardVersionRef(OrderKey(p.w_id, d, 0)));
    SvNewOrderTable::Rec* nrec = nullptr;
    uint64_t okey = 0;
    db.new_order_queue.ScanRange(
        OrderKey(p.w_id, d, 0), OrderKey(p.w_id, d, kMaxOrdersPerD - 1),
        [&](const uint64_t key, SvNewOrderTable::Rec* rec) {
          NewOrderRow nr;
          const uint64_t w = rec->ReadStable(&nr);
          t.reads().push_back({&rec->tid, w});
          if (sv::IsAbsent(w)) return true;  // delivered ghost, keep going
          nrec = rec;
          okey = key;
          return false;
        });
    if (nrec == nullptr) continue;
    t.Delete(db.new_orders, nrec);
    const uint64_t o_id = okey % kMaxOrdersPerD;
    OrderRow o;
    SvOrderTable::Rec* orec = nullptr;
    if (!t.Read(db.orders, okey, &o, &orec)) return ExecStatus::kUserAbort;
    OrderRow on = o;
    on.carrier_id = p.carrier_id;
    t.Update(db.orders, orec, on);
    int64_t total = 0;
    for (uint64_t ol = 1; ol <= o.ol_cnt; ++ol) {
      OrderLineRow l;
      SvOrderLineTable::Rec* lrec = nullptr;
      if (!t.Read(db.order_lines, OrderLineKey(p.w_id, d, o_id, ol), &l,
                  &lrec)) {
        continue;
      }
      total += l.amount;
      OrderLineRow ln = l;
      ln.delivery_d = p.date;
      t.Update(db.order_lines, lrec, ln);
    }
    CustomerRow c;
    SvCustomerTable::Rec* crec = nullptr;
    if (!t.Read(db.customers, CustomerKey(p.w_id, d, o.c_id), &c, &crec)) {
      return ExecStatus::kUserAbort;
    }
    CustomerRow cn = c;
    cn.balance += total;
    cn.delivery_cnt += 1;
    t.Update(db.customers, crec, cn);
  }
  return ExecStatus::kOk;
}

ExecStatus SvStockLevel(Txn& t, SvTpccDb& db, const TpccParams& p) {
  DistrictRow d;
  if (!t.Read(db.districts, DistrictKey(p.w_id, p.d_id), &d)) {
    return ExecStatus::kUserAbort;
  }
  const uint64_t next_o = d.next_o_id;
  const uint64_t lo_o = next_o > 20 ? next_o - 20 : 1;
  t.ObserveNode(&db.order_lines_by_district.ShardVersionRef(
      OrderLineKey(p.w_id, p.d_id, lo_o, 0)));
  std::vector<uint64_t> seen;
  int low_stock = 0;
  std::vector<uint64_t> item_ids;
  db.order_lines_by_district.ScanRange(
      OrderLineKey(p.w_id, p.d_id, lo_o, 0),
      OrderLineKey(p.w_id, p.d_id, next_o - 1, kMaxOrderLines - 1),
      [&](const uint64_t, SvOrderLineTable::Rec* rec) {
        OrderLineRow l;
        const uint64_t w = rec->ReadStable(&l);
        t.reads().push_back({&rec->tid, w});
        if (!sv::IsAbsent(w)) item_ids.push_back(l.i_id);
        return true;
      });
  for (uint64_t i_id : item_ids) {
    if (std::find(seen.begin(), seen.end(), i_id) != seen.end()) continue;
    seen.push_back(i_id);
    StockRow s;
    if (t.Read(db.stock, StockKey(p.w_id, i_id), &s) &&
        s.quantity < p.threshold) {
      ++low_stock;
    }
  }
  (void)low_stock;
  return ExecStatus::kOk;
}

}  // namespace

std::function<ExecStatus(sv::SvTransaction&)> SvTpccProgram(
    SvTpccDb& db, const TpccParams& p) {
  switch (p.type) {
    case TpccTxnType::kNewOrder:
      return [&db, p](Txn& t) { return SvNewOrder(t, db, p); };
    case TpccTxnType::kPayment:
      return [&db, p](Txn& t) { return SvPayment(t, db, p); };
    case TpccTxnType::kOrderStatus:
      return [&db, p](Txn& t) { return SvOrderStatus(t, db, p); };
    case TpccTxnType::kDelivery:
      return [&db, p](Txn& t) { return SvDelivery(t, db, p); };
    case TpccTxnType::kStockLevel:
      return [&db, p](Txn& t) { return SvStockLevel(t, db, p); };
  }
  MV3C_CHECK(false);
  return nullptr;
}

bool CheckSvConsistency(SvTpccDb& db, std::string* why) {
  const TpccScale& s = db.scale();
  for (uint64_t w = 1; w <= s.n_warehouses; ++w) {
    SvWarehouseTable::Rec* wrec = db.warehouses.Find(w);
    if (wrec == nullptr) {
      *why = "missing warehouse";
      return false;
    }
    WarehouseRow wr;
    wrec->ReadStable(&wr);
    int64_t d_ytd_sum = 0;
    for (uint64_t d = 1; d <= s.n_districts; ++d) {
      SvDistrictTable::Rec* drec = db.districts.Find(DistrictKey(w, d));
      if (drec == nullptr) {
        *why = "missing district";
        return false;
      }
      DistrictRow dr;
      drec->ReadStable(&dr);
      d_ytd_sum += dr.ytd;
      const uint64_t max_o = dr.next_o_id - 1;
      if (max_o > 0) {
        SvOrderTable::Rec* orec = db.orders.Find(OrderKey(w, d, max_o));
        OrderRow orow;
        if (orec == nullptr ||
            sv::IsAbsent(orec->ReadStable(&orow))) {
          *why = "d_next_o_id does not match max order id";
          return false;
        }
      }
    }
    const int64_t w_seed = 30000000;
    const int64_t d_seed_sum = 3000000 * static_cast<int64_t>(s.n_districts);
    if (wr.ytd - w_seed != d_ytd_sum - d_seed_sum) {
      *why = "w_ytd delta != sum(d_ytd) delta";
      return false;
    }
  }
  return true;
}

}  // namespace mv3c::tpcc
