// Figure 8(c): TPC-C at a fixed concurrency level (10) as the number of
// warehouses grows 1..10 — the conflict ratio falls with more warehouses
// and all engines converge.

#include "bench/runners.h"

int main(int argc, char** argv) {
  using namespace mv3c;
  using namespace mv3c::bench;
  TraceSession trace;
  const bool full = FullRun(argc, argv);
  TpccSetup s;
  if (!full) {
    s.scale.n_items = 5000;
    s.scale.n_customers_per_d = 500;
    s.scale.preload_orders_per_d = 500;
    s.scale.preload_new_orders_per_d = 150;
  }
  s.n_txns = full ? 300000 : 15000;

  std::printf("# Figure 8(c): TPC-C, 10 concurrent txns, %llu txns\n",
              static_cast<unsigned long long>(s.n_txns));
  TablePrinter table({"warehouses", "mv3c_tps", "omvcc_tps", "occ_tps",
                      "silo_tps", "mv3c/omvcc"});
  for (uint64_t w : {1, 2, 4, 6, 10}) {
    s.scale.n_warehouses = w;
    const RunResult m = RunTpcc(kMv3c, 10, s);
    const RunResult o = RunTpcc(kOmvcc, 10, s);
    const RunResult occ = RunTpccSv<OccEngine>(10, s);
    const RunResult silo = RunTpccSv<SiloEngine>(10, s);
    table.Row({Fmt(w), Fmt(m.Tps(), 0), Fmt(o.Tps(), 0), Fmt(occ.Tps(), 0),
               Fmt(silo.Tps(), 0), Fmt(m.Tps() / o.Tps(), 2)});
    EmitRunJson("fig8c", "mv3c", 10, m);
    EmitRunJson("fig8c", "omvcc", 10, o);
    EmitRunJson("fig8c", "occ", 10, occ);
    EmitRunJson("fig8c", "silo", 10, silo);
  }
  return 0;
}
