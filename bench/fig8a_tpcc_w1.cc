// Figure 8(a): TPC-C with 1 warehouse — the highest-contention TPC-C
// configuration — across concurrency levels, comparing MV3C, OMVCC, OCC
// and SILO. The paper reports MV3C ~30% over OMVCC at 12 threads growing
// to ~2x at 64 simulated concurrent transactions (its Figure 11), with
// both MVCC engines ahead of the single-version OCC/SILO, whose restarts
// redo whole transactions and whose validation covers whole read sets.

#include "bench/runners.h"

int main(int argc, char** argv) {
  using namespace mv3c;
  using namespace mv3c::bench;
  TraceSession trace;
  const bool full = FullRun(argc, argv);
  TpccSetup s;
  s.scale.n_warehouses = 1;
  if (!full) {
    s.scale.n_items = 10000;
    s.scale.n_customers_per_d = 1000;
    s.scale.preload_orders_per_d = 1000;
    s.scale.preload_new_orders_per_d = 300;
  }
  s.n_txns = full ? 500000 : 20000;

  std::printf("# Figure 8(a): TPC-C, 1 warehouse, %llu txns\n",
              static_cast<unsigned long long>(s.n_txns));
  TablePrinter table({"concurrency", "mv3c_tps", "omvcc_tps", "occ_tps",
                      "silo_tps", "mv3c/omvcc"});
  for (size_t window : {1, 2, 4, 8, 12}) {
    const RunResult m = RunTpcc(kMv3c, window, s);
    const RunResult o = RunTpcc(kOmvcc, window, s);
    const RunResult occ = RunTpccSv<OccEngine>(window, s);
    const RunResult silo = RunTpccSv<SiloEngine>(window, s);
    table.Row({Fmt(static_cast<uint64_t>(window)), Fmt(m.Tps(), 0),
               Fmt(o.Tps(), 0), Fmt(occ.Tps(), 0), Fmt(silo.Tps(), 0),
               Fmt(m.Tps() / o.Tps(), 2)});
    EmitRunJson("fig8a", "mv3c", window, m);
    EmitRunJson("fig8a", "omvcc", window, o);
    EmitRunJson("fig8a", "occ", window, occ);
    EmitRunJson("fig8a", "silo", window, silo);
  }
  return 0;
}
