// Ablation (§4.1): attribute-level predicate validation. TPC-C's Payment
// and New-Order share warehouse, district and customer rows but touch
// disjoint columns; with attribute-level validation those intersections
// never conflict. Turning it off validates whole records and repairs or
// restarts transactions that did not actually interfere.

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
  s.n_txns = full ? 300000 : 10000;

  std::printf("# Ablation: §4.1 attribute-level validation, TPC-C W=1, "
              "window 16\n");
  TablePrinter table({"attr_validation", "mv3c_tps", "mv3c_repairs",
                      "omvcc_tps", "omvcc_fails"});
  for (bool enabled : {true, false}) {
    // Toggled between runs, before each run's workers start; thread
    // creation publishes the flag to them.
    g_attribute_level_validation.store(enabled, std::memory_order_relaxed);
    const RunResult m = RunTpcc(kMv3c, 16, s);
    const RunResult o = RunTpcc(kOmvcc, 16, s);
    table.Row({enabled ? "on" : "off", Fmt(m.Tps(), 0),
               Fmt(m.Counter("repair_rounds")), Fmt(o.Tps(), 0),
               Fmt(o.Counter("validation_failures") +
                   o.Counter("ww_restarts"))});
    EmitRunJson("ablation_attr_validation",
                enabled ? "mv3c-attr-on" : "mv3c-attr-off", 16, m);
    EmitRunJson("ablation_attr_validation",
                enabled ? "omvcc-attr-on" : "omvcc-attr-off", 16, o);
  }
  g_attribute_level_validation.store(true, std::memory_order_relaxed);
  return 0;
}
