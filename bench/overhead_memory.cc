// §6.2 memory overhead: MV3C adds one pointer per version (the parent-
// predicate back reference used by Repair to prune exactly the invalid
// sub-graph's versions) relative to OMVCC. The paper reports 2% extra for
// big records (Stock) up to 14% for small ones (History), ~4% overall on
// TPC-C. This bench reports the per-table version sizes of this
// implementation and the overall overhead weighted by the standard mix's
// version counts.
//
// It also *measures* allocator behavior: a short Banking window run under
// each engine, reporting throughput together with the VersionArena
// counters (slabs created/retired/recycled, bytes bump-allocated, peak held
// bytes) as one JSON line per engine, so the perf trajectory
// (BENCH_*.json) can track protocol memory overhead separately from
// allocator churn.

#include <cstdio>

#include "bench/bench_util.h"
#include "bench/runners.h"
#include "mvcc/version.h"
#include "workloads/tpcc.h"

namespace {

struct TableEntry {
  const char* name;
  size_t row_bytes;
  /// Versions created per 100 transactions of the standard mix (New-Order
  /// writes district+order+new-order+10 stock+10 order lines; Payment
  /// writes warehouse+district+customer+history; Delivery ~4% of the mix
  /// touches ~10 orders' worth).
  double versions_per_100_txns;
};

void PrintArenaJson(const char* engine, const mv3c::bench::RunResult& r) {
  std::printf(
      "{\"bench\":\"overhead_memory\",\"engine\":\"%s\",\"window\":8,"
      "\"tps\":%.0f,\"committed\":%llu,"
      "\"versions_discarded\":%llu,"  // native counter via the obs registry
      "\"arena_slabs_created\":%llu,\"arena_slabs_retired\":%llu,"
      "\"arena_slabs_recycled\":%llu,\"arena_allocations\":%llu,"
      "\"arena_bytes_bumped\":%llu,\"arena_peak_held_bytes\":%llu,"
      "\"arena_retirements_deferred\":%llu}\n",
      engine, r.Tps(),
      static_cast<unsigned long long>(r.committed),
      static_cast<unsigned long long>(r.Counter("versions_discarded")),
      static_cast<unsigned long long>(r.arena_slabs_created),
      static_cast<unsigned long long>(r.arena_slabs_retired),
      static_cast<unsigned long long>(r.arena_slabs_recycled),
      static_cast<unsigned long long>(r.arena_allocations),
      static_cast<unsigned long long>(r.arena_bytes_bumped),
      static_cast<unsigned long long>(r.arena_peak_held_bytes),
      static_cast<unsigned long long>(r.arena_retirements_deferred));
}

}  // namespace

int main() {
  using namespace mv3c;
  using namespace mv3c::bench;
  using namespace mv3c::tpcc;

  // One MV3C version = one OMVCC version + the parent-predicate pointer.
  constexpr size_t kExtraPointer = sizeof(void*);

  const TableEntry tables[] = {
      {"WAREHOUSE", sizeof(WarehouseRow), 43},
      {"DISTRICT", sizeof(DistrictRow), 45 + 43},
      {"CUSTOMER", sizeof(CustomerRow), 43 + 4 * 10},
      {"HISTORY", sizeof(HistoryRow), 43},
      {"ORDER", sizeof(OrderRow), 45 + 4 * 10},
      {"NEW-ORDER", sizeof(NewOrderRow), 45 + 4 * 10},
      {"ORDER-LINE", sizeof(OrderLineRow), 45 * 10 + 4 * 100},
      {"STOCK", sizeof(StockRow), 45 * 10},
  };

  std::printf("# §6.2: per-version memory, MV3C vs OMVCC (bytes)\n");
  TablePrinter table({"table", "row_bytes", "omvcc_version", "mv3c_version",
                      "overhead_pct"});
  double weighted_mv3c = 0, weighted_omvcc = 0;
  for (const TableEntry& t : tables) {
    // Version<Row> layout: header + payload; OMVCC foregoes the parent-
    // predicate pointer.
    const size_t mv3c_bytes = sizeof(VersionBase) + t.row_bytes;
    const size_t omvcc_bytes = mv3c_bytes - kExtraPointer;
    table.Row({t.name, Fmt(static_cast<uint64_t>(t.row_bytes)),
               Fmt(static_cast<uint64_t>(omvcc_bytes)),
               Fmt(static_cast<uint64_t>(mv3c_bytes)),
               Fmt(100.0 * kExtraPointer / omvcc_bytes, 1)});
    weighted_mv3c += t.versions_per_100_txns * mv3c_bytes;
    weighted_omvcc += t.versions_per_100_txns * omvcc_bytes;
  }
  std::printf("\noverall TPC-C version-memory overhead (mix-weighted): "
              "%.2f%%\n",
              (weighted_mv3c / weighted_omvcc - 1.0) * 100.0);
  std::printf("(version header: %zu bytes incl. vtable; extra MV3C field: "
              "%zu bytes)\n",
              sizeof(VersionBase), kExtraPointer);

  // Measured allocator churn: contended Banking (all transfers touch the
  // fee account) under the window methodology, CI scale by default.
  const bool full = FullRun();
  BankingSetup setup;
  // Few accounts -> long per-account chains -> inline truncation retires
  // superseded versions during the run, so slab retirement/recycling (not
  // just creation) shows up in the counters below.
  setup.accounts = 100;
  setup.n_txns = full ? 200000 : 20000;
  std::printf("\n# version allocator churn, Banking window 8\n");
  const RunResult mv3c_run = RunBankingMv3c(/*window=*/8, setup);
  const RunResult omvcc_run = RunBankingOmvcc(/*window=*/8, setup);
  PrintArenaJson("mv3c", mv3c_run);
  PrintArenaJson("omvcc", omvcc_run);
  EmitRunJson("overhead_memory", "mv3c", 8, mv3c_run);
  EmitRunJson("overhead_memory", "omvcc", 8, omvcc_run);
  return 0;
}
