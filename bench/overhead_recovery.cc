// Recovery time vs history length (DESIGN §5g, EXPERIMENTS §recovery):
// grow a banking WAL history by a multiple of a base transaction count and
// time the two recovery flavors, each against the directory layout its
// deployment mode actually produces:
//
//   genesis      — no checkpoints ever taken; recovery replays the whole
//                  log from the first segment. Cost is linear in history
//                  length by construction.
//   ckpt-suffix  — checkpoints at a fixed cadence with WAL truncation ON
//                  (the default); the directory holds the newest image
//                  plus a bounded suffix. The final chunk is deliberately
//                  left un-checkpointed so the suffix replay is non-empty
//                  but constant-size at every multiple.
//
// The acceptance bar for ISSUE 6: as history grows >= 10x, genesis grows
// with it while ckpt-suffix stays flat.

#include <filesystem>
#include <string>
#include <vector>

#include "bench/runners.h"
#include "wal/catalog.h"
#include "wal/checkpoint.h"
#include "wal/log_manager.h"
#include "wal/state_hash.h"
#include "workloads/wal_registry.h"

namespace mv3c::bench {
namespace {

namespace fs = std::filesystem;

struct HistoryStats {
  uint64_t txns = 0;
  uint64_t log_bytes = 0;
  uint64_t checkpoints = 0;
};

/// Writes `multiple * base_txns` of banking history into `dir` in chunks of
/// `base_txns / 2`. With checkpoints enabled, a round is taken after every
/// chunk except the last (truncating the WAL as it goes), so the
/// un-replayed suffix is exactly one chunk no matter the multiple.
HistoryStats WriteHistory(const fs::path& dir, const BankingSetup& s,
                          uint64_t multiple, bool with_checkpoints) {
  fs::remove_all(dir);
  fs::create_directories(dir);  // LogManager's mkdir is single-level
  HistoryStats out;
  TransactionManager mgr;
  wal::WalConfig cfg;
  cfg.dir = dir.string();
  cfg.ack = wal::WalConfig::Ack::kAsync;
  // Rotate often enough that truncation can retire closed segments; with
  // the default (huge) segment size the whole history stays in one open
  // segment and the checkpoint path would re-scan it all.
  cfg.segment_bytes = 1 << 20;
  mgr.EnableWal(cfg);
  banking::BankingDb db(&mgr, s.accounts, s.initial_balance);
  wal::Catalog cat;
  RegisterWalTables(cat, db);
  db.Load();

  std::unique_ptr<wal::Checkpointer> ck;
  if (with_checkpoints) {
    wal::CheckpointConfig ck_cfg;
    ck_cfg.dir = dir.string();
    ck_cfg.interval_ms = 0;  // manual, chunk-aligned rounds
    ck = std::make_unique<wal::Checkpointer>(ck_cfg, mgr.wal(),
                                             cat.CheckpointSourceProvider());
  }

  banking::TransferGenerator gen(s.accounts, s.fee_percent, s.seed);
  const uint64_t chunk = s.n_txns / 2;
  const uint64_t total = s.n_txns * multiple;
  for (uint64_t done = 0; done < total; done += chunk) {
    std::vector<banking::TransferParams> stream(chunk);
    for (auto& p : stream) p = gen.Next();
    (void)Drive<Mv3cExecutor>(
        10, chunk,
        [&](...) {
          return MakeMvccExecutor(&mgr, kMv3c);
        },
        [&](uint64_t i) { return banking::Mv3cTransferMoney(db, stream[i]); },
        [&] { mgr.CollectGarbage(); });
    if (!mgr.wal()->FlushNow()) {
      std::fprintf(stderr, "history write failed (wal flush)\n");
      std::exit(1);
    }
    if (ck && done + chunk < total) {
      if (!ck->TakeCheckpoint()) {
        std::fprintf(stderr, "history write failed (checkpoint)\n");
        std::exit(1);
      }
      ++out.checkpoints;
    }
  }
  mgr.DisableWal();
  out.txns = total;
  for (const auto& e : fs::directory_iterator(dir)) {
    if (e.path().filename().string().rfind("wal-", 0) == 0) {
      out.log_bytes += fs::file_size(e.path());
    }
  }
  return out;
}

struct TimedRecovery {
  double seconds = 0;
  wal::RecoveryReport report;
};

TimedRecovery TimeRecovery(const fs::path& dir, const BankingSetup& s,
                           bool use_checkpoints) {
  TimedRecovery out;
  TransactionManager mgr;
  banking::BankingDb db(&mgr, s.accounts, s.initial_balance);
  wal::Catalog cat;
  RegisterWalTables(cat, db);
  Timer t;
  out.report = use_checkpoints ? cat.RecoverWithCheckpoints(dir.string())
                               : cat.Recover(dir.string());
  out.seconds = t.Seconds();
  // Sanity: recovery must land on a conserving state or the timing is
  // meaningless.
  if (db.TotalBalance() != s.accounts * s.initial_balance) {
    std::fprintf(stderr, "recovery broke conservation\n");
    std::exit(1);
  }
  return out;
}

RunResult AsRunResult(const TimedRecovery& r) {
  RunResult out;
  out.seconds = r.seconds;
  out.committed = r.report.records_applied +
                  r.report.checkpoint_records_loaded;  // rows recovered
  return out;
}

}  // namespace
}  // namespace mv3c::bench

int main(int argc, char** argv) {
  using namespace mv3c::bench;
  TraceSession trace;
  const bool full = FullRun(argc, argv);
  const fs::path base = fs::temp_directory_path() / "mv3c_overhead_recovery";
  const fs::path dir_genesis = base / "genesis";
  const fs::path dir_ckpt = base / "ckpt";

  BankingSetup s;
  s.accounts = full ? 50000 : 10000;
  s.fee_percent = 100;
  s.n_txns = full ? 200000 : 30000;  // base history; multiples scale it

  std::printf("# §5g: recovery time vs history length (banking; ckpt dir "
              "truncates at a fixed cadence of base/2 txns, final chunk "
              "left as replay suffix)\n");
  TablePrinter table({"history_x", "txns", "genesis_log_mb", "ckpt_log_mb",
                      "ckpts", "genesis_ms", "ckpt_ms", "genesis_rows",
                      "ckpt_rows", "suffix_rows"});

  const std::vector<uint64_t> multiples = {1, 2, 5, 10};
  double genesis_first = 0, genesis_last = 0;
  double ckpt_first = 0, ckpt_last = 0;
  for (const uint64_t m : multiples) {
    const HistoryStats hg = WriteHistory(dir_genesis, s, m, false);
    const HistoryStats hc = WriteHistory(dir_ckpt, s, m, true);
    const TimedRecovery genesis = TimeRecovery(dir_genesis, s, false);
    const TimedRecovery ckpt = TimeRecovery(dir_ckpt, s, true);
    table.Row({Fmt(m), Fmt(hg.txns),
               Fmt(static_cast<double>(hg.log_bytes) / (1024.0 * 1024.0), 1),
               Fmt(static_cast<double>(hc.log_bytes) / (1024.0 * 1024.0), 1),
               Fmt(hc.checkpoints), Fmt(genesis.seconds * 1e3, 1),
               Fmt(ckpt.seconds * 1e3, 1),
               Fmt(genesis.report.records_applied),
               Fmt(ckpt.report.checkpoint_records_loaded),
               Fmt(ckpt.report.records_applied)});
    EmitRunJson("overhead_recovery", "genesis-replay",
                static_cast<size_t>(m), AsRunResult(genesis));
    EmitRunJson("overhead_recovery", "ckpt-suffix", static_cast<size_t>(m),
                AsRunResult(ckpt));
    if (m == multiples.front()) {
      genesis_first = genesis.seconds;
      ckpt_first = ckpt.seconds;
    }
    if (m == multiples.back()) {
      genesis_last = genesis.seconds;
      ckpt_last = ckpt.seconds;
    }
  }

  // The headline: growth factor of each path across a 10x history spread.
  std::printf("growth over %llux history: genesis %.1fx, ckpt-suffix "
              "%.1fx\n",
              static_cast<unsigned long long>(multiples.back()),
              genesis_last / genesis_first, ckpt_last / ckpt_first);

  fs::remove_all(base);
  return 0;
}
