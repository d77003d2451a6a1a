// Positive control: headers that define class layouts shared with the
// libraries compile with no -D flags at all, so a translation unit built
// outside the project's CMake tree sees the same layouts as the libraries
// it links against.
#include "mvcc/transaction_manager.h"
#include "mvcc/version_arena.h"
#include "obs/trace.h"
#include "server/workload_host.h"
#include "wal/catalog.h"
#include "workloads/wal_registry.h"

int main() {
  mv3c::TransactionManager mgr;
  mv3c::wal::Catalog catalog;
  return mgr.wal() == nullptr ? 0 : 1;
}
