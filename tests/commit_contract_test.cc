// Commit-publication contract (Definition 2.2 and the §2.4.1 move), pinned
// at the Transaction/TransactionManager level: which version of each
// object survives, the union column mask it carries, the merge of columns
// outside that union from the latest committed version, the order of the
// recently-committed record, and how many versions go to the GC. Also
// guards the cost of publication: linear-ish in the write-set size and,
// once warm, free of scratch allocation.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include <gtest/gtest.h>

#include "mvcc/table.h"
#include "mvcc/transaction.h"
#include "mvcc/transaction_manager.h"

// Allocation counter for the steady-state test: every global operator new
// in this binary bumps it while counting is switched on.
namespace {
std::atomic<bool> g_count_allocs{false};
std::atomic<uint64_t> g_allocs{0};

// Out of line so the compiler does not pair this free() with the operator
// new it replaces (-Wmismatched-new-delete).
[[gnu::noinline]] void FreeBlock(void* p) { std::free(p); }
}  // namespace

void* operator new(std::size_t n) {
  if (g_count_allocs.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { FreeBlock(p); }
void operator delete(void* p, std::size_t) noexcept { FreeBlock(p); }

namespace mv3c {
namespace {

// Timing ratios and allocation counts mean nothing under a sanitizer's
// instrumented allocator and slowed memory accesses.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kUnderSanitizer = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
constexpr bool kUnderSanitizer = true;
#else
constexpr bool kUnderSanitizer = false;
#endif
#else
constexpr bool kUnderSanitizer = false;
#endif

constexpr int kColA = 0;
constexpr int kColB = 1;
constexpr int kColC = 2;
const ColumnMask kA = ColumnMask::Of(kColA);
const ColumnMask kB = ColumnMask::Of(kColB);
const ColumnMask kC = ColumnMask::Of(kColC);

struct Row {
  int64_t a = 0;
  int64_t b = 0;
  int64_t c = 0;

  void MergeFrom(const Row& base, ColumnMask modified) {
    if (!modified.Contains(kColA)) a = base.a;
    if (!modified.Contains(kColB)) b = base.b;
    if (!modified.Contains(kColC)) c = base.c;
  }
};

using RowTable = Table<int64_t, Row>;
using RowVersion = Version<Row>;

const Row& DataOf(const VersionBase* v) {
  return static_cast<const RowVersion*>(v)->data();
}

bool AlwaysValid(CommittedRecord*) { return true; }

class CommitContractTest : public ::testing::Test {
 protected:
  CommitContractTest() : table_("rows", 64) {}

  void SeedRow(int64_t key, Row row) {
    Transaction t(&mgr_);
    mgr_.Begin(&t);
    ASSERT_EQ(t.Insert(table_, key, row), WriteStatus::kOk);
    ASSERT_TRUE(mgr_.TryCommit(&t, AlwaysValid));
  }

  Row ReadCommitted(int64_t key) {
    Transaction t(&mgr_);
    mgr_.Begin(&t);
    const RowVersion* v = t.ReadVersion(table_, table_.Find(key));
    EXPECT_NE(v, nullptr);
    const Row row = v != nullptr ? v->data() : Row{};
    mgr_.CommitReadOnly(&t);
    return row;
  }

  RowVersion* Update(Transaction& t, int64_t key, Row row, ColumnMask mask,
                     bool blind = false,
                     WwPolicy policy = WwPolicy::kFailFast) {
    RowVersion* v = nullptr;
    EXPECT_EQ(t.Update(table_, table_.Find(key), row, mask, blind, policy, &v),
              WriteStatus::kOk);
    return v;
  }

  TransactionManager mgr_;
  RowTable table_;
};

// Several partial-mask writes to one object interleaved with writes to
// others: the newest version per object survives, carries the union of its
// object's masks, and takes the columns outside that union from the latest
// committed version. The record lists survivors in reverse undo order.
TEST_F(CommitContractTest, NewestVersionSurvivesWithUnionMaskAndMerge) {
  SeedRow(1, {1, 2, 3});
  SeedRow(2, {4, 5, 6});
  Transaction t(&mgr_);
  mgr_.Begin(&t);
  RowVersion* x1 = Update(t, 1, {10, 2, 3}, kA);
  RowVersion* y1 = Update(t, 2, {4, 20, 6}, kB);
  RowVersion* x2 = Update(t, 1, {10, 11, 3}, kB);
  RowVersion* z = nullptr;
  ASSERT_EQ(t.Insert(table_, 3, Row{7, 8, 9}, nullptr, &z), WriteStatus::kOk);
  // Stale values in columns outside each object's union (x3.c, y2.a) must
  // be replaced by the committed ones; x3's own mask is only {a}, so only
  // the union keeps x2's write to b.
  RowVersion* y2 = Update(t, 2, {99, 20, 21}, kC);
  RowVersion* x3 = Update(t, 1, {12, 11, 99}, kA);
  ASSERT_EQ(t.undo_buffer().size(), 6u);

  const size_t retired_before = mgr_.gc().PendingCount();
  Timestamp cts = 0;
  ASSERT_TRUE(mgr_.TryCommit(&t, AlwaysValid, &cts));

  CommittedRecord* rec = mgr_.rc_head();
  ASSERT_NE(rec, nullptr);
  EXPECT_EQ(rec->commit_ts, cts);
  ASSERT_EQ(rec->versions.size(), 3u);
  EXPECT_EQ(rec->versions[0], x3);
  EXPECT_EQ(rec->versions[1], y2);
  EXPECT_EQ(rec->versions[2], z);
  EXPECT_EQ(x3->modified_columns(), kA | kB);
  EXPECT_EQ(y2->modified_columns(), kB | kC);
  EXPECT_EQ(z->modified_columns(), ColumnMask::All());
  for (const VersionBase* v : rec->versions) EXPECT_EQ(v->ts(), cts);
  EXPECT_TRUE(x1->dead());
  EXPECT_TRUE(x2->dead());
  EXPECT_TRUE(y1->dead());
  EXPECT_EQ(mgr_.gc().PendingCount() - retired_before, 3u);
  EXPECT_TRUE(t.undo_buffer().empty());

  const Row x = ReadCommitted(1);
  EXPECT_EQ(x.a, 12);
  EXPECT_EQ(x.b, 11);
  EXPECT_EQ(x.c, 3);
  const Row y = ReadCommitted(2);
  EXPECT_EQ(y.a, 4);
  EXPECT_EQ(y.b, 20);
  EXPECT_EQ(y.c, 21);
  EXPECT_EQ(table_.Find(1)->ChainLength(), 2u);
  EXPECT_EQ(table_.Find(2)->ChainLength(), 2u);
}

// Insert, update and delete of one key in one transaction: the tombstone
// is the only survivor, with the full mask, and the key stays invisible.
TEST_F(CommitContractTest, InsertUpdateDeleteOfOneKeyPublishesTheTombstone) {
  Transaction t(&mgr_);
  mgr_.Begin(&t);
  RowTable::Object* obj = nullptr;
  RowVersion* ins = nullptr;
  ASSERT_EQ(t.Insert(table_, 5, Row{1, 1, 1}, &obj, &ins), WriteStatus::kOk);
  RowVersion* upd = Update(t, 5, {2, 1, 1}, kA);
  RowVersion* del = nullptr;
  ASSERT_EQ(t.Delete(table_, obj, &del), WriteStatus::kOk);

  const size_t retired_before = mgr_.gc().PendingCount();
  ASSERT_TRUE(mgr_.TryCommit(&t, AlwaysValid));

  CommittedRecord* rec = mgr_.rc_head();
  ASSERT_NE(rec, nullptr);
  ASSERT_EQ(rec->versions.size(), 1u);
  EXPECT_EQ(rec->versions[0], del);
  EXPECT_TRUE(del->tombstone());
  EXPECT_FALSE(del->is_insert());
  EXPECT_EQ(del->modified_columns(), ColumnMask::All());
  EXPECT_TRUE(ins->dead());
  EXPECT_TRUE(upd->dead());
  EXPECT_EQ(mgr_.gc().PendingCount() - retired_before, 2u);
  EXPECT_EQ(obj->ChainLength(), 1u);

  Transaction reader(&mgr_);
  mgr_.Begin(&reader);
  EXPECT_EQ(reader.ReadVersion(table_, obj), nullptr);
  mgr_.CommitReadOnly(&reader);
}

// §2.4.1 move: a version buried under a foreign committed version is
// replaced by a clone at the committed boundary. The clone is what the
// record publishes, it merges the foreign commit's columns, and the
// original goes to the GC.
TEST_F(CommitContractTest, CloneMovePublishesMergedCloneAndRetiresOriginal) {
  table_.set_ww_policy(WwPolicy::kAllowMultiple);
  SeedRow(1, {1, 1, 1});
  SeedRow(2, {5, 5, 5});
  Transaction t1(&mgr_);
  Transaction t2(&mgr_);
  mgr_.Begin(&t1);
  mgr_.Begin(&t2);
  RowVersion* y = Update(t1, 2, {50, 5, 5}, kA, true, WwPolicy::kAllowMultiple);
  RowVersion* x = Update(t1, 1, {100, 1, 1}, kA, true, WwPolicy::kAllowMultiple);
  Update(t2, 1, {1, 200, 1}, kB, true, WwPolicy::kAllowMultiple);
  ASSERT_TRUE(mgr_.TryCommit(&t2, AlwaysValid));

  const size_t retired_before = mgr_.gc().PendingCount();
  ASSERT_TRUE(mgr_.TryCommit(&t1, AlwaysValid));
  CommittedRecord* rec = mgr_.rc_head();
  ASSERT_NE(rec, nullptr);
  ASSERT_EQ(rec->versions.size(), 2u);
  const VersionBase* clone = rec->versions[0];
  EXPECT_NE(clone, x);
  EXPECT_EQ(clone->object(), x->object());
  EXPECT_TRUE(x->dead());
  EXPECT_EQ(clone->modified_columns(), kA);
  EXPECT_EQ(DataOf(clone).a, 100);
  EXPECT_EQ(DataOf(clone).b, 200);
  EXPECT_EQ(rec->versions[1], y);
  EXPECT_EQ(mgr_.gc().PendingCount() - retired_before, 1u);

  const Row row = ReadCommitted(1);
  EXPECT_EQ(row.a, 100);
  EXPECT_EQ(row.b, 200);
  EXPECT_EQ(row.c, 1);
}

// Repair pruning removes exactly the pruned versions from the undo buffer
// and keeps the order of the rest, which the commit record then reverses.
TEST_F(CommitContractTest, PrunedVersionsLeaveUndoOrderIntact) {
  for (int64_t k = 1; k <= 4; ++k) SeedRow(k, {k, k, k});
  Transaction t(&mgr_);
  mgr_.Begin(&t);
  std::vector<RowVersion*> vs;
  for (int64_t k = 1; k <= 4; ++k) vs.push_back(Update(t, k, {0, 0, 0}, kA));
  const size_t retired_before = mgr_.gc().PendingCount();
  t.PruneVersion(vs[1]);
  t.PruneVersion(vs[3]);
  t.DropPrunedVersions();
  ASSERT_EQ(t.undo_buffer().size(), 2u);
  EXPECT_EQ(t.undo_buffer()[0], vs[0]);
  EXPECT_EQ(t.undo_buffer()[1], vs[2]);

  ASSERT_TRUE(mgr_.TryCommit(&t, AlwaysValid));
  // The pruned versions reach the GC with the transaction's retire list,
  // handed over once at commit; nothing else was retired.
  EXPECT_EQ(mgr_.gc().PendingCount() - retired_before, 2u);
  CommittedRecord* rec = mgr_.rc_head();
  ASSERT_EQ(rec->versions.size(), 2u);
  EXPECT_EQ(rec->versions[0], vs[2]);
  EXPECT_EQ(rec->versions[1], vs[0]);
  EXPECT_EQ(ReadCommitted(2).a, 2);
  EXPECT_EQ(ReadCommitted(3).a, 0);
}

/// Seconds to commit one transaction of `n` inserts (the inserts
/// themselves are not timed); best of three fresh databases.
double BestCommitSeconds(int64_t n) {
  double best = 1e30;
  for (int rep = 0; rep < 3; ++rep) {
    TransactionManager mgr;
    RowTable table("bulk", static_cast<size_t>(n));
    Transaction t(&mgr);
    mgr.Begin(&t);
    for (int64_t k = 0; k < n; ++k) {
      MV3C_CHECK(t.Insert(table, k, Row{k, k, k}) == WriteStatus::kOk);
    }
    const auto t0 = std::chrono::steady_clock::now();
    MV3C_CHECK(mgr.TryCommit(&t, AlwaysValid));
    const std::chrono::duration<double> dt =
        std::chrono::steady_clock::now() - t0;
    best = std::min(best, dt.count());
  }
  return best;
}

// Publication cost grows with the write set like n log n, not n^2: a 4x
// larger write set may cost at most 10x (linear ~4x plus cache effects;
// quadratic publication costs ~16x).
TEST(CommitComplexityTest, CommitTimeScalesNearLinearlyInWriteSet) {
  if (kUnderSanitizer) GTEST_SKIP() << "timing is meaningless under sanitizers";
  const double small = BestCommitSeconds(int64_t{1} << 15);
  const double large = BestCommitSeconds(int64_t{1} << 17);
  EXPECT_LT(large, 10 * small) << "2^15 inserts: " << small
                               << " s, 2^17 inserts: " << large << " s";
}

// Once its scratch has grown to the write-set size, a commit allocates
// exactly one block: the published record's version array, which outlives
// the commit (the GC frees it with the record). Every version here is the
// only one for its object, so no retirement (whose GC list allocates in
// blocks of its own) runs inside the commit.
TEST_F(CommitContractTest, SteadyStateCommitAllocatesOnlyTheRecord) {
  if (kUnderSanitizer) GTEST_SKIP() << "sanitizers replace the allocator";
  constexpr int64_t kRows = 16;
  constexpr int kCommits = 256;
  for (int64_t k = 0; k < kRows; ++k) SeedRow(k, {k, k, k});
  Transaction t(&mgr_);
  auto one_commit = [&](int i, bool count) {
    mgr_.Begin(&t);
    for (int64_t k = 0; k < kRows; ++k) Update(t, k, {i, k, k}, kA);
    if (count) g_count_allocs.store(true, std::memory_order_relaxed);
    const bool ok = mgr_.TryCommit(&t, AlwaysValid);
    g_count_allocs.store(false, std::memory_order_relaxed);
    ASSERT_TRUE(ok);
    if (i % 16 == 15) mgr_.CollectGarbage();
  };
  for (int i = 0; i < kCommits; ++i) one_commit(i, false);
  g_allocs.store(0);
  for (int i = 0; i < kCommits; ++i) one_commit(i, true);
  EXPECT_EQ(g_allocs.load(), static_cast<uint64_t>(kCommits));
}

}  // namespace
}  // namespace mv3c
