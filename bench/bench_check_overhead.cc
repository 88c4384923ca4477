// Cost of the CHECK consistency sweep (DESIGN.md §9): what a full
// `CheckRelation` pass costs as a function of row count and of which
// components must be cross-checked against the base relation. The sweep
// is read-only and runs under a relation S lock, so this is the price of
// a background integrity scrub on a live system.

#include <benchmark/benchmark.h>

#include <string>

#include "bench/bench_util.h"

namespace dmx {
namespace bench {
namespace {

void RunCheck(Database* db, benchmark::State& state) {
  for (auto _ : state) {
    Transaction* txn = db->Begin();
    CheckResult check;
    BenchCheck(db->CheckRelation(txn, "bench", &check), "check");
    BenchCheck(db->Commit(txn), "commit");
    if (!check.clean) state.SkipWithError("CHECK found damage");
    benchmark::DoNotOptimize(check.items);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}

// Storage-method verify only: one pass over the heap, every record
// revalidated (and every page checksum re-checked on the way in).
void BM_CheckStorageOnly(benchmark::State& state) {
  ScopedDb sdb(static_cast<uint64_t>(state.range(0)));
  RunCheck(sdb.db(), state);
}
BENCHMARK(BM_CheckStorageOnly)->Arg(10000)->Arg(100000)
    ->Unit(benchmark::kMillisecond);

// Plus a B-tree index: the verifier walks the tree structure and then
// probes it once per base record (membership both ways).
void BM_CheckWithBtree(benchmark::State& state) {
  ScopedDb sdb(static_cast<uint64_t>(state.range(0)));
  Transaction* ddl = sdb.db()->Begin();
  BenchCheck(sdb.db()->CreateAttachment(ddl, "bench", "btree_index",
                                        {{"fields", "id"}}),
             "create index");
  BenchCheck(sdb.db()->Commit(ddl), "commit ddl");
  RunCheck(sdb.db(), state);
}
BENCHMARK(BM_CheckWithBtree)->Arg(10000)->Arg(100000)
    ->Unit(benchmark::kMillisecond);

// Plus a unique constraint on top of the index: its verify recomputes the
// key-count map from a second base scan and compares it to the
// in-memory state.
void BM_CheckWithBtreeAndUnique(benchmark::State& state) {
  ScopedDb sdb(static_cast<uint64_t>(state.range(0)));
  Transaction* ddl = sdb.db()->Begin();
  BenchCheck(sdb.db()->CreateAttachment(ddl, "bench", "btree_index",
                                        {{"fields", "id"}}),
             "create index");
  BenchCheck(sdb.db()->CreateAttachment(ddl, "bench", "unique",
                                        {{"fields", "id"}}),
             "create unique");
  BenchCheck(sdb.db()->Commit(ddl), "commit ddl");
  RunCheck(sdb.db(), state);
}
BENCHMARK(BM_CheckWithBtreeAndUnique)->Arg(10000)->Arg(100000)
    ->Unit(benchmark::kMillisecond);

// A hash index on a 10-value column: every base record probes a key that
// 1/10th of the table shares, so a verifier that walks all entries under
// the key is quadratic in the rows per key.
void BM_CheckWithLowCardinalityHash(benchmark::State& state) {
  ScopedDb sdb;
  Transaction* txn = sdb.db()->Begin();
  for (int64_t i = 0; i < state.range(0); ++i) {
    BenchCheck(sdb.db()->Insert(txn, "bench",
                                {Value::Int(i),
                                 Value::String("c" + std::to_string(i % 10)),
                                 Value::Double(static_cast<double>(i)),
                                 Value::String("p")}),
               "load insert");
  }
  BenchCheck(sdb.db()->CreateAttachment(txn, "bench", "hash_index",
                                        {{"fields", "category"}}),
             "create hash index");
  BenchCheck(sdb.db()->Commit(txn), "commit load");
  RunCheck(sdb.db(), state);
}
BENCHMARK(BM_CheckWithLowCardinalityHash)->Arg(25000)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace bench
}  // namespace dmx

DMX_BENCH_MAIN("check_overhead")
