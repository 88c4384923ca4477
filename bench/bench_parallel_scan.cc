// Parallel scan throughput: a 100k-row heap scan with a selective
// predicate (category = 'c7', ~1% of rows), serial vs the ParallelScanSource
// exchange at 1/2/4/8 workers, plus the partial-aggregate pushdown. The
// speedup target only materializes on multi-core hardware; on a single
// core the parallel numbers measure the exchange overhead instead (see
// EXPERIMENTS.md).

#include <benchmark/benchmark.h>

#include "bench/bench_util.h"
#include "src/query/executor.h"
#include "src/query/planner.h"

namespace dmx {
namespace bench {
namespace {

constexpr uint64_t kRows = 100000;

ScopedDb* F() {
  static ScopedDb* fixture =
      new ScopedDb(kRows, "heap", /*buffer_pool_pages=*/4096,
                   /*worker_threads=*/8);
  return fixture;
}

ExprPtr SelectivePredicate() {
  // category (field 1) = 'c7' — 1% of rows.
  return Expr::Cmp(ExprOp::kEq, 1, Value::String("c7"));
}

std::shared_ptr<BoundPlan> MakeScanPlan() {
  auto plan = std::make_shared<BoundPlan>();
  plan->relation = F()->db()->catalog()->Snapshot(F()->desc()->name);
  plan->access.path = AccessPathId::StorageMethod();
  plan->access.spec.filter = SelectivePredicate();
  return plan;
}

void BM_SerialScan(benchmark::State& state) {
  Database* db = F()->db();
  const RelationDescriptor* desc = F()->desc();
  uint64_t n = 0;
  for (auto _ : state) {
    Transaction* txn = db->Begin();
    ScanSpec spec;
    spec.filter = SelectivePredicate();
    std::unique_ptr<Scan> scan;
    BenchCheck(db->OpenScanOn(txn, desc, AccessPathId::StorageMethod(),
                              spec, &scan),
               "scan");
    n = 0;
    ScanItem item;
    while (scan->Next(&item).ok()) ++n;
    scan.reset();
    BenchCheck(db->Commit(txn), "commit");
  }
  state.counters["rows"] = static_cast<double>(n);
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(kRows));
}
BENCHMARK(BM_SerialScan)->Unit(benchmark::kMillisecond);

void BM_ParallelScan(benchmark::State& state) {
  Database* db = F()->db();
  const int workers = static_cast<int>(state.range(0));
  auto plan = MakeScanPlan();
  uint64_t n = 0;
  for (auto _ : state) {
    Transaction* txn = db->Begin();
    ParallelScanSource source(db, txn, plan.get(), workers);
    n = 0;
    Row row;
    while (source.Next(&row).ok()) ++n;
    BenchCheck(db->Commit(txn), "commit");
  }
  state.counters["rows"] = static_cast<double>(n);
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(kRows));
}
BENCHMARK(BM_ParallelScan)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond);

// Aggregation pushed below the exchange: workers emit one partial row each.
void BM_ParallelSum(benchmark::State& state) {
  Database* db = F()->db();
  const int workers = static_cast<int>(state.range(0));
  auto plan = MakeScanPlan();
  for (auto _ : state) {
    Transaction* txn = db->Begin();
    auto source =
        std::make_unique<ParallelScanSource>(db, txn, plan.get(), workers);
    source->EnablePartialAggregate(AggKind::kSum, /*column=*/2);
    ParallelAggregateMergeSource merge(std::move(source), AggKind::kSum);
    Row row;
    BenchCheck(merge.Next(&row), "merge");
    benchmark::DoNotOptimize(row.values[0].AsDouble());
    BenchCheck(db->Commit(txn), "commit");
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(kRows));
}
BENCHMARK(BM_ParallelSum)->Arg(4)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace bench
}  // namespace dmx

DMX_BENCH_MAIN("parallel_scan")
