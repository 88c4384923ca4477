// E4 — "it is important to retain the translations of queries into query
// execution plans ... This query binding approach avoids the non-trivial
// costs of accessing the relation descriptions and optimizing the query at
// query execution time."
//
// Runs the same point query (a) through the bound-plan cache, (b)
// re-planned from the catalog on every execution, and (c) measures the
// re-translation triggered when DDL invalidates a dependent plan. At the
// SQL layer it compares (d) an ad hoc point select with (e) the same select
// written with `?`. The session's plan cache lifts the literal out of (d),
// so every id is one statement shape that skips the parser; on this
// non-unique index the B-tree counts the literal key's duplicates to cost
// the probe, so (d) plans each execution, while (e) reuses one bound plan.

#include <benchmark/benchmark.h>

#include "bench/bench_util.h"
#include "src/query/executor.h"
#include "src/query/plan_cache.h"
#include "src/query/sql.h"

namespace dmx {
namespace bench {
namespace {

constexpr uint64_t kRows = 20000;

struct Fixture {
  Fixture() : db(kRows) {
    Transaction* txn = db.db()->Begin();
    BenchCheck(db.db()->CreateAttachment(txn, "bench", "btree_index",
                                         {{"fields", "id"}}),
               "index");
    BenchCheck(db.db()->Commit(txn), "ddl");
  }
  ScopedDb db;
};

Fixture* F() {
  static Fixture* fixture = new Fixture();
  return fixture;
}

ExprPtr PointPredicate() {
  return Expr::Cmp(ExprOp::kEq, 0, Value::Int(777));
}

uint64_t RunPlan(Database* db, Transaction* txn, const BoundPlan* plan) {
  AccessSource source(db, txn, plan);
  Row row;
  uint64_t n = 0;
  while (source.Next(&row).ok()) ++n;
  return n;
}

void BM_CachedBoundPlan(benchmark::State& state) {
  Database* db = F()->db.db();
  PlanCache cache(db);
  ExprPtr pred = PointPredicate();
  uint64_t rows = 0;
  for (auto _ : state) {
    Transaction* txn = db->Begin();
    std::shared_ptr<const BoundPlan> plan;
    BenchCheck(cache.GetAccessPlan(txn, "bench", pred, "q", &plan), "get");
    rows += RunPlan(db, txn, plan.get());
    BenchCheck(db->Commit(txn), "commit");
  }
  state.counters["plan_cache_hits"] =
      static_cast<double>(cache.stats().hits);
  benchmark::DoNotOptimize(rows);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CachedBoundPlan);

void BM_RePlanEveryExecution(benchmark::State& state) {
  Database* db = F()->db.db();
  const RelationDescriptor* desc = F()->db.desc();
  ExprPtr pred = PointPredicate();
  uint64_t rows = 0;
  for (auto _ : state) {
    Transaction* txn = db->Begin();
    // Catalog access + full access-path enumeration, every time.
    BoundPlan plan;
    BenchCheck(db->FindRelation("bench", &plan.relation), "catalog");
    BenchCheck(PlanAccess(db, txn, plan.relation.get(), pred, &plan.access),
               "plan");
    rows += RunPlan(db, txn, &plan);
    BenchCheck(db->Commit(txn), "commit");
  }
  (void)desc;
  benchmark::DoNotOptimize(rows);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RePlanEveryExecution);

// Invalidation: each iteration performs DDL (attach/drop a hash index on a
// side table named in the plan's dependency) and then re-executes, forcing
// a re-translation.
void BM_InvalidationRetranslate(benchmark::State& state) {
  Database* db = F()->db.db();
  PlanCache cache(db);
  ExprPtr pred = PointPredicate();
  uint64_t rows = 0;
  for (auto _ : state) {
    // DDL bumps the relation version -> plan invalid.
    Transaction* ddl = db->Begin();
    uint32_t inst = 0;
    BenchCheck(db->CreateAttachment(ddl, "bench", "hash_index",
                                    {{"fields", "category"}}, &inst),
               "attach");
    BenchCheck(db->Commit(ddl), "commit ddl");
    Transaction* txn = db->Begin();
    std::shared_ptr<const BoundPlan> plan;
    BenchCheck(cache.GetAccessPlan(txn, "bench", pred, "q", &plan), "get");
    rows += RunPlan(db, txn, plan.get());
    BenchCheck(db->Commit(txn), "commit");
    Transaction* drop = db->Begin();
    BenchCheck(db->DropAttachment(drop, "bench", "hash_index", inst),
               "drop");
    BenchCheck(db->Commit(drop), "commit drop");
  }
  state.counters["retranslations"] =
      static_cast<double>(cache.stats().retranslations);
  benchmark::DoNotOptimize(rows);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_InvalidationRetranslate)->Unit(benchmark::kMillisecond);

// SQL point selects over the 20,000 ids: ad hoc (a literal per id: lex, a
// plan-cache hit on the statement's shape, and a plan of its literal form)
// or prepared (`id = ?`: lex and a plan-cache hit). As in dmx_e2e, a
// session serves 1,000 statements.
void RunSqlPointSelects(benchmark::State& state, bool prepared) {
  Database* db = F()->db.db();
  std::unique_ptr<Session> session;
  QueryResult result;
  int64_t id = 0;
  uint64_t n = 0, rows = 0, hits = 0;
  for (auto _ : state) {
    if (n++ % 1000 == 0) {
      if (session != nullptr) hits += session->plan_cache()->stats().hits;
      session = std::make_unique<Session>(db);
    }
    id = (id + 7919) % static_cast<int64_t>(kRows);
    const Status s =
        prepared ? session->Execute("SELECT * FROM bench WHERE id = ?",
                                    {Value::Int(id)}, &result)
                 : session->Execute(
                       "SELECT * FROM bench WHERE id = " + std::to_string(id),
                       &result);
    BenchCheck(s, "select");
    rows += result.rows.size();
  }
  if (session != nullptr) hits += session->plan_cache()->stats().hits;
  state.counters["plan_cache_hits"] = static_cast<double>(hits);
  state.counters["rows"] = static_cast<double>(rows);
  benchmark::DoNotOptimize(rows);
  state.SetItemsProcessed(state.iterations());
}

void BM_SqlAdhocPointSelect(benchmark::State& state) {
  RunSqlPointSelects(state, /*prepared=*/false);
}
BENCHMARK(BM_SqlAdhocPointSelect);

void BM_SqlPreparedPointSelect(benchmark::State& state) {
  RunSqlPointSelects(state, /*prepared=*/true);
}
BENCHMARK(BM_SqlPreparedPointSelect);

}  // namespace
}  // namespace bench
}  // namespace dmx

DMX_BENCH_MAIN("plan_cache")
