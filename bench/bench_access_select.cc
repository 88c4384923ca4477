// E5 — cost-based access-path selection: "the B-tree access path will
// return a low cost if there is a predicate on the key of the B-tree, and
// the R-tree access path will recognize the ENCLOSES predicate and report
// a low cost."
//
// A relation with a B-tree (id), a hash (category), and an R-tree (bbox)
// access path. For each predicate class the bench reports which path the
// planner chose and measures every usable path: the full scan
// (BM_ForcedFullScan/<kind>) and the attachment path the predicate can use
// (BM_ForcedAccessPath/<kind>). The reproduction holds if the chosen path
// is also the fastest measured; bench/check_chosen_path.py checks it.

#include <benchmark/benchmark.h>

#include "bench/bench_util.h"
#include "src/query/executor.h"
#include "src/query/planner.h"

namespace dmx {
namespace bench {
namespace {

constexpr int64_t kRows = 50000;

Schema SpatialSchema() {
  return Schema({{"id", TypeId::kInt64, false},
                 {"category", TypeId::kString, true},
                 {"xmin", TypeId::kDouble, false},
                 {"ymin", TypeId::kDouble, false},
                 {"xmax", TypeId::kDouble, false},
                 {"ymax", TypeId::kDouble, false}});
}

struct Fixture {
  Fixture() : dir("access") {
    DatabaseOptions options;
    options.dir = dir.path();
    options.buffer_pool_pages = 4096;
    BenchCheck(Database::Open(options, &db), "open");
    Transaction* txn = db->Begin();
    BenchCheck(db->CreateRelation(txn, "objects", SpatialSchema(), "heap",
                                  {}),
               "create");
    BenchCheck(db->Commit(txn), "ddl");
    txn = db->Begin();
    for (int64_t i = 0; i < kRows; ++i) {
      double x = static_cast<double>(i % 1000);
      double y = static_cast<double>((i / 1000) % 1000);
      BenchCheck(db->Insert(txn, "objects",
                            {Value::Int(i),
                             Value::String("c" + std::to_string(i % 50)),
                             Value::Double(x), Value::Double(y),
                             Value::Double(x + 2), Value::Double(y + 2)}),
                 "load");
    }
    BenchCheck(db->Commit(txn), "load commit");
    txn = db->Begin();
    BenchCheck(db->CreateAttachment(txn, "objects", "btree_index",
                                    {{"fields", "id"}}),
               "btree");
    BenchCheck(db->CreateAttachment(txn, "objects", "hash_index",
                                    {{"fields", "category"}}),
               "hash");
    BenchCheck(db->CreateAttachment(txn, "objects", "rtree_index",
                                    {{"fields", "xmin,ymin,xmax,ymax"}}),
               "rtree");
    BenchCheck(db->Commit(txn), "ddl2");
    BenchCheck(db->FindRelation("objects", &desc), "find");
  }

  TempDir dir;
  std::unique_ptr<Database> db;
  const RelationDescriptor* desc;
};

Fixture* F() {
  static Fixture* fixture = new Fixture();
  return fixture;
}

ExprPtr PredicateFor(int kind) {
  switch (kind) {
    case 0:  // equality on the B-tree key
      return Expr::Cmp(ExprOp::kEq, 0, Value::Int(kRows / 2));
    case 1:  // range on the B-tree key (1% of rows)
      return Expr::And(
          Expr::Cmp(ExprOp::kGe, 0, Value::Int(kRows / 2)),
          Expr::Cmp(ExprOp::kLt, 0, Value::Int(kRows / 2 + kRows / 100)));
    case 2:  // equality on the hashed column
      return Expr::Cmp(ExprOp::kEq, 1, Value::String("c7"));
    case 3:  // spatial overlap (small window)
      return Expr::Spatial(
          ExprOp::kOverlaps,
          {Expr::Field(2), Expr::Field(3), Expr::Field(4), Expr::Field(5)},
          {Expr::Const(Value::Double(500)), Expr::Const(Value::Double(20)),
           Expr::Const(Value::Double(510)), Expr::Const(Value::Double(26))});
    default:  // predicate on an unindexed expression: full scan expected
      return Expr::Cmp(ExprOp::kGt, 3, Value::Double(990.0));
  }
}

const char* KindName(int kind) {
  switch (kind) {
    case 0: return "eq_id";
    case 1: return "range_id";
    case 2: return "eq_category";
    case 3: return "spatial_overlap";
    default: return "unindexed";
  }
}

uint64_t Execute(Database* db, Transaction* txn, const BoundPlan& plan) {
  AccessSource source(db, txn, &plan);
  Row row;
  uint64_t n = 0;
  while (source.Next(&row).ok()) ++n;
  return n;
}

void BM_PlannerChosenPath(benchmark::State& state) {
  Fixture* fixture = F();
  Database* db = fixture->db.get();
  const int kind = static_cast<int>(state.range(0));
  ExprPtr pred = PredicateFor(kind);
  BoundPlan plan;
  plan.relation = db->catalog()->Snapshot(fixture->desc->name);
  {
    Transaction* txn = db->Begin();
    BenchCheck(PlanAccess(db, txn, fixture->desc, pred, &plan.access),
               "plan");
    BenchCheck(db->Commit(txn), "commit");
  }
  state.SetLabel(std::string(KindName(kind)) + " -> " +
                 plan.access.DebugString(db->registry()));
  uint64_t rows = 0;
  for (auto _ : state) {
    Transaction* txn = db->Begin();
    rows = Execute(db, txn, plan);
    BenchCheck(db->Commit(txn), "commit");
  }
  state.counters["rows"] = static_cast<double>(rows);
  state.counters["est_cost"] = plan.access.cost.total();
}
BENCHMARK(BM_PlannerChosenPath)
    ->Arg(0)->Arg(1)->Arg(2)->Arg(3)->Arg(4)
    ->Unit(benchmark::kMicrosecond);

void BM_ForcedFullScan(benchmark::State& state) {
  Fixture* fixture = F();
  Database* db = fixture->db.get();
  const int kind = static_cast<int>(state.range(0));
  BoundPlan plan;
  plan.relation = db->catalog()->Snapshot(fixture->desc->name);
  plan.access.path = AccessPathId::StorageMethod();
  plan.access.spec.filter = PredicateFor(kind);
  state.SetLabel(KindName(kind));
  uint64_t rows = 0;
  for (auto _ : state) {
    Transaction* txn = db->Begin();
    rows = Execute(db, txn, plan);
    BenchCheck(db->Commit(txn), "commit");
  }
  state.counters["rows"] = static_cast<double>(rows);
}
BENCHMARK(BM_ForcedFullScan)
    ->Arg(0)->Arg(1)->Arg(2)->Arg(3)->Arg(4)
    ->Unit(benchmark::kMicrosecond);

// The one attachment path usable for class `kind` (each class in this
// fixture has exactly one), forced whatever the planner would choose.
void BM_ForcedAccessPath(benchmark::State& state) {
  Fixture* fixture = F();
  Database* db = fixture->db.get();
  const int kind = static_cast<int>(state.range(0));
  ExprPtr pred = PredicateFor(kind);
  BoundPlan plan;
  plan.relation = db->catalog()->Snapshot(fixture->desc->name);
  {
    Transaction* txn = db->Begin();
    std::vector<ExprPtr> conjuncts;
    SplitConjuncts(pred, &conjuncts);
    std::vector<AccessCandidate> candidates;
    BenchCheck(EnumerateAccessPaths(db, txn, fixture->desc, conjuncts,
                                    &candidates),
               "enumerate");
    std::vector<AccessPathId> paths;
    for (const AccessCandidate& c : candidates) {
      if (!c.path.is_storage_method()) paths.push_back(c.path);
    }
    if (paths.size() != 1) {
      BenchCheck(Status::Internal("class " + std::to_string(kind) + " has " +
                                  std::to_string(paths.size()) +
                                  " usable attachment paths, expected 1"),
                 "forced path");
    }
    BenchCheck(PlanAccess(db, txn, fixture->desc, pred, &plan.access,
                          nullptr, &paths[0]),
               "force");
    BenchCheck(db->Commit(txn), "commit");
  }
  state.SetLabel(std::string(KindName(kind)) + " -> " +
                 plan.access.DebugString(db->registry()));
  uint64_t rows = 0;
  for (auto _ : state) {
    Transaction* txn = db->Begin();
    rows = Execute(db, txn, plan);
    BenchCheck(db->Commit(txn), "commit");
  }
  state.counters["rows"] = static_cast<double>(rows);
}
BENCHMARK(BM_ForcedAccessPath)
    ->Arg(0)->Arg(1)->Arg(2)->Arg(3)
    ->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace bench
}  // namespace dmx

DMX_BENCH_MAIN("access_select")
