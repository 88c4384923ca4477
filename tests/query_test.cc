// Tests for the planner (cost-based access selection), the bound-plan
// cache (dependency invalidation + re-translation), and the executor.

#include <gtest/gtest.h>

#include "src/core/database.h"
#include "src/query/executor.h"
#include "src/query/plan_cache.h"
#include "src/query/planner.h"
#include "src/query/sql.h"
#include "src/sm/btree_core.h"
#include "src/sm/key_codec.h"
#include "tests/test_util.h"

namespace dmx {
namespace {

using testing::TempDir;

Schema PointsSchema() {
  return Schema({{"id", TypeId::kInt64, false},
                 {"category", TypeId::kString, true},
                 {"score", TypeId::kDouble, true}});
}

class QueryTest : public ::testing::Test {
 protected:
  QueryTest() : dir_("query") {
    DatabaseOptions options;
    options.dir = dir_.path();
    EXPECT_TRUE(Database::Open(options, &db_).ok());
    Transaction* txn = db_->Begin();
    EXPECT_TRUE(
        db_->CreateRelation(txn, "points", PointsSchema(), "heap", {}).ok());
    EXPECT_TRUE(db_->Commit(txn).ok());
    txn = db_->Begin();
    for (int i = 0; i < 200; ++i) {
      EXPECT_TRUE(db_->Insert(txn, "points",
                              {Value::Int(i),
                               Value::String(i % 2 ? "odd" : "even"),
                               Value::Double(i * 0.5)})
                      .ok());
    }
    EXPECT_TRUE(db_->Commit(txn).ok());
  }

  void AddIndex(const std::string& type, const std::string& fields) {
    Transaction* txn = db_->Begin();
    ASSERT_TRUE(
        db_->CreateAttachment(txn, "points", type, {{"fields", fields}})
            .ok());
    ASSERT_TRUE(db_->Commit(txn).ok());
  }

  // The descriptor a bound plan embeds: the catalog's object, shared.
  std::shared_ptr<const RelationDescriptor> Snapshot() {
    return db_->catalog()->Snapshot("points");
  }

  // The key bounds `plan` scans for one execution with `params`.
  ScanSpec BoundSpec(const AccessPlan& plan,
                     const std::vector<Value>* params = nullptr) {
    ScanSpec spec;
    std::string probe;
    bool empty = false;
    EXPECT_TRUE(BindAccessKey(*db_->evaluator(), plan, Desc()->schema,
                              params, &spec, &probe, &empty)
                    .ok());
    EXPECT_FALSE(empty);
    return spec;
  }

  const RelationDescriptor* Desc() {
    const RelationDescriptor* desc = nullptr;
    EXPECT_TRUE(db_->FindRelation("points", &desc).ok());
    return desc;
  }

  TempDir dir_;
  std::unique_ptr<Database> db_;
};

TEST_F(QueryTest, PlannerPicksStorageMethodWithoutIndexes) {
  Transaction* txn = db_->Begin();
  AccessPlan plan;
  auto pred = Expr::Cmp(ExprOp::kEq, 0, Value::Int(42));
  ASSERT_TRUE(PlanAccess(db_.get(), txn, Desc(), pred, &plan).ok());
  EXPECT_TRUE(plan.path.is_storage_method());
  EXPECT_FALSE(plan.needs_fetch);
  ASSERT_TRUE(db_->Commit(txn).ok());
}

TEST_F(QueryTest, PlannerPicksBTreeForKeyPredicate) {
  AddIndex("btree_index", "id");
  Transaction* txn = db_->Begin();
  AccessPlan plan;
  auto pred = Expr::Cmp(ExprOp::kEq, 0, Value::Int(42));
  ASSERT_TRUE(PlanAccess(db_.get(), txn, Desc(), pred, &plan).ok());
  EXPECT_FALSE(plan.path.is_storage_method());
  EXPECT_EQ(plan.DebugString(db_->registry()), "btree_index#1");
  EXPECT_TRUE(plan.needs_fetch);
  ASSERT_EQ(plan.key.eq.size(), 1u);  // the operand, bound at scan open
  ScanSpec spec = BoundSpec(plan);
  EXPECT_TRUE(spec.low_key.has_value());
  EXPECT_TRUE(spec.high_key.has_value());
  // But a predicate on a non-indexed field still scans.
  AccessPlan plan2;
  auto pred2 = Expr::Cmp(ExprOp::kEq, 2, Value::Double(1.0));
  ASSERT_TRUE(PlanAccess(db_.get(), txn, Desc(), pred2, &plan2).ok());
  EXPECT_TRUE(plan2.path.is_storage_method());
  ASSERT_TRUE(db_->Commit(txn).ok());
}

TEST_F(QueryTest, PlannerPicksHashOverBTreeForEquality) {
  AddIndex("btree_index", "id");
  AddIndex("hash_index", "id");
  Transaction* txn = db_->Begin();
  AccessPlan plan;
  auto pred = Expr::Cmp(ExprOp::kEq, 0, Value::Int(42));
  ASSERT_TRUE(PlanAccess(db_.get(), txn, Desc(), pred, &plan).ok());
  EXPECT_EQ(plan.DebugString(db_->registry()), "hash_index#1");
  EXPECT_TRUE(plan.probe);
  // Range predicate: hash is unusable. The B-tree counts the literal range
  // it will read, ids 0 to 10 (the key bound is inclusive; the residual
  // drops 10): 11 of 200 entries, under the calibrated crossover
  // (kRecordFetchCost per qualifying fetch), so the B-tree wins. It reads
  // the rows in about 10 us against the scan's 15.
  AccessPlan plan2;
  auto pred2 = Expr::Cmp(ExprOp::kLt, 0, Value::Int(10));
  ASSERT_TRUE(PlanAccess(db_.get(), txn, Desc(), pred2, &plan2).ok());
  EXPECT_EQ(plan2.DebugString(db_->registry()), "btree_index#1");
  EXPECT_DOUBLE_EQ(plan2.cost.selectivity, 11.0 / 200);
  // A 75% range still goes to the scan.
  AccessPlan plan3;
  auto pred3 = Expr::Cmp(ExprOp::kLt, 0, Value::Int(150));
  ASSERT_TRUE(PlanAccess(db_.get(), txn, Desc(), pred3, &plan3).ok());
  EXPECT_EQ(plan3.DebugString(db_->registry()), "storage-method scan");
  ASSERT_TRUE(db_->Commit(txn).ok());
}

TEST_F(QueryTest, EnumerateAccessPathsReportsAllCandidates) {
  AddIndex("btree_index", "id");
  AddIndex("hash_index", "category");
  Transaction* txn = db_->Begin();
  std::vector<ExprPtr> conjuncts = {
      Expr::Cmp(ExprOp::kEq, 0, Value::Int(7)),
      Expr::Cmp(ExprOp::kEq, 1, Value::String("odd"))};
  std::vector<AccessCandidate> candidates;
  ASSERT_TRUE(EnumerateAccessPaths(db_.get(), txn, Desc(), conjuncts,
                                   &candidates)
                  .ok());
  // Storage method + btree + hash all usable for this conjunction.
  EXPECT_EQ(candidates.size(), 3u);
  ASSERT_TRUE(db_->Commit(txn).ok());
}

TEST_F(QueryTest, ExecutorAgreesAcrossAccessPaths) {
  AddIndex("btree_index", "id");
  Transaction* txn = db_->Begin();
  auto pred = Expr::And(Expr::Cmp(ExprOp::kGe, 0, Value::Int(50)),
                        Expr::Cmp(ExprOp::kLt, 0, Value::Int(60)));
  // Force the B-tree access path (the planner would pick a scan on a
  // relation this small) to check both executors produce identical rows.
  int bt = db_->registry()->FindAttachmentType("btree_index");
  BoundPlan plan;
  plan.relation = Snapshot();
  plan.access.path = AccessPathId::Attachment(static_cast<AtId>(bt), 1);
  plan.access.needs_fetch = true;
  plan.access.residual = pred;
  std::string low, high;
  ASSERT_TRUE(EncodeValueKey({Value::Int(50)}, &low).ok());
  ASSERT_TRUE(EncodeValueKey({Value::Int(60)}, &high).ok());
  plan.access.spec.low_key = low;
  plan.access.spec.high_key = high + '\xff';
  AccessSource indexed(db_.get(), txn, &plan);
  std::vector<Row> via_index;
  ASSERT_TRUE(CollectRows(&indexed, &via_index).ok());
  // Via forced storage-method scan.
  BoundPlan scan_plan;
  scan_plan.relation = Snapshot();
  scan_plan.access.path = AccessPathId::StorageMethod();
  scan_plan.access.spec.filter = pred;
  AccessSource scanned(db_.get(), txn, &scan_plan);
  std::vector<Row> via_scan;
  ASSERT_TRUE(CollectRows(&scanned, &via_scan).ok());

  ASSERT_EQ(via_index.size(), 10u);
  ASSERT_EQ(via_scan.size(), 10u);
  for (size_t i = 0; i < via_index.size(); ++i) {
    EXPECT_EQ(via_index[i].values[0].int_value(),
              via_scan[i].values[0].int_value());
  }
  ASSERT_TRUE(db_->Commit(txn).ok());
}

TEST_F(QueryTest, PlanCacheHitsAndInvalidation) {
  PlanCache cache(db_.get());
  auto pred = Expr::Cmp(ExprOp::kEq, 0, Value::Int(7));
  Transaction* txn = db_->Begin();
  std::shared_ptr<const BoundPlan> p1, p2;
  ASSERT_TRUE(cache.GetAccessPlan(txn, "points", pred, "q1", &p1).ok());
  EXPECT_EQ(cache.stats().misses, 1u);
  ASSERT_TRUE(cache.GetAccessPlan(txn, "points", pred, "q1", &p2).ok());
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(p1.get(), p2.get());  // same bound plan object
  EXPECT_TRUE(p1->access.path.is_storage_method());
  ASSERT_TRUE(db_->Commit(txn).ok());

  // DDL on the relation invalidates: next Get re-translates and now picks
  // the fresh index ("invalidated execution plans are automatically
  // re-translated the next time the query is invoked").
  AddIndex("btree_index", "id");
  Transaction* t2 = db_->Begin();
  std::shared_ptr<const BoundPlan> p3;
  ASSERT_TRUE(cache.GetAccessPlan(t2, "points", pred, "q1", &p3).ok());
  EXPECT_EQ(cache.stats().retranslations, 1u);
  EXPECT_FALSE(p3->access.path.is_storage_method());
  ASSERT_TRUE(db_->Commit(t2).ok());
}

TEST_F(QueryTest, PlanCacheInvalidatedByDrop) {
  PlanCache cache(db_.get());
  Transaction* txn = db_->Begin();
  std::shared_ptr<const BoundPlan> p;
  ASSERT_TRUE(cache.GetAccessPlan(txn, "points", nullptr, "q", &p).ok());
  ASSERT_TRUE(db_->Commit(txn).ok());
  // Drop the relation: the plan must not validate.
  Transaction* t2 = db_->Begin();
  ASSERT_TRUE(db_->DropRelation(t2, "points").ok());
  ASSERT_TRUE(db_->Commit(t2).ok());
  Transaction* t3 = db_->Begin();
  std::shared_ptr<const BoundPlan> p2;
  Status s = cache.GetAccessPlan(t3, "points", nullptr, "q", &p2);
  EXPECT_FALSE(s.ok());  // re-translation fails: relation is gone
  EXPECT_EQ(cache.stats().retranslations, 1u);
  ASSERT_TRUE(db_->Commit(t3).ok());
}

TEST_F(QueryTest, NestedLoopJoinProducesAllPairs) {
  Transaction* txn = db_->Begin();
  // Join points with itself on id == id (via values): 200 matches.
  BoundPlan outer_plan;
  outer_plan.relation = Snapshot();
  ASSERT_TRUE(
      PlanAccess(db_.get(), txn, Desc(), nullptr, &outer_plan.access).ok());
  auto outer = std::make_unique<AccessSource>(db_.get(), txn, &outer_plan);
  Database* db = db_.get();
  BoundPlan inner_plan = outer_plan;
  auto factory = [db, txn,
                  &inner_plan](std::unique_ptr<RowSource>* out) -> Status {
    *out = std::make_unique<AccessSource>(db, txn, &inner_plan);
    return Status::OK();
  };
  // predicate: outer.id (field 0) == inner.id (field 3)
  auto pred = Expr::Eq(Expr::Field(0), Expr::Field(3));
  NestedLoopJoinSource join(db_.get(), std::move(outer), factory, pred);
  std::vector<Row> rows;
  ASSERT_TRUE(CollectRows(&join, &rows).ok());
  EXPECT_EQ(rows.size(), 200u);
  for (const Row& row : rows) {
    EXPECT_EQ(row.values[0].int_value(), row.values[3].int_value());
  }
  ASSERT_TRUE(db_->Commit(txn).ok());
}

TEST_F(QueryTest, AggregateSource) {
  Transaction* txn = db_->Begin();
  BoundPlan plan;
  plan.relation = Snapshot();
  ASSERT_TRUE(PlanAccess(db_.get(), txn, Desc(), nullptr, &plan.access).ok());
  {
    auto src = std::make_unique<AccessSource>(db_.get(), txn, &plan);
    AggregateSource agg(std::move(src), AggKind::kCount, 0);
    Row row;
    ASSERT_TRUE(agg.Next(&row).ok());
    EXPECT_EQ(row.values[0].int_value(), 200);
    EXPECT_TRUE(agg.Next(&row).IsNotFound());
  }
  {
    auto src = std::make_unique<AccessSource>(db_.get(), txn, &plan);
    AggregateSource agg(std::move(src), AggKind::kMax, 2);
    Row row;
    ASSERT_TRUE(agg.Next(&row).ok());
    EXPECT_EQ(row.values[0].AsDouble(), 99.5);
  }
  ASSERT_TRUE(db_->Commit(txn).ok());
}


TEST_F(QueryTest, MultiFieldPrefixKeyRange) {
  AddIndex("btree_index", "category,id");
  Transaction* txn = db_->Begin();
  // Equality on the leading field + range on the next: the planner should
  // compose a prefix range covering exactly the qualifying entries.
  auto pred = Expr::And(
      Expr::Cmp(ExprOp::kEq, 1, Value::String("odd")),
      Expr::And(Expr::Cmp(ExprOp::kGe, 0, Value::Int(100)),
                Expr::Cmp(ExprOp::kLt, 0, Value::Int(120))));
  AccessPlan plan;
  ASSERT_TRUE(PlanAccess(db_.get(), txn, Desc(), pred, &plan).ok());
  ASSERT_FALSE(plan.path.is_storage_method());
  ScanSpec spec = BoundSpec(plan);
  EXPECT_TRUE(spec.low_key.has_value());
  EXPECT_TRUE(spec.high_key.has_value());
  // Execute: ids 101..119 odd = 10 rows.
  BoundPlan bound;
  bound.relation = Snapshot();
  bound.access = plan;
  AccessSource source(db_.get(), txn, &bound);
  std::vector<Row> rows;
  ASSERT_TRUE(CollectRows(&source, &rows).ok());
  EXPECT_EQ(rows.size(), 10u);
  for (const Row& row : rows) {
    EXPECT_EQ(row.values[1].string_value(), "odd");
    EXPECT_GE(row.values[0].int_value(), 100);
    EXPECT_LT(row.values[0].int_value(), 120);
  }
  ASSERT_TRUE(db_->Commit(txn).ok());
}

TEST_F(QueryTest, IndexOnlyPlanSkipsRecordFetches) {
  AddIndex("btree_index", "category,id");
  Transaction* txn = db_->Begin();
  auto pred = Expr::Cmp(ExprOp::kEq, 1, Value::String("even"));
  // Query needs only fields covered by the key: index-only.
  std::vector<int> needed = {0, 1};
  AccessPlan plan;
  ASSERT_TRUE(
      PlanAccess(db_.get(), txn, Desc(), pred, &plan, &needed).ok());
  ASSERT_FALSE(plan.path.is_storage_method());
  EXPECT_TRUE(plan.index_only);
  EXPECT_FALSE(plan.needs_fetch);

  db_->ResetStats();
  BoundPlan bound;
  bound.relation = Snapshot();
  bound.access = plan;
  AccessSource source(db_.get(), txn, &bound);
  std::vector<Row> rows;
  ASSERT_TRUE(CollectRows(&source, &rows).ok());
  EXPECT_EQ(rows.size(), 100u);
  // No storage-method fetches happened (only the scan-open call).
  EXPECT_LE(db_->stats().sm_calls, 1u);
  for (const Row& row : rows) {
    EXPECT_EQ(row.values[1].string_value(), "even");
    EXPECT_EQ(row.values[0].int_value() % 2, 0);
    EXPECT_TRUE(row.values[2].is_null());  // uncovered field absent
  }

  // Needing an uncovered field (score) forces fetches again.
  std::vector<int> needs_score = {0, 2};
  AccessPlan plan2;
  ASSERT_TRUE(
      PlanAccess(db_.get(), txn, Desc(), pred, &plan2, &needs_score).ok());
  EXPECT_FALSE(plan2.index_only);
  ASSERT_TRUE(db_->Commit(txn).ok());
}

TEST_F(QueryTest, KeyCodecDecodeRoundTrip) {
  std::vector<Value> values = {Value::Int(-42), Value::String("hello"),
                               Value::Double(3.5), Value::Null(),
                               Value::Bool(true)};
  std::vector<TypeId> types = {TypeId::kInt64, TypeId::kString,
                               TypeId::kDouble, TypeId::kString,
                               TypeId::kBool};
  std::string key;
  ASSERT_TRUE(EncodeValueKey(values, &key).ok());
  std::vector<Value> decoded;
  ASSERT_TRUE(DecodeFieldKey(Slice(key), types, &decoded).ok());
  ASSERT_EQ(decoded.size(), values.size());
  for (size_t i = 0; i < values.size(); ++i) {
    EXPECT_EQ(decoded[i].Compare(values[i]), 0) << i;
  }
  // Strings containing NULs survive.
  std::string tricky("a\0b", 3);
  std::string key2;
  ASSERT_TRUE(EncodeValueKey({Value::String(tricky)}, &key2).ok());
  std::vector<Value> decoded2;
  ASSERT_TRUE(
      DecodeFieldKey(Slice(key2), {TypeId::kString}, &decoded2).ok());
  EXPECT_EQ(decoded2[0].string_value(), tricky);
}

// Planning is flat in table size: access-path costing reads maintained
// counts, so one PlanAccess touches the same number of buffer-pool pages on
// the Figure-1 EMPLOYEE relation (heap + UNIQUE btree_index(id) +
// btree_index(salary) + hash_index(dept) + CHECK) at 1,000 rows as at
// 20,000 — and the chosen paths are the same at both sizes.
struct Figure1Planning {
  uint64_t id_eq_touches = 0;
  uint32_t id_tree_height = 0;
  // id =, salary BETWEEN (1%), dept =, none, then the `extra` predicates
  std::vector<std::string> plans;
  std::vector<AccessPlan> access;  // parallel to plans
};

ExprPtr SalaryBetween(ExprPtr low, ExprPtr high) {
  return Expr::And(Expr::Binary(ExprOp::kGe, Expr::Field(2), std::move(low)),
                   Expr::Binary(ExprOp::kLe, Expr::Field(2), std::move(high)));
}

void PlanOnFigure1(int rows, Figure1Planning* out,
                   const std::vector<ExprPtr>& extra = {}) {
  TempDir dir("figure1_plan");
  DatabaseOptions options;
  options.dir = dir.path();
  std::unique_ptr<Database> db;
  ASSERT_TRUE(Database::Open(options, &db).ok());
  Session session(db.get());
  QueryResult r;
  for (const char* ddl :
       {"CREATE TABLE emp (id INT NOT NULL, name STRING, salary DOUBLE, "
        "dept STRING) USING heap",
        "CREATE UNIQUE INDEX ON emp (id)", "CREATE INDEX ON emp (salary)",
        "CREATE INDEX ON emp (dept) USING hash_index",
        "ALTER TABLE emp ADD CHECK (salary >= 0)", "BEGIN"}) {
    ASSERT_TRUE(session.Execute(ddl, &r).ok()) << ddl;
  }
  for (int b = 0; b < rows; b += 500) {
    std::string sql = "INSERT INTO emp VALUES ";
    for (int i = b; i < b + 500; ++i) {
      if (i > b) sql += ",";
      sql += "(" + std::to_string(i) + ", 'n" + std::to_string(i) + "', " +
             std::to_string(1000 + (i * 7919) % 100000) + ", 'd" +
             std::to_string(i % 50) + "')";
    }
    ASSERT_TRUE(session.Execute(sql, &r).ok());
  }
  ASSERT_TRUE(session.Execute("COMMIT", &r).ok());

  const RelationDescriptor* desc = nullptr;
  ASSERT_TRUE(db->FindRelation("emp", &desc).ok());
  std::vector<ExprPtr> preds = {
      Expr::Cmp(ExprOp::kEq, 0, Value::Int(rows / 2)),
      Expr::And(Expr::Cmp(ExprOp::kGe, 2, Value::Double(20000)),
                Expr::Cmp(ExprOp::kLe, 2, Value::Double(21000))),
      Expr::Cmp(ExprOp::kEq, 3, Value::String("d7")),
      nullptr};
  preds.insert(preds.end(), extra.begin(), extra.end());
  const BufferPoolStats& stats = db->buffer_pool()->stats();
  for (const ExprPtr& pred : preds) {
    Transaction* txn = db->Begin();
    AccessPlan plan;
    const uint64_t before = stats.hits + stats.misses;
    ASSERT_TRUE(PlanAccess(db.get(), txn, desc, pred, &plan).ok());
    if (out->plans.empty()) {
      out->id_eq_touches = stats.hits + stats.misses - before;
    }
    out->plans.push_back(plan.DebugString(db->registry()));
    out->access.push_back(plan);
    ASSERT_TRUE(db->Commit(txn).ok());
  }
  const PageId anchor = testing::BTreeIndexAnchor(db.get(), "emp", 1);
  ASSERT_NE(anchor, kInvalidPageId);
  BTree id_tree(db->buffer_pool(), anchor);
  ASSERT_TRUE(id_tree.Height(&out->id_tree_height).ok());
}

TEST(PlanningScaleTest, PlanAccessIsFlatInTableSize) {
  Figure1Planning small, large;
  ASSERT_NO_FATAL_FAILURE(PlanOnFigure1(1000, &small));
  ASSERT_NO_FATAL_FAILURE(PlanOnFigure1(20000, &large));
  EXPECT_EQ(small.id_eq_touches, large.id_eq_touches);
  EXPECT_LE(large.id_eq_touches, 4u * large.id_tree_height);
  // The 1% salary range takes the salary index at both sizes: at 20,000
  // rows it reads its 201 rows in ~0.1 ms against the scan's ~1.4 ms, at
  // 1,000 rows its 9 in ~11 us against ~117 us.
  const std::vector<std::string> expected = {
      "btree_index#1", "btree_index#2", "hash_index#1",
      "storage-method scan"};
  EXPECT_EQ(small.plans, expected);
  EXPECT_EQ(large.plans, expected);
}

// With literal operands the salary index counts the range in the tree
// (BTree::EstimateRange): a 1% range takes it and a 50% range goes to the
// scan. `?` operands have no value when the plan is made, so the range
// keeps the heuristic selectivity and, as before, the scan.
TEST(PlanningScaleTest, LiteralRangesAreCountedInTheTree) {
  const int rows = 20000;
  Figure1Planning fig;
  ASSERT_NO_FATAL_FAILURE(PlanOnFigure1(
      rows, &fig,
      {SalaryBetween(Expr::Const(Value::Double(1000)),
                     Expr::Const(Value::Double(51000))),
       SalaryBetween(Expr::Param(0), Expr::Param(1))}));
  ASSERT_EQ(fig.plans.size(), 6u);
  EXPECT_EQ(fig.plans[1], "btree_index#2");
  EXPECT_EQ(fig.plans[4], "storage-method scan");
  EXPECT_EQ(fig.plans[5], "storage-method scan");
  // Salaries are distinct and uniform over [1000, 101000): the 1% range
  // holds 201 rows, and the estimate is within 2x of that.
  const double one_percent = fig.access[1].cost.selectivity * rows;
  EXPECT_GE(one_percent, 201 / 2.0);
  EXPECT_LE(one_percent, 201 * 2.0);
}

// The granularity protocol: a scan holds relation S, which covers every
// record it reads, so a unique point select and a 250-row index range each
// make exactly one lock-manager acquisition.
TEST(LockCoverageTest, IndexReadsTakeOneLockManagerAcquisition) {
  TempDir dir("lock_cover");
  DatabaseOptions options;
  options.dir = dir.path();
  std::unique_ptr<Database> db;
  ASSERT_TRUE(Database::Open(options, &db).ok());
  Session session(db.get());
  QueryResult r;
  for (const char* ddl :
       {"CREATE TABLE emp (id INT NOT NULL, salary DOUBLE) USING heap",
        "CREATE UNIQUE INDEX ON emp (id)", "CREATE INDEX ON emp (salary)",
        "BEGIN"}) {
    ASSERT_TRUE(session.Execute(ddl, &r).ok()) << ddl;
  }
  for (int b = 0; b < 25000; b += 500) {
    std::string sql = "INSERT INTO emp VALUES ";
    for (int i = b; i < b + 500; ++i) {
      if (i > b) sql += ",";
      sql += "(" + std::to_string(i) + ", " + std::to_string(i) + ")";
    }
    ASSERT_TRUE(session.Execute(sql, &r).ok());
  }
  ASSERT_TRUE(session.Execute("COMMIT", &r).ok());

  Counter* acquisitions =
      MetricsRegistry::Global()->GetCounter("lock.acquisitions");
  auto acquired_by = [&](const std::string& sql, size_t rows) {
    QueryResult plan;
    EXPECT_TRUE(session.Execute("EXPLAIN " + sql, &plan).ok());
    const uint64_t before = acquisitions->value();
    QueryResult result;
    EXPECT_TRUE(session.Execute(sql, &result).ok()) << sql;
    EXPECT_EQ(result.rows.size(), rows) << sql;
    EXPECT_FALSE(plan.rows.empty()) << sql;
    return std::make_pair(
        acquisitions->value() - before,
        plan.rows.empty() ? "" : plan.rows[0][0].string_value());
  };
  auto [point, point_plan] =
      acquired_by("SELECT * FROM emp WHERE id = 12345", 1);
  EXPECT_EQ(point, 1u);
  EXPECT_EQ(point_plan, "btree_index#1");
  auto [range, range_plan] = acquired_by(
      "SELECT * FROM emp WHERE salary BETWEEN 5000 AND 5249", 250);
  EXPECT_EQ(range, 1u);
  EXPECT_EQ(range_plan, "btree_index#2");
}

}  // namespace
}  // namespace dmx
