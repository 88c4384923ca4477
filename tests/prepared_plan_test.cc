// Parameterised statements: a `?` operand is planned like a literal (index
// probes included), the plan holds no parameter values, and each execution
// binds its own — so one cached plan serves every value and every session.

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "src/core/database.h"
#include "src/query/sql.h"
#include "tests/test_util.h"

namespace dmx {
namespace {

using testing::TempDir;

constexpr int kRows = 400;

// The Figure-1 EMPLOYEE relation: a unique B-tree on id, a B-tree on
// salary and a hash index on dept.
class PreparedPlanTest : public ::testing::Test {
 protected:
  PreparedPlanTest() : dir_("prepared") {
    DatabaseOptions options;
    options.dir = dir_.path();
    EXPECT_TRUE(Database::Open(options, &db_).ok());
    session_ = std::make_unique<Session>(db_.get());
    Must("CREATE TABLE emp (id INT NOT NULL, name STRING, salary DOUBLE, "
         "dept STRING)");
    Must("CREATE UNIQUE INDEX ON emp (id)");
    Must("CREATE INDEX ON emp (salary)");
    Must("CREATE INDEX ON emp (dept) USING hash_index");
    for (int i = 0; i < kRows; ++i) {
      Must("INSERT INTO emp VALUES (" + std::to_string(i) + ", 'e" +
           std::to_string(i) + "', " + std::to_string(1000 + (i * 37) % 500) +
           ".0, 'd" + std::to_string(i % 10) + "')");
    }
  }

  QueryResult Must(const std::string& sql,
                   const std::vector<Value>& params = {}) {
    QueryResult result;
    Status s = session_->Execute(sql, params, &result);
    EXPECT_TRUE(s.ok()) << sql << " -> " << s.ToString();
    return result;
  }

  Status Run(const std::string& sql, const std::vector<Value>& params,
             QueryResult* result) {
    return session_->Execute(sql, params, result);
  }

  // The access path EXPLAIN names for `sql`.
  std::string PathOf(const std::string& sql) {
    QueryResult r = Must("EXPLAIN " + sql);
    EXPECT_FALSE(r.rows.empty());
    return r.rows.empty() ? "" : r.rows[0][0].string_value();
  }

  // Runs `indexed` and `forced` (the same predicate written so that no
  // access path matches it — NOT (x <> ?) for x = ? — which forces the
  // storage-method scan) with the same parameters: both fail, or both
  // return the same rows.
  void ExpectSameAnswer(const std::string& indexed, const std::string& forced,
                        const std::vector<Value>& params) {
    QueryResult a, b;
    Status sa = Run(indexed, params, &a);
    Status sb = Run(forced, params, &b);
    ASSERT_EQ(sa.ok(), sb.ok()) << indexed << ": " << sa.ToString() << " vs "
                                << forced << ": " << sb.ToString();
    if (!sa.ok()) {
      EXPECT_EQ(sa.code(), sb.code());
      return;
    }
    auto by_id = [](const std::vector<Value>& x, const std::vector<Value>& y) {
      return x[0].Compare(y[0]) < 0;
    };
    std::sort(a.rows.begin(), a.rows.end(), by_id);
    std::sort(b.rows.begin(), b.rows.end(), by_id);
    EXPECT_EQ(a.rows, b.rows) << indexed;
  }

  TempDir dir_;
  std::unique_ptr<Database> db_;
  std::unique_ptr<Session> session_;
};

TEST_F(PreparedPlanTest, ExplainNamesTheIndexForAParameter) {
  EXPECT_EQ(PathOf("SELECT * FROM emp WHERE id = ?"), "btree_index#1");
  EXPECT_EQ(PathOf("SELECT * FROM emp WHERE ? = id"), "btree_index#1");
  EXPECT_EQ(PathOf("SELECT * FROM emp WHERE dept = ?"), "hash_index#1");
  // The literal form chooses the same paths.
  EXPECT_EQ(PathOf("SELECT * FROM emp WHERE id = 5"), "btree_index#1");
  EXPECT_EQ(PathOf("SELECT * FROM emp WHERE dept = 'd5'"), "hash_index#1");
  // Arithmetic on the field hides it from every access path.
  EXPECT_EQ(PathOf("SELECT * FROM emp WHERE id + 0 = ?"),
            "storage-method scan");
}

TEST_F(PreparedPlanTest, OneCachedPlanServesManyValues) {
  const std::string sql = "SELECT * FROM emp WHERE id = ?";
  session_->plan_cache()->ResetStats();
  for (int i = 0; i < 60; ++i) {
    const int64_t id = (i * 7) % kRows;
    QueryResult r = Must(sql, {Value::Int(id)});
    ASSERT_EQ(r.rows.size(), 1u) << id;
    EXPECT_EQ(r.rows[0][0], Value::Int(id));
    EXPECT_EQ(r.rows[0][1], Value::String("e" + std::to_string(id)));
  }
  EXPECT_EQ(session_->plan_cache()->stats().misses, 1u);
  EXPECT_EQ(session_->plan_cache()->stats().hits, 59u);
  // A value with no row, and the hash path with a parameter.
  EXPECT_TRUE(Must(sql, {Value::Int(kRows + 5)}).rows.empty());
  QueryResult d = Must("SELECT id FROM emp WHERE dept = ?",
                       {Value::String("d3")});
  EXPECT_EQ(d.rows.size(), static_cast<size_t>(kRows / 10));
  for (const auto& row : d.rows) EXPECT_EQ(row[0].int_value() % 10, 3);
}

TEST_F(PreparedPlanTest, ParameterTypesMatchAForcedHeapScan) {
  const std::string indexed = "SELECT * FROM emp WHERE id = ?";
  const std::string forced = "SELECT * FROM emp WHERE NOT (id <> ?)";
  ASSERT_EQ(PathOf(forced), "storage-method scan");
  for (const Value& v :
       {Value::Int(17), Value::Int(-1), Value::Double(17.0),
        Value::Double(17.5), Value::String("17"), Value::Null(),
        Value::Bool(true)}) {
    SCOPED_TRACE(v.ToString());
    ExpectSameAnswer(indexed, forced, {v});
  }
  // The same on the hash path.
  for (const Value& v : {Value::String("d4"), Value::String("nope"),
                         Value::Null(), Value::Int(4)}) {
    SCOPED_TRACE(v.ToString());
    ExpectSameAnswer("SELECT * FROM emp WHERE dept = ?",
                     "SELECT * FROM emp WHERE NOT (dept <> ?)", {v});
  }
}

TEST_F(PreparedPlanTest, RangeParametersMatchAForcedHeapScan) {
  const std::string indexed =
      "SELECT * FROM emp WHERE salary BETWEEN ? AND ?";
  const std::string forced =
      "SELECT * FROM emp WHERE NOT (salary < ?) AND NOT (salary > ?)";
  const std::vector<std::vector<Value>> ranges = {
      {Value::Double(1100.0), Value::Double(1200.0)},
      {Value::Int(1100), Value::Int(1105)},
      {Value::Double(1200.5), Value::Double(1100.0)},  // empty
      {Value::Null(), Value::Double(1200.0)},
      {Value::Double(0.0), Value::Double(99999.0)},
      {Value::String("a"), Value::String("b")},
  };
  for (const auto& params : ranges) {
    SCOPED_TRACE(params[0].ToString() + " .. " + params[1].ToString());
    ExpectSameAnswer(indexed, forced, params);
  }
  // Equality prefix of a two-field index plus a range on the next field,
  // with a literal bound beside the parameter: the tighter bound wins.
  Must("CREATE INDEX ON emp (dept, salary)");
  const std::string composite =
      "SELECT * FROM emp WHERE dept = ? AND salary > 1250.0 AND "
      "salary >= ? AND salary <= ?";
  ASSERT_EQ(PathOf(composite), "btree_index#3");
  for (const auto& params : std::vector<std::vector<Value>>{
           {Value::String("d2"), Value::Double(1100.0), Value::Int(1400)},
           {Value::String("d2"), Value::Double(1300.0), Value::Int(1400)},
           {Value::String("d7"), Value::Int(1000), Value::Int(2000)}}) {
    ExpectSameAnswer(composite,
                     "SELECT * FROM emp WHERE NOT (dept <> ?) AND "
                     "NOT (salary <= 1250.0) AND NOT (salary < ?) AND "
                     "NOT (salary > ?)",
                     params);
  }
}

TEST_F(PreparedPlanTest, IndexDdlRetranslatesTheBoundPlan) {
  Must("CREATE TABLE t (x INT, y INT)");
  for (int i = 0; i < 50; ++i) {
    Must("INSERT INTO t VALUES (?, ?)", {Value::Int(i), Value::Int(i * i)});
  }
  const std::string sql = "SELECT y FROM t WHERE x = ?";
  EXPECT_EQ(Must(sql, {Value::Int(7)}).rows[0][0], Value::Int(49));
  EXPECT_EQ(PathOf(sql), "storage-method scan");

  session_->plan_cache()->ResetStats();
  Must("CREATE INDEX ON t (x)");
  EXPECT_EQ(Must(sql, {Value::Int(8)}).rows[0][0], Value::Int(64));
  EXPECT_EQ(session_->plan_cache()->stats().retranslations, 1u);
  EXPECT_EQ(PathOf(sql), "btree_index#1");

  Transaction* txn = db_->Begin();
  ASSERT_TRUE(db_->DropAttachment(txn, "t", "btree_index", 1).ok());
  ASSERT_TRUE(db_->Commit(txn).ok());
  session_->plan_cache()->ResetStats();  // EXPLAIN's plan is cached too
  EXPECT_EQ(Must(sql, {Value::Int(9)}).rows[0][0], Value::Int(81));
  EXPECT_EQ(session_->plan_cache()->stats().retranslations, 1u);
  EXPECT_EQ(PathOf(sql), "storage-method scan");
}

TEST_F(PreparedPlanTest, TooFewParametersIsAnError) {
  QueryResult r;
  for (const char* sql :
       {"SELECT * FROM emp WHERE id = ?",
        "SELECT * FROM emp WHERE dept = ?",
        "SELECT * FROM emp WHERE salary BETWEEN ? AND ?",
        "SELECT * FROM emp WHERE id + 0 = ?",
        "SELECT * FROM emp WHERE id < 3 LIMIT ?",
        "INSERT INTO emp VALUES (?, 'x', 1.0, 'd0')",
        "UPDATE emp SET salary = ? WHERE id = 3",
        "DELETE FROM emp WHERE id = ?"}) {
    EXPECT_TRUE(Run(sql, {}, &r).IsInvalidArgument()) << sql;
  }
  EXPECT_TRUE(Run("SELECT * FROM emp WHERE id = ? AND dept = ?",
                  {Value::Int(1)}, &r)
                  .IsInvalidArgument());
  // Nothing was written, and the session still works.
  EXPECT_EQ(Must("SELECT COUNT(*) FROM emp").rows[0][0], Value::Int(kRows));
  EXPECT_EQ(Must("SELECT salary FROM emp WHERE id = 3").rows[0][0],
            Value::Double(1111.0));
}

TEST_F(PreparedPlanTest, ParametersWhereverALiteralIsAccepted) {
  // INSERT tuples, numbered in textual order across tuples.
  QueryResult r =
      Must("INSERT INTO emp VALUES (?, ?, 10.0, ?), (?, 'b', ?, 'd1')",
           {Value::Int(1000), Value::String("a"), Value::String("d0"),
            Value::Int(1001), Value::Double(20.0)});
  EXPECT_EQ(r.affected, 2);
  r = Must("SELECT name, salary, dept FROM emp WHERE id = ?",
           {Value::Int(1000)});
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0], (std::vector<Value>{Value::String("a"),
                                           Value::Double(10.0),
                                           Value::String("d0")}));
  // The unique index still guards parameterised inserts.
  EXPECT_FALSE(Run("INSERT INTO emp VALUES (?, 'dup', 1.0, 'd0')",
                   {Value::Int(1000)}, &r)
                   .ok());
  // UPDATE ... SET and WHERE, DELETE, LIMIT.
  r = Must("UPDATE emp SET salary = salary + ? WHERE id = ?",
           {Value::Double(5.0), Value::Int(1001)});
  EXPECT_EQ(r.affected, 1);
  EXPECT_EQ(Must("SELECT salary FROM emp WHERE id = 1001").rows[0][0],
            Value::Double(25.0));
  EXPECT_EQ(Must("DELETE FROM emp WHERE id = ?", {Value::Int(1001)}).affected,
            1);
  EXPECT_TRUE(Must("SELECT * FROM emp WHERE id = 1001").rows.empty());
  EXPECT_EQ(
      Must("SELECT id FROM emp WHERE id < ? LIMIT ?",
           {Value::Int(100), Value::Int(4)})
          .rows.size(),
      4u);
  // A CHECK predicate outlives its statement: its `?` is bound at DDL time.
  Must("ALTER TABLE emp ADD CHECK (salary < ? + 1.0)", {Value::Int(5000)});
  Must("INSERT INTO emp VALUES (2000, 'ok', 5000.5, 'd0')");
  EXPECT_TRUE(Run("INSERT INTO emp VALUES (2001, 'no', 5001.0, 'd0')", {}, &r)
                  .IsConstraint());
  EXPECT_TRUE(Run("ALTER TABLE emp ADD CHECK (salary > ?)", {}, &r)
                  .IsInvalidArgument());
}

// Four sessions run the same `id = ?` statement at once, each with its own
// ids: every row a session gets back is its own (the parameters belong to
// the execution, not to the shared evaluator).
TEST(ParamConcurrencyTest, SessionsBindTheirOwnParameters) {
  TempDir dir("param_concurrency");
  DatabaseOptions options;
  options.dir = dir.path();
  std::unique_ptr<Database> db;
  ASSERT_TRUE(Database::Open(options, &db).ok());
  {
    Session setup(db.get());
    QueryResult r;
    ASSERT_TRUE(setup.Execute("CREATE TABLE emp (id INT NOT NULL, name "
                              "STRING)",
                              &r)
                    .ok());
    ASSERT_TRUE(setup.Execute("CREATE UNIQUE INDEX ON emp (id)", &r).ok());
    for (int64_t id = 0; id < 800; ++id) {
      ASSERT_TRUE(setup.Execute("INSERT INTO emp VALUES (?, ?)",
                                {Value::Int(id),
                                 Value::String("n" + std::to_string(id))},
                                &r)
                      .ok());
    }
  }
  constexpr int kSessions = 4, kPerSession = 200;
  std::atomic<int> wrong{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kSessions; ++t) {
    threads.emplace_back([&, t] {
      Session s(db.get());
      QueryResult r;
      for (int i = 0; i < kPerSession; ++i) {
        const int64_t id = t * kPerSession + i;
        Status st = s.Execute("SELECT * FROM emp WHERE id = ?",
                              {Value::Int(id)}, &r);
        if (!st.ok() || r.rows.size() != 1 || r.rows[0][0] != Value::Int(id) ||
            r.rows[0][1] != Value::String("n" + std::to_string(id))) {
          wrong.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(wrong.load(), 0);
}

}  // namespace
}  // namespace dmx
