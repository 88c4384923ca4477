// Parameterised statements: a `?` operand is planned like a literal (index
// probes included), the plan holds no parameter values, and each execution
// binds its own — so one cached plan serves every value and every session.
// Literal statements share it too: the session caches a SELECT, UPDATE or
// DELETE by its shape, the text with each literal lifted out as a typed
// parameter, and re-plans per execution only where a cost estimate read a
// literal's value.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <thread>
#include <tuple>

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

  // What a statement returned: its status, then its rows (sorted, so scan
  // order does not count) or its message and affected count.
  struct Outcome {
    Status status;
    QueryResult result;

    friend void PrintTo(const Outcome& o, std::ostream* os) {
      *os << o.status.ToString() << "\n" << o.result.ToString();
    }
    bool operator==(const Outcome& o) const {
      return status.code() == o.status.code() &&
             status.ToString() == o.status.ToString() &&
             result.columns == o.result.columns &&
             result.rows == o.result.rows &&
             result.affected == o.result.affected &&
             result.message == o.result.message;
    }
  };

  static Outcome RunIn(Session* session, const std::string& sql,
                       const std::vector<Value>& params = {}) {
    Outcome out;
    out.status = session->Execute(sql, params, &out.result);
    std::sort(out.result.rows.begin(), out.result.rows.end(), RowLess);
    return out;
  }

  static bool RowLess(const std::vector<Value>& a,
                      const std::vector<Value>& b) {
    for (size_t i = 0; i < a.size() && i < b.size(); ++i) {
      const int c = a[i].Compare(b[i]);
      if (c != 0) return c < 0;
    }
    return a.size() < b.size();
  }

  // Runs `probe` in a session whose cache holds nothing (its first
  // execution plans the text as written, bypassing the cache) and in one
  // that first ran `warm`, a statement of the same shape with other
  // values: the EXPLAIN output, the answer or error, and the relation
  // afterwards must all agree. Statements run in transactions that are
  // rolled back, so DML leaves nothing behind.
  void ExpectSameAsUncached(const std::string& warm, const std::string& probe) {
    SCOPED_TRACE(warm + "  then  " + probe);
    const bool select = probe.rfind("SELECT", 0) == 0;
    Session fresh(db_.get()), warmed(db_.get());
    auto rolled_back = [](Session* s, const std::string& sql) {
      RunIn(s, "BEGIN");
      std::pair<Outcome, Outcome> out = {RunIn(s, sql),
                                         RunIn(s, "SELECT * FROM emp")};
      RunIn(s, "ROLLBACK");
      return out;
    };
    rolled_back(&warmed, warm);
    if (select) {
      RunIn(&warmed, "EXPLAIN " + warm);
      EXPECT_EQ(RunIn(&warmed, "EXPLAIN " + probe),
                RunIn(&fresh, "EXPLAIN " + probe));
    }
    const auto uncached = rolled_back(&fresh, probe);
    const auto cached = rolled_back(&warmed, probe);
    EXPECT_EQ(cached.first, uncached.first);
    EXPECT_EQ(cached.second, uncached.second);
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

// The shape cache changes no plan, answer or error: a statement served by
// an entry another value made gets what its text gets uncached. The corpus
// holds dmx_e2e's statement kinds, the literal forms of this file's `?`
// statements, a narrow and a wide salary range (value-dependent: each
// execution re-plans), and the three types of one literal.
TEST_F(PreparedPlanTest, CachedShapesPlanAsTheLiteralText) {
  Must("CREATE INDEX ON emp (dept, salary)");
  const std::vector<std::pair<std::string, std::string>> corpus = {
      // dmx_e2e: point select, range, insert (parsed per execution, not
      // cached), update salary, update name, delete.
      {"SELECT * FROM emp WHERE id = 17", "SELECT * FROM emp WHERE id = 18"},
      {"SELECT * FROM emp WHERE salary BETWEEN 1100.0 AND 1104.0",
       "SELECT * FROM emp WHERE salary BETWEEN 1000.0 AND 1499.0"},
      {"SELECT * FROM emp WHERE salary BETWEEN 1000.0 AND 1499.0",
       "SELECT * FROM emp WHERE salary BETWEEN 1100.0 AND 1104.0"},
      {"INSERT INTO emp VALUES (1000, 'n', 1000.0, 'd0')",
       "INSERT INTO emp VALUES (1001, 'm', 1001.0, 'd1')"},
      {"UPDATE emp SET salary = 1234.0 WHERE id = 5",
       "UPDATE emp SET salary = 1235.5 WHERE id = 6"},
      {"UPDATE emp SET name = 'a' WHERE id = 7",
       "UPDATE emp SET name = 'b' WHERE id = 8"},
      {"DELETE FROM emp WHERE id = 9", "DELETE FROM emp WHERE id = 10"},
      {"DELETE FROM emp WHERE salary < 1003.0",
       "DELETE FROM emp WHERE salary < 1400.0"},
      // The literal forms of the `?` statements above.
      {"SELECT * FROM emp WHERE 5 = id", "SELECT * FROM emp WHERE 6 = id"},
      {"SELECT * FROM emp WHERE dept = 'd5'",
       "SELECT * FROM emp WHERE dept = 'd6'"},
      {"SELECT * FROM emp WHERE id + 0 = 5",
       "SELECT * FROM emp WHERE id + 0 = 6"},
      {"SELECT * FROM emp WHERE NOT (id <> 17)",
       "SELECT * FROM emp WHERE NOT (id <> 18)"},
      {"SELECT * FROM emp WHERE NOT (salary < 1100.0) AND "
       "NOT (salary > 1200.0)",
       "SELECT * FROM emp WHERE NOT (salary < 1300.0) AND "
       "NOT (salary > 1301.0)"},
      {"SELECT * FROM emp WHERE dept = 'd2' AND salary > 1250.0 AND "
       "salary >= 1100.0 AND salary <= 1400",
       "SELECT * FROM emp WHERE dept = 'd7' AND salary > 1000.0 AND "
       "salary >= 1000.0 AND salary <= 2000"},
      {"SELECT id FROM emp WHERE id < 100 LIMIT 4",
       "SELECT id FROM emp WHERE id < 300 LIMIT 7"},
      {"SELECT COUNT(*) FROM emp WHERE salary > 1490.0",
       "SELECT COUNT(*) FROM emp WHERE salary > 1010.0"},
      {"SELECT name FROM emp WHERE id > 390 ORDER BY salary DESC",
       "SELECT name FROM emp WHERE id > 10 ORDER BY salary DESC"},
      // One literal in three types: three shapes, each as the text reads.
      {"SELECT * FROM emp WHERE id = 3", "SELECT * FROM emp WHERE id = 2"},
      {"SELECT * FROM emp WHERE id = 3.0", "SELECT * FROM emp WHERE id = 2.0"},
      {"SELECT * FROM emp WHERE id = '3'", "SELECT * FROM emp WHERE id = '2'"},
      // Errors: the same status either way.
      {"SELECT id FROM emp WHERE id < 3 LIMIT 2",
       "SELECT id FROM emp WHERE id < 3 LIMIT 2.5"},
      {"SELECT id FROM emp WHERE id < 3 LIMIT 2.0",
       "SELECT id FROM emp WHERE id < 3 LIMIT 2.5"},
      {"SELECT * FROM emp WHERE salary BETWEEN 'a' AND 'b'",
       "SELECT * FROM emp WHERE salary BETWEEN 'c' AND 'd'"},
      {"SELECT * FROM emp WHERE id = 1 / 1",
       "SELECT * FROM emp WHERE id = 1 / 0"},
  };
  for (const auto& [warm, probe] : corpus) {
    ExpectSameAsUncached(warm, probe);
  }
  // The value-dependent range keeps choosing per value in one session.
  const std::string narrow =
      "SELECT * FROM emp WHERE salary BETWEEN 1100.0 AND 1104.0";
  const std::string wide =
      "SELECT * FROM emp WHERE salary BETWEEN 1000.0 AND 1499.0";
  for (int i = 0; i < 2; ++i) {
    EXPECT_EQ(PathOf(narrow), "btree_index#2");
    EXPECT_EQ(PathOf(wide), "storage-method scan");
  }
}

// 10,000 distinct literal point selects are one statement to the cache.
TEST_F(PreparedPlanTest, LiteralPointSelectsShareOneEntry) {
  Session session(db_.get());
  for (int64_t id = 0; id < 10000; ++id) {
    QueryResult r;
    ASSERT_TRUE(session
                    .Execute("SELECT name FROM emp WHERE id = " +
                                 std::to_string(id),
                             &r)
                    .ok());
    ASSERT_EQ(r.rows.size(), id < kRows ? 1u : 0u) << id;
    if (id < kRows) {
      EXPECT_EQ(r.rows[0][0], Value::String("e" + std::to_string(id)));
    }
  }
  EXPECT_EQ(session.plan_cache()->size(), 1u);
  EXPECT_EQ(session.plan_cache()->stats().misses, 1u);
  EXPECT_EQ(session.plan_cache()->stats().hits, 9999u);
  // A double or a string literal in its place is another statement.
  QueryResult r;
  ASSERT_TRUE(session.Execute("SELECT name FROM emp WHERE id = 7.0", &r).ok());
  EXPECT_EQ(r.rows.size(), 1u);
  // (A string does not compare with the INT key: the scan reports it.)
  EXPECT_TRUE(session.Execute("SELECT name FROM emp WHERE id = '7'", &r)
                  .IsInvalidArgument());
  EXPECT_EQ(session.plan_cache()->size(), 3u);
  // UPDATE and DELETE go through the cache too.
  for (int64_t id = 0; id < 20; ++id) {
    ASSERT_TRUE(session
                    .Execute("UPDATE emp SET salary = " +
                                 std::to_string(2000 + id) +
                                 ".5 WHERE id = " + std::to_string(id),
                             &r)
                    .ok());
    EXPECT_EQ(r.affected, 1);
  }
  EXPECT_EQ(session.plan_cache()->size(), 4u);
  EXPECT_EQ(Must("SELECT salary FROM emp WHERE id = 19").rows[0][0],
            Value::Double(2019.5));
}

// Lifted literals and the caller's `?` values are numbered together in
// textual order.
TEST_F(PreparedPlanTest, LiftedAndCallerParametersBindInTextualOrder) {
  const std::string mixed =
      "SELECT id FROM emp WHERE dept = ? AND id >= 100 AND id < ? AND "
      "salary > 1200.0";
  for (const auto& [dept, low, high] :
       std::vector<std::tuple<std::string, int, int>>{
           {"d3", 100, 200}, {"d7", 100, 300}, {"d1", 100, 150}}) {
    const std::string literal =
        "SELECT id FROM emp WHERE dept = '" + dept +
        "' AND id >= " + std::to_string(low) +
        " AND id < " + std::to_string(high) + " AND salary > 1200.0";
    QueryResult a = Must(mixed, {Value::String(dept), Value::Int(high)});
    QueryResult b = Must(literal);
    std::sort(a.rows.begin(), a.rows.end(), RowLess);
    std::sort(b.rows.begin(), b.rows.end(), RowLess);
    EXPECT_FALSE(a.rows.empty()) << literal;
    EXPECT_EQ(a.rows, b.rows) << literal;
  }
  // In UPDATE: the SET value, a literal, then a `?`.
  EXPECT_EQ(Must("UPDATE emp SET name = ? WHERE id = 3 AND dept = ?",
                 {Value::String("x"), Value::String("d3")})
                .affected,
            1);
  EXPECT_EQ(Must("SELECT name FROM emp WHERE id = 3").rows[0][0],
            Value::String("x"));
  // A `?` without a value fails as before, wherever it stands.
  QueryResult r;
  EXPECT_TRUE(Run("SELECT id FROM emp WHERE id = 1 AND dept = ?", {}, &r)
                  .IsInvalidArgument());
  EXPECT_TRUE(Run("SELECT id FROM emp WHERE dept = ? AND id = 1",
                  {Value::String("d1")}, &r)
                  .ok());
  EXPECT_EQ(r.rows.size(), 1u);
}

// DDL on a cached shape's relation re-translates it, statement included;
// rights are checked on every execution, not when the shape was cached.
TEST_F(PreparedPlanTest, DdlRetranslatesACachedShape) {
  Must("CREATE TABLE t (a INT, b STRING)");
  Must("INSERT INTO t VALUES (1, 'x'), (2, 'y'), (3, 'x')");
  for (int i = 0; i < 200; ++i) {
    Must("INSERT INTO t VALUES (0, 'z" + std::to_string(i) + "')");
  }
  const auto count = [&](const std::string& b) {
    return Must("SELECT COUNT(*) FROM t WHERE b = '" + b + "'").rows[0][0];
  };
  const auto sum = [&](const std::string& b) {
    return Must("SELECT SUM(a) FROM t WHERE b = '" + b + "'").rows[0][0];
  };
  EXPECT_EQ(sum("x"), Value::Int(4));
  EXPECT_EQ(count("y"), Value::Int(1));
  const PlanCache::Stats& stats = session_->plan_cache()->stats();
  uint64_t retranslations = stats.retranslations;
  auto expect_retranslated = [&](const char* after) {
    SCOPED_TRACE(after);
    EXPECT_EQ(sum("x"), Value::Int(4));
    EXPECT_EQ(stats.retranslations, retranslations + 1);
    EXPECT_EQ(count("x"), Value::Int(2));
    retranslations = stats.retranslations;
  };

  Must("CREATE INDEX ON t (b) USING hash_index");
  expect_retranslated("CREATE INDEX");
  EXPECT_EQ(PathOf("SELECT SUM(a) FROM t WHERE b = 'y'"), "hash_index#1");
  Must("ALTER TABLE t SET STORAGE mainmemory");
  expect_retranslated("SET STORAGE");
  Must("ALTER TABLE t ADD CHECK (a >= 0)");
  expect_retranslated("ADD CHECK");
  // Dropped and re-created with the columns reordered: the cached
  // statement's column numbers are stale and must not be used.
  Must("DROP TABLE t");
  Must("CREATE TABLE t (b STRING, a INT)");
  Must("INSERT INTO t VALUES ('x', 10), ('y', 20), ('x', 30)");
  EXPECT_EQ(sum("x"), Value::Int(40));
  EXPECT_EQ(count("x"), Value::Int(2));
  EXPECT_EQ(stats.retranslations, retranslations + 2);

  // GRANT, REVOKE and SET USER hold on a cached shape. (Authorization is
  // on from the first grant.)
  QueryResult r;
  Session admin(db_.get());
  ASSERT_TRUE(admin.Execute("GRANT SELECT ON emp TO carol", &r).ok());
  Must("SET USER alice");
  Status denied = Run("SELECT SUM(a) FROM t WHERE b = 'y'", {}, &r);
  EXPECT_TRUE(denied.IsConstraint()) << denied.ToString();
  ASSERT_TRUE(admin.Execute("GRANT SELECT ON t TO alice", &r).ok());
  EXPECT_EQ(sum("y"), Value::Int(20));
  EXPECT_TRUE(Run("DELETE FROM t WHERE b = 'x'", {}, &r).IsConstraint());
  ASSERT_TRUE(admin.Execute("REVOKE SELECT ON t FROM alice", &r).ok());
  EXPECT_TRUE(Run("SELECT SUM(a) FROM t WHERE b = 'x'", {}, &r)
                  .IsConstraint());
  Must("SET USER bob");
  EXPECT_TRUE(Run("SELECT SUM(a) FROM t WHERE b = 'x'", {}, &r)
                  .IsConstraint());
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
