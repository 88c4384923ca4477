// End-to-end tests of the SQL front end.

#include <gtest/gtest.h>

#include <algorithm>

#include "src/core/database.h"
#include "src/query/sql.h"
#include "tests/test_util.h"

namespace dmx {
namespace {

using testing::TempDir;

class SqlTest : public ::testing::Test {
 protected:
  SqlTest() : dir_("sql") { Reopen(); }

  void Reopen() {
    session_.reset();
    db_.reset();
    DatabaseOptions options;
    options.dir = dir_.path();
    EXPECT_TRUE(Database::Open(options, &db_).ok());
    session_ = std::make_unique<Session>(db_.get());
  }

  QueryResult Must(const std::string& sql) {
    QueryResult result;
    Status s = session_->Execute(sql, &result);
    EXPECT_TRUE(s.ok()) << sql << " -> " << s.ToString();
    return result;
  }

  Status Try(const std::string& sql, QueryResult* result = nullptr) {
    QueryResult local;
    return session_->Execute(sql, result ? result : &local);
  }

  TempDir dir_;
  std::unique_ptr<Database> db_;
  std::unique_ptr<Session> session_;
};

TEST_F(SqlTest, CreateInsertSelect) {
  Must("CREATE TABLE emp (id INT NOT NULL, name STRING, salary DOUBLE)");
  Must("INSERT INTO emp VALUES (1, 'lindsay', 100.5), (2, 'pirahesh', 90.0)");
  QueryResult r = Must("SELECT * FROM emp");
  ASSERT_EQ(r.rows.size(), 2u);
  EXPECT_EQ(r.columns, (std::vector<std::string>{"id", "name", "salary"}));
  EXPECT_EQ(r.rows[0][1].string_value(), "lindsay");
}

TEST_F(SqlTest, WhereFiltersAndProjection) {
  Must("CREATE TABLE emp (id INT, name STRING, salary DOUBLE)");
  for (int i = 0; i < 20; ++i) {
    Must("INSERT INTO emp VALUES (" + std::to_string(i) + ", 'e" +
         std::to_string(i) + "', " + std::to_string(i * 10) + ".0)");
  }
  QueryResult r = Must("SELECT name FROM emp WHERE salary >= 150.0");
  EXPECT_EQ(r.rows.size(), 5u);
  EXPECT_EQ(r.columns, std::vector<std::string>{"name"});
  r = Must("SELECT id FROM emp WHERE name LIKE 'e1%'");
  EXPECT_EQ(r.rows.size(), 11u);  // e1, e10..e19
  r = Must("SELECT id FROM emp WHERE id >= 5 AND id < 8 OR id = 19");
  EXPECT_EQ(r.rows.size(), 4u);
}

TEST_F(SqlTest, Aggregates) {
  Must("CREATE TABLE t (x INT, y DOUBLE)");
  Must("INSERT INTO t VALUES (1, 10.0), (2, 20.0), (3, NULL)");
  EXPECT_EQ(Must("SELECT COUNT(*) FROM t").rows[0][0].int_value(), 3);
  EXPECT_EQ(Must("SELECT SUM(y) FROM t").rows[0][0].AsDouble(), 30.0);
  EXPECT_EQ(Must("SELECT AVG(y) FROM t").rows[0][0].AsDouble(), 10.0);
  EXPECT_EQ(Must("SELECT MIN(x) FROM t").rows[0][0].int_value(), 1);
  EXPECT_EQ(Must("SELECT MAX(y) FROM t").rows[0][0].AsDouble(), 20.0);
}

TEST_F(SqlTest, UpdateAndDelete) {
  Must("CREATE TABLE t (x INT, y DOUBLE)");
  Must("INSERT INTO t VALUES (1, 1.0), (2, 2.0), (3, 3.0)");
  QueryResult r = Must("UPDATE t SET y = y * 2.0 WHERE x >= 2");
  EXPECT_EQ(r.affected, 2);
  EXPECT_EQ(Must("SELECT SUM(y) FROM t").rows[0][0].AsDouble(), 11.0);
  r = Must("DELETE FROM t WHERE x = 1");
  EXPECT_EQ(r.affected, 1);
  EXPECT_EQ(Must("SELECT COUNT(*) FROM t").rows[0][0].int_value(), 2);
}

TEST_F(SqlTest, ExplicitTransactionsAndSavepoints) {
  Must("CREATE TABLE t (x INT)");
  Must("BEGIN");
  Must("INSERT INTO t VALUES (1)");
  Must("SAVEPOINT sp");
  Must("INSERT INTO t VALUES (2)");
  Must("ROLLBACK TO sp");
  Must("COMMIT");
  EXPECT_EQ(Must("SELECT COUNT(*) FROM t").rows[0][0].int_value(), 1);

  Must("BEGIN");
  Must("INSERT INTO t VALUES (9)");
  Must("ROLLBACK");
  EXPECT_EQ(Must("SELECT COUNT(*) FROM t").rows[0][0].int_value(), 1);
}

TEST_F(SqlTest, CreateIndexAndUniqueEnforcement) {
  Must("CREATE TABLE t (x INT, y STRING)");
  Must("CREATE UNIQUE INDEX ON t (x)");
  Must("INSERT INTO t VALUES (1, 'a')");
  Status s = Try("INSERT INTO t VALUES (1, 'b')");
  EXPECT_TRUE(s.IsConstraint()) << s.ToString();
  EXPECT_EQ(Must("SELECT COUNT(*) FROM t").rows[0][0].int_value(), 1);
  // Hash index via USING.
  Must("CREATE INDEX ON t (y) USING hash_index");
  Must("INSERT INTO t VALUES (2, 'b')");
  QueryResult r = Must("SELECT x FROM t WHERE y = 'b'");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].int_value(), 2);
}

TEST_F(SqlTest, AlternativeStorageMethodsViaUsing) {
  Must("CREATE TABLE m (k INT, v STRING) USING mainmemory");
  Must("CREATE TABLE b (k INT, v STRING) USING btree WITH (key = k)");
  Must("INSERT INTO m VALUES (1, 'x')");
  Must("INSERT INTO b VALUES (2, 'y'), (1, 'z')");
  EXPECT_EQ(Must("SELECT COUNT(*) FROM m").rows[0][0].int_value(), 1);
  QueryResult r = Must("SELECT k FROM b");
  ASSERT_EQ(r.rows.size(), 2u);
  EXPECT_EQ(r.rows[0][0].int_value(), 1);  // key order
}

TEST_F(SqlTest, TwoTableJoin) {
  Must("CREATE TABLE dept (dname STRING, budget DOUBLE)");
  Must("CREATE TABLE emp (id INT, name STRING, dname STRING)");
  Must("INSERT INTO dept VALUES ('eng', 100.0), ('hr', 50.0)");
  Must("INSERT INTO emp VALUES (1, 'a', 'eng'), (2, 'b', 'eng'), "
       "(3, 'c', 'hr')");
  QueryResult r = Must(
      "SELECT emp.name, dept.budget FROM emp, dept "
      "WHERE emp.dname = dept.dname");
  EXPECT_EQ(r.rows.size(), 3u);
  // With an index on the inner join column the session uses an index join;
  // results must be identical.
  Must("CREATE INDEX ON dept (dname) USING hash_index");
  QueryResult r2 = Must(
      "SELECT emp.name, dept.budget FROM emp, dept "
      "WHERE emp.dname = dept.dname");
  EXPECT_EQ(r2.rows.size(), 3u);
  // Join with extra filter.
  QueryResult r3 = Must(
      "SELECT emp.name FROM emp, dept "
      "WHERE emp.dname = dept.dname AND dept.budget > 60.0");
  EXPECT_EQ(r3.rows.size(), 2u);
}

// A '-' before a digit is a sign wherever an operand may start: after a
// keyword, an operator, '(' or ','. After a column, a literal, a `?` or
// ')' it is binary minus.
TEST_F(SqlTest, SignedLiteralsAfterKeywordsAndOperators) {
  Must("CREATE TABLE t (id INT, x INT)");
  Must("INSERT INTO t VALUES (1, -3), (2, -1), (3, 0), (4, 2), (5, -5)");
  auto ids = [&](const std::string& where,
                 const std::vector<Value>& params = {}) {
    QueryResult r;
    Status s = session_->Execute("SELECT id FROM t WHERE " + where, params,
                                 &r);
    EXPECT_TRUE(s.ok()) << where << " -> " << s.ToString();
    std::vector<int64_t> out;
    for (const auto& row : r.rows) out.push_back(row[0].int_value());
    std::sort(out.begin(), out.end());
    return out;
  };
  using Ids = std::vector<int64_t>;
  EXPECT_EQ(ids("x BETWEEN -2 AND -1"), Ids({2}));
  EXPECT_EQ(ids("x BETWEEN 1 AND -5"), Ids());
  EXPECT_EQ(ids("NOT -3 = id"), Ids({1, 2, 3, 4, 5}));
  EXPECT_EQ(ids("id > 0 AND -1 < x"), Ids({3, 4}));
  EXPECT_EQ(ids("id = 1 OR -3 = id"), Ids({1}));
  EXPECT_EQ(ids("x * -1 = 3"), Ids({1}));
  EXPECT_EQ(ids("x IN (-1, -2)"), Ids({2}));
  EXPECT_EQ(ids("id = ?-1", {Value::Int(3)}), Ids({2}));
  // Binary minus after a column, a literal and ')'.
  EXPECT_EQ(ids("x-1 = -2"), Ids({2}));
  EXPECT_EQ(ids("id = 3-1"), Ids({2}));
  EXPECT_EQ(ids("(id)-1 = 0"), Ids({1}));
  EXPECT_EQ(Must("UPDATE t SET x = -7 WHERE id = -1 + 2").affected, 1);
  EXPECT_EQ(ids("x = -7"), Ids({1}));
}

TEST_F(SqlTest, PlanCacheReusedAcrossExecutions) {
  Must("CREATE TABLE t (x INT)");
  Must("INSERT INTO t VALUES (1), (2), (3)");
  Must("SELECT * FROM t WHERE x = 2");
  uint64_t misses = session_->plan_cache()->stats().misses;
  Must("SELECT * FROM t WHERE x = 2");
  Must("SELECT * FROM t WHERE x = 2");
  EXPECT_EQ(session_->plan_cache()->stats().misses, misses);
  EXPECT_GE(session_->plan_cache()->stats().hits, 2u);
}

TEST_F(SqlTest, SyntaxAndSemanticErrors) {
  EXPECT_FALSE(Try("FROBNICATE").ok());
  EXPECT_FALSE(Try("SELECT FROM").ok());
  EXPECT_FALSE(Try("SELECT * FROM missing_table").ok());
  Must("CREATE TABLE t (x INT)");
  EXPECT_FALSE(Try("SELECT nope FROM t").ok());
  EXPECT_FALSE(Try("INSERT INTO t VALUES ('wrong type')").ok());
  EXPECT_FALSE(Try("CREATE TABLE t (x INT)").ok());  // duplicate
  EXPECT_FALSE(Try("COMMIT").ok());                  // no open txn
  EXPECT_FALSE(Try("SELECT * FROM t WHERE 'unclosed").ok());
}

TEST_F(SqlTest, NullSemanticsInSql) {
  Must("CREATE TABLE t (x INT, y DOUBLE)");
  Must("INSERT INTO t VALUES (1, NULL), (2, 5.0)");
  EXPECT_EQ(Must("SELECT COUNT(*) FROM t WHERE y = 5.0").rows[0][0]
                .int_value(),
            1);
  // NULL never equals anything.
  EXPECT_EQ(Must("SELECT COUNT(*) FROM t WHERE y <> 5.0").rows[0][0]
                .int_value(),
            0);
  EXPECT_EQ(Must("SELECT COUNT(*) FROM t WHERE y IS NULL").rows[0][0]
                .int_value(),
            1);
  EXPECT_EQ(Must("SELECT COUNT(*) FROM t WHERE y IS NOT NULL").rows[0][0]
                .int_value(),
            1);
}

TEST_F(SqlTest, QuotedStringsWithEscapes) {
  Must("CREATE TABLE t (s STRING)");
  Must("INSERT INTO t VALUES ('it''s quoted')");
  QueryResult r = Must("SELECT s FROM t");
  EXPECT_EQ(r.rows[0][0].string_value(), "it's quoted");
}

TEST_F(SqlTest, NegativeNumbers) {
  Must("CREATE TABLE t (x INT, y DOUBLE)");
  Must("INSERT INTO t VALUES (-5, -2.5)");
  QueryResult r = Must("SELECT x FROM t WHERE y < -1.0");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].int_value(), -5);
}


TEST_F(SqlTest, OrderByAndLimit) {
  Must("CREATE TABLE t (x INT, y STRING)");
  Must("INSERT INTO t VALUES (3, 'c'), (1, 'a'), (2, 'b'), (5, 'e'), "
       "(4, 'd')");
  QueryResult r = Must("SELECT x FROM t ORDER BY x");
  ASSERT_EQ(r.rows.size(), 5u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(r.rows[static_cast<size_t>(i)][0].int_value(), i + 1);
  }
  r = Must("SELECT y FROM t ORDER BY x DESC LIMIT 2");
  ASSERT_EQ(r.rows.size(), 2u);
  EXPECT_EQ(r.rows[0][0].string_value(), "e");
  EXPECT_EQ(r.rows[1][0].string_value(), "d");
  r = Must("SELECT x FROM t LIMIT 3");
  EXPECT_EQ(r.rows.size(), 3u);
  r = Must("SELECT x FROM t WHERE x > 1 ORDER BY x LIMIT 2");
  ASSERT_EQ(r.rows.size(), 2u);
  EXPECT_EQ(r.rows[0][0].int_value(), 2);
  // ORDER BY on a column not in the projection still works.
  r = Must("SELECT y FROM t ORDER BY x");
  EXPECT_EQ(r.rows[0][0].string_value(), "a");
}


TEST_F(SqlTest, AlterTableAddCheck) {
  Must("CREATE TABLE t (x INT, y DOUBLE)");
  Must("ALTER TABLE t ADD CHECK (y >= 0.0) NAME positive_y");
  Must("INSERT INTO t VALUES (1, 5.0)");
  Status s = Try("INSERT INTO t VALUES (2, -1.0)");
  EXPECT_TRUE(s.IsConstraint()) << s.ToString();
  EXPECT_EQ(Must("SELECT COUNT(*) FROM t").rows[0][0].int_value(), 1);

  // Deferred: transiently invalid inside a transaction, fixed before
  // commit.
  Must("ALTER TABLE t ADD DEFERRED CHECK (x < 100)");
  Must("BEGIN");
  Must("INSERT INTO t VALUES (500, 1.0)");
  Must("UPDATE t SET x = 50 WHERE x = 500");
  Must("COMMIT");
  // And a violation surviving to commit aborts.
  Must("BEGIN");
  Must("INSERT INTO t VALUES (700, 1.0)");
  QueryResult r;
  Status cs = session_->Execute("COMMIT", &r);
  EXPECT_TRUE(cs.IsConstraint()) << cs.ToString();
  EXPECT_EQ(Must("SELECT COUNT(*) FROM t").rows[0][0].int_value(), 2);
}

TEST_F(SqlTest, CreateAttachmentGenericSyntax) {
  Must("CREATE TABLE t (x INT, y STRING)");
  Must("CREATE ATTACHMENT ON t USING unique WITH (fields = x)");
  Must("INSERT INTO t VALUES (1, 'a')");
  EXPECT_TRUE(Try("INSERT INTO t VALUES (1, 'b')").IsConstraint());
  Must("CREATE ATTACHMENT ON t USING stats WITH (field = x)");
  EXPECT_FALSE(Try("CREATE ATTACHMENT ON t USING nonsense").ok());
}

TEST_F(SqlTest, DescribeShowsDescriptor) {
  Must("CREATE TABLE t (x INT NOT NULL, y STRING) USING mainmemory");
  Must("CREATE INDEX ON t (x)");
  Must("ALTER TABLE t ADD CHECK (x >= 0)");
  QueryResult r = Must("DESCRIBE t");
  std::string all;
  for (const auto& row : r.rows) {
    all += row[0].string_value() + "=" + row[1].string_value() + ";";
  }
  EXPECT_NE(all.find("storage method=mainmemory"), std::string::npos) << all;
  EXPECT_NE(all.find("attachment btree_index"), std::string::npos) << all;
  EXPECT_NE(all.find("attachment check"), std::string::npos) << all;
  EXPECT_NE(all.find("x INT NOT NULL"), std::string::npos) << all;
}

TEST_F(SqlTest, CheckpointStatement) {
  Must("CREATE TABLE t (x INT)");
  Must("INSERT INTO t VALUES (1)");
  Must("CHECKPOINT");
  EXPECT_EQ(Must("SELECT COUNT(*) FROM t").rows[0][0].int_value(), 1);
  // Blocked inside an open transaction.
  Must("BEGIN");
  EXPECT_TRUE(Try("CHECKPOINT").IsBusy());
  Must("ROLLBACK");
}


TEST_F(SqlTest, ParameterizedQueriesReuseOnePlan) {
  Must("CREATE TABLE t (x INT, y STRING)");
  for (int i = 0; i < 20; ++i) {
    Must("INSERT INTO t VALUES (" + std::to_string(i) + ", 'v" +
         std::to_string(i) + "')");
  }
  const std::string q = "SELECT y FROM t WHERE x = ?";
  QueryResult r;
  ASSERT_TRUE(session_->Execute(q, {Value::Int(3)}, &r).ok());
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].string_value(), "v3");
  uint64_t misses = session_->plan_cache()->stats().misses;
  ASSERT_TRUE(session_->Execute(q, {Value::Int(7)}, &r).ok());
  EXPECT_EQ(r.rows[0][0].string_value(), "v7");
  ASSERT_TRUE(session_->Execute(q, {Value::Int(15)}, &r).ok());
  EXPECT_EQ(r.rows[0][0].string_value(), "v15");
  // Same SQL text, different parameters: no new translations.
  EXPECT_EQ(session_->plan_cache()->stats().misses, misses);
  // Unbound parameter errors cleanly.
  EXPECT_FALSE(session_->Execute(q, {}, &r).ok());
  // Parameters in UPDATE expressions too.
  ASSERT_TRUE(session_->Execute("UPDATE t SET y = ? WHERE x = ?",
                                {Value::String("patched"), Value::Int(3)},
                                &r)
                  .ok());
  ASSERT_TRUE(session_->Execute(q, {Value::Int(3)}, &r).ok());
  EXPECT_EQ(r.rows[0][0].string_value(), "patched");
}


TEST_F(SqlTest, AlterTableSetStorageMigratesData) {
  Must("CREATE TABLE t (x INT NOT NULL, y STRING)");
  for (int i = 0; i < 30; ++i) {
    Must("INSERT INTO t VALUES (" + std::to_string(i) + ", 'v')");
  }
  QueryResult r = Must("DESCRIBE t");
  EXPECT_EQ(r.rows[1][1].string_value().substr(0, 4), "heap");
  // Live migration to the btree storage method.
  Must("ALTER TABLE t SET STORAGE btree WITH (key = x)");
  r = Must("DESCRIBE t");
  EXPECT_EQ(r.rows[1][1].string_value().substr(0, 5), "btree");
  EXPECT_EQ(Must("SELECT COUNT(*) FROM t").rows[0][0].int_value(), 30);
  // Key order now governs scans; the data survived intact.
  r = Must("SELECT x FROM t LIMIT 3");
  EXPECT_EQ(r.rows[0][0].int_value(), 0);
  EXPECT_EQ(r.rows[1][0].int_value(), 1);
  // The relation keeps behaving like any other: inserts, unique key.
  Must("INSERT INTO t VALUES (100, 'new')");
  EXPECT_TRUE(Try("INSERT INTO t VALUES (100, 'dup')").IsConstraint());
}

TEST_F(SqlTest, SetStorageAbortRestoresOriginal) {
  Must("CREATE TABLE t (x INT NOT NULL, y STRING)");
  Must("INSERT INTO t VALUES (1, 'keep')");
  Must("BEGIN");
  Must("ALTER TABLE t SET STORAGE mainmemory");
  QueryResult r = Must("DESCRIBE t");
  EXPECT_EQ(r.rows[1][1].string_value().substr(0, 10), "mainmemory");
  Must("ROLLBACK");
  r = Must("DESCRIBE t");
  EXPECT_EQ(r.rows[1][1].string_value().substr(0, 4), "heap");
  EXPECT_EQ(Must("SELECT COUNT(*) FROM t").rows[0][0].int_value(), 1);
}

// ROLLBACK TO undoes the DDL made since the savepoint as ROLLBACK would,
// newest first, and keeps the DDL made before it.
TEST_F(SqlTest, RollbackToSavepointUndoesDdl) {
  Must("CREATE TABLE a (x INT NOT NULL, y STRING)");
  Must("INSERT INTO a VALUES (1, 'one'), (2, 'two')");
  Must("BEGIN");
  Must("CREATE TABLE kept (x INT NOT NULL)");
  Must("ALTER TABLE kept ADD DEFERRED CHECK (x < 100)");
  Must("SAVEPOINT s");
  Must("CREATE INDEX ON a (x)");
  Must("DROP TABLE a");
  Must("CREATE TABLE b (x INT)");
  Must("INSERT INTO b VALUES (7)");
  Must("CREATE INDEX ON kept (x)");
  Must("INSERT INTO kept VALUES (500)");  // its deferred check is dropped
  Must("ROLLBACK TO s");
  Must("INSERT INTO kept VALUES (5)");
  Must("COMMIT");

  Reopen();
  QueryResult count = Must("SELECT COUNT(*) FROM a");
  ASSERT_EQ(count.rows.size(), 1u);
  EXPECT_EQ(count.rows[0][0].int_value(), 2);
  EXPECT_TRUE(Try("SELECT * FROM b").IsInvalidArgument());
  EXPECT_EQ(Must("SELECT x FROM kept").rows.size(), 1u);
  const int bt = db_->registry()->FindAttachmentType("btree_index");
  for (const char* rel : {"a", "kept"}) {
    const RelationDescriptor* desc;
    ASSERT_TRUE(db_->FindRelation(rel, &desc).ok());
    EXPECT_FALSE(desc->HasAttachment(static_cast<AtId>(bt))) << rel;
    const std::string check = "CHECK " + std::string(rel);
    const std::string message = Must(check).message;
    EXPECT_EQ(message.rfind(check + ": clean", 0), 0u) << message;
  }
  EXPECT_TRUE(Try("INSERT INTO kept VALUES (500)").IsConstraint());
}

// A plan built inside an index create that is rolled back must not pass
// as valid once a later create brings the relation to the same number of
// DDL changes: undo installs the old descriptor under a new version.
TEST_F(SqlTest, PlanFromRolledBackIndexIsNotReused) {
  Must("CREATE TABLE t (x INT NOT NULL, y INT NOT NULL)");
  for (int i = 0; i < 200; i += 20) {
    std::string values;
    for (int j = i; j < i + 20; ++j) {
      values += (j > i ? ", (" : "(") + std::to_string(j) + ", " +
                std::to_string(1000 + j) + ")";
    }
    Must("INSERT INTO t VALUES " + values);
  }
  const std::string query = "SELECT y FROM t WHERE x = 7";
  Must("BEGIN");
  Must("CREATE INDEX ON t (x)");
  QueryResult r = Must(query);
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].int_value(), 1007);
  Must("ROLLBACK");
  Must("CREATE INDEX ON t (y)");  // the same instance number, on y
  r = Must(query);
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].int_value(), 1007);
}

TEST_F(SqlTest, BetweenAndInSugar) {
  Must("CREATE TABLE t (x INT, y STRING)");
  for (int i = 0; i < 10; ++i) {
    Must("INSERT INTO t VALUES (" + std::to_string(i) + ", 'v" +
         std::to_string(i) + "')");
  }
  QueryResult r = Must("SELECT x FROM t WHERE x BETWEEN 3 AND 6");
  EXPECT_EQ(r.rows.size(), 4u);
  r = Must("SELECT x FROM t WHERE y IN ('v1', 'v5', 'nope')");
  EXPECT_EQ(r.rows.size(), 2u);
  r = Must("SELECT x FROM t WHERE x IN (1) OR x BETWEEN 8 AND 9");
  EXPECT_EQ(r.rows.size(), 3u);
}

TEST_F(SqlTest, ExplainAnalyzeSingleTable) {
  Must("CREATE TABLE t (x INT, y STRING)");
  for (int i = 0; i < 30; ++i) {
    Must("INSERT INTO t VALUES (" + std::to_string(i) + ", 'v')");
  }
  QueryResult r = Must("EXPLAIN ANALYZE SELECT x FROM t WHERE x < 10");
  EXPECT_EQ(r.columns, (std::vector<std::string>{"operator", "rows_in",
                                                 "rows_out", "time_ms"}));
  ASSERT_GE(r.rows.size(), 2u);
  // Root is project; the leaf access operator scanned and kept 10 rows.
  EXPECT_EQ(r.rows[0][0].string_value(), "project");
  EXPECT_EQ(r.rows[0][2].int_value(), 10);
  const auto& access_row = r.rows.back();
  EXPECT_NE(access_row[0].string_value().find("access(t)"),
            std::string::npos);
  EXPECT_EQ(access_row[1].int_value(), 0);  // leaf: no children
  EXPECT_EQ(access_row[2].int_value(), 10);
  // Child rows are indented under the root.
  EXPECT_EQ(access_row[0].string_value().rfind("  ", 0), 0u);
}

TEST_F(SqlTest, ExplainAnalyzeNestedLoopJoinSharesInnerNode) {
  Must("CREATE TABLE a (x INT)");
  Must("CREATE TABLE b (y INT)");
  for (int i = 0; i < 5; ++i) {
    Must("INSERT INTO a VALUES (" + std::to_string(i) + ")");
    Must("INSERT INTO b VALUES (" + std::to_string(i) + ")");
  }
  QueryResult r =
      Must("EXPLAIN ANALYZE SELECT * FROM a, b WHERE a.x < b.y");
  std::string inner_name;
  int64_t inner_rows_out = 0;
  for (const auto& row : r.rows) {
    const std::string& name = row[0].string_value();
    if (name.find("[rescanned per outer row]") != std::string::npos) {
      inner_name = name;
      inner_rows_out = row[2].int_value();
    }
  }
  // The paper's call amplification: 5 outer rows x 5 inner rows all
  // accumulate into the one shared inner node.
  ASSERT_FALSE(inner_name.empty());
  EXPECT_EQ(inner_rows_out, 25);
}

TEST_F(SqlTest, ExplainAnalyzeDoesNotReturnDataRows) {
  Must("CREATE TABLE t (x INT)");
  Must("INSERT INTO t VALUES (1), (2), (3)");
  QueryResult r = Must("EXPLAIN ANALYZE SELECT * FROM t");
  for (const auto& row : r.rows) {
    EXPECT_EQ(row.size(), 4u);
    EXPECT_EQ(row[0].type(), TypeId::kString);
  }
  // Plain EXPLAIN still shows the translator's plan without executing.
  r = Must("EXPLAIN SELECT * FROM t");
  EXPECT_EQ(r.columns[0], "access_path");
}

}  // namespace
}  // namespace dmx
