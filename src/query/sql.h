// A small SQL front end over the data management extension architecture.
//
// Supported statements (case-insensitive keywords):
//   CREATE TABLE t (col TYPE [NOT NULL], ...) [USING sm [WITH (k=v, ...)]]
//   DROP TABLE t
//   CREATE [UNIQUE] INDEX ON t (col, ...) [USING btree_index|hash_index]
//   CREATE ATTACHMENT ON t USING type [WITH (k = v, ...)]
//   ALTER TABLE t ADD [DEFERRED] CHECK (expr) [NAME ident]
//   ALTER TABLE t SET STORAGE sm [WITH (k = v, ...)]   (live migration)
//   DESCRIBE t
//   INSERT INTO t VALUES (v, ...), (v, ...) ...   (v: a literal or ?)
//   SELECT * | cols | COUNT(*) | SUM(c)|AVG(c)|MIN(c)|MAX(c)
//     FROM t [, u] [WHERE expr] [ORDER BY col [ASC|DESC]] [LIMIT n|?]
//   UPDATE t SET col = expr, ... [WHERE expr]
//   DELETE FROM t [WHERE expr]
//   EXPLAIN SELECT ...                 (reports the chosen access path)
//   GRANT priv[, priv] ON t TO user    (priv: SELECT|INSERT|UPDATE|DELETE|ALL)
//   REVOKE priv[, priv] ON t FROM user
//   SET USER name                      (identity for authorization checks)
//   SET DURABILITY STRICT|RELAXED      (commit ack at fsync vs WAL-append)
//   CHECKPOINT                         (incremental checkpoint + truncation)
//   BACKUP TO 'dir'                    (online fuzzy backup; superuser only)
//   RESTORE FROM 'backup' INTO 'dir' [ARCHIVE 'dir'] [TO LSN n]
//                                      (offline point-in-time recovery;
//                                       superuser only)
//   BEGIN / COMMIT / ROLLBACK / SAVEPOINT name / ROLLBACK TO name
//
// Types: INT, DOUBLE, STRING (or TEXT), BOOL. Expressions support
// comparisons, AND/OR/NOT, arithmetic, LIKE, BETWEEN, IN (...), IS [NOT]
// NULL, literals (integers, decimals, 'strings', TRUE/FALSE, NULL; a '-'
// before a digit is a sign wherever an operand may start), and `?`
// runtime parameters. A `?` is accepted wherever a literal is: in
// expressions, INSERT tuples and LIMIT; a CHECK predicate, which outlives
// its statement, stores the bound values as constants. Placeholders are numbered in
// textual order across the statement and bound by Session::Execute's
// params overload.
//
// Two-table SELECTs run a join; when the WHERE clause contains an equality
// between a column of each table and the inner table has a B-tree or hash
// access path on its column, the session picks an index nested-loop join,
// otherwise a plain nested loop.
//
// SELECT, UPDATE and DELETE are bound through the session's PlanCache,
// keyed by statement shape: the tokens with each number and string literal
// lifted out as a typed parameter, so `id = 17` and `id = 18` are one
// statement and `id = 2`, `id = 2.0` and `id = '2'` are three. The lifted
// values join the caller's `?` values in textual order as the execution's
// parameters. A repeated shape reuses its parsed statement and plan until
// DDL invalidates them (the paper's query-binding model): no parser, name
// resolution, catalog lookup or planning, only the lexer. A plan holds its
// parameters as expressions, never their values, so `id = ?` and every
// literal `id = n` share the unique-index probe and bind their own values
// when the scan opens. Where a cost estimate read a literal's value (a
// B-tree range counted in the tree), the shape keeps its parsed statement
// but plans each execution with its own values, so every choice is the one
// the literal text gets. Parameters belong to the execution, not to the
// session or the database: concurrent sessions running the same statement
// never see each other's values. INSERT, DDL and utility statements are
// parsed on every execution.

#ifndef DMX_QUERY_SQL_H_
#define DMX_QUERY_SQL_H_

#include <memory>
#include <string>
#include <vector>

#include "src/query/executor.h"

namespace dmx {

/// Result of one statement.
struct QueryResult {
  std::vector<std::string> columns;
  std::vector<std::vector<Value>> rows;
  /// For DDL/DML: affected-row count (-1 when not applicable).
  int64_t affected = -1;
  std::string message;

  /// Render as an ASCII table (examples).
  std::string ToString() const;
};

/// A connection-like object: owns the current transaction (autocommit when
/// no BEGIN is active) and a plan cache.
class Session {
 public:
  explicit Session(Database* db) : db_(db), plans_(db) {}
  ~Session();

  /// Execute one SQL statement.
  Status Execute(const std::string& sql, QueryResult* result);

  /// Execute with runtime parameters bound to `?` placeholders, in
  /// textual order (the common evaluator's "variable data"). The statement's
  /// bound plan is cached by statement shape and holds no parameter values,
  /// so repeated executions with different parameters or literals reuse one
  /// translation, including its access path: `id = ?` on a unique index is
  /// an index probe. `params` is read only for the duration of the call; a
  /// placeholder without a value is InvalidArgument (such a statement runs
  /// uncached, as written).
  Status Execute(const std::string& sql, const std::vector<Value>& params,
                 QueryResult* result);

  PlanCache* plan_cache() { return &plans_; }
  Database* db() { return db_; }

  /// User identity for the uniform authorization facility (also settable
  /// via the SET USER statement); "" = superuser.
  void set_user(std::string user) { user_ = std::move(user); }
  const std::string& user() const { return user_; }

  /// The transaction opened by BEGIN, or null (autocommit mode).
  Transaction* current_txn() { return txn_; }

 private:
  friend class SqlExecutor;

  Database* db_;
  PlanCache plans_;
  Transaction* txn_ = nullptr;
  std::string user_;
  // SET DURABILITY { STRICT | RELAXED }: per-session override of the
  // database's default commit-durability contract. Unset = inherit
  // DatabaseOptions::durability.
  bool has_durability_override_ = false;
  bool relaxed_durability_ = false;
};

}  // namespace dmx

#endif  // DMX_QUERY_SQL_H_
