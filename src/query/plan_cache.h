// PlanCache: bound query plans with dependency-based invalidation.
//
// "It is important to retain the translations of queries into query
// execution plans that directly invoke the relation and access path
// operations, and to use the saved query execution plans whenever the
// queries are subsequently executed. This query binding approach avoids the
// non-trivial costs of accessing the relation descriptions and optimizing
// the query at query execution time... A uniform mechanism for recording
// the dependencies of execution plans on the relations they use allows the
// system to invalidate any plans which depend upon relations or access
// paths that have been deleted. Invalidated execution plans are
// automatically re-translated, by the common system, the next time the
// query is invoked."
//
// A bound plan embeds a *snapshot* of the relation descriptor (so execution
// touches no catalogs) plus (relation id, version) dependencies; any DDL on
// a dependency bumps its version and the next lookup re-translates. The
// snapshot is the catalog's own immutable descriptor object, shared rather
// than copied, so a cached plan costs no descriptor bytes of its own.
//
// The SQL front end keys plans by statement shape: the text with each
// literal lifted out as a typed parameter, so `id = 17` and `id = 18` are
// one statement whose values are the plan's "variable data". Plans hold no
// parameter values: a `?` operand stays an expression in the plan (see
// KeyOperands) and each execution binds its own values, so one plan serves
// every execution of a shape. An entry also keeps the parsed statement, so
// a hit runs no parser. When a cost estimate read a lifted literal's value
// (AccessCost::value_dependent), the entry keeps only the statement and
// each execution plans its own access.

#ifndef DMX_QUERY_PLAN_CACHE_H_
#define DMX_QUERY_PLAN_CACHE_H_

#include <memory>
#include <unordered_map>

#include "src/query/planner.h"
#include "src/util/metrics.h"
#include "src/util/thread_annotations.h"

namespace dmx {

/// A parsed SQL statement (src/query/sql.cc).
struct ParsedStatement;

/// A retained translation of a query.
struct BoundPlan {
  /// Descriptor snapshot taken at bind time; the executor reads this, not
  /// the catalog. Never null in a plan that runs.
  std::shared_ptr<const RelationDescriptor> relation;
  AccessPlan access;
  /// (relation id, catalog version at bind time) — validity certificate.
  std::vector<std::pair<RelationId, uint64_t>> dependencies;
  /// The statement this plan translates, with its lifted literals and `?`s
  /// as parameters; null for plans bound through GetAccessPlan.
  std::shared_ptr<const ParsedStatement> statement;
  /// True when `access` is not retained: a cost estimate read a lifted
  /// literal's value, so each execution plans `statement` itself.
  bool plan_per_execution = false;
};

class PlanCache {
 public:
  explicit PlanCache(Database* db);

  /// The plan bound under `key` if its dependencies still hold, else null:
  /// a miss, or a stale plan, which is dropped and counted as a
  /// retranslation. The returned shared_ptr stays valid even if the entry
  /// is later invalidated.
  std::shared_ptr<const BoundPlan> Lookup(const std::string& key);

  /// Retain `plan` under `key`.
  void Insert(const std::string& key, std::shared_ptr<const BoundPlan> plan);

  /// Bind helper: the single-relation access plan for (relation,
  /// predicate) bound under `key`, translated and retained on a miss.
  /// `needed_fields` (optional) enables index-only plans (see PlanAccess).
  Status GetAccessPlan(Transaction* txn, const std::string& relation,
                       const ExprPtr& predicate, const std::string& key,
                       std::shared_ptr<const BoundPlan>* out,
                       const std::vector<int>* needed_fields = nullptr);

  struct Stats {
    Counter hits;
    Counter misses;
    Counter retranslations;  // stale plans rebuilt

    void Reset() {
      hits.Reset();
      misses.Reset();
      retranslations.Reset();
    }
  };
  const Stats& stats() const { return stats_; }
  void ResetStats() { stats_.Reset(); }
  size_t size() const;

 private:
  bool IsValid(const BoundPlan& plan) const;

  Database* db_;
  mutable Mutex mu_;
  std::unordered_map<std::string, std::shared_ptr<const BoundPlan>> plans_
      GUARDED_BY(mu_);
  Stats stats_;
  // Process-wide mirrors of stats_ ("plancache.*" in the registry).
  Counter* metric_hits_;
  Counter* metric_misses_;
  Counter* metric_retranslations_;
};

}  // namespace dmx

#endif  // DMX_QUERY_PLAN_CACHE_H_
