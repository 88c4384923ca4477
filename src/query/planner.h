// Access-path planner: the query-planning side of the architecture.
//
// "Given a list of 'eligible' predicates supplied by the query planner, the
// storage method or access attachment can determine the 'relevance' of the
// predicates to the access path instance and then estimate the I/O and CPU
// costs to return the record fields or keys that satisfy the predicates."
//
// The planner enumerates access path 0 (the storage method) plus every
// instance of every access-path attachment on the relation, asks each for a
// cost, and picks the cheapest usable one. The chosen AccessPlan carries
// everything the executor needs: the path id, a ScanSpec (pushed filter and
// projection), the key operands of an ordered or probe-shaped path, and the
// residual predicate the executor re-checks after fetching records.
//
// Key operands are expressions — a literal or a `?` parameter — not encoded
// keys. The plan is therefore independent of parameter values: BindAccessKey
// evaluates the operands when a scan opens, so one bound plan serves every
// execution of `id = ?` with the same unique-index probe `id = 5` gets.

#ifndef DMX_QUERY_PLANNER_H_
#define DMX_QUERY_PLANNER_H_

#include <optional>
#include <string>
#include <vector>

#include "src/core/database.h"

namespace dmx {

/// The operands an attachment path's access key is composed from, each a
/// constant or a `?` parameter (MatchFieldCompare's operand), in the order
/// of AccessPlan::key_fields.
struct KeyOperands {
  /// Equality operands over the leading key fields, one per field.
  std::vector<ExprPtr> eq;
  /// Lower and upper bound operands on the key field after the equality
  /// prefix; the tightest of each wins when the key is bound.
  std::vector<ExprPtr> low;
  std::vector<ExprPtr> high;
};

/// A planned single-relation access.
struct AccessPlan {
  AccessPathId path;
  AccessCost cost;
  /// Scan template: pushed filter and projection. Key bounds are filled in
  /// per execution from `key` (see BindAccessKey).
  ScanSpec spec;
  KeyOperands key;
  /// Probe-only access path (hash): `key.eq` covers every key field and the
  /// bound key is looked up directly instead of scanned.
  bool probe = false;
  /// Predicate the executor evaluates against fetched records; null when
  /// the access path evaluates everything itself (storage-method scans).
  ExprPtr residual;
  /// True when the path returns record keys that must be fetched from the
  /// storage method ("First the access path is accessed to obtain a record
  /// key, which is then used to access the relation record").
  bool needs_fetch = false;
  /// Index-only access: every needed field is part of the access-path key,
  /// so the executor decodes field values from the key and never touches
  /// the storage method ("some access path attachments may be able to
  /// return record fields when the access path key is a multi-field
  /// value").
  bool index_only = false;
  /// Record fields composing the access key, in key order (set for
  /// attachment paths with field-composed keys).
  std::vector<int> key_fields;
  /// Fields the caller reads (from PlanAccess's needed_fields); empty =
  /// all. Sources materialize only these ("returns selected data fields
  /// from a record"); unread fields surface as NULL.
  std::vector<int> needed_fields;

  /// >= 2 when the planner judged the scan worth parallelising (storage
  /// method implements partition_scan, the pool has threads to spare, and
  /// the estimated cardinality amortises the exchange overhead). Only the
  /// read-only SELECT path acts on it; modification statements scan
  /// serially regardless.
  int parallel_workers = 0;

  /// True when some candidate's estimate read a literal operand's value
  /// (AccessCost::value_dependent): the choice may differ for other values
  /// of the same literals.
  bool value_dependent = false;

  /// Display form for examples/tests, e.g. "btree_index#1" or "heap scan".
  std::string DebugString(const ExtensionRegistry* registry) const;
};

/// Choose the cheapest access path for `predicate` (may be null = full
/// scan) on `desc`. `needed_fields` (optional) lists the record fields the
/// caller will read — enabling index-only plans when an access-path key
/// covers them. `only_path`, when set, restricts the choice to that path
/// (benches that measure every usable path force each in turn).
Status PlanAccess(Database* db, Transaction* txn,
                  const RelationDescriptor* desc, const ExprPtr& predicate,
                  AccessPlan* out,
                  const std::vector<int>* needed_fields = nullptr,
                  const AccessPathId* only_path = nullptr);

/// Bind `plan`'s access key to one execution: evaluate the key operands
/// with `params` and encode them — the equality prefix, then the tightest
/// range on the next key field — into `spec`'s key bounds, or into
/// `probe_key` for a probe path. The one key-building path for constants
/// and parameters alike. Sets *empty when an operand is NULL (no comparison
/// with NULL is true, so nothing qualifies). An operand the evaluator could
/// not compare with its key field is InvalidArgument, as a scan's filter
/// would report; a missing parameter is InvalidArgument too.
Status BindAccessKey(const ExprEvaluator& evaluator, const AccessPlan& plan,
                     const Schema& schema,
                     const std::vector<Value>* params, ScanSpec* spec,
                     std::string* probe_key, bool* empty);

/// All candidate costs, for tests/benches that inspect planner behaviour.
struct AccessCandidate {
  AccessPathId path;
  AccessCost cost;
};
Status EnumerateAccessPaths(Database* db, Transaction* txn,
                            const RelationDescriptor* desc,
                            const std::vector<ExprPtr>& conjuncts,
                            std::vector<AccessCandidate>* out);

}  // namespace dmx

#endif  // DMX_QUERY_PLANNER_H_
