// Shared selectivity heuristics used by storage-method and access-path
// cost estimators. Deliberately simple, System-R-style magic numbers: the
// architecture's point is *where* costing lives (inside each extension),
// not the sophistication of the estimates. They are the fallback: an
// estimator that can read its own structure does better, as btree_index
// does for literal key ranges (BTree::EstimateRange counts the range from
// the tree's key positions); `?` operands, whose values a bound plan does
// not hold, still get these numbers. An estimate that read a literal's
// value says so (AccessCost::value_dependent), and the SQL plan cache then
// plans each execution of the statement with its own values.

#ifndef DMX_CORE_COSTING_H_
#define DMX_CORE_COSTING_H_

#include "src/expr/expr.h"

namespace dmx {

/// Cost of fetching one record by key through the storage method (the
/// record lock, which the scan's relation S lock covers, a buffer-pool
/// fetch, a record copy and the executor's residual check), in units of
/// one sequentially scanned record. Measured on a 4-core Xeon, Release: a
/// B-tree range fetches at ~0.53 µs per row, while a full heap scan steps
/// at ~37 ns per record on bench_access_select's relation (14 steps per
/// fetch) and ~100 ns on the Figure-1 EMPLOYEE relation (5.5). 10 sits
/// between them: a B-tree range beats the scan below ~1/11 of the relation,
/// and the heuristic range of `?` operands (0.33 x 0.33) still prices
/// above the scan. E5 checks the choice against every usable path.
constexpr double kRecordFetchCost = 10.0;

/// Rough selectivity of one predicate conjunct.
inline double EstimateSelectivity(const ExprPtr& pred) {
  if (!pred) return 1.0;
  switch (pred->op()) {
    case ExprOp::kEq: return 0.005;
    case ExprOp::kNe: return 0.95;
    case ExprOp::kLt:
    case ExprOp::kLe:
    case ExprOp::kGt:
    case ExprOp::kGe: return 0.33;
    case ExprOp::kLike: return 0.25;
    case ExprOp::kIsNull: return 0.1;
    case ExprOp::kEncloses:
    case ExprOp::kWithin:
    case ExprOp::kOverlaps: return 0.005;
    case ExprOp::kAnd: {
      double s = 1.0;
      for (const auto& c : pred->children()) s *= EstimateSelectivity(c);
      return s;
    }
    case ExprOp::kOr: {
      double s = 1.0;
      for (const auto& c : pred->children()) s *= 1.0 - EstimateSelectivity(c);
      return 1.0 - s;
    }
    case ExprOp::kNot:
      return 1.0 - EstimateSelectivity(pred->child(0));
    default:
      return 0.5;
  }
}

/// Combined selectivity of a conjunct list.
inline double EstimateSelectivity(const std::vector<ExprPtr>& preds) {
  double s = 1.0;
  for (const auto& p : preds) s *= EstimateSelectivity(p);
  return s;
}

}  // namespace dmx

#endif  // DMX_CORE_COSTING_H_
