// Expression trees for the common predicate evaluation service.
//
// The paper's common services include a filter-predicate evaluator that is
// shared by storage methods, access-path attachments, integrity-constraint
// attachments, and the query execution engine. It "will be able to call
// functions that are passed to it, and use any combination of fields from a
// record as operands. Additionally, both constant and variable data can be
// used". Expressions are serializable so that constraint attachments can
// store "a (Common Service) encoding of the predicate" in their descriptor.

#ifndef DMX_EXPR_EXPR_H_
#define DMX_EXPR_EXPR_H_

#include <memory>
#include <string>
#include <vector>

#include "src/types/record.h"
#include "src/types/value.h"
#include "src/util/status.h"

namespace dmx {

/// Expression node kinds.
enum class ExprOp : uint8_t {
  kConst = 0,   // literal Value
  kField = 1,   // record field by index
  kParam = 2,   // runtime parameter ("variable data")
  kCall = 3,    // user function registered with the evaluator
  kAnd = 4,
  kOr = 5,
  kNot = 6,
  kEq = 7,
  kNe = 8,
  kLt = 9,
  kLe = 10,
  kGt = 11,
  kGe = 12,
  kAdd = 13,
  kSub = 14,
  kMul = 15,
  kDiv = 16,
  kLike = 17,     // SQL LIKE with % and _
  kIsNull = 18,
  kEncloses = 19,  // spatial: record rect encloses query rect
  kWithin = 20,    // spatial: record rect within query rect
  kOverlaps = 21,  // spatial: record rect overlaps query rect
};

class Expr;
using ExprPtr = std::shared_ptr<const Expr>;

/// Immutable expression tree node. Build with the factory functions below.
///
/// Spatial nodes have exactly 8 children: children 0..3 are the *record*
/// rectangle (xmin, ymin, xmax, ymax — typically field refs) and children
/// 4..7 are the *query* rectangle (typically constants or params).
class Expr {
 public:
  ExprOp op() const { return op_; }
  const Value& constant() const { return constant_; }
  int field_index() const { return field_index_; }
  int param_index() const { return param_index_; }
  const std::string& func_name() const { return func_name_; }
  const std::vector<ExprPtr>& children() const { return children_; }
  const ExprPtr& child(size_t i) const { return children_[i]; }

  /// Collect the set of record field indexes this expression reads. The
  /// paper's access procedures use this "list of fields needed from the
  /// current record" to isolate fields before invoking the evaluator.
  void CollectFields(std::vector<int>* fields) const;

  /// Serialize to a portable byte string (descriptor encoding).
  void EncodeTo(std::string* dst) const;
  static Status DecodeFrom(Slice* input, ExprPtr* out);

  /// Display form, e.g. "(f0 >= 10 AND f2 = 'x')".
  std::string ToString() const;

  // -- factories ------------------------------------------------------------
  static ExprPtr Const(Value v);
  static ExprPtr Field(int index);
  static ExprPtr Param(int index);
  static ExprPtr Call(std::string func_name, std::vector<ExprPtr> args);
  static ExprPtr Unary(ExprOp op, ExprPtr a);
  static ExprPtr Binary(ExprOp op, ExprPtr a, ExprPtr b);
  static ExprPtr Nary(ExprOp op, std::vector<ExprPtr> children);
  /// Spatial predicate over a record rectangle (4 exprs, usually fields)
  /// and a query rectangle (4 exprs, usually constants).
  static ExprPtr Spatial(ExprOp op, std::vector<ExprPtr> record_rect,
                         std::vector<ExprPtr> query_rect);

  // Convenience builders for the common cases.
  static ExprPtr Eq(ExprPtr a, ExprPtr b) { return Binary(ExprOp::kEq, a, b); }
  static ExprPtr And(ExprPtr a, ExprPtr b) {
    return Binary(ExprOp::kAnd, a, b);
  }
  static ExprPtr Or(ExprPtr a, ExprPtr b) { return Binary(ExprOp::kOr, a, b); }
  static ExprPtr Cmp(ExprOp op, int field, Value v) {
    return Binary(op, Field(field), Const(std::move(v)));
  }

 private:
  Expr() = default;

  ExprOp op_ = ExprOp::kConst;
  Value constant_;
  int field_index_ = -1;
  int param_index_ = -1;
  std::string func_name_;
  std::vector<ExprPtr> children_;
};

/// Split a conjunctive expression into its top-level AND conjuncts.
void SplitConjuncts(const ExprPtr& e, std::vector<ExprPtr>* out);

/// Re-join conjuncts with AND; returns nullptr for an empty list.
ExprPtr JoinConjuncts(const std::vector<ExprPtr>& conjuncts);

/// If `e` is of the form `field OP operand` (or `operand OP field`, with OP
/// mirrored), where the operand is a constant or a parameter, report the
/// normalized parts and return true. Access paths use it to judge predicate
/// relevance, so `id = ?` is planned exactly like `id = 5`; the planner keeps
/// `*operand` (optional) and evaluates it when the scan opens.
bool MatchFieldCompare(const ExprPtr& e, int* field, ExprOp* op,
                       ExprPtr* operand = nullptr);

/// If `e` is a spatial predicate whose record rectangle is exactly the four
/// given field indexes, return true. Used by the R-tree attachment.
bool MatchSpatial(const ExprPtr& e, const int rect_fields[4], ExprOp* op,
                  double query_rect[4]);

}  // namespace dmx

#endif  // DMX_EXPR_EXPR_H_
