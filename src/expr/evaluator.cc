#include "src/expr/evaluator.h"

#include <cmath>

namespace dmx {

namespace {

// Kleene logic encoding: Value() (NULL) = unknown.
Value TriNot(const Value& v) {
  if (v.is_null()) return Value::Null();
  return Value::Bool(!v.bool_value());
}

}  // namespace

bool LikeMatch(const Slice& text, const Slice& pattern) {
  // Iterative two-pointer match with backtracking on the last '%'.
  size_t t = 0, p = 0;
  size_t star_p = std::string::npos, star_t = 0;
  while (t < text.size()) {
    if (p < pattern.size() &&
        (pattern[p] == '_' || pattern[p] == text[t])) {
      ++t;
      ++p;
    } else if (p < pattern.size() && pattern[p] == '%') {
      star_p = p++;
      star_t = t;
    } else if (star_p != std::string::npos) {
      p = star_p + 1;
      t = ++star_t;
    } else {
      return false;
    }
  }
  while (p < pattern.size() && pattern[p] == '%') ++p;
  return p == pattern.size();
}

void ExprEvaluator::RegisterFunction(const std::string& name,
                                     UserFunction fn) {
  functions_[name] = std::move(fn);
}

Status ExprEvaluator::EvalPredicate(
    const Expr& e, const TupleAccessor& row, bool* passes,
    const std::vector<Value>* params) const {
  Value v;
  DMX_RETURN_IF_ERROR(Eval(e, row, &v, params));
  *passes = !v.is_null() && v.type() == TypeId::kBool && v.bool_value();
  return Status::OK();
}

Status ExprEvaluator::Eval(const Expr& e, const TupleAccessor& row,
                           Value* result,
                           const std::vector<Value>* params) const {
  switch (e.op()) {
    case ExprOp::kConst:
      *result = e.constant();
      return Status::OK();
    case ExprOp::kField:
      if (!row.valid()) {
        return Status::InvalidArgument("field reference without a row");
      }
      if (e.field_index() < 0 ||
          static_cast<size_t>(e.field_index()) >= row.num_fields()) {
        return Status::InvalidArgument("field index out of range");
      }
      return row.GetField(e.field_index(), result);
    case ExprOp::kParam:
      if (params == nullptr || e.param_index() < 0 ||
          static_cast<size_t>(e.param_index()) >= params->size()) {
        return Status::InvalidArgument(
            "parameter ?" + std::to_string(e.param_index() + 1) +
            " not bound");
      }
      *result = (*params)[static_cast<size_t>(e.param_index())];
      return Status::OK();
    case ExprOp::kCall: {
      auto it = functions_.find(e.func_name());
      if (it == functions_.end()) {
        return Status::NotFound("function '" + e.func_name() + "'");
      }
      std::vector<Value> args;
      args.reserve(e.children().size());
      for (const auto& c : e.children()) {
        Value v;
        DMX_RETURN_IF_ERROR(Eval(*c, row, &v, params));
        args.push_back(std::move(v));
      }
      return it->second(args, result);
    }
    case ExprOp::kAnd: {
      // Kleene AND: FALSE dominates, short-circuits.
      bool saw_null = false;
      for (const auto& c : e.children()) {
        Value v;
        DMX_RETURN_IF_ERROR(Eval(*c, row, &v, params));
        if (v.is_null()) {
          saw_null = true;
        } else if (v.type() != TypeId::kBool) {
          return Status::InvalidArgument("AND operand not boolean");
        } else if (!v.bool_value()) {
          *result = Value::Bool(false);
          return Status::OK();
        }
      }
      *result = saw_null ? Value::Null() : Value::Bool(true);
      return Status::OK();
    }
    case ExprOp::kOr: {
      bool saw_null = false;
      for (const auto& c : e.children()) {
        Value v;
        DMX_RETURN_IF_ERROR(Eval(*c, row, &v, params));
        if (v.is_null()) {
          saw_null = true;
        } else if (v.type() != TypeId::kBool) {
          return Status::InvalidArgument("OR operand not boolean");
        } else if (v.bool_value()) {
          *result = Value::Bool(true);
          return Status::OK();
        }
      }
      *result = saw_null ? Value::Null() : Value::Bool(false);
      return Status::OK();
    }
    case ExprOp::kNot: {
      Value v;
      DMX_RETURN_IF_ERROR(Eval(*e.child(0), row, &v, params));
      if (!v.is_null() && v.type() != TypeId::kBool) {
        return Status::InvalidArgument("NOT operand not boolean");
      }
      *result = TriNot(v);
      return Status::OK();
    }
    case ExprOp::kIsNull: {
      Value v;
      DMX_RETURN_IF_ERROR(Eval(*e.child(0), row, &v, params));
      *result = Value::Bool(v.is_null());
      return Status::OK();
    }
    case ExprOp::kEq:
    case ExprOp::kNe:
    case ExprOp::kLt:
    case ExprOp::kLe:
    case ExprOp::kGt:
    case ExprOp::kGe:
      return EvalComparison(e, row, result, params);
    case ExprOp::kAdd:
    case ExprOp::kSub:
    case ExprOp::kMul:
    case ExprOp::kDiv:
      return EvalArithmetic(e, row, result, params);
    case ExprOp::kLike: {
      Value text, pat;
      DMX_RETURN_IF_ERROR(Eval(*e.child(0), row, &text, params));
      DMX_RETURN_IF_ERROR(Eval(*e.child(1), row, &pat, params));
      if (text.is_null() || pat.is_null()) {
        *result = Value::Null();
        return Status::OK();
      }
      if (text.type() != TypeId::kString || pat.type() != TypeId::kString) {
        return Status::InvalidArgument("LIKE operands must be strings");
      }
      *result = Value::Bool(
          LikeMatch(Slice(text.string_value()), Slice(pat.string_value())));
      return Status::OK();
    }
    case ExprOp::kEncloses:
    case ExprOp::kWithin:
    case ExprOp::kOverlaps:
      return EvalSpatial(e, row, result, params);
  }
  return Status::Internal("unhandled expression op");
}

Status ExprEvaluator::EvalComparison(
    const Expr& e, const TupleAccessor& row, Value* result,
    const std::vector<Value>* params) const {
  Value a, b;
  DMX_RETURN_IF_ERROR(Eval(*e.child(0), row, &a, params));
  DMX_RETURN_IF_ERROR(Eval(*e.child(1), row, &b, params));
  if (a.is_null() || b.is_null()) {
    *result = Value::Null();
    return Status::OK();
  }
  const bool comparable = (a.is_numeric() && b.is_numeric()) ||
                          a.type() == b.type();
  if (!comparable) {
    return Status::InvalidArgument(
        std::string("cannot compare ") + TypeName(a.type()) + " with " +
        TypeName(b.type()));
  }
  int c = a.Compare(b);
  bool r = false;
  switch (e.op()) {
    case ExprOp::kEq: r = c == 0; break;
    case ExprOp::kNe: r = c != 0; break;
    case ExprOp::kLt: r = c < 0; break;
    case ExprOp::kLe: r = c <= 0; break;
    case ExprOp::kGt: r = c > 0; break;
    case ExprOp::kGe: r = c >= 0; break;
    default: break;
  }
  *result = Value::Bool(r);
  return Status::OK();
}

Status ExprEvaluator::EvalArithmetic(
    const Expr& e, const TupleAccessor& row, Value* result,
    const std::vector<Value>* params) const {
  Value a, b;
  DMX_RETURN_IF_ERROR(Eval(*e.child(0), row, &a, params));
  DMX_RETURN_IF_ERROR(Eval(*e.child(1), row, &b, params));
  if (a.is_null() || b.is_null()) {
    *result = Value::Null();
    return Status::OK();
  }
  if (!a.is_numeric() || !b.is_numeric()) {
    return Status::InvalidArgument("arithmetic on non-numeric value");
  }
  const bool both_int =
      a.type() == TypeId::kInt64 && b.type() == TypeId::kInt64;
  switch (e.op()) {
    case ExprOp::kAdd:
      *result = both_int ? Value::Int(a.int_value() + b.int_value())
                         : Value::Double(a.AsDouble() + b.AsDouble());
      break;
    case ExprOp::kSub:
      *result = both_int ? Value::Int(a.int_value() - b.int_value())
                         : Value::Double(a.AsDouble() - b.AsDouble());
      break;
    case ExprOp::kMul:
      *result = both_int ? Value::Int(a.int_value() * b.int_value())
                         : Value::Double(a.AsDouble() * b.AsDouble());
      break;
    case ExprOp::kDiv:
      if (both_int) {
        if (b.int_value() == 0) return Status::InvalidArgument("div by zero");
        *result = Value::Int(a.int_value() / b.int_value());
      } else {
        if (b.AsDouble() == 0.0) {
          return Status::InvalidArgument("div by zero");
        }
        *result = Value::Double(a.AsDouble() / b.AsDouble());
      }
      break;
    default:
      break;
  }
  return Status::OK();
}

Status ExprEvaluator::EvalSpatial(
    const Expr& e, const TupleAccessor& row, Value* result,
    const std::vector<Value>* params) const {
  if (e.children().size() != 8) {
    return Status::InvalidArgument("spatial predicate needs 8 operands");
  }
  double rect[8];
  for (int i = 0; i < 8; ++i) {
    Value v;
    DMX_RETURN_IF_ERROR(Eval(*e.child(i), row, &v, params));
    if (v.is_null()) {
      *result = Value::Null();
      return Status::OK();
    }
    if (!v.is_numeric()) {
      return Status::InvalidArgument("spatial operand not numeric");
    }
    rect[i] = v.AsDouble();
  }
  // rect[0..3] = record rect, rect[4..7] = query rect; (xmin,ymin,xmax,ymax).
  const double* rrec = rect;
  const double* qry = rect + 4;
  bool r = false;
  switch (e.op()) {
    case ExprOp::kEncloses:  // record rect encloses query rect
      r = rrec[0] <= qry[0] && rrec[1] <= qry[1] && rrec[2] >= qry[2] &&
          rrec[3] >= qry[3];
      break;
    case ExprOp::kWithin:  // record rect within query rect
      r = qry[0] <= rrec[0] && qry[1] <= rrec[1] && qry[2] >= rrec[2] &&
          qry[3] >= rrec[3];
      break;
    case ExprOp::kOverlaps:
      r = rrec[0] <= qry[2] && qry[0] <= rrec[2] && rrec[1] <= qry[3] &&
          qry[1] <= rrec[3];
      break;
    default:
      break;
  }
  *result = Value::Bool(r);
  return Status::OK();
}

}  // namespace dmx
