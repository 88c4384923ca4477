// ExprEvaluator: the common-service predicate evaluation facility.
//
// Shared by the query execution engine, storage-method and access-path
// filtering, and integrity-constraint attachments. Evaluates directly
// against a RecordView, i.e. against field bytes that may still live in an
// extension's buffer pool — no copy-out of the record is required.

#ifndef DMX_EXPR_EVALUATOR_H_
#define DMX_EXPR_EVALUATOR_H_

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "src/expr/expr.h"
#include "src/types/record.h"

namespace dmx {

/// A user function callable from expressions ("the predicate evaluator will
/// be able to call functions that are passed to it").
using UserFunction =
    std::function<Status(const std::vector<Value>& args, Value* result)>;

/// Field source abstraction: lets the evaluator run against packed records
/// (zero-copy, in the buffer pool) and against materialized value rows
/// (joined tuples in the executor) through one code path.
class TupleAccessor {
 public:
  virtual ~TupleAccessor() = default;
  virtual bool valid() const = 0;
  virtual size_t num_fields() const = 0;
  virtual Status GetField(int index, Value* out) const = 0;
};

/// Accessor over a packed record image.
class RecordAccessor : public TupleAccessor {
 public:
  explicit RecordAccessor(const RecordView& view) : view_(view) {}
  bool valid() const override { return view_.valid(); }
  size_t num_fields() const override {
    return view_.schema()->num_columns();
  }
  Status GetField(int index, Value* out) const override {
    *out = view_.GetValue(static_cast<size_t>(index));
    return Status::OK();
  }

 private:
  const RecordView& view_;
};

/// Accessor over a materialized row of values.
class ValuesAccessor : public TupleAccessor {
 public:
  explicit ValuesAccessor(const std::vector<Value>& values)
      : values_(values) {}
  bool valid() const override { return true; }
  size_t num_fields() const override { return values_.size(); }
  Status GetField(int index, Value* out) const override {
    *out = values_[static_cast<size_t>(index)];
    return Status::OK();
  }

 private:
  const std::vector<Value>& values_;
};

/// Evaluates expression trees with SQL-style three-valued NULL semantics.
///
/// Holds no per-statement state. The parameter values of one execution
/// ("variable data can be used by the predicate evaluator") arrive with
/// each call as a non-owning `params` pointer: the statement that binds
/// them keeps the vector alive while it runs, and a statement without `?`
/// passes null. So one evaluator serves every session and thread once its
/// function registry is set up.
class ExprEvaluator {
 public:
  ExprEvaluator() = default;

  /// Register a function callable via ExprOp::kCall nodes.
  void RegisterFunction(const std::string& name, UserFunction fn);

  /// Evaluate `e` against a tuple. NULL inputs propagate per SQL semantics.
  /// A kParam node reads `(*params)[index]`; an index past the end (or a
  /// null `params`) is InvalidArgument.
  Status Eval(const Expr& e, const TupleAccessor& row, Value* result,
              const std::vector<Value>* params = nullptr) const;

  /// Zero-copy convenience: evaluate against a packed record image.
  Status Eval(const Expr& e, const RecordView& row, Value* result,
              const std::vector<Value>* params = nullptr) const {
    RecordAccessor acc(row);
    return Eval(e, acc, result, params);
  }
  /// Convenience: evaluate against a materialized value row.
  Status Eval(const Expr& e, const std::vector<Value>& row, Value* result,
              const std::vector<Value>* params = nullptr) const {
    ValuesAccessor acc(row);
    return Eval(e, acc, result, params);
  }

  /// Evaluate a filter predicate: `*passes` is true iff the result is the
  /// non-NULL boolean TRUE (a NULL predicate result filters the row out).
  Status EvalPredicate(const Expr& e, const TupleAccessor& row, bool* passes,
                       const std::vector<Value>* params = nullptr) const;
  Status EvalPredicate(const Expr& e, const RecordView& row, bool* passes,
                       const std::vector<Value>* params = nullptr) const {
    RecordAccessor acc(row);
    return EvalPredicate(e, acc, passes, params);
  }
  Status EvalPredicate(const Expr& e, const std::vector<Value>& row,
                       bool* passes,
                       const std::vector<Value>* params = nullptr) const {
    ValuesAccessor acc(row);
    return EvalPredicate(e, acc, passes, params);
  }

  /// Evaluate with no row (constants/params/calls only).
  Status EvalConst(const Expr& e, Value* result,
                   const std::vector<Value>* params = nullptr) const {
    RecordView none;
    return Eval(e, none, result, params);
  }

 private:
  Status EvalComparison(const Expr& e, const TupleAccessor& row,
                        Value* result, const std::vector<Value>* params) const;
  Status EvalArithmetic(const Expr& e, const TupleAccessor& row,
                        Value* result, const std::vector<Value>* params) const;
  Status EvalSpatial(const Expr& e, const TupleAccessor& row, Value* result,
                     const std::vector<Value>* params) const;

  std::map<std::string, UserFunction> functions_;
};

/// SQL LIKE matcher with `%` (any run) and `_` (any single char).
bool LikeMatch(const Slice& text, const Slice& pattern);

}  // namespace dmx

#endif  // DMX_EXPR_EVALUATOR_H_
