// Unit tests for the common predicate-evaluation service.

#include <gtest/gtest.h>

#include "src/expr/evaluator.h"
#include "src/expr/expr.h"
#include "src/types/record.h"

namespace dmx {
namespace {

Schema TestSchema() {
  return Schema({{"id", TypeId::kInt64, false},
                 {"name", TypeId::kString, true},
                 {"salary", TypeId::kDouble, true},
                 {"active", TypeId::kBool, true}});
}

class ExprTest : public ::testing::Test {
 protected:
  ExprTest() : schema_(TestSchema()) {
    EXPECT_TRUE(Record::Encode(schema_,
                               {Value::Int(42), Value::String("guttman"),
                                Value::Double(1250.5), Value::Bool(true)},
                               &rec_)
                    .ok());
    view_ = rec_.View(&schema_);
  }

  Value Eval(const ExprPtr& e) {
    Value v;
    Status s = eval_.Eval(*e, view_, &v);
    EXPECT_TRUE(s.ok()) << s.ToString();
    return v;
  }

  bool Passes(const ExprPtr& e) {
    bool p = false;
    Status s = eval_.EvalPredicate(*e, view_, &p);
    EXPECT_TRUE(s.ok()) << s.ToString();
    return p;
  }

  Schema schema_;
  Record rec_;
  RecordView view_;
  ExprEvaluator eval_;
};

TEST_F(ExprTest, ConstAndField) {
  EXPECT_EQ(Eval(Expr::Const(Value::Int(7))).int_value(), 7);
  EXPECT_EQ(Eval(Expr::Field(0)).int_value(), 42);
  EXPECT_EQ(Eval(Expr::Field(1)).string_value(), "guttman");
}

TEST_F(ExprTest, Comparisons) {
  EXPECT_TRUE(Passes(Expr::Cmp(ExprOp::kEq, 0, Value::Int(42))));
  EXPECT_FALSE(Passes(Expr::Cmp(ExprOp::kEq, 0, Value::Int(43))));
  EXPECT_TRUE(Passes(Expr::Cmp(ExprOp::kGt, 2, Value::Double(1000.0))));
  EXPECT_TRUE(Passes(Expr::Cmp(ExprOp::kLe, 0, Value::Int(42))));
  EXPECT_FALSE(Passes(Expr::Cmp(ExprOp::kLt, 0, Value::Int(42))));
  EXPECT_TRUE(Passes(Expr::Cmp(ExprOp::kNe, 1, Value::String("x"))));
  // Cross-type numeric: int field vs double constant.
  EXPECT_TRUE(Passes(Expr::Cmp(ExprOp::kGt, 0, Value::Double(41.5))));
}

TEST_F(ExprTest, MirroredComparison) {
  // const < field  ==  field > const
  auto e = Expr::Binary(ExprOp::kLt, Expr::Const(Value::Int(10)),
                        Expr::Field(0));
  EXPECT_TRUE(Passes(e));
}

TEST_F(ExprTest, LogicalOps) {
  auto t = Expr::Cmp(ExprOp::kEq, 0, Value::Int(42));
  auto f = Expr::Cmp(ExprOp::kEq, 0, Value::Int(0));
  EXPECT_TRUE(Passes(Expr::And(t, t)));
  EXPECT_FALSE(Passes(Expr::And(t, f)));
  EXPECT_TRUE(Passes(Expr::Or(f, t)));
  EXPECT_FALSE(Passes(Expr::Or(f, f)));
  EXPECT_TRUE(Passes(Expr::Unary(ExprOp::kNot, f)));
  EXPECT_FALSE(Passes(Expr::Unary(ExprOp::kNot, t)));
}

TEST_F(ExprTest, NullSemantics) {
  Record rec;
  ASSERT_TRUE(Record::Encode(schema_,
                             {Value::Int(1), Value::Null(), Value::Null(),
                              Value::Null()},
                             &rec)
                  .ok());
  RecordView v = rec.View(&schema_);
  ExprEvaluator ev;
  // NULL = anything -> NULL -> predicate fails.
  bool p = true;
  auto cmp = Expr::Cmp(ExprOp::kEq, 2, Value::Double(1.0));
  ASSERT_TRUE(ev.EvalPredicate(*cmp, v, &p).ok());
  EXPECT_FALSE(p);
  // IS NULL.
  auto isnull = Expr::Unary(ExprOp::kIsNull, Expr::Field(2));
  ASSERT_TRUE(ev.EvalPredicate(*isnull, v, &p).ok());
  EXPECT_TRUE(p);
  // NULL OR TRUE = TRUE (Kleene).
  auto t = Expr::Cmp(ExprOp::kEq, 0, Value::Int(1));
  ASSERT_TRUE(ev.EvalPredicate(*Expr::Or(cmp, t), v, &p).ok());
  EXPECT_TRUE(p);
  // NULL AND FALSE = FALSE, NULL AND TRUE = NULL.
  Value out;
  ASSERT_TRUE(ev.Eval(*Expr::And(cmp, t), v, &out).ok());
  EXPECT_TRUE(out.is_null());
}

TEST_F(ExprTest, Arithmetic) {
  auto e = Expr::Binary(ExprOp::kAdd, Expr::Field(0), Expr::Const(Value::Int(8)));
  EXPECT_EQ(Eval(e).int_value(), 50);
  auto d = Expr::Binary(ExprOp::kMul, Expr::Field(2),
                        Expr::Const(Value::Double(2.0)));
  EXPECT_EQ(Eval(d).double_value(), 2501.0);
  // Division by zero is an error, not a crash.
  Value v;
  auto bad = Expr::Binary(ExprOp::kDiv, Expr::Field(0),
                          Expr::Const(Value::Int(0)));
  EXPECT_FALSE(eval_.Eval(*bad, view_, &v).ok());
}

TEST_F(ExprTest, LikePatterns) {
  EXPECT_TRUE(LikeMatch(Slice("guttman"), Slice("gutt%")));
  EXPECT_TRUE(LikeMatch(Slice("guttman"), Slice("%man")));
  EXPECT_TRUE(LikeMatch(Slice("guttman"), Slice("%ttm%")));
  EXPECT_TRUE(LikeMatch(Slice("guttman"), Slice("g_ttman")));
  EXPECT_FALSE(LikeMatch(Slice("guttman"), Slice("g_tman")));
  EXPECT_TRUE(LikeMatch(Slice(""), Slice("%")));
  EXPECT_FALSE(LikeMatch(Slice(""), Slice("_")));
  EXPECT_TRUE(LikeMatch(Slice("abc"), Slice("abc")));
  EXPECT_FALSE(LikeMatch(Slice("abc"), Slice("ab")));

  auto e = Expr::Binary(ExprOp::kLike, Expr::Field(1),
                        Expr::Const(Value::String("gut%")));
  EXPECT_TRUE(Passes(e));
}

TEST_F(ExprTest, UserFunctionsAndParams) {
  eval_.RegisterFunction("double_it",
                         [](const std::vector<Value>& args, Value* out) {
                           *out = Value::Int(args[0].int_value() * 2);
                           return Status::OK();
                         });
  // Parameters travel with the call, not with the evaluator.
  const std::vector<Value> params = {Value::Int(84)};
  // double_it(f0) == $0
  auto e = Expr::Eq(Expr::Call("double_it", {Expr::Field(0)}), Expr::Param(0));
  bool passes = false;
  ASSERT_TRUE(eval_.EvalPredicate(*e, view_, &passes, &params).ok());
  EXPECT_TRUE(passes);
  const std::vector<Value> other = {Value::Int(85)};
  ASSERT_TRUE(eval_.EvalPredicate(*e, view_, &passes, &other).ok());
  EXPECT_FALSE(passes);
  // Unknown function errors.
  Value v;
  EXPECT_TRUE(eval_.Eval(*Expr::Call("nope", {}), view_, &v).IsNotFound());
  // Unbound param errors: past the end, or no parameters at all.
  EXPECT_TRUE(eval_.Eval(*Expr::Param(3), view_, &v, &params)
                  .IsInvalidArgument());
  EXPECT_TRUE(eval_.Eval(*Expr::Param(0), view_, &v).IsInvalidArgument());
}

TEST_F(ExprTest, SpatialPredicates) {
  Schema rect_schema({{"xmin", TypeId::kDouble, false},
                      {"ymin", TypeId::kDouble, false},
                      {"xmax", TypeId::kDouble, false},
                      {"ymax", TypeId::kDouble, false}});
  Record rec;
  ASSERT_TRUE(Record::Encode(rect_schema,
                             {Value::Double(0), Value::Double(0),
                              Value::Double(10), Value::Double(10)},
                             &rec)
                  .ok());
  RecordView v = rec.View(&rect_schema);
  ExprEvaluator ev;
  auto rect_fields = [] {
    return std::vector<ExprPtr>{Expr::Field(0), Expr::Field(1), Expr::Field(2),
                                Expr::Field(3)};
  };
  auto query = [](double a, double b, double c, double d) {
    return std::vector<ExprPtr>{
        Expr::Const(Value::Double(a)), Expr::Const(Value::Double(b)),
        Expr::Const(Value::Double(c)), Expr::Const(Value::Double(d))};
  };
  bool p;
  // Record [0,10]^2 ENCLOSES [2,4]^2.
  auto enc = Expr::Spatial(ExprOp::kEncloses, rect_fields(), query(2, 2, 4, 4));
  ASSERT_TRUE(ev.EvalPredicate(*enc, v, &p).ok());
  EXPECT_TRUE(p);
  // Record does not enclose [5,15]^2.
  enc = Expr::Spatial(ExprOp::kEncloses, rect_fields(), query(5, 5, 15, 15));
  ASSERT_TRUE(ev.EvalPredicate(*enc, v, &p).ok());
  EXPECT_FALSE(p);
  // But it overlaps it.
  auto ovl = Expr::Spatial(ExprOp::kOverlaps, rect_fields(), query(5, 5, 15, 15));
  ASSERT_TRUE(ev.EvalPredicate(*ovl, v, &p).ok());
  EXPECT_TRUE(p);
  // Disjoint: no overlap.
  ovl = Expr::Spatial(ExprOp::kOverlaps, rect_fields(), query(11, 11, 12, 12));
  ASSERT_TRUE(ev.EvalPredicate(*ovl, v, &p).ok());
  EXPECT_FALSE(p);
  // Record within [−1, 11]^2.
  auto win = Expr::Spatial(ExprOp::kWithin, rect_fields(), query(-1, -1, 11, 11));
  ASSERT_TRUE(ev.EvalPredicate(*win, v, &p).ok());
  EXPECT_TRUE(p);
}

TEST_F(ExprTest, CollectFields) {
  auto e = Expr::And(Expr::Cmp(ExprOp::kGt, 2, Value::Double(1.0)),
                     Expr::Or(Expr::Cmp(ExprOp::kEq, 0, Value::Int(1)),
                              Expr::Cmp(ExprOp::kEq, 2, Value::Double(2.0))));
  std::vector<int> fields;
  e->CollectFields(&fields);
  EXPECT_EQ(fields.size(), 2u);  // {2, 0}, deduplicated
}

TEST_F(ExprTest, EncodeDecodeRoundTrip) {
  auto e = Expr::And(
      Expr::Cmp(ExprOp::kGe, 0, Value::Int(10)),
      Expr::Or(Expr::Binary(ExprOp::kLike, Expr::Field(1),
                            Expr::Const(Value::String("a%"))),
               Expr::Call("f", {Expr::Param(0), Expr::Field(2)})));
  std::string buf;
  e->EncodeTo(&buf);
  Slice in(buf);
  ExprPtr back;
  ASSERT_TRUE(Expr::DecodeFrom(&in, &back).ok());
  EXPECT_TRUE(in.empty());
  EXPECT_EQ(e->ToString(), back->ToString());
}

TEST_F(ExprTest, DecodeRejectsGarbage) {
  std::string garbage = "\x07\x01";
  Slice in(garbage);
  ExprPtr out;
  EXPECT_FALSE(Expr::DecodeFrom(&in, &out).ok());
}

TEST_F(ExprTest, SplitAndJoinConjuncts) {
  auto a = Expr::Cmp(ExprOp::kEq, 0, Value::Int(1));
  auto b = Expr::Cmp(ExprOp::kGt, 2, Value::Double(5.0));
  auto c = Expr::Cmp(ExprOp::kNe, 1, Value::String("x"));
  auto e = Expr::And(Expr::And(a, b), c);
  std::vector<ExprPtr> parts;
  SplitConjuncts(e, &parts);
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0]->ToString(), a->ToString());
  auto joined = JoinConjuncts(parts);
  std::vector<ExprPtr> again;
  SplitConjuncts(joined, &again);
  EXPECT_EQ(again.size(), 3u);
  EXPECT_EQ(JoinConjuncts({}), nullptr);
}

TEST_F(ExprTest, MatchFieldCompare) {
  int field;
  ExprOp op;
  ExprPtr operand;
  auto e = Expr::Cmp(ExprOp::kLt, 2, Value::Double(9.0));
  ASSERT_TRUE(MatchFieldCompare(e, &field, &op, &operand));
  EXPECT_EQ(field, 2);
  EXPECT_EQ(op, ExprOp::kLt);
  ASSERT_EQ(operand->op(), ExprOp::kConst);
  EXPECT_EQ(operand->constant().AsDouble(), 9.0);
  // Mirrored: 5 <= f0  ->  f0 >= 5.
  auto m = Expr::Binary(ExprOp::kLe, Expr::Const(Value::Int(5)), Expr::Field(0));
  ASSERT_TRUE(MatchFieldCompare(m, &field, &op, &operand));
  EXPECT_EQ(field, 0);
  EXPECT_EQ(op, ExprOp::kGe);
  // A parameter is an operand like a constant: f1 = ?2 (mirrored ?2 = f1).
  auto p = Expr::Eq(Expr::Param(1), Expr::Field(1));
  ASSERT_TRUE(MatchFieldCompare(p, &field, &op));  // operand is optional
  ASSERT_TRUE(MatchFieldCompare(p, &field, &op, &operand));
  EXPECT_EQ(field, 1);
  EXPECT_EQ(op, ExprOp::kEq);
  ASSERT_EQ(operand->op(), ExprOp::kParam);
  EXPECT_EQ(operand->param_index(), 1);
  // Not a field-vs-operand comparison.
  auto ff = Expr::Eq(Expr::Field(0), Expr::Field(1));
  EXPECT_FALSE(MatchFieldCompare(ff, &field, &op, &operand));
  auto fx = Expr::Eq(Expr::Field(0),
                     Expr::Binary(ExprOp::kAdd, Expr::Param(0),
                                  Expr::Const(Value::Int(1))));
  EXPECT_FALSE(MatchFieldCompare(fx, &field, &op, &operand));
}

TEST_F(ExprTest, MatchSpatial) {
  const int rect[4] = {0, 1, 2, 3};
  auto e = Expr::Spatial(
      ExprOp::kOverlaps,
      {Expr::Field(0), Expr::Field(1), Expr::Field(2), Expr::Field(3)},
      {Expr::Const(Value::Double(1)), Expr::Const(Value::Double(2)),
       Expr::Const(Value::Double(3)), Expr::Const(Value::Double(4))});
  ExprOp op;
  double q[4];
  ASSERT_TRUE(MatchSpatial(e, rect, &op, q));
  EXPECT_EQ(op, ExprOp::kOverlaps);
  EXPECT_EQ(q[0], 1.0);
  EXPECT_EQ(q[3], 4.0);
  // Different field order: no match.
  const int other[4] = {3, 2, 1, 0};
  EXPECT_FALSE(MatchSpatial(e, other, &op, q));
  // Non-spatial op: no match.
  EXPECT_FALSE(MatchSpatial(Expr::Cmp(ExprOp::kEq, 0, Value::Int(1)), rect,
                            &op, q));
}

TEST_F(ExprTest, TypeMismatchComparisonErrors) {
  Value v;
  auto e = Expr::Cmp(ExprOp::kEq, 1, Value::Int(5));  // string vs int
  EXPECT_TRUE(eval_.Eval(*e, view_, &v).IsInvalidArgument());
}

}  // namespace
}  // namespace dmx
