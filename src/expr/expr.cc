#include "src/expr/expr.h"

#include <algorithm>

#include "src/util/coding.h"

namespace dmx {

namespace {

bool IsComparison(ExprOp op) {
  return op >= ExprOp::kEq && op <= ExprOp::kGe;
}

ExprOp MirrorComparison(ExprOp op) {
  switch (op) {
    case ExprOp::kLt: return ExprOp::kGt;
    case ExprOp::kLe: return ExprOp::kGe;
    case ExprOp::kGt: return ExprOp::kLt;
    case ExprOp::kGe: return ExprOp::kLe;
    default: return op;  // Eq / Ne are symmetric
  }
}

const char* OpSymbol(ExprOp op) {
  switch (op) {
    case ExprOp::kAnd: return "AND";
    case ExprOp::kOr: return "OR";
    case ExprOp::kNot: return "NOT";
    case ExprOp::kEq: return "=";
    case ExprOp::kNe: return "<>";
    case ExprOp::kLt: return "<";
    case ExprOp::kLe: return "<=";
    case ExprOp::kGt: return ">";
    case ExprOp::kGe: return ">=";
    case ExprOp::kAdd: return "+";
    case ExprOp::kSub: return "-";
    case ExprOp::kMul: return "*";
    case ExprOp::kDiv: return "/";
    case ExprOp::kLike: return "LIKE";
    case ExprOp::kIsNull: return "IS NULL";
    case ExprOp::kEncloses: return "ENCLOSES";
    case ExprOp::kWithin: return "WITHIN";
    case ExprOp::kOverlaps: return "OVERLAPS";
    default: return "?";
  }
}

}  // namespace

ExprPtr Expr::Const(Value v) {
  auto e = std::shared_ptr<Expr>(new Expr());
  e->op_ = ExprOp::kConst;
  e->constant_ = std::move(v);
  return e;
}

ExprPtr Expr::Field(int index) {
  auto e = std::shared_ptr<Expr>(new Expr());
  e->op_ = ExprOp::kField;
  e->field_index_ = index;
  return e;
}

ExprPtr Expr::Param(int index) {
  auto e = std::shared_ptr<Expr>(new Expr());
  e->op_ = ExprOp::kParam;
  e->param_index_ = index;
  return e;
}

ExprPtr Expr::Call(std::string func_name, std::vector<ExprPtr> args) {
  auto e = std::shared_ptr<Expr>(new Expr());
  e->op_ = ExprOp::kCall;
  e->func_name_ = std::move(func_name);
  e->children_ = std::move(args);
  return e;
}

ExprPtr Expr::Unary(ExprOp op, ExprPtr a) {
  auto e = std::shared_ptr<Expr>(new Expr());
  e->op_ = op;
  e->children_ = {std::move(a)};
  return e;
}

ExprPtr Expr::Binary(ExprOp op, ExprPtr a, ExprPtr b) {
  auto e = std::shared_ptr<Expr>(new Expr());
  e->op_ = op;
  e->children_ = {std::move(a), std::move(b)};
  return e;
}

ExprPtr Expr::Nary(ExprOp op, std::vector<ExprPtr> children) {
  auto e = std::shared_ptr<Expr>(new Expr());
  e->op_ = op;
  e->children_ = std::move(children);
  return e;
}

ExprPtr Expr::Spatial(ExprOp op, std::vector<ExprPtr> record_rect,
                      std::vector<ExprPtr> query_rect) {
  std::vector<ExprPtr> kids = std::move(record_rect);
  for (auto& q : query_rect) kids.push_back(std::move(q));
  return Nary(op, std::move(kids));
}

void Expr::CollectFields(std::vector<int>* fields) const {
  if (op_ == ExprOp::kField) {
    if (std::find(fields->begin(), fields->end(), field_index_) ==
        fields->end()) {
      fields->push_back(field_index_);
    }
    return;
  }
  for (const auto& c : children_) c->CollectFields(fields);
}

void Expr::EncodeTo(std::string* dst) const {
  dst->push_back(static_cast<char>(op_));
  switch (op_) {
    case ExprOp::kConst: {
      dst->push_back(static_cast<char>(constant_.type()));
      switch (constant_.type()) {
        case TypeId::kNull: break;
        case TypeId::kBool: dst->push_back(constant_.bool_value()); break;
        case TypeId::kInt64:
          PutFixed64(dst, static_cast<uint64_t>(constant_.int_value()));
          break;
        case TypeId::kDouble: PutDouble(dst, constant_.double_value()); break;
        case TypeId::kString:
          PutLengthPrefixedSlice(dst, constant_.string_value());
          break;
      }
      return;
    }
    case ExprOp::kField:
      PutVarint32(dst, static_cast<uint32_t>(field_index_));
      return;
    case ExprOp::kParam:
      PutVarint32(dst, static_cast<uint32_t>(param_index_));
      return;
    case ExprOp::kCall:
      PutLengthPrefixedSlice(dst, func_name_);
      break;
    default:
      break;
  }
  PutVarint32(dst, static_cast<uint32_t>(children_.size()));
  for (const auto& c : children_) c->EncodeTo(dst);
}

Status Expr::DecodeFrom(Slice* input, ExprPtr* out) {
  if (input->empty()) return Status::Corruption("expr truncated");
  ExprOp op = static_cast<ExprOp>((*input)[0]);
  input->remove_prefix(1);
  switch (op) {
    case ExprOp::kConst: {
      if (input->empty()) return Status::Corruption("const type");
      TypeId t = static_cast<TypeId>((*input)[0]);
      input->remove_prefix(1);
      Value v;
      switch (t) {
        case TypeId::kNull:
          v = Value::Null();
          break;
        case TypeId::kBool:
          if (input->empty()) return Status::Corruption("const bool");
          v = Value::Bool((*input)[0] != 0);
          input->remove_prefix(1);
          break;
        case TypeId::kInt64: {
          uint64_t u;
          if (!GetFixed64(input, &u)) return Status::Corruption("const int");
          v = Value::Int(static_cast<int64_t>(u));
          break;
        }
        case TypeId::kDouble: {
          double d;
          if (!GetDouble(input, &d)) return Status::Corruption("const double");
          v = Value::Double(d);
          break;
        }
        case TypeId::kString: {
          Slice s;
          if (!GetLengthPrefixedSlice(input, &s)) {
            return Status::Corruption("const string");
          }
          v = Value::String(s);
          break;
        }
      }
      *out = Const(std::move(v));
      return Status::OK();
    }
    case ExprOp::kField: {
      uint32_t idx;
      if (!GetVarint32(input, &idx)) return Status::Corruption("field index");
      *out = Field(static_cast<int>(idx));
      return Status::OK();
    }
    case ExprOp::kParam: {
      uint32_t idx;
      if (!GetVarint32(input, &idx)) return Status::Corruption("param index");
      *out = Param(static_cast<int>(idx));
      return Status::OK();
    }
    default:
      break;
  }
  std::string func_name;
  if (op == ExprOp::kCall) {
    Slice name;
    if (!GetLengthPrefixedSlice(input, &name)) {
      return Status::Corruption("call name");
    }
    func_name = name.ToString();
  }
  uint32_t n;
  if (!GetVarint32(input, &n)) return Status::Corruption("child count");
  // Every child consumes at least one byte.
  if (n > input->size()) return Status::Corruption("child count absurd");
  std::vector<ExprPtr> kids;
  kids.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    ExprPtr c;
    DMX_RETURN_IF_ERROR(DecodeFrom(input, &c));
    kids.push_back(std::move(c));
  }
  if (op == ExprOp::kCall) {
    *out = Call(std::move(func_name), std::move(kids));
  } else {
    *out = Nary(op, std::move(kids));
  }
  return Status::OK();
}

std::string Expr::ToString() const {
  switch (op_) {
    case ExprOp::kConst: return constant_.ToString();
    case ExprOp::kField: return "f" + std::to_string(field_index_);
    case ExprOp::kParam: return "$" + std::to_string(param_index_);
    case ExprOp::kCall: {
      std::string s = func_name_ + "(";
      for (size_t i = 0; i < children_.size(); ++i) {
        if (i) s += ", ";
        s += children_[i]->ToString();
      }
      return s + ")";
    }
    case ExprOp::kNot:
      return std::string("NOT ") + children_[0]->ToString();
    case ExprOp::kIsNull:
      return children_[0]->ToString() + " IS NULL";
    case ExprOp::kEncloses:
    case ExprOp::kWithin:
    case ExprOp::kOverlaps: {
      std::string s = std::string(OpSymbol(op_)) + "(";
      for (size_t i = 0; i < children_.size(); ++i) {
        if (i) s += ", ";
        s += children_[i]->ToString();
      }
      return s + ")";
    }
    default: {
      if (children_.size() == 2) {
        return "(" + children_[0]->ToString() + " " + OpSymbol(op_) + " " +
               children_[1]->ToString() + ")";
      }
      std::string s = std::string("(") + OpSymbol(op_);
      for (const auto& c : children_) s += " " + c->ToString();
      return s + ")";
    }
  }
}

void SplitConjuncts(const ExprPtr& e, std::vector<ExprPtr>* out) {
  if (!e) return;
  if (e->op() == ExprOp::kAnd) {
    for (const auto& c : e->children()) SplitConjuncts(c, out);
    return;
  }
  out->push_back(e);
}

ExprPtr JoinConjuncts(const std::vector<ExprPtr>& conjuncts) {
  if (conjuncts.empty()) return nullptr;
  ExprPtr acc = conjuncts[0];
  for (size_t i = 1; i < conjuncts.size(); ++i) {
    acc = Expr::And(acc, conjuncts[i]);
  }
  return acc;
}

namespace {

// The operand kinds an access key can be built from: a literal, or a `?`
// parameter whose value arrives with each execution.
bool IsBindable(const Expr& e) {
  return e.op() == ExprOp::kConst || e.op() == ExprOp::kParam;
}

}  // namespace

bool MatchFieldCompare(const ExprPtr& e, int* field, ExprOp* op,
                       ExprPtr* operand) {
  if (!e || !IsComparison(e->op()) || e->children().size() != 2) return false;
  const ExprPtr& l = e->child(0);
  const ExprPtr& r = e->child(1);
  if (l->op() == ExprOp::kField && IsBindable(*r)) {
    *field = l->field_index();
    *op = e->op();
    if (operand != nullptr) *operand = r;
    return true;
  }
  if (IsBindable(*l) && r->op() == ExprOp::kField) {
    *field = r->field_index();
    *op = MirrorComparison(e->op());
    if (operand != nullptr) *operand = l;
    return true;
  }
  return false;
}

bool MatchSpatial(const ExprPtr& e, const int rect_fields[4], ExprOp* op,
                  double query_rect[4]) {
  if (!e) return false;
  if (e->op() != ExprOp::kEncloses && e->op() != ExprOp::kWithin &&
      e->op() != ExprOp::kOverlaps) {
    return false;
  }
  if (e->children().size() != 8) return false;
  for (int i = 0; i < 4; ++i) {
    const ExprPtr& c = e->child(i);
    if (c->op() != ExprOp::kField || c->field_index() != rect_fields[i]) {
      return false;
    }
  }
  for (int i = 0; i < 4; ++i) {
    const ExprPtr& c = e->child(4 + i);
    if (c->op() != ExprOp::kConst || !c->constant().is_numeric()) return false;
    query_rect[i] = c->constant().AsDouble();
  }
  *op = e->op();
  return true;
}

}  // namespace dmx
