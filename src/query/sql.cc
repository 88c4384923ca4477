#include "src/query/sql.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <type_traits>

#include "src/sm/key_codec.h"

namespace dmx {

// ---------------------------------------------------------------------------
// Lexer
// ---------------------------------------------------------------------------

namespace {

enum class TokType { kIdent, kNumber, kString, kSymbol, kEnd };

struct Token {
  TokType type = TokType::kEnd;
  std::string text;  // identifiers upper-cased only for keyword checks

  bool IsKw(const char* kw) const {
    if (type != TokType::kIdent) return false;
    if (text.size() != strlen(kw)) return false;
    for (size_t i = 0; i < text.size(); ++i) {
      if (std::toupper(static_cast<unsigned char>(text[i])) != kw[i]) {
        return false;
      }
    }
    return true;
  }
  bool IsSym(const char* s) const {
    return type == TokType::kSymbol && text == s;
  }
};

class Lexer {
 public:
  explicit Lexer(const std::string& input) : in_(input) {}

  Status Tokenize(std::vector<Token>* out) {
    size_t i = 0;
    while (i < in_.size()) {
      char c = in_[i];
      if (std::isspace(static_cast<unsigned char>(c))) {
        ++i;
        continue;
      }
      if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
        size_t b = i;
        while (i < in_.size() &&
               (std::isalnum(static_cast<unsigned char>(in_[i])) ||
                in_[i] == '_')) {
          ++i;
        }
        out->push_back({TokType::kIdent, in_.substr(b, i - b)});
        continue;
      }
      if (std::isdigit(static_cast<unsigned char>(c)) ||
          (c == '-' && i + 1 < in_.size() &&
           std::isdigit(static_cast<unsigned char>(in_[i + 1])) &&
           NumberContext(out))) {
        size_t b = i;
        if (c == '-') ++i;
        bool has_dot = false;
        while (i < in_.size() &&
               (std::isdigit(static_cast<unsigned char>(in_[i])) ||
                (in_[i] == '.' && !has_dot))) {
          if (in_[i] == '.') has_dot = true;
          ++i;
        }
        out->push_back({TokType::kNumber, in_.substr(b, i - b)});
        continue;
      }
      if (c == '\'') {
        std::string s;
        ++i;
        while (i < in_.size()) {
          if (in_[i] == '\'') {
            if (i + 1 < in_.size() && in_[i + 1] == '\'') {
              s.push_back('\'');
              i += 2;
              continue;
            }
            break;
          }
          s.push_back(in_[i++]);
        }
        if (i >= in_.size()) return Status::InvalidArgument("unclosed string");
        ++i;  // closing quote
        out->push_back({TokType::kString, std::move(s)});
        continue;
      }
      // Multi-char operators first.
      if (i + 1 < in_.size()) {
        std::string two = in_.substr(i, 2);
        if (two == "<=" || two == ">=" || two == "<>" || two == "!=") {
          out->push_back({TokType::kSymbol, two == "!=" ? "<>" : two});
          i += 2;
          continue;
        }
      }
      static const std::string kSingles = "(),.*=<>+-/;?";
      if (kSingles.find(c) != std::string::npos) {
        out->push_back({TokType::kSymbol, std::string(1, c)});
        ++i;
        continue;
      }
      return Status::InvalidArgument(std::string("unexpected character '") +
                                     c + "'");
    }
    out->push_back({TokType::kEnd, ""});
    return Status::OK();
  }

 private:
  // A '-' before a digit is the number's sign exactly when the previous
  // token cannot end an operand: the start of the statement, '(', ',', an
  // operator or a keyword an operand may follow. After a literal, a `?`,
  // ')' or a column name it is binary minus. The grammar has no unary
  // minus, so `x BETWEEN -2 AND -1` needs the sign here; and the shape
  // cache lifts `-2` as one literal, whatever precedes it.
  bool NumberContext(const std::vector<Token>* out) const {
    if (out->empty()) return true;
    const Token& prev = out->back();
    switch (prev.type) {
      case TokType::kNumber:
      case TokType::kString:
        return false;
      case TokType::kIdent:
        for (const char* kw : {"SELECT", "WHERE", "AND", "OR", "NOT",
                               "BETWEEN", "LIKE", "IN", "VALUES", "LIMIT"}) {
          if (prev.IsKw(kw)) return true;
        }
        return false;  // a column name, TRUE, FALSE or NULL
      default:
        return !prev.IsSym(")") && !prev.IsSym("?");
    }
  }

  const std::string& in_;
};

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

// Column binding context for expression parsing: maps (optionally
// qualified) names to field indexes in the row flowing through execution.
struct NameScope {
  // (qualifier, column) -> index; unqualified lookups match any qualifier
  // if unambiguous.
  std::vector<std::pair<std::pair<std::string, std::string>, int>> names;

  void Add(const std::string& table, const Schema& schema, int base) {
    for (size_t i = 0; i < schema.num_columns(); ++i) {
      names.push_back(
          {{table, schema.column(i).name}, base + static_cast<int>(i)});
    }
  }

  Status Resolve(const std::string& qualifier, const std::string& column,
                 int* out) const {
    int found = -1;
    for (const auto& [key, index] : names) {
      if (key.second != column) continue;
      if (!qualifier.empty() && key.first != qualifier) continue;
      if (found >= 0) {
        return Status::InvalidArgument("ambiguous column '" + column + "'");
      }
      found = index;
    }
    if (found < 0) {
      return Status::InvalidArgument("unknown column '" + column + "'");
    }
    *out = found;
    return Status::OK();
  }
};

// The value of a number token: a double when it has a decimal point, else
// an integer.
Status NumberValue(const std::string& text, Value* out) {
  const char* end = text.data() + text.size();
  std::from_chars_result r;
  if (text.find('.') != std::string::npos) {
    double d = 0;
    r = std::from_chars(text.data(), end, d);
    *out = Value::Double(d);
  } else {
    int64_t i = 0;
    r = std::from_chars(text.data(), end, i);
    *out = Value::Int(i);
  }
  if (r.ec != std::errc() || r.ptr != end) {
    return Status::InvalidArgument("number out of range: " + text);
  }
  return Status::OK();
}

class Parser {
 public:
  // With `lift_literals`, each number and string literal in an expression
  // or LIMIT parses as the next parameter (its value is bound per
  // execution), numbered in textual order with the `?`s.
  Parser(std::vector<Token> tokens, bool lift_literals = false)
      : toks_(std::move(tokens)), lift_literals_(lift_literals) {}

  const Token& Peek(size_t ahead = 0) const {
    size_t i = pos_ + ahead;
    return i < toks_.size() ? toks_[i] : toks_.back();
  }
  Token Take() { return toks_[std::min(pos_++, toks_.size() - 1)]; }
  bool TakeKw(const char* kw) {
    if (Peek().IsKw(kw)) {
      ++pos_;
      return true;
    }
    return false;
  }
  bool TakeSym(const char* s) {
    if (Peek().IsSym(s)) {
      ++pos_;
      return true;
    }
    return false;
  }
  Status ExpectKw(const char* kw) {
    if (!TakeKw(kw)) {
      return Status::InvalidArgument(std::string("expected ") + kw +
                                     " near '" + Peek().text + "'");
    }
    return Status::OK();
  }
  Status ExpectSym(const char* s) {
    if (!TakeSym(s)) {
      return Status::InvalidArgument(std::string("expected '") + s +
                                     "' near '" + Peek().text + "'");
    }
    return Status::OK();
  }
  Status ExpectIdent(std::string* out) {
    if (Peek().type != TokType::kIdent) {
      return Status::InvalidArgument("expected identifier near '" +
                                     Peek().text + "'");
    }
    *out = Take().text;
    return Status::OK();
  }
  bool AtEnd() {
    TakeSym(";");
    return Peek().type == TokType::kEnd;
  }

  // expr := or; standard precedence OR < AND < NOT < cmp < add < mul.
  Status ParseExpr(const NameScope& scope, ExprPtr* out) {
    return ParseOr(scope, out);
  }

  // Index of the next `?` placeholder, in textual order across the whole
  // statement.
  int NextParamIndex() { return next_param_++; }

  // A LIMIT operand: a number or a `?`; null for anything else.
  Status ParseLimit(ExprPtr* out) {
    *out = nullptr;
    if (Peek().type != TokType::kNumber && !Peek().IsSym("?")) {
      return Status::OK();
    }
    return ParsePrimary(NameScope(), out);
  }

 private:
  Status ParseOr(const NameScope& scope, ExprPtr* out) {
    ExprPtr left;
    DMX_RETURN_IF_ERROR(ParseAnd(scope, &left));
    while (TakeKw("OR")) {
      ExprPtr right;
      DMX_RETURN_IF_ERROR(ParseAnd(scope, &right));
      left = Expr::Or(left, right);
    }
    *out = left;
    return Status::OK();
  }

  Status ParseAnd(const NameScope& scope, ExprPtr* out) {
    ExprPtr left;
    DMX_RETURN_IF_ERROR(ParseNot(scope, &left));
    while (TakeKw("AND")) {
      ExprPtr right;
      DMX_RETURN_IF_ERROR(ParseNot(scope, &right));
      left = Expr::And(left, right);
    }
    *out = left;
    return Status::OK();
  }

  Status ParseNot(const NameScope& scope, ExprPtr* out) {
    if (TakeKw("NOT")) {
      ExprPtr inner;
      DMX_RETURN_IF_ERROR(ParseNot(scope, &inner));
      *out = Expr::Unary(ExprOp::kNot, inner);
      return Status::OK();
    }
    return ParseComparison(scope, out);
  }

  Status ParseComparison(const NameScope& scope, ExprPtr* out) {
    ExprPtr left;
    DMX_RETURN_IF_ERROR(ParseAdditive(scope, &left));
    if (TakeKw("IS")) {
      bool negated = TakeKw("NOT");
      DMX_RETURN_IF_ERROR(ExpectKw("NULL"));
      ExprPtr test = Expr::Unary(ExprOp::kIsNull, left);
      *out = negated ? Expr::Unary(ExprOp::kNot, test) : test;
      return Status::OK();
    }
    if (TakeKw("LIKE")) {
      ExprPtr right;
      DMX_RETURN_IF_ERROR(ParseAdditive(scope, &right));
      *out = Expr::Binary(ExprOp::kLike, left, right);
      return Status::OK();
    }
    if (TakeKw("BETWEEN")) {
      ExprPtr lo, hi;
      DMX_RETURN_IF_ERROR(ParseAdditive(scope, &lo));
      DMX_RETURN_IF_ERROR(ExpectKw("AND"));
      DMX_RETURN_IF_ERROR(ParseAdditive(scope, &hi));
      *out = Expr::And(Expr::Binary(ExprOp::kGe, left, lo),
                       Expr::Binary(ExprOp::kLe, left, hi));
      return Status::OK();
    }
    if (TakeKw("IN")) {
      DMX_RETURN_IF_ERROR(ExpectSym("("));
      std::vector<ExprPtr> alternatives;
      while (true) {
        ExprPtr option;
        DMX_RETURN_IF_ERROR(ParseAdditive(scope, &option));
        alternatives.push_back(Expr::Binary(ExprOp::kEq, left, option));
        if (TakeSym(",")) continue;
        DMX_RETURN_IF_ERROR(ExpectSym(")"));
        break;
      }
      ExprPtr any = alternatives[0];
      for (size_t i = 1; i < alternatives.size(); ++i) {
        any = Expr::Or(any, alternatives[i]);
      }
      *out = any;
      return Status::OK();
    }
    struct {
      const char* sym;
      ExprOp op;
    } kOps[] = {{"<=", ExprOp::kLe}, {">=", ExprOp::kGe},
                {"<>", ExprOp::kNe}, {"=", ExprOp::kEq},
                {"<", ExprOp::kLt},  {">", ExprOp::kGt}};
    for (const auto& candidate : kOps) {
      if (TakeSym(candidate.sym)) {
        ExprPtr right;
        DMX_RETURN_IF_ERROR(ParseAdditive(scope, &right));
        *out = Expr::Binary(candidate.op, left, right);
        return Status::OK();
      }
    }
    *out = left;
    return Status::OK();
  }

  Status ParseAdditive(const NameScope& scope, ExprPtr* out) {
    ExprPtr left;
    DMX_RETURN_IF_ERROR(ParseMultiplicative(scope, &left));
    while (true) {
      if (TakeSym("+")) {
        ExprPtr right;
        DMX_RETURN_IF_ERROR(ParseMultiplicative(scope, &right));
        left = Expr::Binary(ExprOp::kAdd, left, right);
      } else if (TakeSym("-")) {
        ExprPtr right;
        DMX_RETURN_IF_ERROR(ParseMultiplicative(scope, &right));
        left = Expr::Binary(ExprOp::kSub, left, right);
      } else {
        break;
      }
    }
    *out = left;
    return Status::OK();
  }

  Status ParseMultiplicative(const NameScope& scope, ExprPtr* out) {
    ExprPtr left;
    DMX_RETURN_IF_ERROR(ParsePrimary(scope, &left));
    while (true) {
      if (TakeSym("*")) {
        ExprPtr right;
        DMX_RETURN_IF_ERROR(ParsePrimary(scope, &right));
        left = Expr::Binary(ExprOp::kMul, left, right);
      } else if (TakeSym("/")) {
        ExprPtr right;
        DMX_RETURN_IF_ERROR(ParsePrimary(scope, &right));
        left = Expr::Binary(ExprOp::kDiv, left, right);
      } else {
        break;
      }
    }
    *out = left;
    return Status::OK();
  }

  Status ParsePrimary(const NameScope& scope, ExprPtr* out) {
    const Token& t = Peek();
    if (t.IsSym("(")) {
      Take();
      DMX_RETURN_IF_ERROR(ParseExpr(scope, out));
      return ExpectSym(")");
    }
    if (t.type == TokType::kNumber || t.type == TokType::kString) {
      if (lift_literals_) {
        Take();
        *out = Expr::Param(NextParamIndex());
        return Status::OK();
      }
      Value v;
      if (t.type == TokType::kNumber) {
        DMX_RETURN_IF_ERROR(NumberValue(t.text, &v));
      } else {
        v = Value::String(t.text);
      }
      Take();
      *out = Expr::Const(std::move(v));
      return Status::OK();
    }
    if (t.IsKw("TRUE")) {
      Take();
      *out = Expr::Const(Value::Bool(true));
      return Status::OK();
    }
    if (t.IsKw("FALSE")) {
      Take();
      *out = Expr::Const(Value::Bool(false));
      return Status::OK();
    }
    if (t.IsKw("NULL")) {
      Take();
      *out = Expr::Const(Value::Null());
      return Status::OK();
    }
    if (t.IsSym("?")) {
      Take();
      *out = Expr::Param(NextParamIndex());
      return Status::OK();
    }
    if (t.type == TokType::kIdent) {
      std::string first = Take().text;
      std::string qualifier, column;
      if (TakeSym(".")) {
        qualifier = first;
        DMX_RETURN_IF_ERROR(ExpectIdent(&column));
      } else {
        column = first;
      }
      int index;
      DMX_RETURN_IF_ERROR(scope.Resolve(qualifier, column, &index));
      *out = Expr::Field(index);
      return Status::OK();
    }
    return Status::InvalidArgument("unexpected token '" + t.text + "'");
  }

  std::vector<Token> toks_;
  size_t pos_ = 0;
  int next_param_ = 0;
  const bool lift_literals_;
};

// The value bound to the statement's `?` number `index` (0-based).
Status ParamValue(int index, const std::vector<Value>* params, Value* out) {
  if (params == nullptr || index < 0 ||
      static_cast<size_t>(index) >= params->size()) {
    return Status::InvalidArgument(
        "parameter ?" + std::to_string(index + 1) + " not bound");
  }
  *out = (*params)[static_cast<size_t>(index)];
  return Status::OK();
}

// Replace every `?` in `e` by the constant bound to it: for expressions
// the database keeps (CHECK predicates), which outlive the statement. With
// `only` (ascending indexes), only those parameters are replaced.
Status BindParams(const ExprPtr& e, const std::vector<Value>* params,
                  ExprPtr* out, const std::vector<int>* only = nullptr) {
  if (e->op() == ExprOp::kParam &&
      (only == nullptr ||
       std::binary_search(only->begin(), only->end(), e->param_index()))) {
    Value v;
    DMX_RETURN_IF_ERROR(ParamValue(e->param_index(), params, &v));
    *out = Expr::Const(std::move(v));
    return Status::OK();
  }
  if (e->children().empty()) {
    *out = e;
    return Status::OK();
  }
  std::vector<ExprPtr> children(e->children().size());
  for (size_t i = 0; i < children.size(); ++i) {
    DMX_RETURN_IF_ERROR(
        BindParams(e->child(i), params, &children[i], only));
  }
  *out = e->op() == ExprOp::kCall
             ? Expr::Call(e->func_name(), std::move(children))
             : Expr::Nary(e->op(), std::move(children));
  return Status::OK();
}

// Parse a literal Value (INSERT tuples). A `?` takes the statement's next
// parameter from `params` (null when the statement has none).
Status ParseLiteral(Parser* p, const std::vector<Value>* params, Value* out) {
  const Token& t = p->Peek();
  if (t.IsSym("?")) {
    p->Take();
    return ParamValue(p->NextParamIndex(), params, out);
  }
  if (t.type == TokType::kNumber) {
    return NumberValue(p->Take().text, out);
  }
  if (t.type == TokType::kString) {
    *out = Value::String(p->Take().text);
    return Status::OK();
  }
  if (t.IsKw("TRUE")) {
    p->Take();
    *out = Value::Bool(true);
    return Status::OK();
  }
  if (t.IsKw("FALSE")) {
    p->Take();
    *out = Value::Bool(false);
    return Status::OK();
  }
  if (t.IsKw("NULL")) {
    p->Take();
    *out = Value::Null();
    return Status::OK();
  }
  return Status::InvalidArgument("expected literal near '" + t.text + "'");
}

// One entry of a SELECT list.
struct SelectItem {
  bool star = false;
  AggKind agg = AggKind::kCount;
  bool is_agg = false;
  std::string qualifier, column;
  std::string label;
};

std::string Upper(const std::string& s) {
  std::string out = s;
  std::transform(out.begin(), out.end(), out.begin(),
                 [](unsigned char c) { return std::toupper(c); });
  return out;
}

}  // namespace

// A parsed SELECT, UPDATE or DELETE: what a plan cache entry retains of the
// statement, so that a statement of the same shape runs no parser, no name
// resolution and no catalog lookup. Lifted literals are `?` parameters in
// its expressions, so it holds no value of them.
struct ParsedStatement {
  enum class Kind { kSelect, kUpdate, kDelete };
  Kind kind = Kind::kSelect;
  bool explain = false;  // EXPLAIN: report the plan, run nothing
  bool analyze = false;  // EXPLAIN ANALYZE: run, report the operators
  std::vector<SelectItem> items;
  // The relation, and a join's inner relation (null without a join).
  std::shared_ptr<const RelationDescriptor> d1, d2;
  NameScope scope;
  ExprPtr where;  // null: no WHERE
  int order_col = -1;
  bool order_desc = false;
  ExprPtr limit;  // a constant or a parameter; null: no LIMIT
  // The record fields a SELECT reads (projection, predicate, order
  // column), when it names them: not for `*`.
  bool needed_known = false;
  std::vector<int> needed;
  std::vector<std::pair<int, ExprPtr>> sets;  // UPDATE's SET list
  // The parameters that hold lifted literals, ascending.
  std::vector<int> lifted;
};

// ---------------------------------------------------------------------------
// Execution
// ---------------------------------------------------------------------------

// Friend of Session; implements each statement kind.
class SqlExecutor {
 public:
  SqlExecutor(Session* session, const std::string& sql,
              const std::vector<Value>* params)
      : session_(session), db_(session->db_), sql_(sql), params_(params) {}

  Status Run(QueryResult* result) {
    std::vector<Token> tokens;
    DMX_RETURN_IF_ERROR(Lexer(sql_).Tokenize(&tokens));
    const Token& first = tokens.front();
    if (first.IsKw("SELECT") || first.IsKw("UPDATE") ||
        first.IsKw("DELETE") || first.IsKw("EXPLAIN")) {
      return RunShaped(std::move(tokens), result);
    }
    parser_ = std::make_unique<Parser>(std::move(tokens));
    Parser& p = *parser_;

    if (p.TakeKw("GRANT")) return GrantStmt(result, /*grant=*/true);
    if (p.TakeKw("REVOKE")) return GrantStmt(result, /*grant=*/false);
    if (p.TakeKw("SET")) {
      if (p.TakeKw("DURABILITY")) {
        bool relaxed;
        if (p.TakeKw("STRICT")) {
          relaxed = false;
        } else if (p.TakeKw("RELAXED")) {
          relaxed = true;
        } else {
          return Status::InvalidArgument(
              "expected STRICT or RELAXED after SET DURABILITY");
        }
        session_->has_durability_override_ = true;
        session_->relaxed_durability_ = relaxed;
        // The open transaction's commit is what the user is about to run:
        // apply the new mode to it as well, not just to future begins.
        if (session_->txn_ != nullptr) {
          session_->txn_->set_relaxed_durability(relaxed);
        }
        result->message =
            std::string("SET DURABILITY ") + (relaxed ? "RELAXED" : "STRICT");
        return Status::OK();
      }
      DMX_RETURN_IF_ERROR(p.ExpectKw("USER"));
      std::string user;
      DMX_RETURN_IF_ERROR(p.ExpectIdent(&user));
      session_->set_user(user);
      result->message = "SET USER " + user;
      return Status::OK();
    }
    if (p.TakeKw("CHECKPOINT")) {
      DMX_RETURN_IF_ERROR(db_->Checkpoint());
      result->message = "CHECKPOINT";
      return Status::OK();
    }
    if (p.TakeKw("BACKUP")) return BackupStmt(result);
    if (p.TakeKw("RESTORE")) return RestoreStmt(result);
    if (p.TakeKw("CHECK")) return CheckStmt(result);
    if (p.TakeKw("REPAIR")) return RepairStmt(result);
    if (p.TakeKw("BEGIN")) return Begin(result);
    if (p.TakeKw("COMMIT")) return Commit(result);
    if (p.TakeKw("ROLLBACK")) {
      if (p.TakeKw("TO")) return RollbackTo(result);
      return Rollback(result);
    }
    if (p.TakeKw("SAVEPOINT")) return SavepointStmt(result);
    if (p.TakeKw("CREATE")) {
      if (p.TakeKw("TABLE")) return CreateTable(result);
      if (p.TakeKw("ATTACHMENT")) return CreateAttachmentStmt(result);
      bool unique = p.TakeKw("UNIQUE");
      if (p.TakeKw("INDEX")) return CreateIndex(unique, result);
      return Status::InvalidArgument(
          "expected TABLE, INDEX, or ATTACHMENT after CREATE");
    }
    if (p.TakeKw("ALTER")) {
      DMX_RETURN_IF_ERROR(p.ExpectKw("TABLE"));
      return AlterTable(result);
    }
    if (p.TakeKw("DESCRIBE")) return Describe(result);
    if (p.TakeKw("DROP")) {
      DMX_RETURN_IF_ERROR(p.ExpectKw("TABLE"));
      return DropTable(result);
    }
    if (p.TakeKw("INSERT")) return Insert(result);
    return Status::InvalidArgument("unrecognized statement");
  }

 private:
  // Begins a transaction as the session user, applying the session's
  // SET DURABILITY override (when set) over the database default.
  Transaction* BeginSessionTxn() {
    Transaction* txn = db_->BeginAs(session_->user());
    if (session_->has_durability_override_) {
      txn->set_relaxed_durability(session_->relaxed_durability_);
    }
    return txn;
  }

  // Runs `fn` in the session transaction, or an autocommit one. A failed
  // statement aborts the autocommit transaction; a failed commit has
  // already ended it.
  template <typename Fn>
  Status InTxn(Fn&& fn) {
    if (session_->txn_ != nullptr) return fn(session_->txn_);
    Transaction* txn = BeginSessionTxn();
    Status s = fn(txn);
    if (!s.ok()) {
      (void)db_->Abort(txn);  // the statement's own failure is what counts
      return s;
    }
    return db_->Commit(txn);
  }

  Status Begin(QueryResult* result) {
    if (session_->txn_ != nullptr) {
      return Status::InvalidArgument("transaction already open");
    }
    session_->txn_ = BeginSessionTxn();
    result->message = "BEGIN";
    return Status::OK();
  }

  Status Commit(QueryResult* result) {
    if (session_->txn_ == nullptr) {
      return Status::InvalidArgument("no open transaction");
    }
    Transaction* txn = session_->txn_;
    session_->txn_ = nullptr;
    DMX_RETURN_IF_ERROR(db_->Commit(txn));
    result->message = "COMMIT";
    return Status::OK();
  }

  Status Rollback(QueryResult* result) {
    if (session_->txn_ == nullptr) {
      return Status::InvalidArgument("no open transaction");
    }
    Transaction* txn = session_->txn_;
    session_->txn_ = nullptr;
    DMX_RETURN_IF_ERROR(db_->Abort(txn));
    result->message = "ROLLBACK";
    return Status::OK();
  }

  Status SavepointStmt(QueryResult* result) {
    std::string name;
    DMX_RETURN_IF_ERROR(parser_->ExpectIdent(&name));
    if (session_->txn_ == nullptr) {
      return Status::InvalidArgument("no open transaction");
    }
    DMX_RETURN_IF_ERROR(db_->Savepoint(session_->txn_, name));
    result->message = "SAVEPOINT " + name;
    return Status::OK();
  }

  Status RollbackTo(QueryResult* result) {
    parser_->TakeKw("SAVEPOINT");
    std::string name;
    DMX_RETURN_IF_ERROR(parser_->ExpectIdent(&name));
    if (session_->txn_ == nullptr) {
      return Status::InvalidArgument("no open transaction");
    }
    DMX_RETURN_IF_ERROR(db_->RollbackToSavepoint(session_->txn_, name));
    result->message = "ROLLBACK TO " + name;
    return Status::OK();
  }

  Status GrantStmt(QueryResult* result, bool grant) {
    Parser& p = *parser_;
    uint8_t privileges = 0;
    while (true) {
      if (p.TakeKw("ALL")) {
        privileges |= kAllPrivileges;
      } else if (p.TakeKw("SELECT")) {
        privileges |= static_cast<uint8_t>(Privilege::kSelect);
      } else if (p.TakeKw("INSERT")) {
        privileges |= static_cast<uint8_t>(Privilege::kInsert);
      } else if (p.TakeKw("UPDATE")) {
        privileges |= static_cast<uint8_t>(Privilege::kUpdate);
      } else if (p.TakeKw("DELETE")) {
        privileges |= static_cast<uint8_t>(Privilege::kDelete);
      } else {
        return Status::InvalidArgument("expected privilege name");
      }
      if (!p.TakeSym(",")) break;
    }
    DMX_RETURN_IF_ERROR(p.ExpectKw("ON"));
    std::string table;
    DMX_RETURN_IF_ERROR(p.ExpectIdent(&table));
    DMX_RETURN_IF_ERROR(p.ExpectKw(grant ? "TO" : "FROM"));
    std::string user;
    DMX_RETURN_IF_ERROR(p.ExpectIdent(&user));
    const RelationDescriptor* desc;
    DMX_RETURN_IF_ERROR(db_->FindRelation(table, &desc));
    if (grant) {
      db_->authorization()->Grant(user, desc->id, privileges);
      result->message = "GRANT";
    } else {
      db_->authorization()->Revoke(user, desc->id, privileges);
      result->message = "REVOKE";
    }
    return Status::OK();
  }

  // CREATE ATTACHMENT ON t USING type [WITH (k = v, ...)] — the generic
  // DDL shape of the paper: a type name plus an attribute/value list
  // validated by the extension itself.
  Status CreateAttachmentStmt(QueryResult* result) {
    Parser& p = *parser_;
    DMX_RETURN_IF_ERROR(p.ExpectKw("ON"));
    std::string table, at_type;
    DMX_RETURN_IF_ERROR(p.ExpectIdent(&table));
    DMX_RETURN_IF_ERROR(p.ExpectKw("USING"));
    DMX_RETURN_IF_ERROR(p.ExpectIdent(&at_type));
    AttrList attrs;
    if (p.TakeKw("WITH")) {
      DMX_RETURN_IF_ERROR(p.ExpectSym("("));
      while (true) {
        std::string k;
        DMX_RETURN_IF_ERROR(p.ExpectIdent(&k));
        DMX_RETURN_IF_ERROR(p.ExpectSym("="));
        const Token& v = p.Peek();
        if (v.type != TokType::kIdent && v.type != TokType::kString &&
            v.type != TokType::kNumber) {
          return Status::InvalidArgument("bad attribute value");
        }
        attrs.Add(k, p.Take().text);
        if (p.TakeSym(",")) continue;
        DMX_RETURN_IF_ERROR(p.ExpectSym(")"));
        break;
      }
    }
    DMX_RETURN_IF_ERROR(InTxn([&](Transaction* txn) {
      return db_->CreateAttachment(txn, table, at_type, attrs);
    }));
    result->message = "CREATE ATTACHMENT ON " + table;
    return Status::OK();
  }

  // ALTER TABLE t ADD [DEFERRED] CHECK (expr) [NAME ident]
  //           | SET STORAGE sm [WITH (k = v, ...)]
  Status AlterTable(QueryResult* result) {
    Parser& p = *parser_;
    std::string table;
    DMX_RETURN_IF_ERROR(p.ExpectIdent(&table));
    if (p.TakeKw("SET")) {
      DMX_RETURN_IF_ERROR(p.ExpectKw("STORAGE"));
      std::string sm;
      DMX_RETURN_IF_ERROR(p.ExpectIdent(&sm));
      AttrList attrs;
      if (p.TakeKw("WITH")) {
        DMX_RETURN_IF_ERROR(p.ExpectSym("("));
        while (true) {
          std::string k;
          DMX_RETURN_IF_ERROR(p.ExpectIdent(&k));
          DMX_RETURN_IF_ERROR(p.ExpectSym("="));
          const Token& v = p.Peek();
          if (v.type != TokType::kIdent && v.type != TokType::kString &&
              v.type != TokType::kNumber) {
            return Status::InvalidArgument("bad attribute value");
          }
          attrs.Add(k, p.Take().text);
          if (p.TakeSym(",")) continue;
          DMX_RETURN_IF_ERROR(p.ExpectSym(")"));
          break;
        }
      }
      DMX_RETURN_IF_ERROR(InTxn([&](Transaction* txn) {
        return db_->ChangeStorageMethod(txn, table, sm, attrs);
      }));
      result->message = "ALTER TABLE " + table + " SET STORAGE " + sm;
      return Status::OK();
    }
    DMX_RETURN_IF_ERROR(p.ExpectKw("ADD"));
    bool deferred = p.TakeKw("DEFERRED");
    DMX_RETURN_IF_ERROR(p.ExpectKw("CHECK"));
    const RelationDescriptor* desc;
    DMX_RETURN_IF_ERROR(db_->FindRelation(table, &desc));
    NameScope scope;
    scope.Add(table, desc->schema, 0);
    DMX_RETURN_IF_ERROR(p.ExpectSym("("));
    ExprPtr predicate;
    DMX_RETURN_IF_ERROR(p.ParseExpr(scope, &predicate));
    DMX_RETURN_IF_ERROR(p.ExpectSym(")"));
    // The constraint outlives this statement: store its `?` as constants.
    DMX_RETURN_IF_ERROR(BindParams(predicate, params_, &predicate));
    AttrList attrs;
    std::string encoded;
    predicate->EncodeTo(&encoded);
    attrs.Add("predicate", encoded);
    if (p.TakeKw("NAME")) {
      std::string name;
      DMX_RETURN_IF_ERROR(p.ExpectIdent(&name));
      attrs.Add("name", name);
    }
    const char* at_type = deferred ? "deferred_check" : "check";
    DMX_RETURN_IF_ERROR(InTxn([&](Transaction* txn) {
      return db_->CreateAttachment(txn, table, at_type, attrs);
    }));
    result->message = std::string("ALTER TABLE ") + table + " ADD " +
                      (deferred ? "DEFERRED CHECK" : "CHECK");
    return Status::OK();
  }

  // Administrative statements (BACKUP/RESTORE) are superuser-only: they
  // move whole-database state, which per-relation privileges cannot scope.
  Status RequireSuperuser(const char* what) {
    if (!session_->user().empty()) {
      return Status::Constraint("user '" + session_->user() + "' may not " +
                                what + " (superuser only)");
    }
    return Status::OK();
  }

  Status ExpectStringLit(const char* what, std::string* out) {
    if (parser_->Peek().type != TokType::kString) {
      return Status::InvalidArgument(std::string("expected a quoted ") + what +
                                     " near '" + parser_->Peek().text + "'");
    }
    *out = parser_->Take().text;
    return Status::OK();
  }

  // BACKUP TO 'dir': online fuzzy backup (writers keep running).
  Status BackupStmt(QueryResult* result) {
    DMX_RETURN_IF_ERROR(parser_->ExpectKw("TO"));
    std::string dir;
    DMX_RETURN_IF_ERROR(ExpectStringLit("directory", &dir));
    DMX_RETURN_IF_ERROR(RequireSuperuser("BACKUP"));
    BackupResult backup;
    DMX_RETURN_IF_ERROR(db_->Backup(dir, &backup));
    result->message = "BACKUP TO " + dir + ": " +
                      std::to_string(backup.files) + " file(s), " +
                      std::to_string(backup.pages) + " page(s), lsn " +
                      std::to_string(backup.begin_lsn) + " .. " +
                      std::to_string(backup.end_lsn);
    return Status::OK();
  }

  // RESTORE FROM 'backup' INTO 'dir' [ARCHIVE 'dir'] [TO LSN n]:
  // offline point-in-time recovery into a fresh directory.
  Status RestoreStmt(QueryResult* result) {
    DMX_RETURN_IF_ERROR(parser_->ExpectKw("FROM"));
    RestoreOptions opts;
    DMX_RETURN_IF_ERROR(ExpectStringLit("backup directory", &opts.backup_dir));
    DMX_RETURN_IF_ERROR(parser_->ExpectKw("INTO"));
    DMX_RETURN_IF_ERROR(ExpectStringLit("target directory", &opts.target_dir));
    if (parser_->TakeKw("ARCHIVE")) {
      DMX_RETURN_IF_ERROR(
          ExpectStringLit("archive directory", &opts.archive_dir));
    }
    if (parser_->TakeKw("TO")) {
      DMX_RETURN_IF_ERROR(parser_->ExpectKw("LSN"));
      if (parser_->Peek().type != TokType::kNumber) {
        return Status::InvalidArgument("expected an LSN near '" +
                                       parser_->Peek().text + "'");
      }
      const std::string text = parser_->Take().text;
      if (text.find('.') != std::string::npos) {
        return Status::InvalidArgument("LSN must be an integer");
      }
      opts.target_lsn = static_cast<Lsn>(std::stoull(text));
    }
    DMX_RETURN_IF_ERROR(RequireSuperuser("RESTORE"));
    opts.env = db_->env();
    Lsn replayed = 0;
    DMX_RETURN_IF_ERROR(Database::Restore(opts, &replayed));
    result->message = "RESTORE FROM " + opts.backup_dir + " INTO " +
                      opts.target_dir + ": replayed through lsn " +
                      std::to_string(replayed);
    return Status::OK();
  }

  // DESCRIBE t: render the extensible relation descriptor.
  Status Describe(QueryResult* result) {
    std::string table;
    DMX_RETURN_IF_ERROR(parser_->ExpectIdent(&table));
    const RelationDescriptor* desc;
    DMX_RETURN_IF_ERROR(db_->FindRelation(table, &desc));
    result->columns = {"property", "value"};
    auto add = [&](const std::string& k, const std::string& v) {
      result->rows.push_back({Value::String(k), Value::String(v)});
    };
    add("relation", desc->name + " (id " + std::to_string(desc->id) +
                        ", version " + std::to_string(desc->version) + ")");
    add("storage method",
        std::string(db_->registry()->sm_ops(desc->sm_id).name) + " (id " +
            std::to_string(desc->sm_id) + ", descriptor " +
            std::to_string(desc->sm_desc.size()) + " bytes)");
    for (size_t i = 0; i < desc->schema.num_columns(); ++i) {
      const Column& col = desc->schema.column(i);
      add("column " + std::to_string(i),
          col.name + " " + TypeName(col.type) +
              (col.nullable ? "" : " NOT NULL"));
    }
    for (AtId at = 0; at < db_->registry()->num_attachment_types(); ++at) {
      if (!desc->HasAttachment(at)) continue;
      const AtOps& ops = db_->registry()->at_ops(at);
      std::string detail = "descriptor field " + std::to_string(at);
      if (ops.instance_count != nullptr) {
        detail += ", " +
                  std::to_string(ops.instance_count(
                      Slice(desc->at_desc[at]))) +
                  " instance(s)";
      }
      add(std::string("attachment ") + ops.name, detail);
    }
    if (desc->sm_quarantined) {
      add("quarantine", "storage: " + desc->sm_quarantine_reason);
    }
    for (const RelationDescriptor::QuarantineEntry& q : desc->quarantined) {
      add("quarantine",
          std::string(db_->registry()->at_ops(q.at).name) + "#" +
              std::to_string(q.instance) + ": " + q.reason);
    }
    if (db_->degraded()) {
      add("db.degraded",
          "read-only (" + db_->error_handler()->degraded_reason() +
              "); background recovery in progress");
    }
    const uint64_t unflushed = db_->unflushed_commits();
    if (unflushed > 0) {
      add("db.unflushed_commits",
          std::to_string(unflushed) +
              " relaxed commit(s) acknowledged, not yet durable");
    }
    if (db_->last_backup_lsn() > 0) {
      add("db.last_backup_lsn", std::to_string(db_->last_backup_lsn()));
    }
    if (db_->archiver() != nullptr) {
      const uint64_t lag = db_->archive_lag();
      add("db.archive_lag",
          std::to_string(lag) + " sealed segment(s) awaiting archive" +
              (lag > 0 ? " (retained until archived)" : ""));
    }
    return Status::OK();
  }

  // CHECK t: run every registered verify op and report findings.
  Status CheckStmt(QueryResult* result) {
    std::string table;
    DMX_RETURN_IF_ERROR(parser_->ExpectIdent(&table));
    CheckResult check;
    DMX_RETURN_IF_ERROR(InTxn([&](Transaction* txn) {
      return db_->CheckRelation(txn, table, &check);
    }));
    result->columns = {"component", "status", "detail"};
    auto add = [&](const std::string& c, const std::string& s,
                   const std::string& d) {
      result->rows.push_back(
          {Value::String(c), Value::String(s), Value::String(d)});
    };
    for (const CheckFinding& f : check.findings) {
      add(f.component, "damaged", f.detail);
    }
    for (const std::string& q : check.quarantined) {
      add(q, "quarantined", "access path disabled until REPAIR");
    }
    for (const std::string& c : check.cleared) {
      add(c, "cleared", "verified clean; quarantine lifted");
    }
    result->message =
        check.clean
            ? "CHECK " + table + ": clean (" + std::to_string(check.items) +
                  " items verified)"
            : "CHECK " + table + ": " +
                  std::to_string(check.findings.size()) + " finding(s)";
    return Status::OK();
  }

  // REPAIR t: rebuild quarantined attachment instances from the base
  // relation and lift their quarantine on success.
  Status RepairStmt(QueryResult* result) {
    std::string table;
    DMX_RETURN_IF_ERROR(parser_->ExpectIdent(&table));
    RepairResult rep;
    DMX_RETURN_IF_ERROR(InTxn([&](Transaction* txn) {
      return db_->RepairRelation(txn, table, &rep);
    }));
    result->columns = {"component", "status"};
    for (const std::string& r : rep.repaired) {
      result->rows.push_back({Value::String(r), Value::String("repaired")});
    }
    for (const std::string& u : rep.unrepaired) {
      result->rows.push_back({Value::String(u), Value::String("unrepaired")});
    }
    result->message =
        rep.unrepaired.empty()
            ? "REPAIR " + table + ": " + std::to_string(rep.repaired.size()) +
                  " component(s) repaired"
            : "REPAIR " + table + ": " +
                  std::to_string(rep.unrepaired.size()) +
                  " component(s) still damaged";
    return Status::OK();
  }

  Status CreateTable(QueryResult* result) {
    Parser& p = *parser_;
    std::string name;
    DMX_RETURN_IF_ERROR(p.ExpectIdent(&name));
    DMX_RETURN_IF_ERROR(p.ExpectSym("("));
    std::vector<Column> columns;
    while (true) {
      Column col;
      DMX_RETURN_IF_ERROR(p.ExpectIdent(&col.name));
      std::string type;
      DMX_RETURN_IF_ERROR(p.ExpectIdent(&type));
      std::string ut = Upper(type);
      if (ut == "INT" || ut == "INTEGER" || ut == "BIGINT") {
        col.type = TypeId::kInt64;
      } else if (ut == "DOUBLE" || ut == "FLOAT" || ut == "REAL") {
        col.type = TypeId::kDouble;
      } else if (ut == "STRING" || ut == "TEXT" || ut == "VARCHAR") {
        col.type = TypeId::kString;
        // Tolerate VARCHAR(n).
        if (p.TakeSym("(")) {
          p.Take();
          DMX_RETURN_IF_ERROR(p.ExpectSym(")"));
        }
      } else if (ut == "BOOL" || ut == "BOOLEAN") {
        col.type = TypeId::kBool;
      } else {
        return Status::InvalidArgument("unknown type '" + type + "'");
      }
      if (p.TakeKw("NOT")) {
        DMX_RETURN_IF_ERROR(p.ExpectKw("NULL"));
        col.nullable = false;
      }
      columns.push_back(std::move(col));
      if (p.TakeSym(",")) continue;
      DMX_RETURN_IF_ERROR(p.ExpectSym(")"));
      break;
    }
    std::string sm = "heap";
    AttrList attrs;
    if (p.TakeKw("USING")) {
      DMX_RETURN_IF_ERROR(p.ExpectIdent(&sm));
      if (p.TakeKw("WITH")) {
        DMX_RETURN_IF_ERROR(p.ExpectSym("("));
        while (true) {
          std::string k;
          DMX_RETURN_IF_ERROR(p.ExpectIdent(&k));
          DMX_RETURN_IF_ERROR(p.ExpectSym("="));
          const Token& v = p.Peek();
          if (v.type != TokType::kIdent && v.type != TokType::kString &&
              v.type != TokType::kNumber) {
            return Status::InvalidArgument("bad attribute value");
          }
          attrs.Add(k, p.Take().text);
          if (p.TakeSym(",")) continue;
          DMX_RETURN_IF_ERROR(p.ExpectSym(")"));
          break;
        }
      }
    }
    DMX_RETURN_IF_ERROR(InTxn([&](Transaction* txn) {
      return db_->CreateRelation(txn, name, Schema(std::move(columns)), sm,
                                 attrs);
    }));
    result->message = "CREATE TABLE " + name;
    return Status::OK();
  }

  Status DropTable(QueryResult* result) {
    std::string name;
    DMX_RETURN_IF_ERROR(parser_->ExpectIdent(&name));
    DMX_RETURN_IF_ERROR(InTxn(
        [&](Transaction* txn) { return db_->DropRelation(txn, name); }));
    result->message = "DROP TABLE " + name;
    return Status::OK();
  }

  Status CreateIndex(bool unique, QueryResult* result) {
    Parser& p = *parser_;
    DMX_RETURN_IF_ERROR(p.ExpectKw("ON"));
    std::string table;
    DMX_RETURN_IF_ERROR(p.ExpectIdent(&table));
    DMX_RETURN_IF_ERROR(p.ExpectSym("("));
    std::string fields;
    while (true) {
      std::string col;
      DMX_RETURN_IF_ERROR(p.ExpectIdent(&col));
      if (!fields.empty()) fields += ",";
      fields += col;
      if (p.TakeSym(",")) continue;
      DMX_RETURN_IF_ERROR(p.ExpectSym(")"));
      break;
    }
    std::string at_type = "btree_index";
    if (p.TakeKw("USING")) {
      DMX_RETURN_IF_ERROR(p.ExpectIdent(&at_type));
    }
    AttrList attrs;
    attrs.Add("fields", fields);
    if (unique) attrs.Add("unique", "1");
    DMX_RETURN_IF_ERROR(InTxn([&](Transaction* txn) {
      return db_->CreateAttachment(txn, table, at_type, attrs);
    }));
    result->message = "CREATE INDEX ON " + table;
    return Status::OK();
  }

  Status Insert(QueryResult* result) {
    Parser& p = *parser_;
    DMX_RETURN_IF_ERROR(p.ExpectKw("INTO"));
    std::string table;
    DMX_RETURN_IF_ERROR(p.ExpectIdent(&table));
    DMX_RETURN_IF_ERROR(p.ExpectKw("VALUES"));
    std::vector<std::vector<Value>> tuples;
    while (true) {
      DMX_RETURN_IF_ERROR(p.ExpectSym("("));
      std::vector<Value> tuple;
      while (true) {
        Value v;
        DMX_RETURN_IF_ERROR(ParseLiteral(&p, params_, &v));
        tuple.push_back(std::move(v));
        if (p.TakeSym(",")) continue;
        DMX_RETURN_IF_ERROR(p.ExpectSym(")"));
        break;
      }
      tuples.push_back(std::move(tuple));
      if (!p.TakeSym(",")) break;
    }
    int64_t inserted = 0;
    DMX_RETURN_IF_ERROR(InTxn([&](Transaction* txn) -> Status {
      for (const auto& tuple : tuples) {
        DMX_RETURN_IF_ERROR(db_->Insert(txn, table, tuple));
        ++inserted;
      }
      return Status::OK();
    }));
    result->affected = inserted;
    result->message = "INSERT " + std::to_string(inserted);
    return Status::OK();
  }

  // SELECT, UPDATE, DELETE ------------------------------------------------

  // These three are cached by shape: the token text with each number and
  // string literal lifted out as a typed parameter (`?i`, `?d`, `?s`, so
  // `id = 2`, `id = 2.0` and `id = '2'` stay distinct shapes), its value
  // joining the caller's `?` values, in textual order, as this execution's
  // parameters. A hit reuses the parsed statement — no parser, no name
  // resolution, no catalog lookup — and its plan unless that depends on
  // the literal values (see PlanSingle).
  Status RunShaped(std::vector<Token> tokens, QueryResult* result) {
    std::string shape;
    shape.reserve(sql_.size() + 8);
    std::vector<int> lifted;
    size_t caller = 0;
    for (const Token& t : tokens) {
      if (t.type == TokType::kNumber || t.type == TokType::kString) {
        Value v;
        if (t.type == TokType::kString) {
          v = Value::String(t.text);
          shape += "?s ";
        } else {
          DMX_RETURN_IF_ERROR(NumberValue(t.text, &v));
          shape += v.type() == TypeId::kDouble ? "?d " : "?i ";
        }
        lifted.push_back(static_cast<int>(bound_params_.size()));
        bound_params_.push_back(std::move(v));
        continue;
      }
      if (t.IsSym("?")) {
        if (params_ == nullptr || caller >= params_->size()) {
          // A `?` without a value: run the text as written, uncached, so
          // the unbound parameter is reported where it is read.
          auto stmt = std::make_shared<ParsedStatement>();
          DMX_RETURN_IF_ERROR(
              ParseStatement(std::move(tokens), /*lift=*/false, stmt.get()));
          return Execute(std::move(stmt), result);
        }
        bound_params_.push_back((*params_)[caller++]);
      }
      shape += t.text;
      shape += ' ';
    }
    params_ = bound_params_.empty() ? nullptr : &bound_params_;
    entry_ = session_->plans_.Lookup(shape);
    if (entry_ != nullptr) return Execute(entry_->statement, result);
    auto stmt = std::make_shared<ParsedStatement>();
    DMX_RETURN_IF_ERROR(
        ParseStatement(std::move(tokens), /*lift=*/true, stmt.get()));
    stmt->lifted = std::move(lifted);
    shape_ = &shape;  // translated in this execution, retained under it
    return Execute(std::move(stmt), result);
  }

  Status ParseStatement(std::vector<Token> tokens, bool lift,
                        ParsedStatement* stmt) {
    parser_ = std::make_unique<Parser>(std::move(tokens), lift);
    Parser& p = *parser_;
    if (p.TakeKw("EXPLAIN")) {
      // EXPLAIN shows the bound plan without running it; EXPLAIN ANALYZE
      // runs the query and reports per-operator row counts and wall time.
      stmt->analyze = p.TakeKw("ANALYZE");
      stmt->explain = !stmt->analyze;
      DMX_RETURN_IF_ERROR(p.ExpectKw("SELECT"));
      return ParseSelect(stmt);
    }
    if (p.TakeKw("SELECT")) return ParseSelect(stmt);
    if (p.TakeKw("UPDATE")) return ParseUpdate(stmt);
    p.TakeKw("DELETE");
    return ParseDelete(stmt);
  }

  Status Execute(std::shared_ptr<const ParsedStatement> stmt,
                 QueryResult* result) {
    stmt_ = std::move(stmt);
    explain_ = stmt_->explain;
    analyze_ = stmt_->analyze;
    switch (stmt_->kind) {
      case ParsedStatement::Kind::kSelect:
        return Select(result);
      case ParsedStatement::Kind::kUpdate:
        return Update(result);
      case ParsedStatement::Kind::kDelete:
        return Delete(result);
    }
    return Status::Internal("unknown statement kind");
  }

  // On a miss, retains `entry` under the statement's shape.
  void Retain(std::shared_ptr<const BoundPlan> entry) {
    if (shape_ == nullptr) return;
    session_->plans_.Insert(*shape_, std::move(entry));
    shape_ = nullptr;
  }

  // A bound plan of the statement, its access plan still to be filled in;
  // with `plan_per_execution`, a cache entry that keeps the statement only.
  std::shared_ptr<BoundPlan> NewEntry(bool plan_per_execution) const {
    auto entry = std::make_shared<BoundPlan>();
    entry->relation = stmt_->d1;
    for (const auto& d : {stmt_->d1, stmt_->d2}) {
      if (d != nullptr) entry->dependencies.emplace_back(d->id, d->version);
    }
    entry->statement = stmt_;
    entry->plan_per_execution = plan_per_execution;
    return entry;
  }

  // The access plan this execution runs on the statement's relation. A
  // cached plan serves every execution, unless one of its cost estimates
  // read a lifted literal's value (AccessPlan::value_dependent): then each
  // execution plans the literal form — the lifted values substituted as
  // constants — and gets the plan its text gets uncached. A new shape is
  // planned in the literal form first; when no estimate read a value, the
  // parameter form's plan, which chooses the same path, is retained.
  Status PlanSingle(Transaction* txn, std::shared_ptr<const BoundPlan>* out) {
    if (entry_ != nullptr && !entry_->plan_per_execution) {
      *out = entry_;
      return Status::OK();
    }
    const ParsedStatement& st = *stmt_;
    const std::vector<int>* needed = st.needed_known ? &st.needed : nullptr;
    std::shared_ptr<BoundPlan> plan = NewEntry(/*plan_per_execution=*/false);
    ExprPtr literal = st.where;
    if (literal != nullptr && !st.lifted.empty()) {
      DMX_RETURN_IF_ERROR(BindParams(st.where, params_, &literal, &st.lifted));
    }
    DMX_RETURN_IF_ERROR(PlanAccess(db_, txn, st.d1.get(), literal,
                                   &plan->access, needed));
    if (shape_ != nullptr) {
      bool reusable = !plan->access.value_dependent;
      if (reusable && literal != st.where) {
        AccessPlan param_form;
        DMX_RETURN_IF_ERROR(PlanAccess(db_, txn, st.d1.get(), st.where,
                                       &param_form, needed));
        reusable = param_form.path == plan->access.path;
        if (reusable) plan->access = std::move(param_form);
      }
      Retain(reusable ? plan : NewEntry(/*plan_per_execution=*/true));
    }
    *out = std::move(plan);
    return Status::OK();
  }

  Status ParseSelect(ParsedStatement* st) {
    Parser& p = *parser_;
    st->kind = ParsedStatement::Kind::kSelect;
    DMX_RETURN_IF_ERROR(ParseSelectList(&st->items));
    DMX_RETURN_IF_ERROR(p.ExpectKw("FROM"));
    std::string t1, t2;
    DMX_RETURN_IF_ERROR(p.ExpectIdent(&t1));
    bool join = p.TakeSym(",");
    if (join) DMX_RETURN_IF_ERROR(p.ExpectIdent(&t2));

    DMX_RETURN_IF_ERROR(db_->FindRelation(t1, &st->d1));
    st->scope.Add(t1, st->d1->schema, 0);
    if (join) {
      DMX_RETURN_IF_ERROR(db_->FindRelation(t2, &st->d2));
      st->scope.Add(t2, st->d2->schema,
                    static_cast<int>(st->d1->schema.num_columns()));
    }

    if (p.TakeKw("WHERE")) {
      DMX_RETURN_IF_ERROR(p.ParseExpr(st->scope, &st->where));
    }
    if (p.TakeKw("ORDER")) {
      DMX_RETURN_IF_ERROR(p.ExpectKw("BY"));
      std::string first, column, qualifier;
      DMX_RETURN_IF_ERROR(p.ExpectIdent(&first));
      if (p.TakeSym(".")) {
        qualifier = first;
        DMX_RETURN_IF_ERROR(p.ExpectIdent(&column));
      } else {
        column = first;
      }
      DMX_RETURN_IF_ERROR(st->scope.Resolve(qualifier, column, &st->order_col));
      if (p.TakeKw("DESC")) {
        st->order_desc = true;
      } else {
        p.TakeKw("ASC");
      }
    }
    if (p.TakeKw("LIMIT")) {
      DMX_RETURN_IF_ERROR(p.ParseLimit(&st->limit));
      if (st->limit == nullptr) {
        return Status::InvalidArgument("LIMIT expects an integer");
      }
    }
    if (!p.AtEnd()) {
      return Status::InvalidArgument("trailing tokens near '" +
                                     p.Peek().text + "'");
    }

    // Which record fields does this query read? (projection + predicate +
    // order column). A '*' or COUNT(*) needs everything -> no list.
    st->needed_known = true;
    for (const SelectItem& item : st->items) {
      if (item.star && !item.is_agg) {
        st->needed_known = false;
        break;
      }
      if (item.star) continue;  // COUNT(*): no field read
      int index;
      DMX_RETURN_IF_ERROR(
          st->scope.Resolve(item.qualifier, item.column, &index));
      st->needed.push_back(index);
    }
    if (st->order_col >= 0) st->needed.push_back(st->order_col);
    return Status::OK();
  }

  Status Select(QueryResult* result) {
    const ParsedStatement& st = *stmt_;
    int64_t limit = -1;
    if (st.limit != nullptr) {
      Value n;
      DMX_RETURN_IF_ERROR(db_->evaluator()->EvalConst(*st.limit, &n, params_));
      if (n.is_null() || n.type() != TypeId::kInt64) {
        return Status::InvalidArgument("LIMIT expects an integer");
      }
      limit = n.int_value();
    }
    const RelationDescriptor* d1 = st.d1.get();
    const RelationDescriptor* d2 = st.d2.get();

    return InTxn([&](Transaction* txn) -> Status {
      std::unique_ptr<RowSource> source;
      std::shared_ptr<const BoundPlan> plan_holder;
      if (d2 == nullptr) {
        DMX_RETURN_IF_ERROR(PlanSingle(txn, &plan_holder));
        BuildSingle(txn, plan_holder, &source);
      } else {
        Retain(NewEntry(/*plan_per_execution=*/true));
        DMX_RETURN_IF_ERROR(
            BuildJoin(txn, st.d1, st.d2, st.where, &plan_holder, &source));
      }
      if (explain_) {
        result->columns = {"access_path", "est_cost", "selectivity"};
        const AccessPlan& access = plan_holder->access;
        result->rows.push_back(
            {Value::String(access.DebugString(db_->registry())),
             Value::Double(access.cost.total()),
             Value::Double(access.cost.selectivity)});
        if (d2 != nullptr) {
          result->rows.push_back(
              {Value::String("join method: " + join_method_), Value::Null(),
               Value::Null()});
        }
        if (access.parallel_workers >= 2) {
          result->rows.push_back(
              {Value::String("parallel workers: " +
                             std::to_string(access.parallel_workers)),
               Value::Null(), Value::Null()});
        }
        // Surface degraded plans: quarantined access paths were skipped
        // during enumeration, so the chosen path routes around damage.
        for (const RelationDescriptor* d : {d1, d2}) {
          if (d == nullptr) continue;
          for (const RelationDescriptor::QuarantineEntry& q : d->quarantined) {
            result->rows.push_back(
                {Value::String(
                     "quarantined (not considered): " +
                     std::string(db_->registry()->at_ops(q.at).name) + "#" +
                     std::to_string(q.instance) + " on " + d->name),
                 Value::Null(), Value::Null()});
          }
        }
        return Status::OK();
      }
      if (analyze_) {
        // Run the query to completion, then report the operator tree
        // (root first, children indented) instead of the result rows.
        QueryResult scratch;
        DMX_RETURN_IF_ERROR(
            Materialize(std::move(source), st, limit, &scratch));
        profile_.FinalizeRowsIn();
        result->columns = {"operator", "rows_in", "rows_out", "time_ms"};
        if (!profile_.ops.empty()) {
          EmitProfileNode(profile_.ops.size() - 1, 0, result);
        }
        result->affected = scratch.affected;
        return Status::OK();
      }
      return Materialize(std::move(source), st, limit, result);
    });
  }

  Status ParseSelectList(std::vector<SelectItem>* items) {
    Parser& p = *parser_;
    if (p.TakeSym("*")) {
      SelectItem star_item;
      star_item.star = true;
      items->push_back(std::move(star_item));
      return Status::OK();
    }
    while (true) {
      SelectItem item;
      const Token& t = p.Peek();
      auto agg_of = [](const Token& tok, AggKind* kind) {
        if (tok.IsKw("COUNT")) *kind = AggKind::kCount;
        else if (tok.IsKw("SUM")) *kind = AggKind::kSum;
        else if (tok.IsKw("AVG")) *kind = AggKind::kAvg;
        else if (tok.IsKw("MIN")) *kind = AggKind::kMin;
        else if (tok.IsKw("MAX")) *kind = AggKind::kMax;
        else return false;
        return true;
      };
      AggKind kind;
      if (t.type == TokType::kIdent && p.Peek(1).IsSym("(") &&
          agg_of(t, &kind)) {
        item.is_agg = true;
        item.agg = kind;
        item.label = Upper(t.text);
        p.Take();
        p.Take();  // '('
        if (kind == AggKind::kCount && p.TakeSym("*")) {
          item.star = true;
        } else {
          std::string first;
          DMX_RETURN_IF_ERROR(p.ExpectIdent(&first));
          if (p.TakeSym(".")) {
            item.qualifier = first;
            DMX_RETURN_IF_ERROR(p.ExpectIdent(&item.column));
          } else {
            item.column = first;
          }
          item.label += "(" + item.column + ")";
        }
        DMX_RETURN_IF_ERROR(p.ExpectSym(")"));
      } else {
        std::string first;
        DMX_RETURN_IF_ERROR(p.ExpectIdent(&first));
        if (p.TakeSym(".")) {
          item.qualifier = first;
          DMX_RETURN_IF_ERROR(p.ExpectIdent(&item.column));
        } else {
          item.column = first;
        }
        item.label = item.column;
      }
      items->push_back(std::move(item));
      if (!p.TakeSym(",")) break;
    }
    return Status::OK();
  }

  void BuildSingle(Transaction* txn,
                   const std::shared_ptr<const BoundPlan>& plan,
                   std::unique_ptr<RowSource>* source) {
    const AccessPlan& access = plan->access;
    const std::string& table = plan->relation->name;
    if (access.parallel_workers >= 2) {
      // Exchange operator over the storage method's partitioned scan; the
      // filter runs below the exchange inside each worker's scan.
      auto psrc = std::make_unique<ParallelScanSource>(
          db_, txn, plan.get(), access.parallel_workers, params_);
      parallel_src_ = psrc.get();
      *source = std::move(psrc);
      if (analyze_) {
        std::vector<size_t> worker_nodes;
        for (int i = 0; i < access.parallel_workers; ++i) {
          worker_nodes.push_back(
              profile_.Add("worker " + std::to_string(i)));
        }
        parallel_src_->EnableProfile(&profile_, worker_nodes);
        *source = Record(std::move(*source),
                         "parallel_scan(" + table + "): " +
                             access.DebugString(db_->registry()) + " [" +
                             std::to_string(access.parallel_workers) +
                             " workers]",
                         std::move(worker_nodes));
      }
      return;
    }
    *source = std::make_unique<AccessSource>(db_, txn, plan.get(), params_);
    *source = Profiled(std::move(*source), [&] {
      return "access(" + table + "): " + access.DebugString(db_->registry());
    });
  }

  // Find an equality conjunct t1.col = t2.col between the two relations.
  static bool FindEquiJoin(const ExprPtr& where, size_t left_width,
                           int* left_col, int* right_col,
                           std::vector<ExprPtr>* rest) {
    std::vector<ExprPtr> conjuncts;
    SplitConjuncts(where, &conjuncts);
    bool found = false;
    for (const ExprPtr& c : conjuncts) {
      if (!found && c->op() == ExprOp::kEq && c->children().size() == 2 &&
          c->child(0)->op() == ExprOp::kField &&
          c->child(1)->op() == ExprOp::kField) {
        int a = c->child(0)->field_index();
        int b = c->child(1)->field_index();
        int lw = static_cast<int>(left_width);
        if (a < lw && b >= lw) {
          *left_col = a;
          *right_col = b - lw;
          found = true;
          continue;
        }
        if (b < lw && a >= lw) {
          *left_col = b;
          *right_col = a - lw;
          found = true;
          continue;
        }
      }
      rest->push_back(c);
    }
    return found;
  }

  // Pick an index access path on `desc` keyed by exactly `field`.
  bool FindJoinIndexPath(Transaction* txn, const RelationDescriptor* desc,
                         int field, AccessPathId* out) {
    const ExtensionRegistry* registry = db_->registry();
    for (const char* name : {"hash_index", "btree_index"}) {
      int at = registry->FindAttachmentType(name);
      if (at < 0 || !desc->HasAttachment(static_cast<AtId>(at))) continue;
      const AtOps& ops = registry->at_ops(static_cast<AtId>(at));
      if (ops.list_instances == nullptr || ops.cost == nullptr) continue;
      std::vector<uint32_t> instances;
      if (!ops.list_instances(Slice(desc->at_desc[at]), &instances).ok()) {
        continue;
      }
      // Probe relevance with a synthetic equality predicate on the field.
      std::vector<ExprPtr> probe = {
          Expr::Cmp(ExprOp::kEq, field, Value::Int(0))};
      for (uint32_t inst : instances) {
        AccessCost cost;
        AccessPathId path = AccessPathId::Attachment(static_cast<AtId>(at),
                                                     inst);
        if (db_->EstimateCost(txn, desc, path, probe, &cost).ok() &&
            cost.usable) {
          *out = path;
          return true;
        }
      }
    }
    return false;
  }

  Status BuildJoin(Transaction* txn,
                   const std::shared_ptr<const RelationDescriptor>& d1,
                   const std::shared_ptr<const RelationDescriptor>& d2,
                   const ExprPtr& where,
                   std::shared_ptr<const BoundPlan>* plan_holder,
                   std::unique_ptr<RowSource>* source) {
    int left_col = -1, right_col = -1;
    std::vector<ExprPtr> rest;
    bool equi = FindEquiJoin(where, d1->schema.num_columns(), &left_col,
                             &right_col, &rest);

    // Outer side: full scan of d1 with its single-relation conjuncts...
    // (kept simple: outer scans everything; residual applies post-join).
    auto outer_plan = std::make_shared<BoundPlan>();
    outer_plan->relation = d1;
    outer_plan->dependencies = {{d1->id, d1->version}};
    DMX_RETURN_IF_ERROR(
        PlanAccess(db_, txn, d1.get(), nullptr, &outer_plan->access));
    *plan_holder = outer_plan;
    std::unique_ptr<RowSource> outer =
        std::make_unique<AccessSource>(db_, txn, outer_plan.get(), params_);
    outer = Profiled(std::move(outer), [&] {
      return "access(" + d1->name + "): " +
             outer_plan->access.DebugString(db_->registry());
    });
    const size_t outer_idx = top_idx_;

    if (equi) {
      AccessPathId inner_path;
      if (FindJoinIndexPath(txn, d2.get(), right_col, &inner_path)) {
        join_method_ = std::string("index nested loop (inner ") +
                       db_->registry()->at_ops(inner_path.at_id()).name +
                       "#" + std::to_string(inner_path.instance) + ")";
        std::unique_ptr<RowSource> join = std::make_unique<IndexJoinSource>(
            db_, txn, std::move(outer), d2.get(), inner_path,
            std::vector<int>{left_col}, std::vector<int>{right_col});
        join = Profiled(
            std::move(join),
            [&] { return "index_join(" + d2->name + "): " + join_method_; },
            {outer_idx});
        ExprPtr residual = JoinConjuncts(rest);
        if (residual != nullptr) {
          const size_t join_idx = top_idx_;
          *source = std::make_unique<FilterSource>(db_, std::move(join),
                                                   residual, params_);
          *source = Profiled(std::move(*source), "filter(residual)",
                             {join_idx});
        } else {
          *source = std::move(join);
        }
        return Status::OK();
      }
    }

    // Plain nested loop with the whole predicate on combined rows.
    join_method_ = "nested loop (inner rescanned per outer row)";
    Database* db = db_;
    auto inner_plan = std::make_shared<BoundPlan>();
    inner_plan->relation = d2;
    inner_plan->dependencies = {{d2->id, d2->version}};
    DMX_RETURN_IF_ERROR(
        PlanAccess(db_, txn, d2.get(), nullptr, &inner_plan->access));
    // Every rescan of the inner accumulates into one profile node, so the
    // paper's call-amplification shows up as rows_out >> the table size.
    size_t inner_idx = 0;
    if (analyze_) {
      inner_idx = profile_.Add(
          "access(" + d2->name + "): " +
          inner_plan->access.DebugString(db_->registry()) +
          " [rescanned per outer row]");
    }
    const bool analyze = analyze_;
    PlanProfile* profile = &profile_;
    const std::vector<Value>* params = params_;
    auto factory = [db, txn, inner_plan, analyze, profile, inner_idx, params](
                       std::unique_ptr<RowSource>* out) -> Status {
      *out = std::make_unique<AccessSource>(db, txn, inner_plan.get(), params);
      if (analyze) {
        *out = std::make_unique<ProfiledSource>(std::move(*out), profile,
                                                inner_idx);
      }
      return Status::OK();
    };
    *source = std::make_unique<NestedLoopJoinSource>(
        db_, std::move(outer), std::move(factory), where, params_);
    *source = Profiled(std::move(*source), "nested_loop_join",
                       {outer_idx, inner_idx});
    return Status::OK();
  }

  Status Materialize(std::unique_ptr<RowSource> source,
                     const ParsedStatement& st, int64_t limit,
                     QueryResult* result) {
    const std::vector<SelectItem>& items = st.items;
    const NameScope& scope = st.scope;
    const RelationDescriptor* d1 = st.d1.get();
    const RelationDescriptor* d2 = st.d2.get();
    const int order_col = st.order_col;
    const bool order_desc = st.order_desc;
    // Aggregates: single aggregate item supported.
    if (items.size() == 1 && items[0].is_agg) {
      int column = 0;
      if (!items[0].star) {
        DMX_RETURN_IF_ERROR(
            scope.Resolve(items[0].qualifier, items[0].column, &column));
      }
      std::unique_ptr<RowSource> agg;
      if (parallel_src_ != nullptr && d2 == nullptr) {
        // Push the aggregation below the exchange: workers pre-aggregate
        // their partitions, the merge combines one partial row each.
        parallel_src_->EnablePartialAggregate(items[0].agg, column);
        agg = std::make_unique<ParallelAggregateMergeSource>(
            std::move(source), items[0].agg);
        agg = Profiled(
            std::move(agg),
            [&] { return "aggregate(" + items[0].label + ") [partial merge]"; },
            {top_idx_});
      } else {
        agg = std::make_unique<AggregateSource>(std::move(source),
                                                items[0].agg, column);
        agg = Profiled(
            std::move(agg),
            [&] { return "aggregate(" + items[0].label + ")"; }, {top_idx_});
      }
      std::vector<Row> rows;
      DMX_RETURN_IF_ERROR(CollectRows(agg.get(), &rows));
      result->columns = {items[0].label};
      for (Row& row : rows) result->rows.push_back(std::move(row.values));
      return Status::OK();
    }
    // Column projection (or *).
    std::vector<int> projection;
    if (items.size() == 1 && items[0].star) {
      for (const auto& col : d1->schema.columns()) {
        result->columns.push_back(col.name);
      }
      if (d2 != nullptr) {
        for (const auto& col : d2->schema.columns()) {
          result->columns.push_back(col.name);
        }
      }
      for (size_t i = 0; i < result->columns.size(); ++i) {
        projection.push_back(static_cast<int>(i));
      }
    } else {
      for (const SelectItem& item : items) {
        if (item.is_agg || item.star) {
          return Status::InvalidArgument(
              "aggregates cannot mix with plain columns");
        }
        int index;
        DMX_RETURN_IF_ERROR(
            scope.Resolve(item.qualifier, item.column, &index));
        projection.push_back(index);
        result->columns.push_back(item.label);
      }
    }
    // ORDER BY sorts on the *pre-projection* column index, so sort the
    // child rows before projecting.
    std::unique_ptr<RowSource> ordered;
    if (order_col >= 0) {
      std::vector<Row> all;
      DMX_RETURN_IF_ERROR(CollectRows(source.get(), &all));
      std::stable_sort(all.begin(), all.end(),
                       [order_col, order_desc](const Row& a, const Row& b) {
                         int c = a.values[static_cast<size_t>(order_col)]
                                     .Compare(b.values[static_cast<size_t>(
                                         order_col)]);
                         return order_desc ? c > 0 : c < 0;
                       });
      class VectorSource : public RowSource {
       public:
        explicit VectorSource(std::vector<Row> rows)
            : rows_(std::move(rows)) {}
        Status Next(Row* row) override {
          if (pos_ >= rows_.size()) return Status::NotFound("end");
          *row = std::move(rows_[pos_++]);
          return Status::OK();
        }

       private:
        std::vector<Row> rows_;
        size_t pos_ = 0;
      };
      ordered = std::make_unique<VectorSource>(std::move(all));
      ordered = Profiled(
          std::move(ordered),
          [&] { return "sort(column " + std::to_string(order_col) + ")"; },
          {top_idx_});
    } else {
      ordered = std::move(source);
    }
    std::unique_ptr<RowSource> project =
        std::make_unique<ProjectSource>(std::move(ordered), projection);
    project = Profiled(std::move(project), "project", {top_idx_});
    std::vector<Row> rows;
    Row row;
    while (limit < 0 ||
           static_cast<int64_t>(rows.size()) < limit) {
      Status s = project->Next(&row);
      if (s.IsNotFound()) break;
      DMX_RETURN_IF_ERROR(s);
      rows.push_back(std::move(row));
    }
    for (Row& r : rows) result->rows.push_back(std::move(r.values));
    result->affected = static_cast<int64_t>(result->rows.size());
    return Status::OK();
  }

  // UPDATE / DELETE -------------------------------------------------------

  Status ParseUpdate(ParsedStatement* st) {
    Parser& p = *parser_;
    st->kind = ParsedStatement::Kind::kUpdate;
    std::string table;
    DMX_RETURN_IF_ERROR(p.ExpectIdent(&table));
    DMX_RETURN_IF_ERROR(db_->FindRelation(table, &st->d1));
    st->scope.Add(table, st->d1->schema, 0);

    DMX_RETURN_IF_ERROR(p.ExpectKw("SET"));
    while (true) {
      std::string col;
      DMX_RETURN_IF_ERROR(p.ExpectIdent(&col));
      int index;
      DMX_RETURN_IF_ERROR(st->scope.Resolve("", col, &index));
      DMX_RETURN_IF_ERROR(p.ExpectSym("="));
      ExprPtr value;
      DMX_RETURN_IF_ERROR(p.ParseExpr(st->scope, &value));
      st->sets.emplace_back(index, std::move(value));
      if (!p.TakeSym(",")) break;
    }
    if (p.TakeKw("WHERE")) {
      DMX_RETURN_IF_ERROR(p.ParseExpr(st->scope, &st->where));
    }
    return Status::OK();
  }

  Status ParseDelete(ParsedStatement* st) {
    Parser& p = *parser_;
    st->kind = ParsedStatement::Kind::kDelete;
    DMX_RETURN_IF_ERROR(p.ExpectKw("FROM"));
    std::string table;
    DMX_RETURN_IF_ERROR(p.ExpectIdent(&table));
    DMX_RETURN_IF_ERROR(db_->FindRelation(table, &st->d1));
    st->scope.Add(table, st->d1->schema, 0);
    if (p.TakeKw("WHERE")) {
      DMX_RETURN_IF_ERROR(p.ParseExpr(st->scope, &st->where));
    }
    return Status::OK();
  }

  // Runs the statement's access plan, collecting each qualifying record's
  // key, and its values unless `values` is null, before anything is
  // modified.
  Status CollectTargets(Transaction* txn, std::vector<std::string>* keys,
                        std::vector<std::vector<Value>>* values) {
    std::shared_ptr<const BoundPlan> plan;
    DMX_RETURN_IF_ERROR(PlanSingle(txn, &plan));
    AccessSource source(db_, txn, plan.get(), params_);
    Row row;
    while (true) {
      Status s = source.Next(&row);
      if (s.IsNotFound()) return Status::OK();
      DMX_RETURN_IF_ERROR(s);
      keys->push_back(std::move(row.record_key));
      if (values != nullptr) values->push_back(std::move(row.values));
    }
  }

  Status Update(QueryResult* result) {
    const ParsedStatement& st = *stmt_;
    int64_t updated = 0;
    DMX_RETURN_IF_ERROR(InTxn([&](Transaction* txn) -> Status {
      // Collect targets first (avoid scanning while mutating).
      std::vector<std::string> keys;
      std::vector<std::vector<Value>> values;
      DMX_RETURN_IF_ERROR(CollectTargets(txn, &keys, &values));
      for (size_t i = 0; i < keys.size(); ++i) {
        std::vector<Value> new_values = values[i];
        for (const auto& [index, expr] : st.sets) {
          Value v;
          DMX_RETURN_IF_ERROR(
              db_->evaluator()->Eval(*expr, values[i], &v, params_));
          new_values[static_cast<size_t>(index)] = std::move(v);
        }
        DMX_RETURN_IF_ERROR(
            db_->Update(txn, st.d1->name, Slice(keys[i]), new_values));
        ++updated;
      }
      return Status::OK();
    }));
    result->affected = updated;
    result->message = "UPDATE " + std::to_string(updated);
    return Status::OK();
  }

  Status Delete(QueryResult* result) {
    int64_t deleted = 0;
    DMX_RETURN_IF_ERROR(InTxn([&](Transaction* txn) -> Status {
      std::vector<std::string> keys;
      DMX_RETURN_IF_ERROR(CollectTargets(txn, &keys, /*values=*/nullptr));
      for (const std::string& key : keys) {
        Status s = db_->Delete(txn, stmt_->d1->name, Slice(key));
        if (s.IsNotFound()) continue;  // cascaded away already
        DMX_RETURN_IF_ERROR(s);
        ++deleted;
      }
      return Status::OK();
    }));
    result->affected = deleted;
    result->message = "DELETE " + std::to_string(deleted);
    return Status::OK();
  }

  // Wrap `src` in a profiling recorder under EXPLAIN ANALYZE. `name` is a
  // string literal or a callable that builds the name, so that nothing is
  // built when nothing is recorded. `children` are the profile indices of
  // the operators `src` pulls from.
  template <typename Name>
  std::unique_ptr<RowSource> Profiled(
      std::unique_ptr<RowSource> src, const Name& name,
      std::initializer_list<size_t> children = {}) {
    if (!analyze_) return src;
    std::string built;
    if constexpr (std::is_invocable_v<Name>) {
      built = name();
    } else {
      built = name;
    }
    return Record(std::move(src), std::move(built),
                  std::vector<size_t>(children));
  }

  // Record `src` as the profile node `name`. Updates top_idx_ to the new
  // node so the caller can chain wrappers upward.
  std::unique_ptr<RowSource> Record(std::unique_ptr<RowSource> src,
                                    std::string name,
                                    std::vector<size_t> children) {
    top_idx_ = profile_.Add(std::move(name), std::move(children));
    return std::make_unique<ProfiledSource>(std::move(src), &profile_,
                                            top_idx_);
  }

  void EmitProfileNode(size_t idx, int depth, QueryResult* result) {
    const OperatorStats& op = profile_.ops[idx];
    result->rows.push_back(
        {Value::String(std::string(static_cast<size_t>(2 * depth), ' ') +
                       op.name),
         Value::Int(static_cast<int64_t>(op.rows_in)),
         Value::Int(static_cast<int64_t>(op.rows_out)),
         Value::Double(static_cast<double>(op.wall_ns) / 1e6)});
    for (size_t child : op.children) {
      EmitProfileNode(child, depth + 1, result);
    }
  }

  Session* session_;
  Database* db_;
  const std::string& sql_;
  // The statement's `?` values, or null when it has none; bound into every
  // source, scan and evaluation this execution runs (never into the plan).
  // For a SELECT, UPDATE or DELETE: bound_params_, the lifted literals'
  // values and the caller's in textual order.
  const std::vector<Value>* params_;
  std::vector<Value> bound_params_;
  std::unique_ptr<Parser> parser_;
  // The SELECT, UPDATE or DELETE being run; its cache entry on a hit; its
  // shape on a miss, until the translation is retained under it.
  std::shared_ptr<const ParsedStatement> stmt_;
  std::shared_ptr<const BoundPlan> entry_;
  const std::string* shape_ = nullptr;
  bool explain_ = false;
  bool analyze_ = false;
  PlanProfile profile_;
  size_t top_idx_ = 0;  // profile index of the current plan-tree root
  std::string join_method_;
  /// Set by BuildSingle when the plan runs a parallel scan, so Materialize
  /// can push a single aggregate below the exchange. Joins never set it.
  ParallelScanSource* parallel_src_ = nullptr;
};

Session::~Session() {
  // Destructor cleanup; errors are unreportable here.
  if (txn_ != nullptr) (void)db_->Abort(txn_);
}

Status Session::Execute(const std::string& sql, QueryResult* result) {
  return Execute(sql, {}, result);
}

Status Session::Execute(const std::string& sql,
                        const std::vector<Value>& params,
                        QueryResult* result) {
  *result = QueryResult();
  SqlExecutor executor(this, sql, params.empty() ? nullptr : &params);
  return executor.Run(result);
}

std::string QueryResult::ToString() const {
  std::string out;
  if (!columns.empty()) {
    for (size_t i = 0; i < columns.size(); ++i) {
      if (i) out += " | ";
      out += columns[i];
    }
    out += "\n";
    out += std::string(out.size() > 1 ? out.size() - 1 : 0, '-');
    out += "\n";
  }
  for (const auto& row : rows) {
    for (size_t i = 0; i < row.size(); ++i) {
      if (i) out += " | ";
      out += row[i].ToString();
    }
    out += "\n";
  }
  if (!message.empty()) out += message + "\n";
  return out;
}

}  // namespace dmx
