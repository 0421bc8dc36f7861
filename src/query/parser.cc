#include "query/parser.h"

#include <charconv>

#include "common/str_util.h"
#include "query/lexer.h"
#include "xml/tree.h"

namespace axml {
namespace aql {
namespace {

class Parser {
 public:
  explicit Parser(std::vector<Token> toks) : toks_(std::move(toks)) {}

  Result<QueryAst> Parse() {
    QueryAst q;
    if (Cur().IsIdent("for")) {
      while (Cur().IsIdent("for")) {
        AXML_ASSIGN_OR_RETURN(ForClause fc, ParseForClause());
        q.clauses.push_back(std::move(fc));
        // Tolerate an optional comma between clauses:
        //   for $x in ..., for $y in ...  /  for $x in ..., $y in ...
        if (Cur().Is(TokKind::kComma)) {
          Advance();
          if (Cur().Is(TokKind::kVar)) {
            // XQuery-style `for $x in e, $y in e2`
            AXML_ASSIGN_OR_RETURN(ForClause fc2, ParseBindingTail());
            q.clauses.push_back(std::move(fc2));
            while (Cur().Is(TokKind::kComma)) {
              Advance();
              AXML_ASSIGN_OR_RETURN(ForClause fcn, ParseBindingTail());
              q.clauses.push_back(std::move(fcn));
            }
          }
        }
      }
      if (Cur().IsIdent("where")) {
        Advance();
        AXML_ASSIGN_OR_RETURN(q.where, ParseCond(/*depth=*/0));
      }
      if (!Cur().IsIdent("return")) return Err("expected 'return'");
      Advance();
      AXML_ASSIGN_OR_RETURN(q.ret, ParseCons(/*depth=*/0));
    } else {
      // Bare path expression sugar.
      AXML_ASSIGN_OR_RETURN(Source src, ParseSource());
      AXML_ASSIGN_OR_RETURN(Path path, ParsePath(/*require=*/false));
      ForClause fc;
      fc.var = "x";
      fc.source = std::move(src);
      fc.path = std::move(path);
      q.clauses.push_back(std::move(fc));
      auto ret = std::make_unique<Cons>();
      ret->kind = Cons::Kind::kOperand;
      ret->operand.kind = Operand::Kind::kVarPath;
      ret->operand.var = "x";
      q.ret = std::move(ret);
    }
    if (!Cur().Is(TokKind::kEnd)) {
      return Err(StrCat("trailing tokens starting with '", Cur().text, "'"));
    }
    // Semantic checks: variables defined before use, no duplicates.
    AXML_RETURN_NOT_OK(CheckVars(q));
    return q;
  }

 private:
  const Token& Cur() const { return toks_[pos_]; }
  const Token& Ahead(size_t n) const {
    size_t i = pos_ + n;
    return i < toks_.size() ? toks_[i] : toks_.back();
  }
  void Advance() {
    if (pos_ + 1 < toks_.size()) ++pos_;
  }
  Status Err(std::string msg) const {
    return Status::ParseError(
        StrCat("offset ", Cur().offset, ": ", msg));
  }
  Status TooDeep() const {
    return Err(StrCat("nested deeper than ", kMaxNestingDepth));
  }

  Result<ForClause> ParseForClause() {
    Advance();  // 'for'
    return ParseBindingTail();
  }

  /// Parses `$var in Source Path?` (shared by 'for' and comma bindings).
  Result<ForClause> ParseBindingTail() {
    ForClause fc;
    if (!Cur().Is(TokKind::kVar)) return Err("expected variable after 'for'");
    fc.var = Cur().text;
    Advance();
    if (!Cur().IsIdent("in")) return Err("expected 'in'");
    Advance();
    AXML_ASSIGN_OR_RETURN(fc.source, ParseSource());
    AXML_ASSIGN_OR_RETURN(fc.path, ParsePath(/*require=*/false));
    return fc;
  }

  Result<Source> ParseSource() {
    Source s;
    if (Cur().IsIdent("doc")) {
      Advance();
      if (!Cur().Is(TokKind::kLParen)) return Err("expected '(' after doc");
      Advance();
      if (!Cur().Is(TokKind::kString)) {
        return Err("expected document name string in doc(...)");
      }
      s.kind = Source::Kind::kDoc;
      s.doc_name = Cur().text;
      Advance();
      if (!Cur().Is(TokKind::kRParen)) return Err("expected ')'");
      Advance();
      return s;
    }
    if (Cur().IsIdent("input")) {
      Advance();
      if (!Cur().Is(TokKind::kLParen)) {
        return Err("expected '(' after input");
      }
      Advance();
      if (!Cur().Is(TokKind::kNumber)) {
        return Err("expected input index in input(...)");
      }
      s.kind = Source::Kind::kInput;
      // The leading integer of the number token ("1e3" reads as 1).
      const std::string& num = Cur().text;
      if (std::from_chars(num.data(), num.data() + num.size(),
                          s.input_index)
              .ec != std::errc()) {
        return Err("input index out of range");
      }
      if (s.input_index < 0) return Err("negative input index");
      Advance();
      if (!Cur().Is(TokKind::kRParen)) return Err("expected ')'");
      Advance();
      return s;
    }
    if (Cur().Is(TokKind::kVar)) {
      s.kind = Source::Kind::kVar;
      s.var_name = Cur().text;
      Advance();
      return s;
    }
    return Err("expected doc(...), input(...) or $var as source");
  }

  Result<Path> ParsePath(bool require) {
    Path path;
    while (Cur().Is(TokKind::kSlash) || Cur().Is(TokKind::kDescend)) {
      Step st;
      st.axis = Cur().Is(TokKind::kSlash) ? Step::Axis::kChild
                                          : Step::Axis::kDescendant;
      Advance();
      if (Cur().Is(TokKind::kStar)) {
        st.test = Step::Test::kWildcard;
        Advance();
      } else if (Cur().IsIdent("text") && Ahead(1).Is(TokKind::kLParen) &&
                 Ahead(2).Is(TokKind::kRParen)) {
        st.test = Step::Test::kText;
        Advance();
        Advance();
        Advance();
      } else if (Cur().Is(TokKind::kIdent)) {
        st.test = Step::Test::kLabel;
        st.label = InternLabel(Cur().text);
        Advance();
      } else {
        return Err("expected step name, '*' or text() after '/'");
      }
      path.push_back(st);
    }
    if (require && path.empty()) return Err("expected path");
    return path;
  }

  Result<Operand> ParseOperand() {
    Operand o;
    if (Cur().Is(TokKind::kVar)) {
      o.kind = Operand::Kind::kVarPath;
      o.var = Cur().text;
      Advance();
      AXML_ASSIGN_OR_RETURN(o.path, ParsePath(/*require=*/false));
      return o;
    }
    if (Cur().Is(TokKind::kDot)) {
      Advance();
      o.kind = Operand::Kind::kDotPath;
      AXML_ASSIGN_OR_RETURN(o.path, ParsePath(/*require=*/false));
      return o;
    }
    if (Cur().Is(TokKind::kString) || Cur().Is(TokKind::kNumber)) {
      o.kind = Operand::Kind::kLiteral;
      o.literal = Cur().text;
      Advance();
      return o;
    }
    return Err("expected $var, '.', string or number");
  }

  // Conditions and constructors recurse once per '(' / 'not(' / element
  // constructor; `depth` counts the ones enclosing the current position.
  // The recursive functions keep small frames (the leaves are parsed by
  // helpers), so the deepest accepted nesting fits the call stack of a
  // sanitizer build too.

  /// `or` of `and`s of atoms; a single operand is returned unwrapped.
  Result<CondPtr> ParseCond(size_t depth) {
    if (depth > kMaxNestingDepth) return TooDeep();
    std::vector<CondPtr> disjuncts;
    do {
      if (!disjuncts.empty()) Advance();  // 'or'
      std::vector<CondPtr> conjuncts;
      do {
        if (!conjuncts.empty()) Advance();  // 'and'
        AXML_ASSIGN_OR_RETURN(CondPtr atom, ParseAtom(depth));
        conjuncts.push_back(std::move(atom));
      } while (Cur().IsIdent("and"));
      disjuncts.push_back(Junction(Cond::Kind::kAnd, std::move(conjuncts)));
    } while (Cur().IsIdent("or"));
    return Junction(Cond::Kind::kOr, std::move(disjuncts));
  }

  static CondPtr Junction(Cond::Kind kind, std::vector<CondPtr> operands) {
    if (operands.size() == 1) return std::move(operands.front());
    auto node = std::make_unique<Cond>();
    node->kind = kind;
    node->children = std::move(operands);
    return node;
  }

  /// `(cond)`, `not(cond)`, or a leaf condition.
  Result<CondPtr> ParseAtom(size_t depth) {
    const bool negated = Cur().IsIdent("not") && Ahead(1).Is(TokKind::kLParen);
    if (!negated && !Cur().Is(TokKind::kLParen)) return ParseLeafCond();
    if (negated) Advance();
    Advance();  // '('
    AXML_ASSIGN_OR_RETURN(CondPtr inner, ParseCond(depth + 1));
    if (!Cur().Is(TokKind::kRParen)) return Err("expected ')'");
    Advance();
    if (!negated) return inner;
    auto node = std::make_unique<Cond>();
    node->kind = Cond::Kind::kNot;
    node->children.push_back(std::move(inner));
    return node;
  }

  /// `contains(operand, "literal")`, a comparison, or an existence test.
  Result<CondPtr> ParseLeafCond() {
    if (Cur().IsIdent("contains") && Ahead(1).Is(TokKind::kLParen)) {
      Advance();
      Advance();
      auto node = std::make_unique<Cond>();
      node->kind = Cond::Kind::kContains;
      AXML_ASSIGN_OR_RETURN(node->lhs, ParseOperand());
      if (!Cur().Is(TokKind::kComma)) return Err("expected ','");
      Advance();
      if (!Cur().Is(TokKind::kString)) {
        return Err("expected string literal in contains()");
      }
      node->rhs.kind = Operand::Kind::kLiteral;
      node->rhs.literal = Cur().text;
      Advance();
      if (!Cur().Is(TokKind::kRParen)) return Err("expected ')'");
      Advance();
      return node;
    }
    // Comparison or existence.
    AXML_ASSIGN_OR_RETURN(Operand lhs, ParseOperand());
    CmpOp op;
    bool has_cmp = true;
    switch (Cur().kind) {
      case TokKind::kEq:
        op = CmpOp::kEq;
        break;
      case TokKind::kNe:
        op = CmpOp::kNe;
        break;
      case TokKind::kLt:
        op = CmpOp::kLt;
        break;
      case TokKind::kLe:
        op = CmpOp::kLe;
        break;
      case TokKind::kGt:
        op = CmpOp::kGt;
        break;
      case TokKind::kGe:
        op = CmpOp::kGe;
        break;
      default:
        has_cmp = false;
        op = CmpOp::kEq;
        break;
    }
    auto node = std::make_unique<Cond>();
    if (!has_cmp) {
      node->kind = Cond::Kind::kExists;
      node->lhs = std::move(lhs);
      return node;
    }
    Advance();
    node->kind = Cond::Kind::kCompare;
    node->lhs = std::move(lhs);
    node->op = op;
    AXML_ASSIGN_OR_RETURN(node->rhs, ParseOperand());
    return node;
  }

  /// `<tag/>`, `<tag>{ cons, ... }</tag>`, or a leaf constructor.
  Result<ConsPtr> ParseCons(size_t depth) {
    if (depth > kMaxNestingDepth) return TooDeep();
    if (!Cur().Is(TokKind::kLt)) return ParseLeafCons();
    auto node = std::make_unique<Cons>();
    node->kind = Cons::Kind::kElement;
    AXML_ASSIGN_OR_RETURN(bool has_content, ParseStartTag(node.get()));
    if (!has_content) return node;
    if (!Cur().Is(TokKind::kRBrace)) {
      do {
        if (!node->children.empty()) Advance();  // ','
        AXML_ASSIGN_OR_RETURN(ConsPtr child, ParseCons(depth + 1));
        node->children.push_back(std::move(child));
      } while (Cur().Is(TokKind::kComma));
    }
    AXML_RETURN_NOT_OK(ParseEndTag(*node));
    return node;
  }

  /// `<tag/>` (false) or `<tag>{` (true), naming `node` after the tag.
  Result<bool> ParseStartTag(Cons* node) {
    Advance();  // '<'
    if (!Cur().Is(TokKind::kIdent)) return Err("expected element name");
    node->elem_label = InternLabel(Cur().text);
    Advance();
    if (Cur().Is(TokKind::kEmptyEnd)) {
      Advance();
      return false;
    }
    if (!Cur().Is(TokKind::kGt)) return Err("expected '>'");
    Advance();
    if (!Cur().Is(TokKind::kLBrace)) {
      return Err("expected '{' inside element constructor");
    }
    Advance();
    return true;
  }

  /// `}</tag>` closing `node`.
  Status ParseEndTag(const Cons& node) {
    const std::string& tag = LabelText(node.elem_label);
    if (!Cur().Is(TokKind::kRBrace)) return Err("expected '}'");
    Advance();
    if (!Cur().Is(TokKind::kTagClose)) {
      return Err(StrCat("expected closing tag for <", tag, ">"));
    }
    Advance();
    if (!Cur().IsIdent(tag)) {
      return Err(StrCat("mismatched closing tag, expected </", tag, ">"));
    }
    Advance();
    if (!Cur().Is(TokKind::kGt)) return Err("expected '>'");
    Advance();
    return Status::OK();
  }

  /// `count($var)` or an operand.
  Result<ConsPtr> ParseLeafCons() {
    if (Cur().IsIdent("count") && Ahead(1).Is(TokKind::kLParen)) {
      Advance();
      Advance();
      if (!Cur().Is(TokKind::kVar)) return Err("expected $var in count()");
      auto node = std::make_unique<Cons>();
      node->kind = Cons::Kind::kCount;
      node->count_var = Cur().text;
      Advance();
      if (!Cur().Is(TokKind::kRParen)) return Err("expected ')'");
      Advance();
      return node;
    }
    auto node = std::make_unique<Cons>();
    node->kind = Cons::Kind::kOperand;
    AXML_ASSIGN_OR_RETURN(node->operand, ParseOperand());
    return node;
  }

  Status CheckVars(const QueryAst& q) const {
    std::vector<std::string> defined;
    for (const auto& c : q.clauses) {
      for (const auto& d : defined) {
        if (d == c.var) {
          return Status::ParseError(
              StrCat("duplicate variable $", c.var));
        }
      }
      if (c.source.kind == Source::Kind::kVar) {
        bool found = false;
        for (const auto& d : defined) found = found || d == c.source.var_name;
        if (!found) {
          return Status::ParseError(
              StrCat("variable $", c.source.var_name,
                     " used before definition"));
        }
      }
      defined.push_back(c.var);
    }
    std::vector<std::string> used;
    if (q.where != nullptr) q.where->CollectVars(&used);
    if (q.ret != nullptr) q.ret->CollectVars(&used);
    for (const auto& u : used) {
      bool found = false;
      for (const auto& d : defined) found = found || d == u;
      if (!found) {
        return Status::ParseError(StrCat("undefined variable $", u));
      }
    }
    return Status::OK();
  }

  std::vector<Token> toks_;
  size_t pos_ = 0;
};

}  // namespace

Result<QueryAst> ParseQuery(std::string_view text) {
  AXML_ASSIGN_OR_RETURN(std::vector<Token> toks, Lex(text));
  Parser p(std::move(toks));
  return p.Parse();
}

}  // namespace aql
}  // namespace axml
