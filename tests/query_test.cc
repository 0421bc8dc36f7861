// Tests for the AQL query language: lexer, parser, unparse round trips,
// streaming executor semantics, and decomposition.

#include <gtest/gtest.h>

#include "common/rng.h"
#include "query/decompose.h"
#include "query/executor.h"
#include "query/lexer.h"
#include "query/parser.h"
#include "query/query.h"
#include "test_util.h"
#include "xml/xml_parser.h"
#include "xml/xml_serializer.h"

namespace axml {
namespace {

using aql::Lex;
using aql::ParseQuery;
using aql::TokKind;

// --- Lexer ---

TEST(AqlLexerTest, TokenKinds) {
  auto r = Lex("for $x in doc(\"d\")//a/b where $x/p <= 3 return <r>{ $x }</r>");
  ASSERT_TRUE(r.ok()) << r.status();
  const auto& t = r.value();
  EXPECT_TRUE(t[0].IsIdent("for"));
  EXPECT_EQ(t[1].kind, TokKind::kVar);
  EXPECT_EQ(t[1].text, "x");
  EXPECT_TRUE(t[2].IsIdent("in"));
  EXPECT_TRUE(t[3].IsIdent("doc"));
  EXPECT_EQ(t[4].kind, TokKind::kLParen);
  EXPECT_EQ(t[5].kind, TokKind::kString);
  EXPECT_EQ(t[5].text, "d");
  EXPECT_EQ(t[7].kind, TokKind::kDescend);
  EXPECT_EQ(t.back().kind, TokKind::kEnd);
}

TEST(AqlLexerTest, ComparisonOperators) {
  auto r = Lex("= != < <= > >=");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value()[0].kind, TokKind::kEq);
  EXPECT_EQ(r.value()[1].kind, TokKind::kNe);
  EXPECT_EQ(r.value()[2].kind, TokKind::kLt);
  EXPECT_EQ(r.value()[3].kind, TokKind::kLe);
  EXPECT_EQ(r.value()[4].kind, TokKind::kGt);
  EXPECT_EQ(r.value()[5].kind, TokKind::kGe);
}

TEST(AqlLexerTest, TagTokens) {
  auto r = Lex("</ /> //");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value()[0].kind, TokKind::kTagClose);
  EXPECT_EQ(r.value()[1].kind, TokKind::kEmptyEnd);
  EXPECT_EQ(r.value()[2].kind, TokKind::kDescend);
}

TEST(AqlLexerTest, NumbersIncludingNegativeAndExponent) {
  auto r = Lex("42 -3.5 1e3");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value()[0].text, "42");
  EXPECT_EQ(r.value()[1].text, "-3.5");
  EXPECT_EQ(r.value()[2].text, "1e3");
}

TEST(AqlLexerTest, Errors) {
  EXPECT_FALSE(Lex("\"unterminated").ok());
  EXPECT_FALSE(Lex("$").ok());
  EXPECT_FALSE(Lex("a ! b").ok());
  EXPECT_FALSE(Lex("#").ok());
}

// --- Parser ---

TEST(AqlParserTest, SimpleFlwr) {
  auto r = ParseQuery(
      "for $b in input(0)/catalog/product where $b/price < 30 "
      "return <cheap>{ $b/name }</cheap>");
  ASSERT_TRUE(r.ok()) << r.status();
  const auto& q = r.value();
  ASSERT_EQ(q.clauses.size(), 1u);
  EXPECT_EQ(q.clauses[0].var, "b");
  EXPECT_EQ(q.clauses[0].path.size(), 2u);
  ASSERT_NE(q.where, nullptr);
  EXPECT_EQ(q.Arity(), 1);
}

TEST(AqlParserTest, BarePathSugar) {
  auto r = ParseQuery("doc(\"d\")//product/name");
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r.value().clauses.size(), 1u);
  EXPECT_EQ(r.value().Arity(), 0);
  EXPECT_EQ(r.value().clauses[0].source.kind, aql::Source::Kind::kDoc);
}

TEST(AqlParserTest, MultiClauseJoin) {
  auto r = ParseQuery(
      "for $a in input(0)/r/item for $b in input(1)/r/item "
      "where $a/key = $b/key return <pair>{ $a/key }</pair>");
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r.value().clauses.size(), 2u);
  EXPECT_EQ(r.value().Arity(), 2);
}

TEST(AqlParserTest, CommaBindings) {
  auto r = ParseQuery(
      "for $a in input(0)/x, $b in $a/y return $b");
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r.value().clauses.size(), 2u);
  EXPECT_EQ(r.value().clauses[1].source.kind, aql::Source::Kind::kVar);
}

TEST(AqlParserTest, BooleanStructure) {
  auto r = ParseQuery(
      "for $x in input(0) where ($x/a = 1 or $x/b = 2) and "
      "not($x/c) and contains($x/d, \"k\") return $x");
  ASSERT_TRUE(r.ok()) << r.status();
  ASSERT_NE(r.value().where, nullptr);
  EXPECT_EQ(r.value().where->kind, aql::Cond::Kind::kAnd);
  EXPECT_EQ(r.value().where->children.size(), 3u);
}

TEST(AqlParserTest, CountConstructor) {
  auto r = ParseQuery(
      "for $x in input(0)//item return <n>{ count($x) }</n>");
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r.value().ret->children[0]->kind, aql::Cons::Kind::kCount);
}

TEST(AqlParserTest, EmptyElementConstructor) {
  auto r = ParseQuery("for $x in input(0) return <ping/>");
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r.value().ret->kind, aql::Cons::Kind::kElement);
  EXPECT_TRUE(r.value().ret->children.empty());
}

struct BadQueryCase {
  const char* name;
  const char* text;
};

// Print the case by its name: the default printer dumps the raw pointer
// bytes, which change from run to run and leak into the listed test names.
void PrintTo(const BadQueryCase& c, std::ostream* os) { *os << c.name; }

class AqlParserErrorTest : public ::testing::TestWithParam<BadQueryCase> {};

TEST_P(AqlParserErrorTest, Rejects) {
  auto r = ParseQuery(GetParam().text);
  EXPECT_FALSE(r.ok()) << GetParam().text;
}

INSTANTIATE_TEST_SUITE_P(
    Malformed, AqlParserErrorTest,
    ::testing::Values(
        BadQueryCase{"no_return", "for $x in input(0)"},
        BadQueryCase{"undefined_var", "for $x in input(0) return $y"},
        BadQueryCase{"dup_var",
                     "for $x in input(0) for $x in input(1) return $x"},
        BadQueryCase{"use_before_def", "for $x in $y return $x"},
        BadQueryCase{"bad_source", "for $x in 42 return $x"},
        BadQueryCase{"trailing", "for $x in input(0) return $x extra"},
        BadQueryCase{"mismatched_tag",
                     "for $x in input(0) return <a>{ $x }</b>"},
        BadQueryCase{"negative_input", "for $x in input(-1) return $x"},
        BadQueryCase{"where_needs_atom",
                     "for $x in input(0) where return $x"}),
    [](const ::testing::TestParamInfo<BadQueryCase>& param_info) {
      return param_info.param.name;
    });

class AqlRoundTripTest : public ::testing::TestWithParam<const char*> {};

TEST_P(AqlRoundTripTest, UnparseReparse) {
  auto r1 = ParseQuery(GetParam());
  ASSERT_TRUE(r1.ok()) << r1.status();
  std::string text = r1.value().ToString();
  auto r2 = ParseQuery(text);
  ASSERT_TRUE(r2.ok()) << r2.status() << " on unparsed: " << text;
  // Unparse is a fixpoint after one round.
  EXPECT_EQ(r2.value().ToString(), text);
}

const char* const kAqlCorpus[] = {
    "for $x in input(0) return $x",
    "for $b in doc(\"cat\")/catalog/product where $b/price < 30 "
    "return <cheap>{ $b/name, $b/price }</cheap>",
    "for $a in input(0)//x for $b in $a/y where $b/z = \"k\" return $b",
    "for $x in input(0) where $x/a >= 1 and $x/b != \"q\" return "
    "<r>{ count($x) }</r>",
    "for $x in input(0)//item where contains($x/t, \"abc\") or "
    "not($x/u) return <out>{ \"lit\", $x }</out>",
    "input(0)//a/text()",
    "for $x in input(0)/*/b return $x"};

INSTANTIATE_TEST_SUITE_P(Corpus, AqlRoundTripTest,
                         ::testing::ValuesIn(kAqlCorpus));

std::string NestedWhere(size_t depth) {
  return "for $x in input(0) where " + std::string(depth, '(') +
         "$x/a = 1" + std::string(depth, ')') + " return $x";
}

TEST(AqlParserTest, NestingDepthIsBounded) {
  // Parentheses, not(...) and element constructors each recurse once;
  // past the shared limit the parser fails with a typed error instead
  // of exhausting the stack.
  EXPECT_TRUE(Query::Parse(NestedWhere(kMaxNestingDepth)).ok());
  for (size_t depth : {kMaxNestingDepth + 1, size_t{100000}}) {
    auto r = Query::Parse(NestedWhere(depth));
    ASSERT_FALSE(r.ok()) << depth;
    EXPECT_EQ(r.status().code(), StatusCode::kParseError);
  }
  std::string nots = "for $x in input(0) where ";
  for (int i = 0; i < 100000; ++i) nots += "not(";
  EXPECT_EQ(Query::Parse(nots + "$x").status().code(),
            StatusCode::kParseError);
  std::string cons = "for $x in input(0) return ";
  for (int i = 0; i < 100000; ++i) cons += "<a>{ ";
  EXPECT_EQ(Query::Parse(cons + "$x").status().code(),
            StatusCode::kParseError);
}

TEST(AqlParserTest, OutOfRangeInputIndexIsAParseError) {
  auto r = Query::Parse("for $x in input(99999999999) return $x");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kParseError);
}

// Seeded mutation fuzz over the round-trip corpus: every truncation and
// many random byte edits of each entry must either parse to a query
// whose canonical text reparses to itself or fail with a ParseError —
// never crash, throw or hang.
TEST(AqlParserFuzzTest, TruncatedAndMutatedTextParsesOrFailsWithStatus) {
  Rng rng(testing::TestSeed(0xA91F));
  size_t parsed = 0;
  size_t rejected = 0;
  auto check = [&](const std::string& text) {
    auto r = Query::Parse(text);
    if (!r.ok()) {
      ++rejected;
      EXPECT_EQ(r.status().code(), StatusCode::kParseError) << text;
      return;
    }
    ++parsed;
    auto back = Query::Parse(r.value().text());
    ASSERT_TRUE(back.ok()) << back.status() << " on " << r.value().text();
    EXPECT_EQ(back.value(), r.value()) << text;
  };
  constexpr std::string_view kSyntax = "()<>{}/$,=!\"0 ";
  for (const char* entry : kAqlCorpus) {
    const std::string text = entry;
    for (size_t cut = 0; cut < text.size(); ++cut) check(text.substr(0, cut));
    for (int i = 0; i < 2000; ++i) {
      check(testing::MutateText(text, kSyntax, &rng));
    }
  }
  EXPECT_GT(parsed, 0u) << "no mutation survived — not fuzzing the parser";
  EXPECT_GT(rejected, 0u) << "no mutation was rejected — not fuzzing";
}

// --- Executor ---

std::vector<TreePtr> RunQuery(const std::string& text,
                              const std::string& input_xml,
                              NodeIdGen* gen) {
  Query q = Query::Parse(text).value();
  TreePtr in = ParseXml(input_xml, gen).value();
  auto r = q.Eval({{in}}, nullptr, gen);
  EXPECT_TRUE(r.ok()) << r.status();
  return r.ok() ? r.value() : std::vector<TreePtr>{};
}

TEST(ExecutorTest, PathNavigationChildAndDescendant) {
  NodeIdGen gen;
  auto out = RunQuery("for $x in input(0)/r/a return $x",
                      "<r><a>1</a><b><a>2</a></b><a>3</a></r>", &gen);
  EXPECT_EQ(out.size(), 2u);
  out = RunQuery("for $x in input(0)//a return $x",
                 "<r><a>1</a><b><a>2</a></b><a>3</a></r>", &gen);
  EXPECT_EQ(out.size(), 3u);
}

TEST(ExecutorTest, WildcardAndText) {
  NodeIdGen gen;
  auto out = RunQuery("for $x in input(0)/r/* return $x",
                      "<r><a/>txt<b/></r>", &gen);
  EXPECT_EQ(out.size(), 2u);  // wildcard skips the text leaf
  out = RunQuery("for $x in input(0)/r/text() return <t>{ $x }</t>",
                 "<r>hi<a/></r>", &gen);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0]->StringValue(), "hi");
}

TEST(ExecutorTest, WhereComparisonNumericAndString) {
  NodeIdGen gen;
  auto out = RunQuery(
      "for $x in input(0)/r/i where $x/v < 10 return $x",
      "<r><i><v>9</v></i><i><v>11</v></i><i><v>2</v></i></r>", &gen);
  EXPECT_EQ(out.size(), 2u);
  out = RunQuery("for $x in input(0)/r/i where $x/v = \"abc\" return $x",
                 "<r><i><v>abc</v></i><i><v>zz</v></i></r>", &gen);
  EXPECT_EQ(out.size(), 1u);
}

TEST(ExecutorTest, ExistentialCompareSemantics) {
  NodeIdGen gen;
  // One of the two prices satisfies the predicate => the item qualifies.
  auto out = RunQuery(
      "for $x in input(0)/r/i where $x/p < 5 return $x",
      "<r><i><p>3</p><p>100</p></i></r>", &gen);
  EXPECT_EQ(out.size(), 1u);
}

TEST(ExecutorTest, ExistsAndContainsAndNot) {
  NodeIdGen gen;
  auto out = RunQuery("for $x in input(0)/r/i where $x/opt return $x",
                      "<r><i><opt/></i><i/></r>", &gen);
  EXPECT_EQ(out.size(), 1u);
  out = RunQuery(
      "for $x in input(0)/r/i where not($x/opt) return $x",
      "<r><i><opt/></i><i/></r>", &gen);
  EXPECT_EQ(out.size(), 1u);
  out = RunQuery(
      "for $x in input(0)/r/i where contains($x/t, \"ell\") return $x",
      "<r><i><t>hello</t></i><i><t>world</t></i></r>", &gen);
  EXPECT_EQ(out.size(), 1u);
}

TEST(ExecutorTest, ConstructorBuildsElements) {
  NodeIdGen gen;
  auto out = RunQuery(
      "for $x in input(0)/r/i return <o>{ $x/n, \"lit\" }</o>",
      "<r><i><n>a</n></i></r>", &gen);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(SerializeCompact(*out[0]), "<o><n>a</n>lit</o>");
}

TEST(ExecutorTest, DependentClauseNavigation) {
  NodeIdGen gen;
  auto out = RunQuery(
      "for $x in input(0)/r/grp for $y in $x/i return $y",
      "<r><grp><i>1</i><i>2</i></grp><grp><i>3</i></grp></r>", &gen);
  EXPECT_EQ(out.size(), 3u);
}

TEST(ExecutorTest, TwoStreamJoin) {
  NodeIdGen gen;
  Query q = Query::Parse(
                "for $a in input(0)/l/i for $b in input(1)/r/j "
                "where $a/k = $b/k return <m>{ $a/k }</m>")
                .value();
  TreePtr left = ParseXml(
      "<l><i><k>1</k></i><i><k>2</k></i><i><k>3</k></i></l>", &gen)
                     .value();
  TreePtr right =
      ParseXml("<r><j><k>2</k></j><j><k>3</k></j><j><k>4</k></j></r>",
               &gen)
          .value();
  auto out = q.Eval({{left}, {right}}, nullptr, &gen).value();
  EXPECT_EQ(out.size(), 2u);
}

TEST(ExecutorTest, IncrementalArrivalsProduceDeltas) {
  NodeIdGen gen;
  Query q = Query::Parse(
                "for $a in input(0)/i for $b in input(1)/j "
                "where $a/k = $b/k return <m/>")
                .value();
  std::vector<TreePtr> results;
  QueryInstance inst(
      q.ast(), nullptr, [&](TreePtr t) { results.push_back(t); }, &gen);
  ASSERT_TRUE(inst.Start().ok());
  auto push = [&](int port, const char* xml) {
    ASSERT_TRUE(
        inst.PushInput(port, ParseXml(xml, &gen).value()).ok());
  };
  push(0, "<i><k>1</k></i>");
  EXPECT_EQ(results.size(), 0u);  // nothing on the other side yet
  push(1, "<j><k>1</k></j>");
  EXPECT_EQ(results.size(), 1u);  // incremental match
  push(0, "<i><k>1</k></i>");
  EXPECT_EQ(results.size(), 2u);  // joins with the stored right tree
  push(1, "<j><k>9</k></j>");
  EXPECT_EQ(results.size(), 2u);  // no match, no output
}

TEST(ExecutorTest, DocSourceResolvedAtStart) {
  NodeIdGen gen;
  TreePtr d = ParseXml("<d><i>1</i><i>2</i></d>", &gen).value();
  Query q = Query::Parse("for $x in doc(\"mydoc\")/d/i return $x").value();
  auto out = q.Eval({}, [&](const DocName& n) {
    return n == "mydoc" ? d : nullptr;
  }, &gen);
  ASSERT_TRUE(out.ok()) << out.status();
  EXPECT_EQ(out.value().size(), 2u);
}

TEST(ExecutorTest, MissingDocFails) {
  NodeIdGen gen;
  Query q = Query::Parse("for $x in doc(\"zz\")/d return $x").value();
  auto out = q.Eval({}, [](const DocName&) { return nullptr; }, &gen);
  EXPECT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kNotFound);
}

TEST(ExecutorTest, RunningCount) {
  NodeIdGen gen;
  Query q =
      Query::Parse("for $x in input(0)/r/i return <n>{ count($x) }</n>")
          .value();
  TreePtr in = ParseXml("<r><i/><i/><i/></r>", &gen).value();
  auto out = q.Eval({{in}}, nullptr, &gen).value();
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0]->StringValue(), "1");
  EXPECT_EQ(out[2]->StringValue(), "3");
}

TEST(ExecutorTest, ArityValidation) {
  NodeIdGen gen;
  Query q = Query::Parse("for $x in input(1) return $x").value();
  EXPECT_EQ(q.arity(), 2);
  auto r = q.Eval({{}}, nullptr, &gen);
  EXPECT_FALSE(r.ok());
  QueryInstance inst(q.ast(), nullptr, [](TreePtr) {}, &gen);
  ASSERT_TRUE(inst.Start().ok());
  EXPECT_FALSE(inst.PushInput(7, TreeNode::Text("x")).ok());
  EXPECT_FALSE(inst.PushInput(-1, TreeNode::Text("x")).ok());
}

TEST(ExecutorTest, ResultsCountedOnInstance) {
  NodeIdGen gen;
  Query q = Query::Parse("for $x in input(0)//a return $x").value();
  QueryInstance inst(q.ast(), nullptr, [](TreePtr) {}, &gen);
  ASSERT_TRUE(inst.Start().ok());
  ASSERT_TRUE(
      inst.PushInput(0, ParseXml("<r><a/><a/></r>", &gen).value()).ok());
  EXPECT_EQ(inst.results_emitted(), 2u);
}

// --- Identity and equality helpers ---

TEST(QueryTest, IdentityQueryEchoesInput) {
  NodeIdGen gen;
  TreePtr in = ParseXml("<any><thing/></any>", &gen).value();
  auto out = Query::Identity().Eval({{in}}, nullptr, &gen).value();
  ASSERT_EQ(out.size(), 1u);
  EXPECT_TRUE(TreesEqualUnordered(*in, *out[0]));
}

TEST(QueryTest, EqualityByCanonicalText) {
  Query a = Query::Parse("for $x in input(0) return $x").value();
  Query b = Query::Parse("for  $x  in input( 0 ) return $x").value();
  EXPECT_EQ(a, b);
  EXPECT_GT(a.SerializedSize(), 0u);
}

// --- Decomposition (rule (11) / Example 1) ---

TEST(DecomposeTest, SplitsPushableConjuncts) {
  Query q = Query::Parse(
                "for $b in input(0)/catalog/product "
                "where $b/price < 30 and $b/category = \"c1\" "
                "return <hit>{ $b/name }</hit>")
                .value();
  auto split = SplitSelection(q, 0);
  ASSERT_TRUE(split.has_value());
  EXPECT_EQ(split->input_index, 0);
  EXPECT_EQ(split->filter.arity(), 1);
  // All conjuncts mention only $b, so the remainder keeps no where.
  EXPECT_EQ(split->remainder.ast().where, nullptr);
  EXPECT_TRUE(split->remainder.ast().clauses[0].path.empty());
}

TEST(DecomposeTest, KeepsJoinPredicates) {
  Query q = Query::Parse(
                "for $a in input(0)/l/i for $b in input(1)/r/j "
                "where $a/p < 5 and $a/k = $b/k return <m/>")
                .value();
  auto split = SplitSelection(q, 0);
  ASSERT_TRUE(split.has_value());
  // The join conjunct stays in the remainder.
  ASSERT_NE(split->remainder.ast().where, nullptr);
  EXPECT_NE(split->remainder.text().find("$a/k = $b/k"),
            std::string::npos);
  // The pushed filter only tests $x/p.
  EXPECT_NE(split->filter.text().find("/p < 5"), std::string::npos);
}

TEST(DecomposeTest, NoPushableReturnsNullopt) {
  Query join_only = Query::Parse(
                        "for $a in input(0)/l for $b in input(1)/r "
                        "where $a/k = $b/k return <m/>")
                        .value();
  EXPECT_FALSE(SplitSelection(join_only, 0).has_value());
  Query no_where =
      Query::Parse("for $x in input(0)//a return $x").value();
  EXPECT_FALSE(SplitSelection(no_where, 0).has_value());
  Query doc_src =
      Query::Parse("for $x in doc(\"d\")//a where $x/p < 3 return $x")
          .value();
  EXPECT_FALSE(SplitSelection(doc_src, 0).has_value());
  EXPECT_FALSE(SplitSelection(no_where, 5).has_value());
}

TEST(DecomposeTest, HasPushableSelection) {
  Query q = Query::Parse(
                "for $x in input(0)//a where $x/p < 3 return $x")
                .value();
  EXPECT_TRUE(HasPushableSelection(q));
  Query none = Query::Parse("for $x in input(0)//a return $x").value();
  EXPECT_FALSE(HasPushableSelection(none));
}

TEST(DecomposeTest, CompositionEquivalenceProperty) {
  // q(t) == remainder(filter(t)) on random catalogs — the semantic core
  // of rule (11)/Example 1.
  Rng rng(99);
  Query q = Query::Parse(
                "for $b in input(0)/catalog/product "
                "where $b/price < 300 and contains($b/category, \"c1\") "
                "return <hit>{ $b/name, $b/price }</hit>")
                .value();
  auto split = SplitSelection(q, 0);
  ASSERT_TRUE(split.has_value());
  for (int round = 0; round < 10; ++round) {
    NodeIdGen gen;
    TreePtr cat = testing::MakeCatalog(40 + rng.Index(40), &gen, &rng, 4);
    auto direct = q.Eval({{cat}}, nullptr, &gen).value();
    auto filtered = split->filter.Eval({{cat}}, nullptr, &gen).value();
    auto composed =
        split->remainder.Eval({filtered}, nullptr, &gen).value();
    EXPECT_TRUE(testing::ResultsEqual(direct, composed))
        << "round " << round << ": direct " << direct.size()
        << " composed " << composed.size();
    // And the filter actually shrinks the stream (selection < 1).
    EXPECT_LE(filtered.size(), 40u + 40u);
  }
}

}  // namespace
}  // namespace axml
