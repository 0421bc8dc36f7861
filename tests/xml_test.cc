// Tests for XML parsing, serialization, unordered equality, schema
// types, and statistics.

#include <gtest/gtest.h>

#include "common/rng.h"
#include "test_util.h"
#include "xml/schema.h"
#include "xml/tree_equal.h"
#include "xml/wire.h"
#include "xml/xml_parser.h"
#include "xml/xml_serializer.h"
#include "xml/xml_stats.h"

namespace axml {
namespace {

// --- Parser ---

TEST(XmlParserTest, SimpleElement) {
  NodeIdGen gen;
  auto r = ParseXml("<a><b>text</b></a>", &gen);
  ASSERT_TRUE(r.ok()) << r.status();
  TreePtr root = r.value();
  EXPECT_EQ(root->label_text(), "a");
  ASSERT_EQ(root->child_count(), 1u);
  EXPECT_EQ(root->child(0)->label_text(), "b");
  EXPECT_EQ(root->child(0)->StringValue(), "text");
}

TEST(XmlParserTest, SelfClosingAndAttributes) {
  NodeIdGen gen;
  auto r = ParseXml("<a x=\"1\" y='two'/>", &gen);
  ASSERT_TRUE(r.ok()) << r.status();
  TreePtr root = r.value();
  ASSERT_EQ(root->child_count(), 2u);
  EXPECT_EQ(root->child(0)->label_text(), "@x");
  EXPECT_EQ(root->child(0)->StringValue(), "1");
  EXPECT_EQ(root->child(1)->StringValue(), "two");
}

TEST(XmlParserTest, SkipsPrologCommentsAndPis) {
  NodeIdGen gen;
  auto r = ParseXml(
      "<?xml version=\"1.0\"?><!-- note --><a><!-- in --><b/></a>", &gen);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r.value()->child_count(), 1u);
}

TEST(XmlParserTest, Cdata) {
  NodeIdGen gen;
  auto r = ParseXml("<a><![CDATA[1 < 2]]></a>", &gen);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r.value()->StringValue(), "1 < 2");
}

TEST(XmlParserTest, EntityDecoding) {
  NodeIdGen gen;
  auto r = ParseXml("<a>&lt;&amp;&gt;</a>", &gen);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r.value()->StringValue(), "<&>");
}

TEST(XmlParserTest, DropsBoundaryWhitespace) {
  NodeIdGen gen;
  auto r = ParseXml("<a>\n  <b/>\n  <c/>\n</a>", &gen);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r.value()->child_count(), 2u);
}

TEST(XmlParserTest, MixedContentPreserved) {
  NodeIdGen gen;
  auto r = ParseXml("<a>pre<b/>post</a>", &gen);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r.value()->child_count(), 3u);
}

// --- Parser slow paths: split runs, entities, line numbers, ids ---

TEST(XmlParserTest, SplitRunIsConcatenatedBeforeTrimming) {
  NodeIdGen gen;
  auto r = ParseXml("<a> x<!--c-->y <![CDATA[&z]]></a>", &gen);
  ASSERT_TRUE(r.ok()) << r.status();
  ASSERT_EQ(r.value()->child_count(), 1u);
  EXPECT_EQ(r.value()->child(0)->text(), "xy &z");

  auto pi = ParseXml("<a>\n  x<?pi data?>y<![CDATA[ z ]]>\n</a>", &gen);
  ASSERT_TRUE(pi.ok()) << pi.status();
  ASSERT_EQ(pi.value()->child_count(), 1u);
  EXPECT_EQ(pi.value()->child(0)->text(), "xy z");
}

TEST(XmlParserTest, CdataIsLiteral) {
  NodeIdGen gen;
  auto r = ParseXml("<a><![CDATA[&lt;b&gt;]]></a>", &gen);
  ASSERT_TRUE(r.ok()) << r.status();
  ASSERT_EQ(r.value()->child_count(), 1u);
  EXPECT_EQ(r.value()->child(0)->text(), "&lt;b&gt;");

  // Escaped text around a CDATA section is still resolved.
  auto mixed = ParseXml("<a> &lt;<![CDATA[&gt;]]>&gt; </a>", &gen);
  ASSERT_TRUE(mixed.ok()) << mixed.status();
  ASSERT_EQ(mixed.value()->child_count(), 1u);
  EXPECT_EQ(mixed.value()->child(0)->text(), "<&gt;>");
}

TEST(XmlParserTest, AnEntityDoesNotSpanAComment) {
  NodeIdGen gen;
  auto r = ParseXml("<a>&am<!--x-->p;</a>", &gen);
  ASSERT_TRUE(r.ok()) << r.status();
  ASSERT_EQ(r.value()->child_count(), 1u);
  EXPECT_EQ(r.value()->child(0)->text(), "&amp;");

  auto pi = ParseXml("<a>&l<?p?>t;x</a>", &gen);
  ASSERT_TRUE(pi.ok()) << pi.status();
  ASSERT_EQ(pi.value()->child_count(), 1u);
  EXPECT_EQ(pi.value()->child(0)->text(), "&lt;x");
}

TEST(XmlParserTest, RunsWithEntities) {
  NodeIdGen gen;
  auto r = ParseXml("<a>  &lt;b&gt; &amp; &#65;&#x42;&quot;&apos;  </a>", &gen);
  ASSERT_TRUE(r.ok()) << r.status();
  ASSERT_EQ(r.value()->child_count(), 1u);
  EXPECT_EQ(r.value()->child(0)->text(), "<b> & AB\"'");

  // Entities are resolved before the run is trimmed, so an encoded
  // boundary space is trimmed like a literal one.
  auto edge = ParseXml("<a>&#32;x&#32;<b/>&#32;</a>", &gen);
  ASSERT_TRUE(edge.ok()) << edge.status();
  ASSERT_EQ(edge.value()->child_count(), 2u);
  EXPECT_EQ(edge.value()->child(0)->text(), "x");

  // Attribute values are unescaped but never trimmed.
  auto attr = ParseXml("<a x=' &amp; ' y=\"plain\"/>", &gen);
  ASSERT_TRUE(attr.ok()) << attr.status();
  EXPECT_EQ(attr.value()->child(0)->StringValue(), " & ");
  EXPECT_EQ(attr.value()->child(1)->StringValue(), "plain");
}

TEST(XmlParserTest, WhitespaceOnlyRunsAreDropped) {
  NodeIdGen gen;
  auto r = ParseXml("<a>\n\t <b/> <!--c--> \r\n<c/><?p?>\f\v </a>", &gen);
  ASSERT_TRUE(r.ok()) << r.status();
  ASSERT_EQ(r.value()->child_count(), 2u);
  EXPECT_EQ(r.value()->child(0)->label_text(), "b");
  EXPECT_EQ(r.value()->child(1)->label_text(), "c");

  auto blank = ParseXml("<a> <![CDATA[ \n ]]> </a>", &gen);
  ASSERT_TRUE(blank.ok()) << blank.status();
  EXPECT_EQ(blank.value()->child_count(), 0u);
}

TEST(XmlParserTest, ErrorsReportTheirLine) {
  struct Case {
    const char* xml;
    const char* message;
  };
  const Case cases[] = {
      {"<a>\n<b>\n</c></a>",
       "line 3: mismatched closing tag 'c', expected 'b'"},
      // A newline inside an attribute value counts.
      {"<a\nx='1\n2'\n y=3/>", "line 4: expected quoted attribute value"},
      {"<a x=\"1\n\n", "line 3: unterminated attribute value"},
      {"<a/>\n\n<b/>", "line 3: trailing content after root element"},
      {"<a>\nx\n<![CDATA[\n]]>\n</b>",
       "line 5: mismatched closing tag 'b', expected 'a'"},
      {"<!--\n\n-->\n<a>", "line 4: unexpected end inside element content"},
      {"<a><![CDATA[\nx", "line 2: unterminated CDATA section"},
      {"\n<a>\n<1/>", "line 3: expected element name"},
      {"<a></a  x>", "line 1: expected '>' in closing tag"},
  };
  for (const Case& c : cases) {
    NodeIdGen gen;
    auto r = ParseXml(c.xml, &gen);
    ASSERT_FALSE(r.ok()) << c.xml;
    EXPECT_EQ(r.status().code(), StatusCode::kParseError) << c.xml;
    EXPECT_EQ(r.status().message(), c.message) << c.xml;
  }
}

TEST(XmlParserTest, IdsAreConsecutiveInDocumentOrder) {
  NodeIdGen gen(PeerId(3));
  for (int i = 0; i < 5; ++i) gen.Next();
  auto r = ParseXml("<a x='1'>t<b>u</b><c y='2' z='3'/><d><e/></d></a>", &gen);
  ASSERT_TRUE(r.ok()) << r.status();
  // An element's id is minted at its start tag; its @attr elements
  // follow it, before any content.
  std::vector<std::string> labels;
  std::vector<NodeId> ids;
  std::vector<const TreeNode*> stack = {r.value().get()};
  while (!stack.empty()) {
    const TreeNode* n = stack.back();
    stack.pop_back();
    if (n->is_text()) continue;
    labels.push_back(n->label_text());
    ids.push_back(n->id());
    for (size_t i = n->child_count(); i-- > 0;) {
      stack.push_back(n->child(i).get());
    }
  }
  EXPECT_EQ(labels, (std::vector<std::string>{"a", "@x", "b", "c", "@y",
                                              "@z", "d", "e"}));
  for (size_t i = 0; i < ids.size(); ++i) {
    EXPECT_EQ(ids[i], NodeId(PeerId(3), 5 + i)) << labels[i];
  }
  EXPECT_EQ(gen.minted(), 5 + ids.size());
}

struct BadXmlCase {
  const char* name;
  const char* xml;
};

// Print the case by its name: the default printer dumps the raw pointer
// bytes, which change from run to run and leak into the listed test names.
void PrintTo(const BadXmlCase& c, std::ostream* os) { *os << c.name; }

class XmlParserErrorTest : public ::testing::TestWithParam<BadXmlCase> {};

TEST_P(XmlParserErrorTest, Rejects) {
  NodeIdGen gen;
  auto r = ParseXml(GetParam().xml, &gen);
  EXPECT_FALSE(r.ok()) << "should reject: " << GetParam().xml;
  EXPECT_EQ(r.status().code(), StatusCode::kParseError);
}

INSTANTIATE_TEST_SUITE_P(
    Malformed, XmlParserErrorTest,
    ::testing::Values(
        BadXmlCase{"empty", ""},
        BadXmlCase{"no_root", "   "},
        BadXmlCase{"unclosed", "<a><b></a>"},
        BadXmlCase{"mismatched", "<a></b>"},
        BadXmlCase{"trailing", "<a/><b/>"},
        BadXmlCase{"bad_attr", "<a x=1/>"},
        BadXmlCase{"unterminated_attr", "<a x=\"1/>"},
        BadXmlCase{"eof_in_tag", "<a"},
        BadXmlCase{"eof_in_content", "<a>text"},
        BadXmlCase{"unterminated_cdata", "<a><![CDATA[x</a>"}),
    [](const ::testing::TestParamInfo<BadXmlCase>& param_info) {
      return param_info.param.name;
    });

// --- Round trips ---

class XmlRoundTripTest : public ::testing::TestWithParam<const char*> {};

TEST_P(XmlRoundTripTest, ParseSerializeParse) {
  NodeIdGen gen;
  auto r1 = ParseXml(GetParam(), &gen);
  ASSERT_TRUE(r1.ok()) << r1.status();
  std::string text = SerializeCompact(*r1.value());
  auto r2 = ParseXml(text, &gen);
  ASSERT_TRUE(r2.ok()) << r2.status() << " on " << text;
  EXPECT_TRUE(TreesEqualUnordered(*r1.value(), *r2.value())) << text;
  // Serialization is stable from then on.
  EXPECT_EQ(SerializeCompact(*r2.value()), text);
}

const char* const kXmlCorpus[] = {
    "<a/>",
    "<a>t</a>",
    "<a x=\"1\"><b/><b>2</b></a>",
    "<catalog><product><name>n</name><price>3</price></product></catalog>",
    "<sc><peer>p1</peer><service>s</service><param1><x/></param1></sc>",
    "<a>&amp;&lt;&gt;</a>",
    "<deep><l1><l2><l3><l4>v</l4></l3></l2></l1></deep>"};

INSTANTIATE_TEST_SUITE_P(Corpus, XmlRoundTripTest,
                         ::testing::ValuesIn(kXmlCorpus));

TEST(XmlRoundTripTest, RandomTreesRoundTrip) {
  Rng rng(42);
  for (int i = 0; i < 25; ++i) {
    NodeIdGen gen;
    TreePtr t = testing::MakeRandomTree(1 + rng.Index(80), &gen, &rng);
    std::string text = SerializeCompact(*t);
    auto back = ParseXml(text, &gen);
    ASSERT_TRUE(back.ok()) << back.status() << " on " << text;
    EXPECT_TRUE(TreesEqualUnordered(*t, *back.value())) << text;
  }
}

std::string NestedXml(size_t depth) {
  std::string text;
  for (size_t i = 0; i < depth; ++i) text += "<a>";
  for (size_t i = 0; i < depth; ++i) text += "</a>";
  return text;
}

TEST(XmlParserTest, NestingDepthIsBounded) {
  // The wire decoder's limit: deeper input is rejected with a typed
  // error before recursive descent can exhaust the stack.
  NodeIdGen gen;
  EXPECT_TRUE(ParseXml(NestedXml(kMaxNestingDepth), &gen).ok());
  for (size_t depth : {kMaxNestingDepth + 1, size_t{100000}}) {
    auto r = ParseXml(NestedXml(depth), &gen);
    ASSERT_FALSE(r.ok()) << depth;
    EXPECT_EQ(r.status().code(), StatusCode::kParseError);
  }
}

// Seeded mutation fuzz over the round-trip corpus: every truncation and
// many random byte edits of each entry must either parse to a tree that
// round-trips or fail with a ParseError — never crash or hang.
TEST(XmlParserFuzzTest, TruncatedAndMutatedTextParsesOrFailsWithStatus) {
  Rng rng(testing::TestSeed(0x3A11));
  NodeIdGen gen;
  size_t parsed = 0;
  size_t rejected = 0;
  auto check = [&](const std::string& text) {
    auto r = ParseXml(text, &gen);
    if (!r.ok()) {
      ++rejected;
      EXPECT_EQ(r.status().code(), StatusCode::kParseError) << text;
      return;
    }
    ++parsed;
    const std::string out = SerializeCompact(*r.value());
    auto back = ParseXml(out, &gen);
    ASSERT_TRUE(back.ok()) << back.status() << " on " << out;
    EXPECT_TRUE(TreesEqualUnordered(*r.value(), *back.value())) << text;
  };
  constexpr std::string_view kSyntax = "<>/=\"'&;#![]-?x ";
  for (const char* entry : kXmlCorpus) {
    const std::string text = entry;
    for (size_t cut = 0; cut < text.size(); ++cut) check(text.substr(0, cut));
    for (int i = 0; i < 2000; ++i) {
      check(testing::MutateText(text, kSyntax, &rng));
    }
  }
  EXPECT_GT(parsed, 0u) << "no mutation survived — not fuzzing the parser";
  EXPECT_GT(rejected, 0u) << "no mutation was rejected — not fuzzing";
}

TEST(XmlSerializerTest, PrettyFormIsIndentedAndReparsable) {
  NodeIdGen gen;
  auto r = ParseXml("<a><b>x</b><c/></a>", &gen);
  ASSERT_TRUE(r.ok());
  std::string pretty = SerializePretty(*r.value());
  EXPECT_NE(pretty.find("\n  <b>"), std::string::npos);
  auto back = ParseXml(pretty, &gen);
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_TRUE(TreesEqualUnordered(*r.value(), *back.value()));
}

// --- Unordered equality ---

TEST(TreeEqualTest, IgnoresSiblingOrder) {
  NodeIdGen gen;
  auto a = ParseXml("<r><a>1</a><b>2</b></r>", &gen).value();
  auto b = ParseXml("<r><b>2</b><a>1</a></r>", &gen).value();
  EXPECT_TRUE(TreesEqualUnordered(*a, *b));
  EXPECT_EQ(CanonicalForm(*a), CanonicalForm(*b));
  EXPECT_EQ(TreeHashUnordered(*a), TreeHashUnordered(*b));
}

TEST(TreeEqualTest, DistinguishesMultisets) {
  NodeIdGen gen;
  auto a = ParseXml("<r><a/><a/><b/></r>", &gen).value();
  auto b = ParseXml("<r><a/><b/><b/></r>", &gen).value();
  EXPECT_FALSE(TreesEqualUnordered(*a, *b));
}

TEST(TreeEqualTest, TextMatters) {
  NodeIdGen gen;
  auto a = ParseXml("<r>x</r>", &gen).value();
  auto b = ParseXml("<r>y</r>", &gen).value();
  EXPECT_FALSE(TreesEqualUnordered(*a, *b));
}

TEST(TreeEqualTest, IgnoresNodeIds) {
  NodeIdGen g0(PeerId(0)), g1(PeerId(1));
  Rng rng(3);
  TreePtr t = testing::MakeRandomTree(40, &g0, &rng);
  TreePtr copy = t->Clone(&g1);
  EXPECT_TRUE(TreesEqualUnordered(*t, *copy));
}

TEST(TreeEqualTest, RandomPermutationProperty) {
  Rng rng(17);
  for (int round = 0; round < 20; ++round) {
    NodeIdGen gen;
    TreePtr t = testing::MakeRandomTree(30, &gen, &rng);
    // Shuffle children at every level of a structural copy.
    TreePtr shuffled = t->CloneSameIds();
    std::function<void(const TreePtr&)> shuffle = [&](const TreePtr& n) {
      auto& kids = const_cast<std::vector<TreePtr>&>(n->children());
      rng.Shuffle(&kids);
      for (const auto& c : kids) shuffle(c);
    };
    shuffle(shuffled);
    EXPECT_TRUE(TreesEqualUnordered(*t, *shuffled));
  }
}

// --- Schema ---

TEST(SchemaTest, TextAndNumber) {
  EXPECT_TRUE(SchemaType::Text()->Matches(*TreeNode::Text("abc")));
  EXPECT_TRUE(SchemaType::Number()->Matches(*TreeNode::Text("3.5")));
  EXPECT_FALSE(SchemaType::Number()->Matches(*TreeNode::Text("abc")));
  NodeIdGen gen;
  EXPECT_FALSE(
      SchemaType::Text()->Matches(*TreeNode::Element("a", &gen)));
}

TEST(SchemaTest, ElementContentModel) {
  NodeIdGen gen;
  auto book = SchemaType::Element(
      "book", {One(SchemaType::Element("title", {One(SchemaType::Text())})),
               Opt(SchemaType::Element("price",
                                       {One(SchemaType::Number())}))});
  auto ok = ParseXml("<book><title>t</title><price>3</price></book>", &gen);
  EXPECT_TRUE(book->Matches(*ok.value()));
  auto no_price = ParseXml("<book><title>t</title></book>", &gen);
  EXPECT_TRUE(book->Matches(*no_price.value()));
  auto no_title = ParseXml("<book><price>3</price></book>", &gen);
  EXPECT_FALSE(book->Matches(*no_title.value()));
  auto two_prices = ParseXml(
      "<book><title>t</title><price>1</price><price>2</price></book>",
      &gen);
  EXPECT_FALSE(book->Matches(*two_prices.value()));
  auto stranger = ParseXml("<book><title>t</title><zz/></book>", &gen);
  EXPECT_FALSE(book->Matches(*stranger.value()));
}

TEST(SchemaTest, UnorderedContentMatches) {
  NodeIdGen gen;
  auto t = SchemaType::Element(
      "r", {One(SchemaType::Element("a", {})),
            One(SchemaType::Element("b", {}))});
  EXPECT_TRUE(t->Matches(*ParseXml("<r><b/><a/></r>", &gen).value()));
}

TEST(SchemaTest, StarAndPlus) {
  NodeIdGen gen;
  auto list = SchemaType::Element(
      "list", {Star(SchemaType::Element("item", {One(SchemaType::Text())}))});
  EXPECT_TRUE(list->Matches(*ParseXml("<list/>", &gen).value()));
  EXPECT_TRUE(list->Matches(
      *ParseXml("<list><item>1</item><item>2</item></list>", &gen).value()));
  auto plus = SchemaType::Element(
      "list", {Plus(SchemaType::Element("item", {One(SchemaType::Text())}))});
  EXPECT_FALSE(plus->Matches(*ParseXml("<list/>", &gen).value()));
}

TEST(SchemaTest, Equality) {
  auto a = SchemaType::Element("x", {One(SchemaType::Text())});
  auto b = SchemaType::Element("x", {One(SchemaType::Text())});
  auto c = SchemaType::Element("x", {Opt(SchemaType::Text())});
  EXPECT_TRUE(a->Equals(*b));
  EXPECT_FALSE(a->Equals(*c));
  EXPECT_TRUE(SchemaType::Any()->Equals(*SchemaType::Any()));
}

TEST(SchemaTest, SignatureChecks) {
  NodeIdGen gen;
  Signature sig;
  sig.in = {SchemaType::Element("q", {One(SchemaType::Text())})};
  sig.out = SchemaType::Element("r", {Star(SchemaType::Any())});
  std::vector<TreePtr> good{ParseXml("<q>k</q>", &gen).value()};
  EXPECT_TRUE(sig.CheckInput(good).ok());
  std::vector<TreePtr> bad{ParseXml("<zz/>", &gen).value()};
  EXPECT_EQ(sig.CheckInput(bad).code(), StatusCode::kTypeError);
  std::vector<TreePtr> wrong_arity;
  EXPECT_EQ(sig.CheckInput(wrong_arity).code(), StatusCode::kTypeError);
  EXPECT_TRUE(sig.CheckOutput(*ParseXml("<r><a/></r>", &gen).value()).ok());
  EXPECT_FALSE(sig.CheckOutput(*ParseXml("<x/>", &gen).value()).ok());
}

TEST(SchemaTest, ToStringIsReadable) {
  auto t = SchemaType::Element("b", {Opt(SchemaType::Number())});
  EXPECT_EQ(t->ToString(), "b{number[0,1]}");
}

// --- Stats ---

TEST(XmlStatsTest, CountsAndDepth) {
  NodeIdGen gen;
  auto t = ParseXml("<r><a>1</a><a>2</a><b><c>x</c></b></r>", &gen).value();
  TreeStats s = ComputeStats(*t);
  EXPECT_EQ(s.element_count, 5u);
  EXPECT_EQ(s.text_count, 3u);
  EXPECT_EQ(s.node_count, 8u);
  EXPECT_EQ(s.depth, 4u);
  EXPECT_EQ(s.serialized_bytes, wire::EncodedTreeSize(*t));
  EXPECT_EQ(s.per_label.at(InternLabel("a")).count, 2u);
}

TEST(XmlStatsTest, NumericRangeAndSelectivity) {
  NodeIdGen gen;
  Rng rng(1);
  TreePtr cat = testing::MakeCatalog(200, &gen, &rng, 0);
  TreeStats s = ComputeStats(*cat);
  LabelId price = InternLabel("price");
  const LabelStats& ls = s.per_label.at(price);
  EXPECT_EQ(ls.count, 200u);
  EXPECT_GE(ls.min_value, 0);
  EXPECT_LT(ls.max_value, 1000);
  double sel = s.EstimateSelectivityLess(price, ls.min_value +
                                                    (ls.max_value -
                                                     ls.min_value) / 2);
  EXPECT_GT(sel, 0.3);
  EXPECT_LT(sel, 0.7);
  EXPECT_DOUBLE_EQ(s.EstimateSelectivityLess(price, ls.max_value + 1), 1.0);
  EXPECT_DOUBLE_EQ(s.EstimateSelectivityLess(price, ls.min_value - 1), 0.0);
  // Unknown label: textbook default.
  EXPECT_DOUBLE_EQ(s.EstimateSelectivityLess(InternLabel("zzz"), 5), 0.5);
}

TEST(XmlStatsTest, ServiceCallCount) {
  NodeIdGen gen;
  auto t = ParseXml("<r><sc><peer>p</peer></sc><sc/></r>", &gen).value();
  EXPECT_EQ(ComputeStats(*t).service_call_count, 2u);
}

}  // namespace
}  // namespace axml
