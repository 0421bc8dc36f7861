// Unit tests for src/common: Status/Result, ids, rng, string utilities.

#include <gtest/gtest.h>

#include <set>

#include "common/ids.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/str_util.h"
#include "xml/tree.h"

namespace axml {
namespace {

// --- Status / Result ---

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "ok");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::NotFound("doc d1");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_EQ(s.message(), "doc d1");
  EXPECT_EQ(s.ToString(), "not_found: doc d1");
}

TEST(StatusTest, AllCodesHaveNames) {
  EXPECT_STREQ(StatusCodeName(StatusCode::kOk), "ok");
  EXPECT_STREQ(StatusCodeName(StatusCode::kInvalidArgument),
               "invalid_argument");
  EXPECT_STREQ(StatusCodeName(StatusCode::kParseError), "parse_error");
  EXPECT_STREQ(StatusCodeName(StatusCode::kTypeError), "type_error");
  EXPECT_STREQ(StatusCodeName(StatusCode::kUndefined), "undefined");
  EXPECT_STREQ(StatusCodeName(StatusCode::kUnsupported), "unsupported");
  EXPECT_STREQ(StatusCodeName(StatusCode::kInternal), "internal");
  EXPECT_STREQ(StatusCodeName(StatusCode::kAlreadyExists),
               "already_exists");
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_EQ(*r, 42);
  EXPECT_EQ(r.status(), Status::OK());
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::InvalidArgument("bad");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(r.value_or(-1), -1);
}

TEST(ResultTest, MoveOutValue) {
  Result<std::string> r = std::string("hello");
  std::string s = std::move(r).value();
  EXPECT_EQ(s, "hello");
}

Result<int> Half(int x) {
  if (x % 2 != 0) return Status::InvalidArgument("odd");
  return x / 2;
}
Status UseHalf(int x, int* out) {
  AXML_ASSIGN_OR_RETURN(*out, Half(x));
  return Status::OK();
}

TEST(ResultTest, AssignOrReturnMacro) {
  int out = 0;
  EXPECT_TRUE(UseHalf(10, &out).ok());
  EXPECT_EQ(out, 5);
  Status s = UseHalf(7, &out);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
}

// --- Ids ---

TEST(PeerIdTest, Basics) {
  PeerId p(3);
  EXPECT_TRUE(p.valid());
  EXPECT_TRUE(p.is_concrete());
  EXPECT_FALSE(p.is_any());
  EXPECT_EQ(p.index(), 3u);
  EXPECT_EQ(p.ToString(), "p3");
}

TEST(PeerIdTest, AnyAndInvalid) {
  EXPECT_TRUE(PeerId::Any().is_any());
  EXPECT_TRUE(PeerId::Any().valid());
  EXPECT_FALSE(PeerId::Any().is_concrete());
  EXPECT_FALSE(PeerId::Invalid().valid());
  EXPECT_EQ(PeerId::Any().ToString(), "any");
  EXPECT_EQ(PeerId::Invalid().ToString(), "invalid");
}

TEST(NodeIdTest, PacksPeerAndCounter) {
  NodeId n(PeerId(7), 12345);
  EXPECT_TRUE(n.valid());
  EXPECT_EQ(n.minted_by().index(), 7u);
  EXPECT_EQ(n.counter(), 12345u);
  EXPECT_EQ(NodeId::FromBits(n.bits()), n);
}

TEST(NodeIdTest, DistinctAcrossPeers) {
  NodeId a(PeerId(1), 5), b(PeerId(2), 5);
  EXPECT_NE(a, b);
}

TEST(NodeIdGenTest, MintsSequentialIds) {
  NodeIdGen gen(PeerId(4));
  NodeId a = gen.Next(), b = gen.Next();
  EXPECT_EQ(a.counter() + 1, b.counter());
  EXPECT_EQ(a.minted_by(), PeerId(4));
  EXPECT_EQ(gen.minted(), 2u);
}

// --- Rng ---

TEST(RngTest, DeterministicForSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, UniformInBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.Uniform(17), 17u);
    double d = rng.UniformDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
    int64_t v = rng.UniformInt(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

TEST(RngTest, BernoulliExtremes) {
  Rng rng(9);
  EXPECT_FALSE(rng.Bernoulli(0.0));
  EXPECT_TRUE(rng.Bernoulli(1.0));
}

TEST(RngTest, IdentifierShape) {
  Rng rng(11);
  std::string id = rng.Identifier(12);
  EXPECT_EQ(id.size(), 12u);
  EXPECT_TRUE(std::isalpha(static_cast<unsigned char>(id[0])));
}

TEST(RngTest, ShufflePreservesElements) {
  Rng rng(13);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> orig = v;
  rng.Shuffle(&v);
  std::multiset<int> a(v.begin(), v.end()), b(orig.begin(), orig.end());
  EXPECT_EQ(a, b);
}

// --- String utils ---

TEST(StrUtilTest, StrCat) {
  EXPECT_EQ(StrCat("a", 1, "-", 2.5), "a1-2.5");
}

TEST(StrUtilTest, SplitJoin) {
  auto parts = StrSplit("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(StrJoin(parts, "|"), "a|b||c");
}

TEST(StrUtilTest, StripWhitespace) {
  EXPECT_EQ(StripWhitespace("  x y \n"), "x y");
  EXPECT_EQ(StripWhitespace("   "), "");
  EXPECT_EQ(StripWhitespace(""), "");
}

TEST(StrUtilTest, StartsEndsWith) {
  EXPECT_TRUE(StartsWith("param3", "param"));
  EXPECT_FALSE(StartsWith("par", "param"));
  EXPECT_TRUE(EndsWith("query.aql", ".aql"));
  EXPECT_FALSE(EndsWith("x", ".aql"));
}

TEST(StrUtilTest, ParseDouble) {
  double d = 0;
  EXPECT_TRUE(ParseDouble("3.5", &d));
  EXPECT_DOUBLE_EQ(d, 3.5);
  EXPECT_TRUE(ParseDouble(" -2e3 ", &d));
  EXPECT_DOUBLE_EQ(d, -2000);
  EXPECT_FALSE(ParseDouble("12x", &d));
  EXPECT_FALSE(ParseDouble("", &d));
}

TEST(StrUtilTest, FormatDoubleRoundTrips) {
  for (double v : {0.0, 1.0, -3.25, 1e-9, 123456789.0, 0.1}) {
    double back = 0;
    ASSERT_TRUE(ParseDouble(FormatDouble(v), &back));
    EXPECT_DOUBLE_EQ(back, v);
  }
  EXPECT_EQ(FormatDouble(42), "42");
}

TEST(StrUtilTest, XmlEscapeRoundTrip) {
  std::string raw = "a<b>&\"c'd";
  std::string esc = XmlEscape(raw);
  EXPECT_EQ(esc, "a&lt;b&gt;&amp;&quot;c&apos;d");
  EXPECT_EQ(XmlUnescape(esc), raw);
}

TEST(StrUtilTest, XmlUnescapeNumericRefs) {
  EXPECT_EQ(XmlUnescape("&#65;&#x42;"), "AB");
  EXPECT_EQ(XmlUnescape("&unknown;"), "&unknown;");
}

}  // namespace
}  // namespace axml
