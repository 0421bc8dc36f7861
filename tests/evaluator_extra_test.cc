// Second-wave evaluator tests: composition depth, streaming topology
// effects, pick-policy plumbing, and failure injection beyond the basic
// undefined cases.

#include <gtest/gtest.h>

#include "algebra/evaluator.h"
#include "algebra/expr_xml.h"
#include "test_util.h"
#include "xml/tree_equal.h"
#include "xml/xml_parser.h"

namespace axml {
namespace {

class EvalExtraTest : public ::testing::Test {
 protected:
  EvalExtraTest() : sys_(Topology(LinkParams{0.010, 1.0e6})) {
    p0_ = sys_.AddPeer("p0");
    p1_ = sys_.AddPeer("p1");
    p2_ = sys_.AddPeer("p2");
    p3_ = sys_.AddPeer("p3");
    sys_.tracer().set_enabled(true);
  }
  TreePtr Parse(PeerId p, const std::string& xml) {
    return ParseXml(xml, sys_.peer(p)->gen()).value();
  }
  /// Bytes shipped over the directed link from -> to.
  uint64_t LinkBytes(PeerId from, PeerId to) const {
    return TracedLinkBytes(sys_.tracer(), from, to);
  }
  AxmlSystem sys_;
  PeerId p0_, p1_, p2_, p3_;
};

// --- Deep composition ---

TEST_F(EvalExtraTest, ChainedEvalAtVisitsEveryPeer) {
  ASSERT_TRUE(sys_.InstallDocumentXml(p3_, "d", "<r><i/></r>").ok());
  // p0 asks p1 to ask p2 to fetch d@p3.
  ExprPtr e = Expr::EvalAt(
      p1_, Expr::EvalAt(p2_, Expr::Doc("d", p3_)));
  Evaluator ev(&sys_);
  auto out = ev.Eval(p0_, e);
  ASSERT_TRUE(out.ok()) << out.status();
  ASSERT_EQ(out->results.size(), 1u);
  // The data traveled p3 -> p2 -> p1 -> p0.
  EXPECT_GT(LinkBytes(p3_, p2_), 0u);
  EXPECT_GT(LinkBytes(p2_, p1_), 0u);
  EXPECT_GT(LinkBytes(p1_, p0_), 0u);
  EXPECT_EQ(LinkBytes(p3_, p0_), 0u);
}

TEST_F(EvalExtraTest, NestedApplyPipelines) {
  ASSERT_TRUE(sys_.InstallDocumentXml(
      p0_, "d", "<r><i><v>1</v></i><i><v>5</v></i><i><v>9</v></i></r>")
                  .ok());
  Query unnest = Query::Parse("for $x in input(0)//i return $x").value();
  Query filter =
      Query::Parse("for $x in input(0) where $x/v > 3 return $x").value();
  Query wrap =
      Query::Parse("for $x in input(0) return <w>{ $x/v }</w>").value();
  ExprPtr e = Expr::Apply(
      wrap, p0_,
      {Expr::Apply(filter, p0_,
                   {Expr::Apply(unnest, p0_, {Expr::Doc("d", p0_)})})});
  Evaluator ev(&sys_);
  auto out = ev.Eval(p0_, e);
  ASSERT_TRUE(out.ok()) << out.status();
  EXPECT_EQ(out->results.size(), 2u);
}

TEST_F(EvalExtraTest, SeqChainsThreeStages) {
  ASSERT_TRUE(sys_.InstallDocumentXml(p0_, "src", "<r><i>1</i></r>").ok());
  Query id = Query::Identity();
  // Copy src->a, then a->b, then read b.
  ExprPtr step1 = Expr::SendAsDoc("a", p0_, Expr::Doc("src", p0_));
  ExprPtr step2 = Expr::SendAsDoc("b", p0_, Expr::Doc("a", p0_));
  ExprPtr read = Expr::Apply(id, p0_, {Expr::Doc("b", p0_)});
  Evaluator ev(&sys_);
  auto out = ev.Eval(p0_, Expr::Seq(step1, Expr::Seq(step2, read)));
  ASSERT_TRUE(out.ok()) << out.status();
  ASSERT_EQ(out->results.size(), 1u);
  EXPECT_TRUE(sys_.peer(p0_)->HasDocument("a"));
  EXPECT_TRUE(sys_.peer(p0_)->HasDocument("b"));
}

TEST_F(EvalExtraTest, ApplyOverGenericDoc) {
  NodeIdGen tmp;
  TreePtr content =
      ParseXml("<r><i><v>1</v></i><i><v>9</v></i></r>", &tmp).value();
  ASSERT_TRUE(sys_.InstallReplicatedDocument("ed", "d", content,
                                             {p1_, p2_}).ok());
  Query q = Query::Parse(
                "for $x in input(0)//i where $x/v > 3 return $x")
                .value();
  Evaluator ev(&sys_);
  auto out = ev.Eval(p0_, Expr::Apply(q, p0_, {Expr::GenericDoc("ed")}));
  ASSERT_TRUE(out.ok()) << out.status();
  EXPECT_EQ(out->results.size(), 1u);
}

TEST_F(EvalExtraTest, ServiceParameterComputedByQuery) {
  Query echo = Query::Parse("for $x in input(0) return $x").value();
  ASSERT_TRUE(
      sys_.InstallService(p1_, Service::Declarative("echo", echo)).ok());
  ASSERT_TRUE(sys_.InstallDocumentXml(
      p0_, "d", "<r><pick>me</pick><skip>no</skip></r>").ok());
  Query sel = Query::Parse("for $x in input(0)/r/pick return $x").value();
  // The call's parameter is itself a query application.
  ExprPtr e = Expr::Call(
      p1_, "echo", {Expr::Apply(sel, p0_, {Expr::Doc("d", p0_)})});
  Evaluator ev(&sys_);
  auto out = ev.Eval(p0_, e);
  ASSERT_TRUE(out.ok()) << out.status();
  ASSERT_EQ(out->results.size(), 1u);
  EXPECT_EQ(out->results[0]->StringValue(), "me");
}

// --- Streams and accumulation ---

TEST_F(EvalExtraTest, InboxAccumulatesAcrossSends) {
  Evaluator ev(&sys_);
  for (int i = 0; i < 3; ++i) {
    auto out = ev.Eval(
        p0_, Expr::SendToPeer(
                 p1_, Expr::Tree(Parse(p0_, "<gift/>"), p0_)));
    ASSERT_TRUE(out.ok());
  }
  TreePtr inbox = sys_.peer(p1_)->GetDocument("axml:inbox");
  ASSERT_NE(inbox, nullptr);
  EXPECT_EQ(inbox->child_count(), 3u);
}

TEST_F(EvalExtraTest, SendAsDocCollisionAppendsToExisting) {
  ASSERT_TRUE(sys_.InstallDocumentXml(p1_, "existing", "<old/>").ok());
  Evaluator ev(&sys_);
  auto out = ev.Eval(
      p0_, Expr::SendAsDoc("existing", p1_,
                           Expr::Tree(Parse(p0_, "<new/>"), p0_)));
  ASSERT_TRUE(out.ok()) << out.status();
  TreePtr doc = sys_.peer(p1_)->GetDocument("existing");
  // Stream accumulation under the existing root (§3.2 (i)).
  EXPECT_EQ(doc->label_text(), "old");
  ASSERT_EQ(doc->child_count(), 1u);
  EXPECT_EQ(doc->child(0)->label_text(), "new");
}

TEST_F(EvalExtraTest, FifoLinkOrdersServiceResponses) {
  // A service streaming many results over one link: responses arrive in
  // emission order (the per-link FIFO).
  Query burst = Query::Parse("for $x in input(0)/r/i return $x").value();
  ASSERT_TRUE(
      sys_.InstallService(p1_, Service::Declarative("burst", burst)).ok());
  std::string xml = "<r>";
  for (int i = 0; i < 10; ++i) {
    xml += "<i>" + std::to_string(i) + "</i>";
  }
  xml += "</r>";
  Evaluator ev(&sys_);
  auto out = ev.Eval(
      p0_, Expr::Call(p1_, "burst", {Expr::Tree(Parse(p0_, xml), p0_)}));
  ASSERT_TRUE(out.ok()) << out.status();
  ASSERT_EQ(out->results.size(), 10u);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(out->results[static_cast<size_t>(i)]->StringValue(),
              std::to_string(i));
  }
}

TEST_F(EvalExtraTest, PickPolicyOptionIsHonored) {
  NodeIdGen tmp;
  TreePtr content = ParseXml("<d/>", &tmp).value();
  ASSERT_TRUE(sys_.InstallReplicatedDocument("ed", "d", content,
                                             {p1_, p2_, p3_}).ok());
  EvalOptions opts;
  opts.pick_policy = PickPolicy::kFirst;
  Evaluator ev(&sys_, opts);
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(ev.Eval(p0_, Expr::GenericDoc("ed")).ok());
  }
  // kFirst always picks the first registered member (p1).
  EXPECT_EQ(sys_.generics().PickCount(p1_), 4u);
  EXPECT_EQ(sys_.generics().PickCount(p2_), 0u);
}

TEST_F(EvalExtraTest, EvaluatorIsReusableAcrossEvals) {
  ASSERT_TRUE(sys_.InstallDocumentXml(p0_, "d", "<r><i/></r>").ok());
  Evaluator ev(&sys_);
  Query q = Query::Parse("for $x in input(0)//i return $x").value();
  ExprPtr e = Expr::Apply(q, p0_, {Expr::Doc("d", p0_)});
  auto a = ev.Eval(p0_, e);
  auto b = ev.Eval(p0_, e);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->results.size(), b->results.size());
  // Virtual time advances monotonically across evaluations.
  EXPECT_GE(b->start_time, a->completion_time);
}

// --- Failure injection ---

TEST_F(EvalExtraTest, DeployRejectsBadArguments) {
  Evaluator ev(&sys_);
  EXPECT_EQ(ev.Deploy(PeerId(42), Expr::Doc("d", p0_), [](TreePtr) {})
                .code(),
            StatusCode::kNotFound);
  EXPECT_EQ(ev.Deploy(p0_, nullptr, [](TreePtr) {}).code(),
            StatusCode::kInvalidArgument);
}

TEST_F(EvalExtraTest, ForwardToMissingNodeSurfacesError) {
  Query echo = Query::Parse("for $x in input(0) return $x").value();
  ASSERT_TRUE(
      sys_.InstallService(p1_, Service::Declarative("echo", echo)).ok());
  NodeIdGen bogus(p2_);
  Evaluator ev(&sys_);
  auto out = ev.Eval(
      p0_, Expr::Call(p1_, "echo",
                      {Expr::Tree(Parse(p0_, "<m/>"), p0_)},
                      {NodeLocation{bogus.Next(), p2_}}));
  EXPECT_EQ(out.status().code(), StatusCode::kNotFound);
}

TEST_F(EvalExtraTest, OutputTypeViolationSurfaces) {
  // Service declares it returns <ok/> but echoes whatever it gets.
  Signature sig;
  sig.in = {SchemaType::Any()};
  sig.out = SchemaType::Element("ok", {});
  Query echo = Query::Parse("for $x in input(0) return $x").value();
  ASSERT_TRUE(sys_.InstallService(
      p1_, Service::Declarative("typed_echo", echo, sig)).ok());
  Evaluator ev(&sys_);
  auto bad = ev.Eval(
      p0_, Expr::Call(p1_, "typed_echo",
                      {Expr::Tree(Parse(p0_, "<nope/>"), p0_)}));
  EXPECT_EQ(bad.status().code(), StatusCode::kTypeError);
  auto good = ev.Eval(
      p0_, Expr::Call(p1_, "typed_echo",
                      {Expr::Tree(Parse(p0_, "<ok/>"), p0_)}));
  EXPECT_TRUE(good.ok()) << good.status();
}

TEST_F(EvalExtraTest, NativeServiceErrorSurfaces) {
  Service failing = Service::Native(
      "boom", 0,
      [](const std::vector<TreePtr>&, Peer*)
          -> Result<std::vector<TreePtr>> {
        return Status::Internal("native failure");
      });
  ASSERT_TRUE(sys_.InstallService(p1_, failing).ok());
  Evaluator ev(&sys_);
  auto out = ev.Eval(p0_, Expr::Call(p1_, "boom", {}));
  EXPECT_EQ(out.status().code(), StatusCode::kInternal);
}

TEST_F(EvalExtraTest, MalformedScInExpressionTreeSurfaces) {
  // sc without a <service> child.
  TreePtr t = Parse(p0_, "<r><sc><peer>p1</peer></sc></r>");
  Evaluator ev(&sys_);
  auto out = ev.Eval(p0_, Expr::Tree(t, p0_));
  EXPECT_EQ(out.status().code(), StatusCode::kParseError);
}

TEST_F(EvalExtraTest, GenericServiceNoMembersFails) {
  Evaluator ev(&sys_);
  auto out = ev.Eval(p0_, Expr::CallGeneric("ghost", {}));
  EXPECT_EQ(out.status().code(), StatusCode::kNotFound);
}

TEST_F(EvalExtraTest, ScWithExplicitForwardLeavesTreeAlone) {
  Query echo = Query::Parse("for $x in input(0) return $x").value();
  ASSERT_TRUE(
      sys_.InstallService(p1_, Service::Declarative("echo", echo)).ok());
  TreePtr mailbox = Parse(p2_, "<mb/>");
  ASSERT_TRUE(sys_.InstallDocument(p2_, "mb", mailbox).ok());
  // A tree expression whose sc carries an explicit forward: the emitted
  // tree keeps only the sc (results went to p2).
  TreePtr t = Parse(
      p0_, StrCat("<r><sc><peer>p1</peer><service>echo</service>"
                  "<param1><m/></param1><forw>",
                  NodeLocation{mailbox->id(), p2_}.ToString(),
                  "</forw></sc></r>"));
  Evaluator ev(&sys_);
  auto out = ev.Eval(p0_, Expr::Tree(t, p0_));
  ASSERT_TRUE(out.ok()) << out.status();
  ASSERT_EQ(out->results.size(), 1u);
  EXPECT_EQ(out->results[0]->child_count(), 1u);  // just the sc
  EXPECT_EQ(mailbox->child_count(), 1u);          // response landed here
}

// --- Expression shipping fidelity ---

TEST_F(EvalExtraTest, DelegatedExpressionSurvivesXmlRoundTrip) {
  // What EvalAt ships is the XML form; check the round trip of a
  // realistic delegated plan is lossless.
  ASSERT_TRUE(sys_.InstallDocumentXml(p1_, "d", "<r><i/></r>").ok());
  Query q = Query::Parse(
                "for $x in input(0)//i where $x/v < 3 return $x")
                .value();
  ExprPtr plan = Expr::EvalAt(
      p1_, Expr::Apply(q, p1_, {Expr::Doc("d", p1_)}));
  NodeIdGen gen;
  std::string xml = SerializeCompactExpr(*plan, &gen);
  auto back = ParseExprXml(xml, &gen);
  ASSERT_TRUE(back.ok()) << back.status();
  Evaluator ev(&sys_);
  auto direct = ev.Eval(p0_, plan);
  auto shipped = ev.Eval(p0_, back.value());
  ASSERT_TRUE(direct.ok());
  ASSERT_TRUE(shipped.ok());
  EXPECT_TRUE(
      testing::ResultsEqual(direct->results, shipped->results));
}

}  // namespace
}  // namespace axml
