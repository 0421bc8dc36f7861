// Tests for the algebra evaluator: one or more tests per definition of
// §3.2 (see evaluator.h for the mapping), plus the AXML document
// runtime (activation modes of §2.2) and failure injection for the
// undefined cases.

#include <gtest/gtest.h>

#include "algebra/evaluator.h"
#include "algebra/expr.h"
#include "test_util.h"
#include "xml/tree_equal.h"
#include "xml/wire.h"
#include "xml/xml_parser.h"
#include "xml/xml_serializer.h"

namespace axml {
namespace {

constexpr double kLat = 0.010;
constexpr double kBw = 1.0e6;

class EvaluatorTest : public ::testing::Test {
 protected:
  EvaluatorTest() : sys_(Topology(LinkParams{kLat, kBw})) {
    p0_ = sys_.AddPeer("p0");
    p1_ = sys_.AddPeer("p1");
    p2_ = sys_.AddPeer("p2");
    sys_.tracer().set_enabled(true);
  }

  TreePtr Parse(PeerId p, const std::string& xml) {
    return ParseXml(xml, sys_.peer(p)->gen()).value();
  }

  /// Bytes shipped over the directed link from -> to.
  uint64_t LinkBytes(PeerId from, PeerId to) const {
    return TracedLinkBytes(sys_.tracer(), from, to);
  }

  void InstallEcho(PeerId p, const std::string& name = "echo") {
    Query q = Query::Parse("for $x in input(0) return $x").value();
    ASSERT_TRUE(sys_.InstallService(p, Service::Declarative(name, q)).ok());
  }

  AxmlSystem sys_;
  PeerId p0_, p1_, p2_;
};

// --- Definition (1): tree evaluation ---

TEST_F(EvaluatorTest, LocalPlainTreeEvaluatesToItself) {
  TreePtr t = Parse(p0_, "<a><b>x</b></a>");
  Evaluator ev(&sys_);
  auto out = ev.Eval(p0_, Expr::Tree(t, p0_));
  ASSERT_TRUE(out.ok()) << out.status();
  ASSERT_EQ(out->results.size(), 1u);
  EXPECT_TRUE(TreesEqualUnordered(*t, *out->results[0]));
  // No network traffic for a purely local value.
  EXPECT_EQ(sys_.network().stats().remote_bytes(), 0u);
}

// --- Definition (5): remote data evaluates at its owner, ships home ---

TEST_F(EvaluatorTest, RemoteTreeShipsToEvaluator) {
  TreePtr t = Parse(p1_, "<a><b>x</b></a>");
  Evaluator ev(&sys_);
  auto out = ev.Eval(p0_, Expr::Tree(t, p1_));
  ASSERT_TRUE(out.ok()) << out.status();
  ASSERT_EQ(out->results.size(), 1u);
  EXPECT_TRUE(TreesEqualUnordered(*t, *out->results[0]));
  // The copy landed with fresh ids minted by p0, and the transfer was
  // priced at exactly the encoded payload's size.
  EXPECT_EQ(out->results[0]->id().minted_by(), p0_);
  const uint64_t size = wire::EncodedTreeSize(*t);
  EXPECT_EQ(LinkBytes(p1_, p0_), size);
  EXPECT_NEAR(out->Duration(), kLat + size / kBw, 1e-9);
}

TEST_F(EvaluatorTest, LocalDocumentEvaluatesToItsTree) {
  ASSERT_TRUE(sys_.InstallDocumentXml(p0_, "d", "<r><i/></r>").ok());
  Evaluator ev(&sys_);
  auto out = ev.Eval(p0_, Expr::Doc("d", p0_));
  ASSERT_TRUE(out.ok()) << out.status();
  ASSERT_EQ(out->results.size(), 1u);
  EXPECT_EQ(out->results[0]->label_text(), "r");
}

TEST_F(EvaluatorTest, MissingDocumentFails) {
  Evaluator ev(&sys_);
  auto out = ev.Eval(p0_, Expr::Doc("nope", p0_));
  EXPECT_EQ(out.status().code(), StatusCode::kNotFound);
}

TEST_F(EvaluatorTest, UnknownPeerFails) {
  Evaluator ev(&sys_);
  EXPECT_EQ(ev.Eval(PeerId(99), Expr::Doc("d", p0_)).status().code(),
            StatusCode::kNotFound);
  auto out = ev.Eval(p0_, Expr::Doc("d", PeerId(99)));
  EXPECT_FALSE(out.ok());
}

// --- Definition (2): local query application ---

TEST_F(EvaluatorTest, LocalQueryOverLocalDoc) {
  ASSERT_TRUE(sys_.InstallDocumentXml(
      p0_, "cat",
      "<catalog><product><price>5</price></product>"
      "<product><price>50</price></product></catalog>").ok());
  Query q = Query::Parse(
                "for $p in input(0)/catalog/product "
                "where $p/price < 10 return $p")
                .value();
  Evaluator ev(&sys_);
  auto out = ev.Eval(p0_, Expr::Apply(q, p0_, {Expr::Doc("cat", p0_)}));
  ASSERT_TRUE(out.ok()) << out.status();
  EXPECT_EQ(out->results.size(), 1u);
  // Compute time charged at p0.
  EXPECT_GT(out->Duration(), 0.0);
}

// --- Definition (7): remote query ships to the evaluator ---

TEST_F(EvaluatorTest, RemoteQueryTextIsShipped) {
  ASSERT_TRUE(sys_.InstallDocumentXml(p0_, "d", "<r><i/></r>").ok());
  Query q = Query::Parse("for $x in input(0)//i return $x").value();
  Evaluator ev(&sys_);
  auto out = ev.Eval(p0_, Expr::Apply(q, p1_, {Expr::Doc("d", p0_)}));
  ASSERT_TRUE(out.ok()) << out.status();
  EXPECT_EQ(out->results.size(), 1u);
  EXPECT_EQ(LinkBytes(p1_, p0_), wire::EncodedTextSize(q.text()));
}

// --- Definition (6): service calls ---

TEST_F(EvaluatorTest, ServiceCallRoundTrip) {
  InstallEcho(p1_);
  TreePtr param = Parse(p0_, "<msg>hi</msg>");
  Evaluator ev(&sys_);
  auto out = ev.Eval(
      p0_, Expr::Call(p1_, "echo", {Expr::Tree(param, p0_)}));
  ASSERT_TRUE(out.ok()) << out.status();
  ASSERT_EQ(out->results.size(), 1u);
  EXPECT_TRUE(TreesEqualUnordered(*param, *out->results[0]));
  // Parameters went caller->provider, the response came back.
  EXPECT_GT(LinkBytes(p0_, p1_), 0u);
  EXPECT_GT(LinkBytes(p1_, p0_), 0u);
}

TEST_F(EvaluatorTest, ContinuousServiceStreamsManyResults) {
  Query q = Query::Parse("for $x in input(0)//i return $x").value();
  ASSERT_TRUE(
      sys_.InstallService(p1_, Service::Declarative("explode", q)).ok());
  TreePtr param = Parse(p0_, "<r><i>1</i><i>2</i><i>3</i></r>");
  Evaluator ev(&sys_);
  auto out = ev.Eval(
      p0_, Expr::Call(p1_, "explode", {Expr::Tree(param, p0_)}));
  ASSERT_TRUE(out.ok()) << out.status();
  EXPECT_EQ(out->results.size(), 3u);
}

TEST_F(EvaluatorTest, ServiceCallWithForwardList) {
  InstallEcho(p1_);
  // A mailbox document on p2 receives the responses directly.
  TreePtr mailbox = Parse(p2_, "<mailbox/>");
  ASSERT_TRUE(sys_.InstallDocument(p2_, "mbox", mailbox).ok());
  TreePtr param = Parse(p0_, "<msg>direct</msg>");
  Evaluator ev(&sys_);
  auto out = ev.Eval(
      p0_, Expr::Call(p1_, "echo", {Expr::Tree(param, p0_)},
                      {NodeLocation{mailbox->id(), p2_}}));
  ASSERT_TRUE(out.ok()) << out.status();
  // ∅ at the caller; the response landed on p2.
  EXPECT_TRUE(out->results.empty());
  ASSERT_EQ(mailbox->child_count(), 1u);
  EXPECT_EQ(mailbox->child(0)->StringValue(), "direct");
  // Rule (15)'s observation: nothing shipped provider->caller.
  EXPECT_EQ(LinkBytes(p1_, p0_), 0u);
  EXPECT_GT(LinkBytes(p1_, p2_), 0u);
}

TEST_F(EvaluatorTest, ForwardListFansOutCopies) {
  InstallEcho(p1_);
  TreePtr box1 = Parse(p0_, "<box1/>");
  TreePtr box2 = Parse(p2_, "<box2/>");
  ASSERT_TRUE(sys_.InstallDocument(p0_, "b1", box1).ok());
  ASSERT_TRUE(sys_.InstallDocument(p2_, "b2", box2).ok());
  TreePtr param = Parse(p0_, "<m>fanout</m>");
  Evaluator ev(&sys_);
  auto out = ev.Eval(
      p0_, Expr::Call(p1_, "echo", {Expr::Tree(param, p0_)},
                      {NodeLocation{box1->id(), p0_},
                       NodeLocation{box2->id(), p2_}}));
  ASSERT_TRUE(out.ok()) << out.status();
  EXPECT_EQ(box1->child_count(), 1u);
  EXPECT_EQ(box2->child_count(), 1u);
}

TEST_F(EvaluatorTest, UnknownServiceFails) {
  Evaluator ev(&sys_);
  auto out = ev.Eval(
      p0_, Expr::Call(p1_, "missing", {}));
  EXPECT_EQ(out.status().code(), StatusCode::kNotFound);
}

TEST_F(EvaluatorTest, ArityMismatchFails) {
  InstallEcho(p1_);
  Evaluator ev(&sys_);
  auto out = ev.Eval(p0_, Expr::Call(p1_, "echo", {}));
  EXPECT_EQ(out.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(EvaluatorTest, NativeServiceInvoked) {
  Service s = Service::Native(
      "stamp", 1,
      [this](const std::vector<TreePtr>& params,
             Peer* self) -> Result<std::vector<TreePtr>> {
        TreePtr out = TreeNode::Element("stamped", self->gen());
        out->AddChild(params[0]->Clone(self->gen()));
        return std::vector<TreePtr>{out};
      });
  ASSERT_TRUE(sys_.InstallService(p1_, s).ok());
  Evaluator ev(&sys_);
  auto out = ev.Eval(
      p0_, Expr::Call(p1_, "stamp",
                      {Expr::Tree(Parse(p0_, "<x/>"), p0_)}));
  ASSERT_TRUE(out.ok()) << out.status();
  ASSERT_EQ(out->results.size(), 1u);
  EXPECT_EQ(out->results[0]->label_text(), "stamped");
}

TEST_F(EvaluatorTest, SignatureTypeCheckRejectsBadParameter) {
  Signature sig;
  sig.in = {SchemaType::Element("n", {One(SchemaType::Number())})};
  sig.out = nullptr;
  Query q = Query::Parse("for $x in input(0) return $x").value();
  ASSERT_TRUE(
      sys_.InstallService(p1_, Service::Declarative("typed", q, sig)).ok());
  Evaluator ev(&sys_);
  auto bad = ev.Eval(
      p0_, Expr::Call(p1_, "typed",
                      {Expr::Tree(Parse(p0_, "<n>abc</n>"), p0_)}));
  EXPECT_EQ(bad.status().code(), StatusCode::kTypeError);
  auto good = ev.Eval(
      p0_, Expr::Call(p1_, "typed",
                      {Expr::Tree(Parse(p0_, "<n>42</n>"), p0_)}));
  EXPECT_TRUE(good.ok()) << good.status();
}

// --- Definitions (3)/(4): sends ---

TEST_F(EvaluatorTest, SendToPeerReturnsNothingLocally) {
  TreePtr t = Parse(p0_, "<gift/>");
  Evaluator ev(&sys_);
  auto out = ev.Eval(p0_, Expr::SendToPeer(p1_, Expr::Tree(t, p0_)));
  ASSERT_TRUE(out.ok()) << out.status();
  EXPECT_TRUE(out->results.empty());
  // The copy landed in p1's inbox.
  TreePtr inbox = sys_.peer(p1_)->GetDocument("axml:inbox");
  ASSERT_NE(inbox, nullptr);
  ASSERT_EQ(inbox->child_count(), 1u);
  EXPECT_EQ(inbox->child(0)->label_text(), "gift");
}

TEST_F(EvaluatorTest, SendToNodesAppendsUnderEachTarget) {
  TreePtr spot1 = Parse(p1_, "<spot1/>");
  TreePtr spot2 = Parse(p2_, "<spot2/>");
  ASSERT_TRUE(sys_.InstallDocument(p1_, "s1", spot1).ok());
  ASSERT_TRUE(sys_.InstallDocument(p2_, "s2", spot2).ok());
  TreePtr t = Parse(p0_, "<payload>v</payload>");
  Evaluator ev(&sys_);
  auto out = ev.Eval(
      p0_, Expr::SendToNodes({NodeLocation{spot1->id(), p1_},
                              NodeLocation{spot2->id(), p2_}},
                             Expr::Tree(t, p0_)));
  ASSERT_TRUE(out.ok()) << out.status();
  EXPECT_TRUE(out->results.empty());
  ASSERT_EQ(spot1->child_count(), 1u);
  ASSERT_EQ(spot2->child_count(), 1u);
  // Distinct copies, each minted by its destination.
  EXPECT_EQ(spot1->child(0)->id().minted_by(), p1_);
  EXPECT_EQ(spot2->child(0)->id().minted_by(), p2_);
}

TEST_F(EvaluatorTest, SendOfRemoteTreeIsUndefined) {
  TreePtr t = Parse(p1_, "<theirs/>");
  Evaluator ev(&sys_);
  auto out = ev.Eval(p0_, Expr::SendToPeer(p2_, Expr::Tree(t, p1_)));
  EXPECT_EQ(out.status().code(), StatusCode::kUndefined);
  auto out2 = ev.Eval(p0_, Expr::SendToPeer(p2_, Expr::Doc("d", p1_)));
  EXPECT_EQ(out2.status().code(), StatusCode::kUndefined);
}

TEST_F(EvaluatorTest, SendToMissingNodeFails) {
  TreePtr t = Parse(p0_, "<x/>");
  Evaluator ev(&sys_);
  NodeIdGen foreign(p1_);
  auto out = ev.Eval(
      p0_, Expr::SendToNodes({NodeLocation{foreign.Next(), p1_}},
                             Expr::Tree(t, p0_)));
  EXPECT_EQ(out.status().code(), StatusCode::kNotFound);
}

TEST_F(EvaluatorTest, SendAsDocInstallsAndAccumulates) {
  ASSERT_TRUE(sys_.InstallDocumentXml(
      p0_, "src", "<r><i>1</i><i>2</i></r>").ok());
  Query q = Query::Parse("for $x in input(0)//i return $x").value();
  Evaluator ev(&sys_);
  auto out = ev.Eval(
      p0_, Expr::SendAsDoc("copy", p1_,
                           Expr::Apply(q, p0_, {Expr::Doc("src", p0_)})));
  ASSERT_TRUE(out.ok()) << out.status();
  TreePtr copy = sys_.peer(p1_)->GetDocument("copy");
  ASSERT_NE(copy, nullptr);
  // First result became the document; the second accumulated under it.
  EXPECT_EQ(copy->label_text(), "i");
  EXPECT_EQ(copy->child_count(), 2u);  // its own text + appended tree
  // The new document is discoverable.
  LookupResult found = sys_.catalog()->LookupNow(
      ResourceKind::kDocument, "copy", p0_, sys_.network());
  ASSERT_EQ(found.holders.size(), 1u);
  EXPECT_EQ(found.holders[0], p1_);
}

// --- Definition (8): query shipping ---

TEST_F(EvaluatorTest, ShipQueryInstallsService) {
  Query q = Query::Parse("for $x in input(0)//i return $x").value();
  Evaluator ev(&sys_);
  auto out = ev.Eval(p0_, Expr::ShipQuery(p1_, q, p0_, "unnest"));
  ASSERT_TRUE(out.ok()) << out.status();
  EXPECT_TRUE(out->results.empty());
  const Service* s = sys_.peer(p1_)->GetService("unnest");
  ASSERT_NE(s, nullptr);
  EXPECT_TRUE(s->is_declarative());
  EXPECT_EQ(s->query().text(), q.text());
  // Now callable like any service.
  auto call = ev.Eval(
      p2_, Expr::Call(p1_, "unnest",
                      {Expr::Tree(Parse(p2_, "<r><i/><i/></r>"), p2_)}));
  ASSERT_TRUE(call.ok()) << call.status();
  EXPECT_EQ(call->results.size(), 2u);
}

TEST_F(EvaluatorTest, ShipQueryOfForeignQueryIsUndefined) {
  Query q = Query::Parse("for $x in input(0) return $x").value();
  Evaluator ev(&sys_);
  auto out = ev.Eval(p0_, Expr::ShipQuery(p2_, q, p1_, "x"));
  EXPECT_EQ(out.status().code(), StatusCode::kUndefined);
}

// An anonymous ship's service name is a function of the system's state:
// two equal systems evaluating the same anonymous ship end equal.
TEST(ShipQueryNameTest, EqualSystemsInstallEqualAnonymousServices) {
  Query q = Query::Parse("for $x in input(0)//i return $x").value();
  auto run = [&q](AxmlSystem* sys) {
    const PeerId p0 = sys->AddPeer("p0");
    const PeerId p1 = sys->AddPeer("p1");
    Evaluator ev(sys);
    ASSERT_TRUE(ev.Eval(p0, Expr::ShipQuery(p1, q, p0, "")).ok());
    EXPECT_NE(sys->peer(p1)->GetService("shipped_q0"), nullptr);
  };
  AxmlSystem first;
  AxmlSystem second;
  run(&first);
  run(&second);
  EXPECT_EQ(first.StateFingerprint(), second.StateFingerprint());
}

// Two anonymous ships to one peer, in flight at the same time, install
// two services rather than one overwriting the other.
TEST_F(EvaluatorTest, TwoAnonymousShipsToOnePeerInstallTwoServices) {
  Query unnest = Query::Parse("for $x in input(0)//i return $x").value();
  Query wrap = Query::Parse("for $x in input(0) return <w>{ $x }</w>").value();
  Query both = Query::Parse(
                   "for $a in input(0) for $b in input(1) return <p/>")
                   .value();
  Evaluator ev(&sys_);
  auto out = ev.Eval(p0_, Expr::Apply(both, p0_,
                                      {Expr::ShipQuery(p1_, unnest, p0_, ""),
                                       Expr::ShipQuery(p1_, wrap, p0_, "")}));
  ASSERT_TRUE(out.ok()) << out.status();
  const Service* q0 = sys_.peer(p1_)->GetService("shipped_q0");
  const Service* q1 = sys_.peer(p1_)->GetService("shipped_q1");
  ASSERT_NE(q0, nullptr);
  ASSERT_NE(q1, nullptr);
  EXPECT_NE(q0->query().text(), q1->query().text());
}

// --- Rules (14)/(15) carrier: EvalAt ---

TEST_F(EvaluatorTest, EvalAtProducesSameResultsAsLocal) {
  ASSERT_TRUE(sys_.InstallDocumentXml(
      p1_, "d", "<r><i>1</i><i>2</i></r>").ok());
  Query q = Query::Parse("for $x in input(0)//i return $x").value();
  ExprPtr direct = Expr::Apply(q, p0_, {Expr::Doc("d", p1_)});
  Evaluator ev1(&sys_);
  auto local = ev1.Eval(p0_, direct);
  ASSERT_TRUE(local.ok());
  Evaluator ev2(&sys_);
  auto delegated = ev2.Eval(p0_, Expr::EvalAt(p1_, direct));
  ASSERT_TRUE(delegated.ok()) << delegated.status();
  EXPECT_TRUE(testing::ResultsEqual(local->results, delegated->results));
}

TEST_F(EvaluatorTest, EvalAtChargesExpressionShipping) {
  ASSERT_TRUE(sys_.InstallDocumentXml(p1_, "d", "<r/>").ok());
  Evaluator ev(&sys_);
  sys_.network().mutable_stats()->Reset();
  auto out = ev.Eval(p0_, Expr::EvalAt(p1_, Expr::Doc("d", p1_)));
  ASSERT_TRUE(out.ok()) << out.status();
  // The expression traveled p0->p1; the doc result traveled p1->p0.
  EXPECT_GT(LinkBytes(p0_, p1_), 0u);
  EXPECT_GT(LinkBytes(p1_, p0_), 0u);
}

// --- Rule (13) carrier: Seq ---

TEST_F(EvaluatorTest, SeqRunsSideEffectsBeforeSecondPart) {
  ASSERT_TRUE(sys_.InstallDocumentXml(
      p1_, "big", "<r><i>1</i><i>2</i></r>").ok());
  Query unnest = Query::Parse("for $x in input(0)//i return $x").value();
  // First: cache big@p1 as copy@p0 (evaluated at p1: send(d@p0, big)).
  // Then: query the local copy.
  ExprPtr install = Expr::EvalAt(
      p1_, Expr::SendAsDoc("copy", p0_, Expr::Doc("big", p1_)));
  ExprPtr use = Expr::Apply(unnest, p0_, {Expr::Doc("copy", p0_)});
  Evaluator ev(&sys_);
  auto out = ev.Eval(p0_, Expr::Seq(install, use));
  ASSERT_TRUE(out.ok()) << out.status();
  EXPECT_EQ(out->results.size(), 2u);
  EXPECT_TRUE(sys_.peer(p0_)->HasDocument("copy"));
}

// --- Definition (9): generic documents and services ---

TEST_F(EvaluatorTest, GenericDocPicksNearestReplica) {
  // Replicas on p1 and p2; p2 is much closer to p0.
  sys_.network().mutable_topology()->SetLinkSymmetric(
      p0_, p2_, LinkParams{0.0001, 1e8});
  NodeIdGen tmp;
  TreePtr content = ParseXml("<cat><p>1</p></cat>", &tmp).value();
  ASSERT_TRUE(sys_.InstallReplicatedDocument("ecat", "cat", content,
                                             {p1_, p2_}).ok());
  Evaluator ev(&sys_);
  auto out = ev.Eval(p0_, Expr::GenericDoc("ecat"));
  ASSERT_TRUE(out.ok()) << out.status();
  ASSERT_EQ(out->results.size(), 1u);
  // Content came from p2 (the near replica), not p1.
  EXPECT_GT(LinkBytes(p2_, p0_), 0u);
  EXPECT_EQ(LinkBytes(p1_, p0_), 0u);
  // Discovery was charged.
  EXPECT_GT(sys_.network().stats().control_messages(), 0u);
}

TEST_F(EvaluatorTest, GenericDocNoMembersFails) {
  Evaluator ev(&sys_);
  auto out = ev.Eval(p0_, Expr::GenericDoc("nothing"));
  EXPECT_EQ(out.status().code(), StatusCode::kNotFound);
}

TEST_F(EvaluatorTest, GenericServicePick) {
  InstallEcho(p1_, "echo");
  InstallEcho(p2_, "echo");
  sys_.generics().AddServiceMember("eecho", ClassMember{"echo", p1_});
  sys_.generics().AddServiceMember("eecho", ClassMember{"echo", p2_});
  sys_.network().mutable_topology()->SetLinkSymmetric(
      p0_, p2_, LinkParams{0.0001, 1e8});
  Evaluator ev(&sys_);
  auto out = ev.Eval(
      p0_, Expr::CallGeneric("eecho",
                             {Expr::Tree(Parse(p0_, "<m>g</m>"), p0_)}));
  ASSERT_TRUE(out.ok()) << out.status();
  ASSERT_EQ(out->results.size(), 1u);
  // The near provider (p2) served the call.
  EXPECT_GT(LinkBytes(p0_, p2_), 0u);
  EXPECT_EQ(LinkBytes(p0_, p1_), 0u);
}

// --- Trees with embedded service calls (§2.2) ---

TEST_F(EvaluatorTest, TreeWithScActivatesAndAccumulates) {
  InstallEcho(p1_);
  TreePtr t = Parse(p0_,
                    "<report><sc><peer>p1</peer><service>echo</service>"
                    "<param1><ask>v</ask></param1></sc></report>");
  Evaluator ev(&sys_);
  auto out = ev.Eval(p0_, Expr::Tree(t, p0_));
  ASSERT_TRUE(out.ok()) << out.status();
  ASSERT_EQ(out->results.size(), 1u);
  const TreePtr& r = out->results[0];
  // The response was inserted as a sibling of the sc node.
  ASSERT_EQ(r->child_count(), 2u);
  EXPECT_EQ(r->child(0)->label_text(), "sc");
  EXPECT_EQ(r->child(1)->label_text(), "ask");
  // The original expression tree was not mutated.
  EXPECT_EQ(t->child_count(), 1u);
}

TEST_F(EvaluatorTest, TreeWithUnknownProviderFails) {
  TreePtr t = Parse(p0_,
                    "<r><sc><peer>ghost</peer><service>s</service>"
                    "</sc></r>");
  Evaluator ev(&sys_);
  auto out = ev.Eval(p0_, Expr::Tree(t, p0_));
  EXPECT_EQ(out.status().code(), StatusCode::kNotFound);
}

// --- AXML document runtime: activation modes ---

TEST_F(EvaluatorTest, ImmediateCallActivatesOnInstall) {
  InstallEcho(p1_);
  TreePtr doc = Parse(p0_,
                      "<news><sc mode=\"immediate\"><peer>p1</peer>"
                      "<service>echo</service>"
                      "<param1><item>n1</item></param1></sc></news>");
  Evaluator ev(&sys_);
  ASSERT_TRUE(ev.InstallAxmlDocument(p0_, "news", doc).ok());
  ev.RunToQuiescence();
  ASSERT_TRUE(ev.async_status().ok()) << ev.async_status();
  // The response accumulated in the document, sibling of the sc.
  ASSERT_EQ(doc->child_count(), 2u);
  EXPECT_EQ(doc->child(1)->label_text(), "item");
}

TEST_F(EvaluatorTest, ManualCallDoesNotAutoActivate) {
  InstallEcho(p1_);
  TreePtr doc = Parse(p0_,
                      "<d><sc><peer>p1</peer><service>echo</service>"
                      "<param1><x/></param1></sc></d>");
  Evaluator ev(&sys_);
  ASSERT_TRUE(ev.InstallAxmlDocument(p0_, "d", doc).ok());
  ev.RunToQuiescence();
  EXPECT_EQ(doc->child_count(), 1u);  // untouched
  // Explicit activation works and is idempotent.
  std::vector<TreePtr> calls;
  FindServiceCalls(doc, &calls);
  ASSERT_EQ(calls.size(), 1u);
  ASSERT_TRUE(ev.ActivateCall(p0_, calls[0]->id()).ok());
  ASSERT_TRUE(ev.ActivateCall(p0_, calls[0]->id()).ok());
  ev.RunToQuiescence();
  EXPECT_EQ(doc->child_count(), 2u);  // exactly one response
}

TEST_F(EvaluatorTest, LazyCallActivatesWhenDocIsQueried) {
  InstallEcho(p1_);
  TreePtr doc = Parse(p0_,
                      "<d><sc mode=\"lazy\"><peer>p1</peer>"
                      "<service>echo</service>"
                      "<param1><lazyval/></param1></sc></d>");
  Evaluator ev(&sys_);
  ASSERT_TRUE(ev.InstallAxmlDocument(p0_, "d", doc).ok());
  ev.RunToQuiescence();
  EXPECT_EQ(doc->child_count(), 1u);  // not yet
  // A query over the document triggers activation (§2.2 "activated only
  // when the call result is needed to evaluate some query").
  // Child path: matches the response (sibling of the sc) but not the
  // parameter copy nested inside the sc element.
  Query q = Query::Parse("for $x in input(0)/d/lazyval return $x").value();
  auto out = ev.Eval(p0_, Expr::Apply(q, p0_, {Expr::Doc("d", p0_)}));
  ASSERT_TRUE(out.ok()) << out.status();
  EXPECT_EQ(out->results.size(), 1u);
  EXPECT_EQ(doc->child_count(), 2u);
}

TEST_F(EvaluatorTest, AfterCallChainsActivation) {
  InstallEcho(p1_);
  TreePtr doc = Parse(p0_,
                      "<d><sc mode=\"immediate\"><peer>p1</peer>"
                      "<service>echo</service>"
                      "<param1><first/></param1></sc>"
                      "<sc><peer>p1</peer><service>echo</service>"
                      "<param1><second/></param1></sc></d>");
  // Wire the second call to follow the first.
  std::vector<TreePtr> calls;
  FindServiceCalls(doc, &calls);
  ASSERT_EQ(calls.size(), 2u);
  calls[1]->AddChild(MakeTextElement(
      "@after", std::to_string(calls[0]->id().bits()),
      sys_.peer(p0_)->gen()));
  Evaluator ev(&sys_);
  ASSERT_TRUE(ev.InstallAxmlDocument(p0_, "d", doc).ok());
  ev.RunToQuiescence();
  ASSERT_TRUE(ev.async_status().ok()) << ev.async_status();
  // Both responses arrived (chained activation).
  EXPECT_EQ(doc->child_count(), 4u);
}

// --- Async deployment surface ---

TEST_F(EvaluatorTest, DeployStreamsResultsIncrementally) {
  ASSERT_TRUE(sys_.InstallDocumentXml(
      p0_, "d", "<r><i>1</i><i>2</i><i>3</i></r>").ok());
  Query q = Query::Parse("for $x in input(0)//i return $x").value();
  Evaluator ev(&sys_);
  std::vector<TreePtr> seen;
  ASSERT_TRUE(ev.Deploy(p0_, Expr::Apply(q, p0_, {Expr::Doc("d", p0_)}),
                        [&](TreePtr t) { seen.push_back(t); })
                  .ok());
  EXPECT_TRUE(seen.empty());  // nothing before the loop runs
  ev.RunToQuiescence();
  EXPECT_EQ(seen.size(), 3u);
}

TEST_F(EvaluatorTest, CompletionTimeAdvancesWithTopology) {
  ASSERT_TRUE(sys_.InstallDocumentXml(p1_, "d", "<r><i/></r>").ok());
  Evaluator ev(&sys_);
  auto near = ev.Eval(p0_, Expr::Doc("d", p1_));
  ASSERT_TRUE(near.ok());
  // Make the link 10x slower; duration grows accordingly.
  sys_.network().mutable_topology()->SetLinkSymmetric(
      p0_, p1_, LinkParams{10 * kLat, kBw / 10});
  auto far = ev.Eval(p0_, Expr::Doc("d", p1_));
  ASSERT_TRUE(far.ok());
  EXPECT_GT(far->Duration(), near->Duration());
}

}  // namespace
}  // namespace axml
