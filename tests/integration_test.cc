// End-to-end integration tests: full scenarios over the whole stack,
// including the paper's Example 1 (pushing selections) with measured
// transfer volumes.

#include <gtest/gtest.h>

#include <memory>

#include "algebra/evaluator.h"
#include "common/rng.h"
#include "opt/optimizer.h"
#include "test_util.h"
#include "xml/xml_parser.h"

namespace axml {
namespace {

// Example 1 of the paper, executed: eval@p(q(t@p2)) vs the rewritten
// strategy that delegates the selection σ (q3) to p2 and ships only the
// filtered set. Both must produce the same answers; the rewritten one
// must move fewer bytes.
TEST(Example1Test, PushingSelectionsShipsLessAndAgrees) {
  auto build = [](PeerId* p, PeerId* p2) {
    auto sys =
        std::make_unique<AxmlSystem>(Topology(LinkParams{0.020, 5.0e5}));
    *p = sys->AddPeer("p");
    *p2 = sys->AddPeer("p2");
    sys->tracer().set_enabled(true);
    Rng rng(2006);
    TreePtr t = testing::MakeCatalog(500, sys->peer(*p2)->gen(), &rng, 24);
    EXPECT_TRUE(sys->InstallDocument(*p2, "t", t).ok());
    return sys;
  };

  Query q = Query::Parse(
                "for $b in input(0)/catalog/product "
                "where $b/price < 100 "
                "return <res>{ $b/name, $b/price }</res>")
                .value();

  // Naive: definition (7) — ship the whole tree t to p, evaluate there.
  PeerId p, p2;
  auto sys1 = build(&p, &p2);
  Evaluator ev1(sys1.get());
  auto naive = ev1.Eval(p, Expr::Apply(q, p, {Expr::Doc("t", p2)}));
  ASSERT_TRUE(naive.ok()) << naive.status();
  uint64_t naive_bytes = TracedLinkBytes(sys1->tracer(), p2, p);

  // Optimized: the optimizer should discover the Example-1 strategy.
  PeerId pb, p2b;
  auto sys2 = build(&pb, &p2b);
  Optimizer opt(sys2.get());
  OptimizedPlan plan =
      opt.Optimize(pb, Expr::Apply(q, pb, {Expr::Doc("t", p2b)}));
  Evaluator ev2(sys2.get());
  auto optimized = ev2.Eval(pb, plan.expr);
  ASSERT_TRUE(optimized.ok()) << optimized.status();
  uint64_t opt_bytes = TracedLinkBytes(sys2->tracer(), p2b, pb);

  EXPECT_TRUE(testing::ResultsEqual(naive->results, optimized->results));
  EXPECT_GT(naive->results.size(), 0u);
  // "only ships to p the resulting data set, typically smaller"
  EXPECT_LT(opt_bytes, naive_bytes / 2) << plan.ToString();
  EXPECT_LT(optimized->Duration(), naive->Duration());

}

// A continuous-subscription scenario: a feed service on the publisher,
// sc nodes with forward lists delivering updates straight into
// subscriber mailboxes (no detour through the caller).
TEST(SubscriptionTest, ForwardListsDeliverToAllSubscribers) {
  AxmlSystem sys(Topology(LinkParams{0.010, 1.0e6}));
  PeerId pub = sys.AddPeer("publisher");
  PeerId s1 = sys.AddPeer("sub1");
  PeerId s2 = sys.AddPeer("sub2");
  PeerId broker = sys.AddPeer("broker");
  sys.tracer().set_enabled(true);

  ASSERT_TRUE(sys.InstallDocumentXml(
      pub, "stories",
      "<stories><story><cat>tech</cat><t>a</t></story>"
      "<story><cat>sports</cat><t>b</t></story>"
      "<story><cat>tech</cat><t>c</t></story></stories>").ok());
  Query feed = Query::Parse(
                   "for $s in doc(\"stories\")/stories/story "
                   "for $k in input(0) "
                   "where $s/cat = $k/topic return $s")
                   .value();
  ASSERT_TRUE(
      sys.InstallService(pub, Service::Declarative("feed", feed)).ok());

  TreePtr box1 = TreeNode::Element("inbox", sys.peer(s1)->gen());
  TreePtr box2 = TreeNode::Element("inbox", sys.peer(s2)->gen());
  ASSERT_TRUE(sys.InstallDocument(s1, "inbox", box1).ok());
  ASSERT_TRUE(sys.InstallDocument(s2, "inbox", box2).ok());

  // The broker subscribes both mailboxes to the tech feed.
  TreePtr topic = ParseXml("<k><topic>tech</topic></k>",
                           sys.peer(broker)->gen())
                      .value();
  Evaluator ev(&sys);
  auto out = ev.Eval(
      broker, Expr::Call(pub, "feed", {Expr::Tree(topic, broker)},
                         {NodeLocation{box1->id(), s1},
                          NodeLocation{box2->id(), s2}}));
  ASSERT_TRUE(out.ok()) << out.status();
  EXPECT_TRUE(out->results.empty());  // broker got nothing itself
  EXPECT_EQ(box1->child_count(), 2u);  // both tech stories
  EXPECT_EQ(box2->child_count(), 2u);
  // Nothing was shipped publisher -> broker (rule (15)'s point).
  EXPECT_EQ(TracedLinkBytes(sys.tracer(), pub, broker), 0u);
}

// Software-distribution flavor (the paper's full-version application):
// package metadata replicated on mirrors as a generic document; a client
// resolves d@any, the pick policy selects the near mirror, and
// dependency resolution runs as a delegated query on the mirror.
TEST(SoftwareDistributionTest, GenericMirrorsAndDelegatedResolution) {
  AxmlSystem sys(Topology(LinkParams{0.080, 2.0e5}));  // slow WAN
  PeerId client = sys.AddPeer("client");
  PeerId mirror_eu = sys.AddPeer("mirror_eu");
  PeerId mirror_us = sys.AddPeer("mirror_us");
  sys.tracer().set_enabled(true);
  // The EU mirror is close to the client.
  sys.network().mutable_topology()->SetLinkSymmetric(
      client, mirror_eu, LinkParams{0.005, 5.0e6});

  NodeIdGen tmp;
  Rng rng(77);
  TreePtr packages = TreeNode::Element("packages", &tmp);
  for (int i = 0; i < 60; ++i) {
    TreePtr pkg = TreeNode::Element("pkg", &tmp);
    pkg->AddChild(MakeTextElement("name", StrCat("lib", i), &tmp));
    pkg->AddChild(MakeTextElement("size", std::to_string(i * 10), &tmp));
    pkg->AddChild(MakeTextElement(
        "depends", StrCat("lib", (i + 1) % 60), &tmp));
    packages->AddChild(pkg);
  }
  ASSERT_TRUE(sys.InstallReplicatedDocument(
      "epackages", "packages", packages, {mirror_eu, mirror_us}).ok());

  // Resolve the generic document: the near mirror must serve it.
  Evaluator ev(&sys);
  Query small = Query::Parse(
                    "for $p in input(0)/packages/pkg "
                    "where $p/size < 100 return <hit>{ $p/name }</hit>")
                    .value();
  auto out =
      ev.Eval(client, Expr::Apply(small, client,
                                  {Expr::GenericDoc("epackages")}));
  ASSERT_TRUE(out.ok()) << out.status();
  EXPECT_EQ(out->results.size(), 10u);  // sizes 0..90
  EXPECT_GT(TracedLinkBytes(sys.tracer(), mirror_eu, client), 0u);
  EXPECT_EQ(TracedLinkBytes(sys.tracer(), mirror_us, client), 0u);

  // Delegating the query to the mirror beats pulling the whole doc.
  AxmlSystem sys2(Topology(LinkParams{0.080, 2.0e5}));
  PeerId c2 = sys2.AddPeer("client");
  PeerId m2 = sys2.AddPeer("mirror");
  ASSERT_TRUE(sys2.InstallDocument(
      m2, "packages", packages->Clone(sys2.peer(m2)->gen())).ok());
  Evaluator ev2(&sys2);
  auto naive =
      ev2.Eval(c2, Expr::Apply(small, c2, {Expr::Doc("packages", m2)}));
  ASSERT_TRUE(naive.ok());
  uint64_t naive_bytes = sys2.network().stats().remote_bytes();
  sys2.network().mutable_stats()->Reset();
  auto delegated = ev2.Eval(
      c2, Expr::EvalAt(m2, Expr::Apply(small, c2,
                                       {Expr::Doc("packages", m2)})));
  ASSERT_TRUE(delegated.ok());
  uint64_t delegated_bytes = sys2.network().stats().remote_bytes();
  EXPECT_TRUE(
      testing::ResultsEqual(naive->results, delegated->results));
  EXPECT_LT(delegated_bytes, naive_bytes);
}

// Rule (12) both ways: a fast relay makes the intermediary stop *win*;
// a slow relay makes it lose. "While it may seem that rule (12) should
// always be applied left to right, this is not always true!"
TEST(IntermediaryStopTest, EachDirectionWinsSomewhere) {
  auto run = [](LinkParams direct, LinkParams to_relay,
                LinkParams from_relay, bool via_relay) {
    AxmlSystem sys{Topology(direct)};
    PeerId p0 = sys.AddPeer("src");
    PeerId p1 = sys.AddPeer("relay");
    PeerId p2 = sys.AddPeer("dst");
    sys.network().mutable_topology()->SetLinkSymmetric(p0, p1, to_relay);
    sys.network().mutable_topology()->SetLinkSymmetric(p1, p2,
                                                       from_relay);
    Rng rng(5);
    TreePtr t = testing::MakeCatalog(100, sys.peer(p0)->gen(), &rng);
    EXPECT_TRUE(sys.InstallDocument(p0, "t", t).ok());
    ExprPtr src = Expr::Doc("t", p0);
    ExprPtr e = via_relay ? Expr::EvalAt(p1, src) : src;
    Evaluator ev(&sys);
    auto out = ev.Eval(p2, e);
    EXPECT_TRUE(out.ok()) << out.status();
    return out->Duration();
  };

  // Topology A: direct link is awful, relay links are fast.
  LinkParams bad{0.5, 1.0e4}, fast{0.001, 1.0e8};
  double direct_a = run(bad, fast, fast, false);
  double relay_a = run(bad, fast, fast, true);
  EXPECT_LT(relay_a, direct_a);  // right-to-left (12) wins

  // Topology B: uniform decent links; the stop only adds latency.
  LinkParams ok{0.010, 1.0e6};
  double direct_b = run(ok, ok, ok, false);
  double relay_b = run(ok, ok, ok, true);
  EXPECT_LT(direct_b, relay_b);  // left-to-right (12) wins
}

// Transfer caching (rule 13): with a large shared argument, caching
// halves the volume moved from the data peer.
TEST(TransferCacheTest, CachingHalvesTransfers) {
  auto build = [](AxmlSystem* sys, PeerId* p0, PeerId* p1) {
    *p0 = sys->AddPeer("p0");
    *p1 = sys->AddPeer("p1");
    sys->tracer().set_enabled(true);
    Rng rng(13);
    TreePtr t = testing::MakeCatalog(300, sys->peer(*p1)->gen(), &rng);
    EXPECT_TRUE(sys->InstallDocument(*p1, "big", t).ok());
  };
  Query q = Query::Parse(
                "for $a in input(0)/catalog/product "
                "for $b in input(1)/catalog/product "
                "where $a/name = $b/name and $a/price < 50 "
                "return <m>{ $a/name }</m>")
                .value();

  AxmlSystem sys1(Topology(LinkParams{0.010, 1.0e6}));
  PeerId p0, p1;
  build(&sys1, &p0, &p1);
  ExprPtr shared1 = Expr::Doc("big", p1);
  Evaluator ev1(&sys1);
  auto naive = ev1.Eval(p0, Expr::Apply(q, p0, {shared1, shared1}));
  ASSERT_TRUE(naive.ok()) << naive.status();
  uint64_t naive_bytes = TracedLinkBytes(sys1.tracer(), p1, p0);

  AxmlSystem sys2(Topology(LinkParams{0.010, 1.0e6}));
  PeerId q0, q1;
  build(&sys2, &q0, &q1);
  ExprPtr shared2 = Expr::Doc("big", q1);
  ExprPtr install =
      Expr::EvalAt(q1, Expr::SendAsDoc("cache", q0, shared2));
  ExprPtr use = Expr::Apply(
      q, q0, {Expr::Doc("cache", q0), Expr::Doc("cache", q0)});
  Evaluator ev2(&sys2);
  auto cached = ev2.Eval(q0, Expr::Seq(install, use));
  ASSERT_TRUE(cached.ok()) << cached.status();
  uint64_t cached_bytes = TracedLinkBytes(sys2.tracer(), q1, q0);

  EXPECT_TRUE(testing::ResultsEqual(naive->results, cached->results));
  EXPECT_LT(cached_bytes, naive_bytes * 6 / 10);  // ~half
}

// Catalog structures answer the same lookups at different costs
// (the §2 "impact of various network structures").
TEST(CatalogAblationTest, StructuresTradeMessagesForDelay) {
  AxmlSystem sys(Topology(LinkParams{0.010, 1.0e6}));
  std::vector<PeerId> peers;
  for (int i = 0; i < 16; ++i) {
    peers.push_back(sys.AddPeer(StrCat("n", i)));
  }
  for (int i = 1; i < 16; ++i) {  // star neighbor graph for flooding
    sys.network().mutable_topology()->AddNeighborEdge(peers[0],
                                                      peers[i]);
  }
  NodeIdGen tmp;
  TreePtr doc = ParseXml("<d/>", &tmp).value();
  ASSERT_TRUE(sys.InstallReplicatedDocument("ed", "d", doc,
                                            {peers[7]}).ok());

  // Mean lookup messages over every requester: the routed DHT's cost
  // depends on where the requester sits on the ring.
  auto mean_messages = [&](std::unique_ptr<CatalogBackend> cat) {
    cat->set_peer_count(16);
    cat->Register(ResourceKind::kDocument, "d", peers[7]);
    double mean = 0;
    for (PeerId from : peers) {
      LookupResult r =
          cat->LookupNow(ResourceKind::kDocument, "d", from, sys.network());
      EXPECT_EQ(r.holders.size(), 1u);
      mean += static_cast<double>(r.messages) / peers.size();
    }
    return mean;
  };
  const double central =
      mean_messages(std::make_unique<CentralCatalog>(peers[0]));
  const double dht = mean_messages(std::make_unique<ChordDhtCatalog>());
  const double flood = mean_messages(std::make_unique<FloodCatalog>(4));
  // Central is cheapest in messages; flooding is the most expensive.
  EXPECT_LT(central, dht);
  EXPECT_LT(dht, flood);
}

}  // namespace
}  // namespace axml
