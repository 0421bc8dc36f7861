// Software distribution over AXML — the application of the paper's full
// version (the eDos project: distributing package metadata and updates
// across mirrors and clients).
//
// The scenario:
//   - a master repository publishes package metadata,
//   - three mirrors replicate it; the replicas form the generic
//     document epackages@any (§2.3),
//   - clients resolve the generic document (definition (9)) — the pick
//     policy routes each client to a good mirror,
//   - dependency closure is computed *on the mirror* via delegation
//     (rule (10)), so only the client's install plan crosses the WAN,
//   - update notifications flow through a continuous service whose sc
//     carries a forward list (§2.3) delivering straight to subscribers,
//   - a roaming client pulls the package tree from two different
//     mirrors; its transfer cache content-addresses the copies, so the
//     identical trees share one cached blob (src/replica/).
//
// Run: ./build/examples/software_distribution

#include <cstdio>

#include "algebra/evaluator.h"
#include "common/str_util.h"
#include "peer/system.h"
#include "replica/replica_manager.h"
#include "xml/xml_serializer.h"

using namespace axml;

int main() {
  AxmlSystem sys(Topology(LinkParams{0.120, 2.5e5}));  // slow WAN
  PeerId master = sys.AddPeer("master");
  PeerId mirror_eu = sys.AddPeer("mirror-eu");
  PeerId mirror_us = sys.AddPeer("mirror-us");
  PeerId mirror_asia = sys.AddPeer("mirror-asia");
  PeerId client = sys.AddPeer("client-paris");
  // Regional links are much better than the WAN default.
  sys.network().mutable_topology()->SetLinkSymmetric(
      client, mirror_eu, LinkParams{0.008, 4.0e6});
  sys.network().mutable_topology()->SetLinkSymmetric(
      client, mirror_us, LinkParams{0.090, 1.0e6});

  // --- Package metadata: 120 packages with dependency edges.
  NodeIdGen tmp;
  TreePtr packages = TreeNode::Element("packages", &tmp);
  for (int i = 0; i < 120; ++i) {
    TreePtr pkg = TreeNode::Element("pkg", &tmp);
    pkg->AddChild(MakeTextElement("name", StrCat("pkg", i), &tmp));
    pkg->AddChild(
        MakeTextElement("version", StrCat(1 + i % 4, ".", i % 10), &tmp));
    pkg->AddChild(MakeTextElement("size", std::to_string(40 + i), &tmp));
    pkg->AddChild(
        MakeTextElement("depends", StrCat("pkg", (i * 7 + 1) % 120), &tmp));
    packages->AddChild(std::move(pkg));
  }
  Status s = sys.InstallReplicatedDocument(
      "epackages", "packages", packages,
      {master, mirror_eu, mirror_us, mirror_asia});
  if (!s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }

  // --- Step 1: the client resolves epackages@any and asks for one
  // package's record. The nearest mirror answers.
  Evaluator ev(&sys);
  Query lookup = Query::Parse(
                     "for $p in input(0)/packages/pkg "
                     "where $p/name = \"pkg42\" return $p")
                     .value();
  sys.network().mutable_stats()->Reset();
  // Per-link bytes come from the traced message spans.
  sys.tracer().set_enabled(true);
  auto rec = ev.Eval(client, Expr::Apply(lookup, client,
                                         {Expr::GenericDoc("epackages")}));
  if (!rec.ok()) {
    std::fprintf(stderr, "%s\n", rec.status().ToString().c_str());
    return 1;
  }
  std::printf("pkg42 record (served by the generic pick):\n  %s\n",
              SerializeCompact(*rec->results[0]).c_str());
  std::printf("  eu->client %.1f KB, us->client %.1f KB (nearest won)\n\n",
              TracedLinkBytes(sys.tracer(), mirror_eu, client) / 1024.0,
              TracedLinkBytes(sys.tracer(), mirror_us, client) / 1024.0);
  sys.tracer().set_enabled(false);

  // --- Step 2: dependency resolution, delegated to the mirror
  // (rule (10)): a self-join computing each selected package's direct
  // dependency record. Only the plan ships back.
  Query resolve = Query::Parse(
                      "for $p in input(0)/packages/pkg "
                      "for $d in input(0)/packages/pkg "
                      "where $p/size < 50 and $d/name = $p/depends "
                      "return <install>{ $p/name, $d/name, $d/version "
                      "}</install>")
                      .value();
  sys.network().mutable_stats()->Reset();
  auto naive = ev.Eval(
      client,
      Expr::Apply(resolve, client, {Expr::Doc("packages", mirror_eu)}));
  double naive_kb = sys.network().stats().remote_bytes() / 1024.0;
  sys.network().mutable_stats()->Reset();
  auto delegated = ev.Eval(
      client,
      Expr::EvalAt(mirror_eu,
                   Expr::Apply(resolve, mirror_eu,
                               {Expr::Doc("packages", mirror_eu)})));
  double delegated_kb = sys.network().stats().remote_bytes() / 1024.0;
  std::printf(
      "dependency resolution: %zu install steps\n"
      "  naive (pull metadata twice): %.1f KB\n"
      "  delegated to the mirror:     %.1f KB\n\n",
      delegated->results.size(), naive_kb, delegated_kb);

  // --- Step 3: update subscription. The master's announce service is
  // declarative and continuous; the sc's forward list points into the
  // client's updates document, so announcements skip any broker.
  Query announce = Query::Parse(
                       "for $p in doc(\"packages\")/packages/pkg "
                       "for $k in input(0) "
                       "where $p/version = $k/want return "
                       "<update>{ $p/name, $p/version }</update>")
                       .value();
  (void)sys.InstallService(master,
                           Service::Declarative("announce", announce));
  TreePtr updates = TreeNode::Element("updates", sys.peer(client)->gen());
  NodeId updates_node = updates->id();
  (void)sys.InstallDocument(client, "updates", updates);
  TreePtr want = TreeNode::Element("k", sys.peer(client)->gen());
  want->AddChild(MakeTextElement("want", "1.0", sys.peer(client)->gen()));
  auto sub = ev.Eval(
      client, Expr::Call(master, "announce",
                         {Expr::Tree(want, client)},
                         {NodeLocation{updates_node, client}}));
  if (!sub.ok()) {
    std::fprintf(stderr, "%s\n", sub.status().ToString().c_str());
    return 1;
  }
  std::printf("subscription delivered %zu updates into updates@client:\n",
              static_cast<size_t>(updates->child_count()));
  for (size_t i = 0; i < updates->child_count() && i < 3; ++i) {
    std::printf("  %s\n",
                SerializeCompact(*updates->child(i)).c_str());
  }

  // --- Step 4: content-addressed replica dedup. A roaming client pulls
  // the full package tree once from the US mirror and once from the
  // Asian mirror (mirror names differ, content does not). The transfer
  // cache keys copies by content digest, so both reads share ONE stored
  // blob — and every later read is served locally for 0 wire bytes.
  PeerId roaming = sys.AddPeer("client-roaming");
  EvalOptions copts;
  copts.use_replica_cache = true;
  Evaluator cev(&sys, copts);
  Query all = Query::Parse(
                  "for $p in input(0)/packages/pkg return $p")
                  .value();
  auto pull_us = cev.Eval(
      roaming,
      Expr::Apply(all, roaming, {Expr::Doc("packages", mirror_us)}));
  auto pull_asia = cev.Eval(
      roaming,
      Expr::Apply(all, roaming, {Expr::Doc("packages", mirror_asia)}));
  if (!pull_us.ok() || !pull_asia.ok()) {
    std::fprintf(stderr, "replica pulls failed\n");
    return 1;
  }
  const TransferCache* cache = sys.replicas().FindCache(roaming);
  std::printf(
      "\nreplica dedup at client-roaming (two mirrors, one tree):\n"
      "  cached copies: %zu   stored blobs: %zu   resident: %.1f KB\n"
      "  bytes deduped: %.1f KB (the second mirror's copy cost no "
      "budget)\n",
      cache->entry_count(), cache->blob_count(),
      cache->resident_bytes() / 1024.0,
      cache->stats().bytes_deduped / 1024.0);

  // A repeated read now resolves against the cached copy: no data bytes
  // cross the WAN.
  sys.network().mutable_stats()->Reset();
  auto again = cev.Eval(
      roaming,
      Expr::Apply(all, roaming, {Expr::Doc("packages", mirror_us)}));
  if (!again.ok()) {
    std::fprintf(stderr, "%s\n", again.status().ToString().c_str());
    return 1;
  }
  std::printf(
      "  repeated read: %.1f KB on the wire, %llu cache hits, %.1f KB "
      "saved so far\n",
      sys.network().stats().remote_bytes() / 1024.0,
      static_cast<unsigned long long>(cache->stats().hits),
      cache->stats().bytes_saved / 1024.0);
  return 0;
}
