// Hot-path replica placement and cost-aware eviction — a regional
// content-distribution scenario.
//
// The setup:
//   - a headquarters peer publishes product catalogs behind a slow WAN,
//   - three regional stores resolve catalog@any repeatedly; the
//     GenericCatalog records who keeps asking (the demand signal),
//   - a placement round (ReplicaManager::RunPlacement) reads that demand
//     and proactively ships the hot catalog to its top-picking stores —
//     budget-checked, advertised on landing — so later picks ride the
//     free loopback link,
//   - one store's transfer cache runs the cost-aware eviction policy:
//     when a burst of cheap same-region traffic fills the cache, the
//     expensive-to-refetch HQ copy survives where LRU would drop it.
//
// Run: ./build/examples/hot_path_placement

#include <cstdio>

#include "algebra/evaluator.h"
#include "common/str_util.h"
#include "peer/system.h"
#include "replica/replica_manager.h"

using namespace axml;

namespace {

TreePtr MakeCatalogDoc(const char* label, int items, NodeIdGen* gen) {
  TreePtr root = TreeNode::Element("catalog", gen);
  for (int i = 0; i < items; ++i) {
    TreePtr item = TreeNode::Element("item", gen);
    item->AddChild(MakeTextElement("name", StrCat(label, i), gen));
    item->AddChild(MakeTextElement("stock", std::to_string(10 + i), gen));
    root->AddChild(std::move(item));
  }
  return root;
}

}  // namespace

int main() {
  AxmlSystem sys(Topology(LinkParams{0.150, 3.0e5}));  // slow WAN default
  PeerId hq = sys.AddPeer("hq");
  PeerId east = sys.AddPeer("store-east");
  PeerId west = sys.AddPeer("store-west");
  PeerId north = sys.AddPeer("store-north");
  // Stores share a fast regional backbone.
  for (PeerId a : {east, west, north}) {
    for (PeerId b : {east, west, north}) {
      if (a != b) {
        sys.network().mutable_topology()->SetLink(a, b,
                                                  LinkParams{0.004, 6.0e6});
      }
    }
  }

  // HQ publishes the master catalog as the generic class ecatalog.
  (void)sys.InstallDocument(hq, "catalog",
                            MakeCatalogDoc("sku", 160, sys.peer(hq)->gen()));
  sys.generics().AddDocumentMember("ecatalog", ClassMember{"catalog", hq});

  // Placement is on from the start: picks count as demand only while it
  // is enabled, and rounds run only when RunPlacement is called.
  PlacementConfig config;
  config.enabled = true;
  config.min_picks = 3;
  config.max_targets_per_class = 2;
  sys.replicas().placement().set_config(config);

  // --- Phase 1: stores resolve ecatalog@any; every pick goes to HQ
  // (the only member) and the demand table fills up.
  Evaluator ev(&sys, EvalOptions{.pick_policy = PickPolicy::kCacheAware});
  sys.network().mutable_stats()->Reset();
  for (int round = 0; round < 4; ++round) {
    for (PeerId store : {east, west}) {
      auto out = ev.Eval(store, Expr::GenericDoc("ecatalog"));
      if (!out.ok()) {
        std::fprintf(stderr, "%s\n", out.status().ToString().c_str());
        return 1;
      }
    }
  }
  std::printf("before placement: %.1f KB over the WAN for 8 reads\n",
              sys.network().stats().remote_bytes() / 1024.0);
  std::printf("demand: east=%llu west=%llu north=%llu picks\n\n",
              (unsigned long long)sys.generics().DocumentPickDemand(
                  "ecatalog", east),
              (unsigned long long)sys.generics().DocumentPickDemand(
                  "ecatalog", west),
              (unsigned long long)sys.generics().DocumentPickDemand(
                  "ecatalog", north));

  // --- Phase 2: one placement round seeds the hot catalog at its top
  // pickers; the copies land, install, and advertise as class members.
  size_t started = sys.replicas().RunPlacement();
  sys.RunToQuiescence();
  std::printf("placement round: %zu shipments, stats: %s\n\n", started,
              sys.replicas().placement_stats().ToString().c_str());

  // --- Phase 3: the same reads again — seeded stores pick their own
  // advertised copy and read it for free.
  sys.network().mutable_stats()->Reset();
  for (int round = 0; round < 4; ++round) {
    for (PeerId store : {east, west}) {
      (void)ev.Eval(store, Expr::GenericDoc("ecatalog"));
    }
  }
  std::printf("after placement: %.1f KB over the WAN for 8 reads\n\n",
              sys.network().stats().remote_bytes() / 1024.0);

  // --- Phase 4: cost-aware eviction. East's cache also absorbs regional
  // documents; with a tight budget, LRU would shed the HQ copy on the
  // next burst — the cost-aware policy sheds cheap-to-refetch regional
  // copies instead.
  sys.replicas().set_default_eviction_policy(EvictionPolicy::kCostAware);
  const TransferCache* cache = sys.replicas().FindCache(east);
  if (cache != nullptr) {
    uint64_t hq_bytes = cache->resident_bytes();
    TransferCache* east_cache = sys.replicas().CacheFor(east);
    east_cache->set_byte_budget(hq_bytes + 3000);
    for (int i = 0; i < 6; ++i) {
      DocName name = StrCat("regional", i);
      // Distinct content per document — identical trees would dedup into
      // one shared blob and never pressure the budget.
      (void)sys.InstallDocument(
          west, name,
          MakeCatalogDoc(StrCat("loc", i, "-").c_str(), 12,
                         sys.peer(west)->gen()));
      Evaluator reader(&sys, EvalOptions{.use_replica_cache = true});
      (void)reader.Eval(east, Expr::Doc(name, west));
    }
    std::printf("east cache after the regional burst: %s\n",
                east_cache->stats().ToString().c_str());
    std::printf("HQ copy still resident at east: %s\n",
                sys.replicas().HasFresh(east, hq, "catalog") ? "yes"
                                                             : "no");
  }
  return 0;
}
