// Fault tolerance in the replica layer: leased subscriptions,
// anti-entropy reconciliation, peer crash/rejoin churn, the catch-up
// attempt cap, and placement demand restoration on wasted shipments.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/rng.h"
#include "net/fault_injector.h"
#include "peer/system.h"
#include "replica/replica_manager.h"
#include "test_util.h"
#include "xml/tree_equal.h"
#include "xml/wire.h"

namespace axml {
namespace {

TreePtr BigDoc(const std::string& tag, int rev, int filler, NodeIdGen* gen) {
  TreePtr root = TreeNode::Element("doc", gen);
  root->AddChild(MakeTextElement("id", StrCat(tag, "#", rev), gen));
  for (int i = 0; i < filler; ++i) {
    root->AddChild(MakeTextElement("x", StrCat(tag, "-", rev, "-", i), gen));
  }
  return root;
}

// Installs `d` at the origin and materializes a fresh copy at the
// reader, subscribed under its exact keys.
struct Pair {
  AxmlSystem sys;
  PeerId origin;
  PeerId reader;

  explicit Pair(RefreshPolicy refresh,
                Topology topology = Topology(LinkParams{0.01, 1e6}))
      : sys(std::move(topology)) {
    origin = sys.AddPeer("origin");
    reader = sys.AddPeer("reader");
    sys.replicas().set_refresh_policy(refresh);
    NodeIdGen* gen = sys.peer(origin)->gen();
    EXPECT_TRUE(sys.InstallDocument(origin, "d", BigDoc("d", 1, 4, gen)).ok());
  }

  bool CacheCopy() {
    TreePtr truth = sys.peer(origin)->GetDocument("d");
    return sys.replicas().InsertCopy(reader, origin, "d",
                                     truth->Clone(sys.peer(reader)->gen()),
                                     sys.replicas().Version(origin, "d"),
                                     wire::EncodeTree(*truth));
  }

  void Mutate(int rev) {
    Peer* host = sys.peer(origin);
    host->PutDocument("d", BigDoc("d", rev, 4, host->gen()));
  }
};

// --- Satellite: catch-up chains are capped (sustained mutation) ---

TEST(CatchupCapTest, SustainedMutationExhaustsTheChainAndFallsBackToLazy) {
  // A slow WAN link: each refresh shipment spends ~0.15 s on the wire.
  Pair p(RefreshPolicy::kEagerRefresh, Topology(LinkParams{0.1, 1e4}));
  ASSERT_TRUE(p.CacheCopy());
  ASSERT_TRUE(p.sys.replicas().HasFresh(p.reader, p.origin, "d"));

  // Mutations every 0.04 s for 1.2 s: every landing is overtaken
  // mid-flight, so an unbounded catch-up chain would ship forever
  // without ever landing fresh.
  for (int i = 0; i < 30; ++i) {
    p.sys.loop().ScheduleAt(0.04 * (i + 1),
                            [&p, i] { p.Mutate(/*rev=*/i + 2); });
  }
  p.sys.RunToQuiescence();

  const SubscriptionStats& ss = p.sys.replicas().subscription_stats();
  EXPECT_GT(ss.catchup_exhausted, 0u)
      << "the chain never hit its cap: " << ss.ToString();
  // The cap bounds each chain at kMaxCatchupAttempts shipments, so the
  // catch-up retries stay well under the 30 mutations that provoked
  // them (pre-fix the chain replayed once per mutation).
  EXPECT_LT(ss.retries, 30u);
  // Past the cap the holder fell back to lazy: no flight interest, no
  // stale copy left serving.
  EXPECT_FALSE(p.sys.replicas().subscriptions().IsSubscribed(
      ReplicaKey{p.origin, "d"}, p.reader));
  EXPECT_FALSE(p.sys.replicas().HasFresh(p.reader, p.origin, "d"));

  // The fallback is lazy, not terminal: a quiet origin re-caches fine.
  ASSERT_TRUE(p.CacheCopy());
  p.sys.RunToQuiescence();
  EXPECT_TRUE(p.sys.replicas().HasFresh(p.reader, p.origin, "d"));
}

// --- Satellite: wasted placement shipments restore half their demand ---

TEST(PlacementDemandTest, WastedShipmentRestoresHalfTheDrainedDemand) {
  // kLazy: the mid-flight mutation below bumps the version without
  // pushing, so the placement seed lands stale and is refused.
  Pair p(RefreshPolicy::kLazy);
  PlacementConfig cfg;
  cfg.enabled = true;
  cfg.min_picks = 2;
  p.sys.replicas().placement().set_config(cfg);
  p.sys.generics().AddDocumentMember("cls_d", ClassMember{"d", p.origin});

  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(p.sys.generics()
                    .PickDocument("cls_d", p.reader, PickPolicy::kNearest,
                                  p.sys.network(), 64)
                    .ok());
  }
  ASSERT_EQ(p.sys.generics().DocumentPickDemand("cls_d", p.reader), 4u);

  ASSERT_EQ(p.sys.replicas().RunPlacement(), 1u);
  // The launch drained the demand that earned it...
  EXPECT_EQ(p.sys.generics().DocumentPickDemand("cls_d", p.reader), 0u);
  // ...and the origin moves on while the seed is on the wire.
  p.Mutate(/*rev=*/2);
  p.sys.RunToQuiescence();

  EXPECT_EQ(p.sys.replicas().placement_stats().wasted, 1u);
  // Half the drained demand came back: the picks were real, but a
  // permanently failing seed must decay instead of replaying forever.
  EXPECT_EQ(p.sys.generics().DocumentPickDemand("cls_d", p.reader), 2u);
  EXPECT_FALSE(p.sys.replicas().HasFresh(p.reader, p.origin, "d"));
}

// --- Satellite: stale / late notifications are tolerated no-ops ---

TEST(LateNotifyTest, NotifyLandingAfterTheCopyWasDroppedIsANoOp) {
  Pair p(RefreshPolicy::kDrop);
  ASSERT_TRUE(p.CacheCopy());
  // The push drop is synchronous; the wire notify lands later at a
  // holder that has nothing left from this origin. Tolerated, no abort,
  // and nothing counted as a repair.
  p.Mutate(/*rev=*/2);
  EXPECT_FALSE(p.sys.replicas().HasFresh(p.reader, p.origin, "d"));
  p.sys.RunToQuiescence();
  EXPECT_EQ(p.sys.replicas().subscription_stats().notify_repairs, 0u);
}

TEST(LateNotifyTest, LateNotifyAgainstAStaleResidentCopyRepairsIt) {
  // Simulate the lossy-fabric ordering the perfect fabric never shows:
  // a holder still has a stale resident copy when a notification
  // arrives (e.g. the synchronous drop was lost to a crash the origin
  // never saw). kLazy leaves the copy stale-but-resident; delivering
  // the notification by hand must repair exactly that copy.
  Pair p(RefreshPolicy::kLazy);
  ASSERT_TRUE(p.CacheCopy());
  p.Mutate(/*rev=*/2);
  ASSERT_FALSE(p.sys.replicas().HasFresh(p.reader, p.origin, "d"));
  const TransferCache* cache = p.sys.replicas().FindCache(p.reader);
  ASSERT_NE(cache, nullptr);
  ASSERT_EQ(cache->Keys().size(), 1u);  // stale but resident

  p.sys.replicas().OnNotifyDelivered(p.origin, p.reader);
  EXPECT_EQ(p.sys.replicas().subscription_stats().notify_repairs, 1u);
  // Nothing is left resident, so the emptied cache is forgotten.
  EXPECT_EQ(p.sys.replicas().FindCache(p.reader), nullptr);
  // Idempotent: a second late notify finds nothing.
  p.sys.replicas().OnNotifyDelivered(p.origin, p.reader);
  EXPECT_EQ(p.sys.replicas().subscription_stats().notify_repairs, 1u);
}

// --- Peer crash / rejoin ---

TEST(ChurnTest, LoseCacheCrashRetractsEverythingAndRejoinStartsClean) {
  Pair p(RefreshPolicy::kDrop);
  ASSERT_TRUE(p.CacheCopy());
  ASSERT_TRUE(p.sys.catalog()->IsAdvertised(ResourceKind::kDocument, "d",
                                            p.reader));

  p.sys.CrashPeer(p.reader, CrashMode::kLoseCache);
  EXPECT_FALSE(p.sys.IsPeerUp(p.reader));
  // The cache died with the process: nothing resident (an emptied
  // cache is forgotten), nothing advertised, nothing subscribed.
  EXPECT_EQ(p.sys.replicas().FindCache(p.reader), nullptr);
  EXPECT_FALSE(p.sys.catalog()->IsAdvertised(ResourceKind::kDocument, "d",
                                             p.reader));
  EXPECT_EQ(p.sys.replicas().subscriptions().subscription_count(), 0u);

  p.sys.RejoinPeer(p.reader);
  EXPECT_TRUE(p.sys.IsPeerUp(p.reader));
  // A clean rejoin re-caches on demand.
  ASSERT_TRUE(p.CacheCopy());
  EXPECT_TRUE(p.sys.replicas().HasFresh(p.reader, p.origin, "d"));
}

TEST(ChurnTest, DurableCrashKeepsTheCacheButNeverAdvertisesWhileDown) {
  Pair p(RefreshPolicy::kDrop);
  ASSERT_TRUE(p.CacheCopy());

  p.sys.CrashPeer(p.reader, CrashMode::kDurableCache);
  const TransferCache* cache = p.sys.replicas().FindCache(p.reader);
  ASSERT_NE(cache, nullptr);
  EXPECT_EQ(cache->Keys().size(), 1u);  // the bytes survived on disk
  // ...but a down peer is never routable: no advertisement remains.
  EXPECT_FALSE(p.sys.catalog()->IsAdvertised(ResourceKind::kDocument, "d",
                                             p.reader));

  // Rejoin at an unchanged origin: reconciliation finds the copy fresh
  // and re-installs + re-advertises it without any wire transfer.
  p.sys.RejoinPeer(p.reader);
  p.sys.RunToQuiescence();
  EXPECT_TRUE(p.sys.replicas().HasFresh(p.reader, p.origin, "d"));
  EXPECT_TRUE(p.sys.catalog()->IsAdvertised(ResourceKind::kDocument, "d",
                                            p.reader));
}

TEST(ChurnTest, RejoinAtANewerVersionReconcilesBeforeServing) {
  Pair p(RefreshPolicy::kDrop);
  ASSERT_TRUE(p.CacheCopy());

  p.sys.CrashPeer(p.reader, CrashMode::kDurableCache);
  // The origin moves on while the holder is down: the mutation fan-out
  // skips the unreachable cache (counted), leaving it stale on disk.
  p.Mutate(/*rev=*/2);
  p.sys.RunToQuiescence();
  EXPECT_GT(p.sys.replicas().subscription_stats().down_skips, 0u);

  p.sys.RejoinPeer(p.reader);
  p.sys.RunToQuiescence();
  // Rejoin-time reconciliation dropped the stale survivor before the
  // peer could serve it.
  EXPECT_GT(p.sys.replicas().subscription_stats().sweep_repairs, 0u);
  EXPECT_FALSE(p.sys.replicas().HasFresh(p.reader, p.origin, "d"));
  EXPECT_FALSE(p.sys.catalog()->IsAdvertised(ResourceKind::kDocument, "d",
                                             p.reader));
}

// --- Leases ---

TEST(LeaseTest, RenewalsKeepALiveHolderSubscribed) {
  Pair p(RefreshPolicy::kDrop);
  ASSERT_TRUE(p.CacheCopy());
  p.sys.replicas().ConfigureLeases(/*renew_interval_s=*/0.5, /*ttl_s=*/2.0);
  // Activity carries virtual time across many renew intervals.
  for (int i = 1; i <= 10; ++i) {
    p.sys.loop().ScheduleAt(0.5 * i, [] {});
  }
  p.sys.RunToQuiescence();
  const SubscriptionStats& ss = p.sys.replicas().subscription_stats();
  EXPECT_GT(ss.lease_renewals, 0u);
  EXPECT_EQ(ss.lease_expiries, 0u);
  EXPECT_TRUE(p.sys.replicas().HasFresh(p.reader, p.origin, "d"));
  p.sys.replicas().ConfigureLeases(0, 0);
}

TEST(LeaseTest, ACrashedHolderExpiresOriginSideOnly) {
  Pair p(RefreshPolicy::kDrop);
  ASSERT_TRUE(p.CacheCopy());
  p.sys.replicas().ConfigureLeases(/*renew_interval_s=*/0.5, /*ttl_s=*/2.0);
  p.sys.CrashPeer(p.reader, CrashMode::kDurableCache);
  for (int i = 1; i <= 10; ++i) {
    p.sys.loop().ScheduleAt(0.5 * i, [] {});
  }
  p.sys.RunToQuiescence();
  const SubscriptionStats& ss = p.sys.replicas().subscription_stats();
  // The silent holder's lease lapsed: the origin forgot it...
  EXPECT_GT(ss.lease_expiries, 0u);
  EXPECT_EQ(p.sys.replicas().subscriptions().subscription_count(), 0u);
  // ...but its unreachable durable cache is untouched until rejoin.
  const TransferCache* cache = p.sys.replicas().FindCache(p.reader);
  ASSERT_NE(cache, nullptr);
  EXPECT_EQ(cache->Keys().size(), 1u);

  // Rejoin reconciles (fresh here: re-install) and the next lease tick
  // re-subscribes the resident copy.
  p.sys.RejoinPeer(p.reader);
  p.sys.loop().ScheduleAfter(0.6, [] {});
  p.sys.RunToQuiescence();
  EXPECT_TRUE(p.sys.replicas().HasFresh(p.reader, p.origin, "d"));
  EXPECT_TRUE(p.sys.replicas().subscriptions().IsSubscribed(
      ReplicaKey{p.origin, "d"}, p.reader));
  p.sys.replicas().ConfigureLeases(0, 0);
}

TEST(LeaseTest, AnUnrenewableUpHolderSelfInvalidates) {
  // A partition the origin can see through is indistinguishable from a
  // crash origin-side; the holder-side half of the lease contract is
  // that an up holder which cannot renew stops serving its copies.
  Pair p(RefreshPolicy::kDrop);
  ASSERT_TRUE(p.CacheCopy());
  Rng rng(1);
  FaultInjector inj(&rng);
  PartitionWindow w;
  w.start_s = 0.0;
  w.end_s = 30.0;  // outlives the lease TTL by far
  w.island = {p.reader};
  inj.AddPartition(w);
  p.sys.network().set_fault_injector(&inj);
  p.sys.replicas().ConfigureLeases(/*renew_interval_s=*/0.5, /*ttl_s=*/2.0);
  for (int i = 1; i <= 10; ++i) {
    p.sys.loop().ScheduleAt(0.5 * i, [] {});
  }
  p.sys.RunToQuiescence();
  EXPECT_GT(p.sys.replicas().subscription_stats().lease_expiries, 0u);
  // The lapsed copy dropped holder-side too: a partitioned-but-alive
  // holder never serves content its origin no longer vouches for.
  EXPECT_FALSE(p.sys.replicas().HasFresh(p.reader, p.origin, "d"));
  EXPECT_FALSE(p.sys.catalog()->IsAdvertised(ResourceKind::kDocument, "d",
                                             p.reader));
  p.sys.replicas().ConfigureLeases(0, 0);
  p.sys.network().set_fault_injector(nullptr);
}

// --- Anti-entropy sweep ---

TEST(AntiEntropyTest, SweepDropsStaleSurvivorsAndChargesDigestTraffic) {
  Pair p(RefreshPolicy::kLazy);  // lazy: stale copies linger by design
  ASSERT_TRUE(p.CacheCopy());
  p.Mutate(/*rev=*/2);
  ASSERT_FALSE(p.sys.replicas().HasFresh(p.reader, p.origin, "d"));

  const uint64_t control_before = p.sys.network().stats().control_messages();
  EXPECT_EQ(p.sys.replicas().RunAntiEntropySweep(), 1u);
  p.sys.RunToQuiescence();
  EXPECT_GT(p.sys.replicas().subscription_stats().sweep_repairs, 0u);
  // The digest comparison is not free: one control roundtrip per
  // (holder, origin) pair compared.
  EXPECT_GT(p.sys.network().stats().control_messages(), control_before);
  // Nothing is left resident, so the emptied cache is forgotten.
  EXPECT_EQ(p.sys.replicas().FindCache(p.reader), nullptr);
  // A second sweep over the now-clean cache repairs nothing.
  EXPECT_EQ(p.sys.replicas().RunAntiEntropySweep(), 0u);
}

TEST(AntiEntropyTest, PeriodicSweepRidesTheEventLoop) {
  Pair p(RefreshPolicy::kLazy);
  ASSERT_TRUE(p.CacheCopy());
  p.sys.replicas().set_anti_entropy_interval(1.0);
  p.Mutate(/*rev=*/2);
  // Activity past the interval fires the sweep.
  p.sys.loop().ScheduleAfter(1.5, [] {});
  p.sys.RunToQuiescence();
  EXPECT_GT(p.sys.replicas().subscription_stats().sweep_repairs, 0u);
  p.sys.replicas().set_anti_entropy_interval(0);
}

}  // namespace
}  // namespace axml
