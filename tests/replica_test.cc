// Tests for the replica & transfer-cache subsystem (src/replica/):
// content digests, the byte-budgeted LRU with blob dedup, versioned
// invalidation wired through Peer mutations, catalog-advertised copies
// serving d@any, and the cache-aware optimizer integration.

#include <gtest/gtest.h>

#include "algebra/evaluator.h"
#include "common/rng.h"
#include "net/catalog.h"
#include "opt/optimizer.h"
#include "xml/digest.h"
#include "replica/replica_manager.h"
#include "replica/transfer_cache.h"
#include "test_util.h"
#include "xml/tree_equal.h"
#include "xml/wire.h"

namespace axml {
namespace {

using testing::MakeCatalog;
using testing::ResultsEqual;

TreePtr Leafy(const char* label, const char* text, NodeIdGen* gen) {
  return MakeTextElement(label, text, gen);
}

// --- ContentDigest ---

TEST(DigestTest, UnorderedEqualTreesDigestEqual) {
  NodeIdGen g1, g2;
  TreePtr a = MakeElement("r", {Leafy("x", "1", &g1), Leafy("y", "2", &g1)},
                          &g1);
  // Same content, different sibling order and different node ids.
  TreePtr b = MakeElement("r", {Leafy("y", "2", &g2), Leafy("x", "1", &g2)},
                          &g2);
  EXPECT_EQ(DigestOf(*a), DigestOf(*b));
  EXPECT_EQ(DigestOf(*a).ToString(), DigestOf(*b).ToString());
}

TEST(DigestTest, DifferentContentDigestsDiffer) {
  NodeIdGen gen;
  TreePtr a = Leafy("x", "1", &gen);
  TreePtr b = Leafy("x", "2", &gen);
  EXPECT_NE(DigestOf(*a), DigestOf(*b));
}

// --- TransferCache (unit) ---

TEST(TransferCacheTest, HitAfterPutAndVersionedInvalidation) {
  TransferCache cache(1 << 20);
  NodeIdGen gen;
  TreePtr t = Leafy("d", "payload", &gen);
  ReplicaKey key{PeerId(1), "d"};
  ASSERT_TRUE(cache.Put(key, wire::EncodeTree(*t), DigestOf(*t),
                        /*origin_version=*/3));

  EncodedBlob hit = cache.Get(key, 3);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(*hit, wire::EncodeTree(*t));
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().bytes_saved, wire::EncodedTreeSize(*t));

  // A version bump at the origin makes the copy stale: dropped on lookup.
  EXPECT_EQ(cache.Get(key, 4), nullptr);
  EXPECT_EQ(cache.stats().invalidations, 1u);
  EXPECT_EQ(cache.entry_count(), 0u);
  EXPECT_EQ(cache.resident_bytes(), 0u);
}

TEST(TransferCacheTest, LruEvictsAtByteBudget) {
  NodeIdGen gen;
  Rng rng(7);
  TreePtr t1 = MakeCatalog(8, &gen, &rng);
  TreePtr t2 = MakeCatalog(8, &gen, &rng);
  TreePtr t3 = MakeCatalog(8, &gen, &rng);
  // Budget holds two catalogs but not three.
  TransferCache cache(wire::EncodedTreeSize(*t1) +
                      wire::EncodedTreeSize(*t2) +
                      wire::EncodedTreeSize(*t3) / 2);

  ReplicaKey k1{PeerId(1), "d1"}, k2{PeerId(1), "d2"}, k3{PeerId(1), "d3"};
  ASSERT_TRUE(cache.Put(k1, wire::EncodeTree(*t1), DigestOf(*t1), 1));
  ASSERT_TRUE(cache.Put(k2, wire::EncodeTree(*t2), DigestOf(*t2), 1));
  // Touch k1 so k2 becomes least recently used.
  EXPECT_NE(cache.Get(k1, 1), nullptr);
  ASSERT_TRUE(cache.Put(k3, wire::EncodeTree(*t3), DigestOf(*t3), 1));

  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_NE(cache.Peek(k1), nullptr);
  EXPECT_EQ(cache.Peek(k2), nullptr);  // the LRU victim
  EXPECT_NE(cache.Peek(k3), nullptr);
  EXPECT_LE(cache.resident_bytes(), cache.byte_budget());
}

TEST(TransferCacheTest, OverBudgetTreeIsRefused) {
  NodeIdGen gen;
  Rng rng(7);
  TreePtr big = MakeCatalog(64, &gen, &rng);
  TransferCache cache(wire::EncodedTreeSize(*big) - 1);
  EXPECT_FALSE(
      cache.Put(ReplicaKey{PeerId(0), "big"},
                wire::EncodeTree(*big), DigestOf(*big), 1));
  EXPECT_EQ(cache.entry_count(), 0u);
}

TEST(TransferCacheTest, IdenticalContentSharesOneBlob) {
  NodeIdGen g1, g2;
  Rng r1(42), r2(42);  // same seed -> identical content, fresh node ids
  TreePtr a = MakeCatalog(16, &g1, &r1);
  TreePtr b = MakeCatalog(16, &g2, &r2);
  ASSERT_TRUE(TreesEqualUnordered(*a, *b));

  TransferCache cache(1 << 20);
  cache.Put(ReplicaKey{PeerId(1), "d"}, wire::EncodeTree(*a), DigestOf(*a), 1);
  cache.Put(ReplicaKey{PeerId(2), "d"}, wire::EncodeTree(*b), DigestOf(*b), 1);

  EXPECT_EQ(cache.entry_count(), 2u);
  EXPECT_EQ(cache.blob_count(), 1u);  // content-addressed: one stored blob
  EXPECT_EQ(cache.resident_bytes(), wire::EncodedTreeSize(*a));
  EXPECT_EQ(cache.stats().bytes_deduped, wire::EncodedTreeSize(*b));
  // Both keys serve the shared blob.
  EXPECT_EQ(cache.Get(ReplicaKey{PeerId(1), "d"}, 1),
            cache.Get(ReplicaKey{PeerId(2), "d"}, 1));
}

TEST(TransferCacheTest, ShrinkingBudgetEvictsImmediately) {
  NodeIdGen gen;
  Rng rng(7);
  TransferCache cache(1 << 20);
  for (int i = 0; i < 4; ++i) {
    TreePtr t = MakeCatalog(8, &gen, &rng);
    cache.Put(ReplicaKey{PeerId(1), StrCat("d", i)},
              wire::EncodeTree(*t), DigestOf(*t), 1);
  }
  ASSERT_EQ(cache.entry_count(), 4u);
  cache.set_byte_budget(1);
  EXPECT_EQ(cache.entry_count(), 0u);
  EXPECT_EQ(cache.stats().evictions, 4u);
}

// --- ReplicaManager + evaluator integration ---

struct TwoPeers {
  AxmlSystem sys{Topology(LinkParams{0.050, 1.0e6})};
  PeerId origin, client;
  Query q;

  explicit TwoPeers(size_t n_products = 32) {
    origin = sys.AddPeer("origin");
    client = sys.AddPeer("client");
    Rng rng(13);
    TreePtr t = MakeCatalog(n_products, sys.peer(origin)->gen(), &rng);
    EXPECT_TRUE(sys.InstallDocument(origin, "d", t).ok());
    q = Query::Parse(
            "for $p in input(0)/catalog/product "
            "where $p/price < 900 return <r>{ $p/name }</r>")
            .value();
  }

  ExprPtr Read() const {
    return Expr::Apply(q, client, {Expr::Doc("d", origin)});
  }
};

EvalOptions CachingOptions() {
  EvalOptions opts;
  opts.use_replica_cache = true;
  return opts;
}

TEST(ReplicaManagerTest, RepeatedReadHitsCacheAndSkipsTheWire) {
  TwoPeers f;
  Evaluator ev(&f.sys, CachingOptions());

  f.sys.network().mutable_stats()->Reset();
  auto first = ev.Eval(f.client, f.Read());
  ASSERT_TRUE(first.ok());
  EXPECT_GT(f.sys.network().stats().remote_bytes(), 0u);

  // The transfer materialized a copy: advertised in the catalog and
  // installed as a local document.
  EXPECT_TRUE(f.sys.replicas().HasFresh(f.client, f.origin, "d"));
  EXPECT_TRUE(f.sys.replicas().IsCachedCopy(f.client, "d"));
  EXPECT_TRUE(f.sys.catalog()->IsAdvertised(ResourceKind::kDocument, "d",
                                            f.client));
  EXPECT_TRUE(f.sys.peer(f.client)->HasDocument("d"));

  // The second read is served locally: zero data bytes on the wire.
  f.sys.network().mutable_stats()->Reset();
  auto second = ev.Eval(f.client, f.Read());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(f.sys.network().stats().remote_bytes(), 0u);
  EXPECT_TRUE(ResultsEqual(first->results, second->results));

  const TransferCache* cache = f.sys.replicas().FindCache(f.client);
  ASSERT_NE(cache, nullptr);
  EXPECT_EQ(cache->stats().hits, 1u);
  // The cold read missed before the client had a cache; that miss is
  // tallied manager-side (LookupFresh must not allocate a cache for it).
  EXPECT_EQ(cache->stats().misses, 0u);
  EXPECT_EQ(f.sys.replicas().TotalStats().misses, 1u);
  EXPECT_GT(cache->stats().bytes_saved, 0u);
}

TEST(ReplicaManagerTest, ConcurrentReadsOfOneSourceCoalesceToOneTransfer) {
  TwoPeers f;
  Query join = Query::Parse(
                   "for $a in input(0)/catalog/product "
                   "for $b in input(1)/catalog/product "
                   "where $a/name = $b/name and $a/price < 500 "
                   "return <m>{ $a/name }</m>")
                   .value();
  ExprPtr shared = Expr::Doc("d", f.origin);
  ExprPtr e = Expr::Apply(join, f.client, {shared, shared});

  // Baseline: both inputs transfer.
  Evaluator plain(&f.sys);
  f.sys.network().mutable_stats()->Reset();
  auto base = plain.Eval(f.client, e);
  ASSERT_TRUE(base.ok());
  const uint64_t both = f.sys.network().stats().remote_bytes();

  // Replica-aware: the second read joins the first's in-flight transfer —
  // rule (13)'s savings without the materialization step or the lost
  // parallelism.
  Evaluator caching(&f.sys, CachingOptions());
  f.sys.replicas().DropAllCopies();
  f.sys.network().mutable_stats()->Reset();
  auto coalesced = caching.Eval(f.client, e);
  ASSERT_TRUE(coalesced.ok());
  EXPECT_EQ(f.sys.network().stats().remote_bytes(), both / 2);
  EXPECT_TRUE(ResultsEqual(base->results, coalesced->results));

  const TransferCache* cache = f.sys.replicas().FindCache(f.client);
  ASSERT_NE(cache, nullptr);
  EXPECT_EQ(cache->stats().hits, 1u);  // the coalesced reader
  EXPECT_GT(cache->stats().bytes_saved, 0u);
}

TEST(ReplicaManagerTest, OriginMutationInvalidatesOnNextLookup) {
  TwoPeers f;
  Evaluator ev(&f.sys, CachingOptions());
  ASSERT_TRUE(ev.Eval(f.client, f.Read()).ok());
  ASSERT_TRUE(f.sys.replicas().HasFresh(f.client, f.origin, "d"));

  // Rewrite the document at the origin: the version bumps, the copy
  // goes stale.
  Rng rng(99);
  f.sys.peer(f.origin)->PutDocument(
      "d", MakeCatalog(8, f.sys.peer(f.origin)->gen(), &rng));
  EXPECT_FALSE(f.sys.replicas().HasFresh(f.client, f.origin, "d"));

  // The next read drops the stale copy and transfers the new content.
  f.sys.network().mutable_stats()->Reset();
  auto fresh = ev.Eval(f.client, f.Read());
  ASSERT_TRUE(fresh.ok());
  EXPECT_GT(f.sys.network().stats().remote_bytes(), 0u);
  EXPECT_LE(fresh->results.size(), 8u);  // the new, smaller document

  const TransferCache* cache = f.sys.replicas().FindCache(f.client);
  ASSERT_NE(cache, nullptr);
  EXPECT_GE(cache->stats().invalidations, 1u);
  // Re-cached at the new version.
  EXPECT_TRUE(f.sys.replicas().HasFresh(f.client, f.origin, "d"));
}

TEST(ReplicaManagerTest, AppendUnderNodeBumpsTheVersionToo) {
  TwoPeers f;
  Evaluator ev(&f.sys, CachingOptions());
  ASSERT_TRUE(ev.Eval(f.client, f.Read()).ok());
  ASSERT_TRUE(f.sys.replicas().HasFresh(f.client, f.origin, "d"));

  Peer* origin = f.sys.peer(f.origin);
  NodeId root_id = origin->GetDocument("d")->id();
  ASSERT_TRUE(origin
                  ->AppendUnderNode(root_id,
                                    Leafy("product", "late", origin->gen()))
                  .ok());
  EXPECT_FALSE(f.sys.replicas().HasFresh(f.client, f.origin, "d"));
}

TEST(ReplicaManagerTest, StaleDropRetractsAllAdvertisements) {
  TwoPeers f;
  f.sys.generics().AddDocumentMember("ed", ClassMember{"d", f.origin});
  Evaluator ev(&f.sys, CachingOptions());
  ASSERT_TRUE(ev.Eval(f.client, f.Read()).ok());

  // The copy joined the origin's equivalence class.
  const auto* members = f.sys.generics().DocumentMembers("ed");
  ASSERT_NE(members, nullptr);
  EXPECT_EQ(members->size(), 2u);

  // Stale it, then force the drop via a lookup.
  Rng rng(5);
  f.sys.peer(f.origin)->PutDocument(
      "d", MakeCatalog(4, f.sys.peer(f.origin)->gen(), &rng));
  EXPECT_EQ(f.sys.replicas().LookupFresh(f.client, f.origin, "d"), nullptr);

  EXPECT_FALSE(f.sys.replicas().IsCachedCopy(f.client, "d"));
  EXPECT_FALSE(f.sys.peer(f.client)->HasDocument("d"));
  EXPECT_FALSE(f.sys.catalog()->IsAdvertised(ResourceKind::kDocument, "d",
                                             f.client));
  members = f.sys.generics().DocumentMembers("ed");
  ASSERT_NE(members, nullptr);
  EXPECT_EQ(members->size(), 1u);  // only the durable origin remains
}

TEST(ReplicaManagerTest, LruEvictionRetractsAdvertisements) {
  TwoPeers f;
  Rng rng(21);
  TreePtr second = MakeCatalog(32, f.sys.peer(f.origin)->gen(), &rng);
  ASSERT_TRUE(f.sys.InstallDocument(f.origin, "d2", second).ok());
  // Budget fits one catalog only; set before the client's cache exists.
  f.sys.replicas().set_default_byte_budget(second->SerializedSize() + 64);

  Evaluator ev(&f.sys, CachingOptions());
  ASSERT_TRUE(ev.Eval(f.client, f.Read()).ok());
  ASSERT_TRUE(f.sys.replicas().IsCachedCopy(f.client, "d"));

  ExprPtr read2 = Expr::Apply(f.q, f.client, {Expr::Doc("d2", f.origin)});
  ASSERT_TRUE(ev.Eval(f.client, read2).ok());

  // Caching d2 evicted d over the byte budget; its advertisements went
  // with it.
  EXPECT_TRUE(f.sys.replicas().IsCachedCopy(f.client, "d2"));
  EXPECT_FALSE(f.sys.replicas().IsCachedCopy(f.client, "d"));
  EXPECT_FALSE(f.sys.peer(f.client)->HasDocument("d"));
  EXPECT_FALSE(f.sys.catalog()->IsAdvertised(ResourceKind::kDocument, "d",
                                             f.client));
}

TEST(ReplicaManagerTest, MidFlightMutationIsNotCachedAsFresh) {
  TwoPeers f;
  Evaluator ev(&f.sys, CachingOptions());
  ASSERT_TRUE(ev.Deploy(f.client, f.Read(), [](TreePtr) {}).ok());
  // The origin rewrites the document while the copy is on the wire
  // (link latency is 50ms; fire mid-transfer).
  f.sys.loop().ScheduleAfter(0.001, [&f] {
    Rng rng(55);
    f.sys.peer(f.origin)->PutDocument(
        "d", MakeCatalog(4, f.sys.peer(f.origin)->gen(), &rng));
  });
  ev.RunToQuiescence();
  // The landed tree is a pre-mutation snapshot; it must not be branded
  // fresh at the post-mutation version.
  EXPECT_FALSE(f.sys.replicas().HasFresh(f.client, f.origin, "d"));
  EXPECT_FALSE(f.sys.replicas().IsCachedCopy(f.client, "d"));
}

TEST(ReplicaManagerTest, RemovingAnInstalledCopyRetractsTheCatalogEntry) {
  TwoPeers f;
  Evaluator ev(&f.sys, CachingOptions());
  ASSERT_TRUE(ev.Eval(f.client, f.Read()).ok());
  ASSERT_TRUE(f.sys.catalog()->IsAdvertised(ResourceKind::kDocument, "d",
                                            f.client));

  // Client code removes the installed copy directly: no phantom holder
  // may stay behind in the catalog.
  ASSERT_TRUE(f.sys.peer(f.client)->RemoveDocument("d").ok());
  EXPECT_FALSE(f.sys.replicas().IsCachedCopy(f.client, "d"));
  EXPECT_FALSE(f.sys.catalog()->IsAdvertised(ResourceKind::kDocument, "d",
                                             f.client));
}

TEST(ReplicaManagerTest, CacheBlobIsIsolatedFromTheInstalledDocument) {
  TwoPeers f;
  Evaluator ev(&f.sys, CachingOptions());
  ASSERT_TRUE(ev.Eval(f.client, f.Read()).ok());
  TreePtr blob = testing::DecodeBlob(
      f.sys.replicas().LookupFresh(f.client, f.origin, "d"));
  ASSERT_NE(blob, nullptr);
  const std::string pristine = CanonicalForm(*blob);

  // Mutate the installed document's tree directly (no listener fires for
  // raw tree edits): the content-addressed blob must be unaffected.
  TreePtr installed = f.sys.peer(f.client)->GetDocument("d");
  ASSERT_NE(installed, nullptr);
  EXPECT_NE(installed, blob);
  installed->AddChild(
      Leafy("graffiti", "x", f.sys.peer(f.client)->gen()));
  EXPECT_EQ(CanonicalForm(
                *testing::DecodeBlob(f.sys.replicas().LookupFresh(
                    f.client, f.origin, "d"))),
            pristine);
}

TEST(ReplicaManagerTest, DurableWriteOntoCopySlotPromotesIt) {
  TwoPeers f;
  Evaluator ev(&f.sys, CachingOptions());
  ASSERT_TRUE(ev.Eval(f.client, f.Read()).ok());
  ASSERT_TRUE(f.sys.replicas().IsCachedCopy(f.client, "d"));

  // The client writes its own document over the copy's name: the slot is
  // promoted — the document stays, the cache entry goes.
  Peer* client = f.sys.peer(f.client);
  TreePtr own = Leafy("mine", "1", client->gen());
  client->PutDocument("d", own);

  EXPECT_FALSE(f.sys.replicas().IsCachedCopy(f.client, "d"));
  EXPECT_EQ(client->GetDocument("d"), own);
  EXPECT_FALSE(f.sys.replicas().HasFresh(f.client, f.origin, "d"));
}

// --- Push-based refresh (SubscriptionTable + RefreshPolicy) ---

// The acceptance property of the push layer: a mutation at the origin
// retracts every holder's copy and every advertisement *before* any
// subsequent lookup — the state is inspected right after the mutating
// call, with no read in between.
TEST(PushRefreshTest, MutationRetractsAdvertisementsBeforeAnyLookup) {
  TwoPeers f;
  ASSERT_EQ(f.sys.replicas().refresh_policy(), RefreshPolicy::kDrop);
  f.sys.generics().AddDocumentMember("ed", ClassMember{"d", f.origin});
  Evaluator ev(&f.sys, CachingOptions());
  ASSERT_TRUE(ev.Eval(f.client, f.Read()).ok());
  ASSERT_TRUE(f.sys.replicas().IsCachedCopy(f.client, "d"));
  ASSERT_EQ(f.sys.generics().DocumentMembers("ed")->size(), 2u);
  ASSERT_TRUE(f.sys.replicas().subscriptions().IsSubscribed(
      ReplicaKey{f.origin, "d"}, f.client));

  f.sys.network().mutable_stats()->Reset();
  Rng rng(17);
  f.sys.peer(f.origin)->PutDocument(
      "d", MakeCatalog(8, f.sys.peer(f.origin)->gen(), &rng));

  // No read happened since the mutation; everything is already gone.
  EXPECT_FALSE(f.sys.replicas().HasFresh(f.client, f.origin, "d"));
  EXPECT_FALSE(f.sys.replicas().IsCachedCopy(f.client, "d"));
  EXPECT_FALSE(f.sys.peer(f.client)->HasDocument("d"));
  EXPECT_FALSE(f.sys.catalog()->IsAdvertised(ResourceKind::kDocument, "d",
                                             f.client));
  EXPECT_EQ(f.sys.generics().DocumentMembers("ed")->size(), 1u);
  EXPECT_FALSE(f.sys.replicas().subscriptions().IsSubscribed(
      ReplicaKey{f.origin, "d"}, f.client));

  // The notification is accounted wire traffic, tallied apart, and
  // priced at exactly its encoded size (one key, whole-document).
  const SubscriptionStats& ss = f.sys.replicas().subscription_stats();
  EXPECT_EQ(ss.notifies, 1u);
  EXPECT_EQ(ss.drops, 1u);
  EXPECT_EQ(f.sys.network().stats().notify_messages(), 1u);
  wire::NotifyBatch expected{f.origin.index(), {{"d", ""}}};
  EXPECT_EQ(f.sys.network().stats().notify_bytes(),
            wire::EncodeNotifyBatch(expected).size());
}

TEST(PushRefreshTest, LazyPolicyKeepsTheStaleAdvertisementWindow) {
  // The baseline the push policies exist to close: under kLazy a stale
  // catalog entry survives the mutation until the next lookup.
  TwoPeers f;
  f.sys.replicas().set_refresh_policy(RefreshPolicy::kLazy);
  Evaluator ev(&f.sys, CachingOptions());
  ASSERT_TRUE(ev.Eval(f.client, f.Read()).ok());

  Rng rng(17);
  f.sys.peer(f.origin)->PutDocument(
      "d", MakeCatalog(8, f.sys.peer(f.origin)->gen(), &rng));

  // Stale advertisement still live...
  EXPECT_TRUE(f.sys.catalog()->IsAdvertised(ResourceKind::kDocument, "d",
                                            f.client));
  EXPECT_TRUE(f.sys.replicas().IsCachedCopy(f.client, "d"));
  EXPECT_EQ(f.sys.replicas().subscription_stats().notifies, 0u);
  // ...until the next lookup drops it.
  EXPECT_EQ(f.sys.replicas().LookupFresh(f.client, f.origin, "d"), nullptr);
  EXPECT_FALSE(f.sys.catalog()->IsAdvertised(ResourceKind::kDocument, "d",
                                             f.client));
}

TEST(PushRefreshTest, EagerRefreshRematerializesTheCopy) {
  TwoPeers f;
  f.sys.replicas().set_refresh_policy(RefreshPolicy::kEagerRefresh);
  Evaluator ev(&f.sys, CachingOptions());
  ASSERT_TRUE(ev.Eval(f.client, f.Read()).ok());

  Rng rng(17);
  f.sys.peer(f.origin)->PutDocument(
      "d", MakeCatalog(8, f.sys.peer(f.origin)->gen(), &rng));

  // Synchronously: stale copy gone, replacement on the wire.
  EXPECT_FALSE(f.sys.replicas().HasFresh(f.client, f.origin, "d"));
  EXPECT_TRUE(f.sys.replicas().IsRefreshInFlight(f.client, f.origin, "d"));
  EXPECT_TRUE(f.sys.replicas().ExpectedFresh(f.client, f.origin, "d"));

  f.sys.RunToQuiescence();

  // The copy re-materialized at the new version without any read.
  EXPECT_TRUE(f.sys.replicas().HasFresh(f.client, f.origin, "d"));
  EXPECT_FALSE(f.sys.replicas().IsRefreshInFlight(f.client, f.origin, "d"));
  TreePtr copy = testing::DecodeBlob(
      f.sys.replicas().LookupFresh(f.client, f.origin, "d"));
  ASSERT_NE(copy, nullptr);
  EXPECT_TRUE(
      TreesEqualUnordered(*copy, *f.sys.peer(f.origin)->GetDocument("d")));

  const SubscriptionStats& ss = f.sys.replicas().subscription_stats();
  EXPECT_EQ(ss.refreshes, 1u);
  EXPECT_GT(ss.refresh_bytes, 0u);

  // The next read is served locally: zero data bytes on the wire.
  f.sys.network().mutable_stats()->Reset();
  ASSERT_TRUE(ev.Eval(f.client, f.Read()).ok());
  EXPECT_EQ(f.sys.network().stats().remote_bytes(), 0u);
}

TEST(PushRefreshTest, BackToBackMutationsCoalesceOntoOneShipment) {
  TwoPeers f;
  f.sys.replicas().set_refresh_policy(RefreshPolicy::kEagerRefresh);
  Evaluator ev(&f.sys, CachingOptions());
  ASSERT_TRUE(ev.Eval(f.client, f.Read()).ok());

  // Two mutations before the first shipment can land: the second folds
  // into the in-flight one, whose landing check issues one catch-up.
  Rng rng(17);
  Peer* origin = f.sys.peer(f.origin);
  origin->PutDocument("d", MakeCatalog(8, origin->gen(), &rng));
  origin->PutDocument("d", MakeCatalog(6, origin->gen(), &rng));
  const SubscriptionStats& ss = f.sys.replicas().subscription_stats();
  EXPECT_EQ(ss.notifies, 2u);
  EXPECT_EQ(ss.coalesced, 1u);

  f.sys.RunToQuiescence();
  EXPECT_EQ(ss.retries, 1u);    // the first shipment landed stale
  EXPECT_EQ(ss.refreshes, 1u);  // only the catch-up materialized
  TreePtr copy = testing::DecodeBlob(
      f.sys.replicas().LookupFresh(f.client, f.origin, "d"));
  ASSERT_NE(copy, nullptr);
  EXPECT_TRUE(TreesEqualUnordered(*copy, *origin->GetDocument("d")));
}

TEST(PushRefreshTest, ReadRacingAnInFlightRefreshJoinsTheShipment) {
  // A read arriving while the push shipment is on the wire must wait
  // for it rather than start a second transfer of the same document.
  TwoPeers f;
  f.sys.replicas().set_refresh_policy(RefreshPolicy::kEagerRefresh);
  Evaluator ev(&f.sys, CachingOptions());
  ASSERT_TRUE(ev.Eval(f.client, f.Read()).ok());

  Rng rng(17);
  f.sys.peer(f.origin)->PutDocument(
      "d", MakeCatalog(8, f.sys.peer(f.origin)->gen(), &rng));
  ASSERT_TRUE(f.sys.replicas().IsRefreshInFlight(f.client, f.origin, "d"));

  // The notify and the refresh shipment were charged at mutation time;
  // from here a correct read adds zero wire bytes of its own.
  f.sys.network().mutable_stats()->Reset();
  auto out = ev.Eval(f.client, f.Read());
  ASSERT_TRUE(out.ok());
  EXPECT_LE(out->results.size(), 8u);  // the post-mutation content
  EXPECT_EQ(f.sys.network().stats().remote_bytes(), 0u);
  EXPECT_TRUE(f.sys.replicas().HasFresh(f.client, f.origin, "d"));
}

TEST(PushRefreshTest, RemovedDocumentPushesDropWithoutRefresh) {
  TwoPeers f;
  f.sys.replicas().set_refresh_policy(RefreshPolicy::kEagerRefresh);
  Evaluator ev(&f.sys, CachingOptions());
  ASSERT_TRUE(ev.Eval(f.client, f.Read()).ok());

  ASSERT_TRUE(f.sys.peer(f.origin)->RemoveDocument("d").ok());
  EXPECT_FALSE(f.sys.replicas().IsCachedCopy(f.client, "d"));
  EXPECT_FALSE(f.sys.replicas().IsRefreshInFlight(f.client, f.origin, "d"));
  EXPECT_EQ(f.sys.replicas().subscription_stats().refreshes, 0u);
  f.sys.RunToQuiescence();
  EXPECT_FALSE(f.sys.replicas().HasFresh(f.client, f.origin, "d"));
}

TEST(PushRefreshTest, TransitiveInvalidationCascadesThroughHolders) {
  // A's mutation drops B's installed copy, which is itself the origin of
  // C's copy — the cascade must retract C's state too, in the same call.
  AxmlSystem sys{Topology(LinkParams{0.010, 1.0e6})};
  PeerId a = sys.AddPeer("a"), b = sys.AddPeer("b"), c = sys.AddPeer("c");
  Rng rng(13);
  TreePtr t = MakeCatalog(16, sys.peer(a)->gen(), &rng);
  ASSERT_TRUE(sys.InstallDocument(a, "d", t).ok());
  Query q = Query::Parse(
                "for $p in input(0)/catalog/product "
                "return <r>{ $p/name }</r>")
                .value();

  Evaluator ev(&sys, CachingOptions());
  // B caches A's d (installed as a local document at B)...
  ASSERT_TRUE(ev.Eval(b, Expr::Apply(q, b, {Expr::Doc("d", a)})).ok());
  ASSERT_TRUE(sys.replicas().IsCachedCopy(b, "d"));
  // ...and C caches B's installed copy (origin = B).
  ASSERT_TRUE(ev.Eval(c, Expr::Apply(q, c, {Expr::Doc("d", b)})).ok());
  ASSERT_TRUE(sys.replicas().IsCachedCopy(c, "d"));

  Rng rng2(5);
  sys.peer(a)->PutDocument("d", MakeCatalog(4, sys.peer(a)->gen(), &rng2));

  // Both hops retracted synchronously, no read in between.
  EXPECT_FALSE(sys.replicas().IsCachedCopy(b, "d"));
  EXPECT_FALSE(sys.replicas().IsCachedCopy(c, "d"));
  EXPECT_FALSE(sys.peer(b)->HasDocument("d"));
  EXPECT_FALSE(sys.peer(c)->HasDocument("d"));
  EXPECT_FALSE(sys.catalog()->IsAdvertised(ResourceKind::kDocument, "d", b));
  EXPECT_FALSE(sys.catalog()->IsAdvertised(ResourceKind::kDocument, "d", c));
  EXPECT_EQ(sys.replicas().subscription_stats().drops, 2u);
}

TEST(PushRefreshTest, MultiClassCopyRetractsEveryClassOnMutation) {
  // Regression for the retraction loop: the copy belongs to several
  // generic classes, and removing members rewrites the registry's
  // reverse index while the retraction iterates the class list.
  TwoPeers f;
  f.sys.generics().AddDocumentMember("ed1", ClassMember{"d", f.origin});
  f.sys.generics().AddDocumentMember("ed2", ClassMember{"d", f.origin});
  f.sys.generics().AddDocumentMember("ed3", ClassMember{"d", f.origin});
  Evaluator ev(&f.sys, CachingOptions());
  ASSERT_TRUE(ev.Eval(f.client, f.Read()).ok());
  ASSERT_EQ(f.sys.generics().DocumentMembers("ed1")->size(), 2u);
  ASSERT_EQ(f.sys.generics().DocumentMembers("ed2")->size(), 2u);
  ASSERT_EQ(f.sys.generics().DocumentMembers("ed3")->size(), 2u);

  Rng rng(17);
  f.sys.peer(f.origin)->PutDocument(
      "d", MakeCatalog(8, f.sys.peer(f.origin)->gen(), &rng));

  EXPECT_EQ(f.sys.generics().DocumentMembers("ed1")->size(), 1u);
  EXPECT_EQ(f.sys.generics().DocumentMembers("ed2")->size(), 1u);
  EXPECT_EQ(f.sys.generics().DocumentMembers("ed3")->size(), 1u);
  const ClassMember copy{"d", f.client};
  EXPECT_TRUE(f.sys.generics().DocumentClassesOf(copy).empty());
}

TEST(PushRefreshTest, CostModelKeepsFreshAssumptionDuringEagerRefresh) {
  TwoPeers f;
  f.sys.replicas().set_refresh_policy(RefreshPolicy::kEagerRefresh);
  Evaluator ev(&f.sys, CachingOptions());
  ASSERT_TRUE(ev.Eval(f.client, f.Read()).ok());

  CostModel cache_aware(&f.sys, /*assume_replica_cache=*/true);
  ExprPtr read = f.Read();
  EXPECT_EQ(cache_aware.Estimate(f.client, read).remote_bytes, 0.0);

  // Mutation under eager refresh: the replacement is on the wire, so the
  // plan keeps pricing the read as local...
  Rng rng(17);
  f.sys.peer(f.origin)->PutDocument(
      "d", MakeCatalog(8, f.sys.peer(f.origin)->gen(), &rng));
  EXPECT_EQ(cache_aware.Estimate(f.client, read).remote_bytes, 0.0);

  // ...whereas under kDrop the same mutation decays it to a transfer.
  TwoPeers g;
  g.sys.replicas().set_refresh_policy(RefreshPolicy::kDrop);
  Evaluator gev(&g.sys, CachingOptions());
  ASSERT_TRUE(gev.Eval(g.client, g.Read()).ok());
  CostModel g_cost(&g.sys, /*assume_replica_cache=*/true);
  ExprPtr g_read = g.Read();
  EXPECT_EQ(g_cost.Estimate(g.client, g_read).remote_bytes, 0.0);
  Rng rng2(17);
  g.sys.peer(g.origin)->PutDocument(
      "d", MakeCatalog(8, g.sys.peer(g.origin)->gen(), &rng2));
  EXPECT_GT(g_cost.Estimate(g.client, g_read).remote_bytes, 0.0);
}

// --- Write-scoped retraction on the region-scoped Chord DHT ---

/// 16 peers in two regions of two racks (region 0 is p0-p7, region 1 is
/// p8-p15) on the Chord catalog. Document "d" is durable at `origin`
/// (rack 0) and at `durable_b` (rack 1, class "ed"); `copy_a` (rack 1)
/// and `copy_b` (rack 2) cache origin's d, one per region, and
/// `copy_of_copy` caches copy_b's, picked by d@any from rack 3. A read
/// served from the reader's own rack makes no copy, so copy_of_copy sits
/// in the one rack without a member, where copy_b, a region link away,
/// is its strictly nearest member (every other one is across the WAN).
/// No holder is a key owner of "d", so every digest they send crosses a
/// link.
struct RegionCopies {
  AxmlSystem sys{Topology::Hierarchical(Spec())};
  PeerId origin, durable_b, copy_a, copy_b, copy_of_copy;
  /// The key owner of "d" in each region.
  std::vector<PeerId> owners;
  Query q = Query::Parse("for $p in input(0)/catalog/product "
                         "return <r>{ $p/name }</r>")
                .value();
  Rng rng{13};

  static Topology::HierarchySpec Spec() {
    Topology::HierarchySpec spec;
    spec.regions = 2;
    spec.racks_per_region = 2;
    spec.peers_per_rack = 4;
    return spec;
  }

  /// `budget` > 0 caps every cache at that many bytes.
  explicit RegionCopies(RefreshPolicy policy, uint64_t budget = 0) {
    for (uint32_t i = 0; i < Spec().peer_count(); ++i) {
      sys.AddPeer(StrCat("p", i));
    }
    sys.SetCatalog(std::make_unique<ChordDhtCatalog>());
    sys.replicas().set_refresh_policy(policy);
    if (budget > 0) sys.replicas().set_default_byte_budget(budget);
    // A region owner answers its own lookup without a message.
    for (uint32_t i = 0; i < Spec().peer_count(); ++i) {
      if (sys.catalog()
              ->LookupNow(ResourceKind::kDocument, "d", PeerId(i),
                          sys.network())
              .messages == 0) {
        owners.push_back(PeerId(i));
      }
    }
    EXPECT_EQ(owners.size(), 2u);
    // The first non-owner peers of rack 0, rack 2 and rack 3, and two
    // of rack 1.
    auto free_in = [&](uint32_t first, size_t skip) {
      for (uint32_t i = first; i < first + 4; ++i) {
        if (std::count(owners.begin(), owners.end(), PeerId(i)) > 0) continue;
        if (skip-- == 0) return PeerId(i);
      }
      return PeerId::Invalid();
    };
    origin = free_in(0, 0);
    copy_a = free_in(4, 0);
    durable_b = free_in(4, 1);
    copy_b = free_in(8, 0);
    copy_of_copy = free_in(12, 0);

    TreePtr t = MakeCatalog(8, sys.peer(origin)->gen(), &rng);
    EXPECT_TRUE(
        sys.InstallReplicatedDocument("ed", "d", t, {origin, durable_b})
            .ok());
    Evaluator ev(&sys, CachingOptions());
    for (PeerId reader : {copy_a, copy_b}) {
      EXPECT_TRUE(
          ev.Eval(reader, Expr::Apply(q, reader, {Expr::Doc("d", origin)}))
              .ok());
    }
    EvalOptions any = CachingOptions();
    any.pick_policy = PickPolicy::kCacheAware;
    Evaluator any_ev(&sys, any);
    EXPECT_TRUE(any_ev
                    .Eval(copy_of_copy, Expr::Apply(q, copy_of_copy,
                                                    {Expr::GenericDoc("ed")}))
                    .ok());
    sys.RunToQuiescence();
  }

  /// A durable write of d at its origin.
  void Write() {
    sys.peer(origin)->PutDocument(
        "d", MakeCatalog(4, sys.peer(origin)->gen(), &rng));
    sys.RunToQuiescence();
  }

  bool Advertised(PeerId holder) {
    return sys.catalog()->IsAdvertised(ResourceKind::kDocument, "d", holder);
  }

  /// Starts recording the control messages (catalog traffic) sent from
  /// here on.
  void TraceControl() {
    sys.tracer().set_enabled(true);
    sys.tracer().Clear();
  }
  /// The (sender, receiver) of every control message since TraceControl,
  /// sorted.
  std::vector<std::pair<PeerId, PeerId>> ControlSent() const {
    std::vector<std::pair<PeerId, PeerId>> sent;
    for (const TraceSpan& s : sys.tracer().Events()) {
      if (s.category != "net" || s.name != "control") continue;
      // detail is "-> p<index>".
      sent.emplace_back(s.peer, PeerId(static_cast<uint32_t>(
                                    std::stoul(s.detail.substr(4)))));
    }
    std::sort(sent.begin(), sent.end());
    return sent;
  }
};

TEST(WriteRetractionTest, OneWriteSendsOneOriginDigestPerRegionOwner) {
  RegionCopies f(RefreshPolicy::kDrop);
  ASSERT_EQ(f.owners.size(), 2u);
  ASSERT_EQ(f.sys.network().topology().RegionOf(f.owners[0]), 0u);
  ASSERT_EQ(f.sys.network().topology().RegionOf(f.owners[1]), 1u);
  ASSERT_EQ(f.sys.replicas().InstalledOrigin(f.copy_a, "d"), f.origin);
  ASSERT_EQ(f.sys.replicas().InstalledOrigin(f.copy_b, "d"), f.origin);
  ASSERT_EQ(f.sys.replicas().InstalledOrigin(f.copy_of_copy, "d"), f.copy_b);
  for (PeerId copy : {f.copy_a, f.copy_b, f.copy_of_copy}) {
    ASSERT_TRUE(f.Advertised(copy)) << copy.ToString();
  }
  const CatalogStats before = f.sys.catalog()->stats();
  const uint64_t drops_before = f.sys.replicas().subscription_stats().drops;
  f.TraceControl();
  f.Write();

  // Copies live in both regions (region 1 holds a copy and a copy of
  // it), so the origin sends one flat digest to each region owner; the
  // three holders send nothing.
  const std::vector<std::pair<PeerId, PeerId>> expected = {
      {f.origin, f.owners[0]}, {f.origin, f.owners[1]}};
  EXPECT_EQ(f.ControlSent(), expected);
  const CatalogStats& after = f.sys.catalog()->stats();
  EXPECT_EQ(after.retract_messages - before.retract_messages, 2u);
  EXPECT_EQ(after.retract_bytes - before.retract_bytes,
            2 * kCatalogMsgBytes);
  EXPECT_EQ(after.advertise_messages, before.advertise_messages);
  EXPECT_EQ(after.advertise_deltas - before.advertise_deltas, 3u);
  EXPECT_EQ(f.sys.replicas().subscription_stats().drops - drops_before, 3u);

  // Every dropped copy is gone from the catalog; the durable entries
  // stay.
  for (PeerId copy : {f.copy_a, f.copy_b, f.copy_of_copy}) {
    EXPECT_FALSE(f.sys.replicas().IsCachedCopy(copy, "d")) << copy.ToString();
    EXPECT_FALSE(f.Advertised(copy)) << copy.ToString();
  }
  EXPECT_TRUE(f.Advertised(f.origin));
  EXPECT_TRUE(f.Advertised(f.durable_b));
  EXPECT_EQ(f.sys.catalog()->HolderCount(ResourceKind::kDocument, "d"), 2u);
}

TEST(WriteRetractionTest, BudgetEvictionStillSendsTheHoldersOwnDigest) {
  // Every cache fits one catalog and not two.
  Rng size_rng(13);
  NodeIdGen gen;
  const uint64_t one = wire::EncodedTreeSize(*MakeCatalog(8, &gen, &size_rng));
  RegionCopies f(RefreshPolicy::kDrop, one + one / 2);
  ASSERT_EQ(f.owners.size(), 2u);
  ASSERT_TRUE(f.Advertised(f.copy_a));
  ASSERT_TRUE(f.sys
                  .InstallDocument(f.origin, "d2",
                                   MakeCatalog(8, f.sys.peer(f.origin)->gen(),
                                               &f.rng))
                  .ok());
  const CatalogStats before = f.sys.catalog()->stats();
  f.TraceControl();
  // Caching d2 at copy_a evicts its copy of d: the holder decided, so
  // the holder retracts, to its own region's owner of "d".
  Evaluator ev(&f.sys, CachingOptions());
  ASSERT_TRUE(ev.Eval(f.copy_a, Expr::Apply(f.q, f.copy_a,
                                            {Expr::Doc("d2", f.origin)}))
                  .ok());
  f.sys.RunToQuiescence();
  ASSERT_TRUE(f.sys.replicas().IsCachedCopy(f.copy_a, "d2"));
  EXPECT_FALSE(f.sys.replicas().IsCachedCopy(f.copy_a, "d"));
  EXPECT_FALSE(f.Advertised(f.copy_a));
  EXPECT_EQ(f.sys.catalog()->stats().retract_messages -
                before.retract_messages,
            1u);
  const std::vector<std::pair<PeerId, PeerId>> sent = f.ControlSent();
  EXPECT_EQ(std::count(sent.begin(), sent.end(),
                       std::pair{f.copy_a, f.owners[0]}),
            1);
  // The other copies are untouched.
  EXPECT_TRUE(f.Advertised(f.copy_b));
  EXPECT_TRUE(f.Advertised(f.copy_of_copy));
}

TEST(WriteRetractionTest, LazyPolicyRetractsNothingAtWriteTime) {
  RegionCopies f(RefreshPolicy::kLazy);
  ASSERT_EQ(f.owners.size(), 2u);
  const CatalogStats before = f.sys.catalog()->stats();
  f.TraceControl();
  f.Write();
  // kLazy keeps its stale-advertisement window: nothing is sent and
  // every copy stays listed...
  EXPECT_TRUE(f.ControlSent().empty());
  EXPECT_EQ(f.sys.catalog()->stats().retract_messages,
            before.retract_messages);
  for (PeerId copy : {f.copy_a, f.copy_b, f.copy_of_copy}) {
    EXPECT_TRUE(f.Advertised(copy)) << copy.ToString();
  }
  // ...until a lookup drops a stale copy, which its holder retracts.
  EXPECT_EQ(f.sys.replicas().LookupFresh(f.copy_a, f.origin, "d"), nullptr);
  f.sys.RunToQuiescence();
  EXPECT_FALSE(f.Advertised(f.copy_a));
  const std::vector<std::pair<PeerId, PeerId>> expected = {
      {f.copy_a, f.owners[0]}};
  EXPECT_EQ(f.ControlSent(), expected);
  EXPECT_EQ(f.sys.catalog()->stats().retract_messages -
                before.retract_messages,
            1u);
}

// --- Read admission: a rack-mate's payload makes no copy ---

/// Two racks of two peers in one region, central catalog, kDrop. "d" is
/// durable at `origin` (rack 0, class "ed"); `mate` shares its rack, and
/// `far` and `far_mate` share rack 1.
struct TwoRacks {
  AxmlSystem sys{Topology::Hierarchical(Spec())};
  PeerId origin, mate, far, far_mate;
  Query q = Query::Parse("for $p in input(0)/catalog/product "
                         "return <r>{ $p/name }</r>")
                .value();
  Rng rng{13};

  static Topology::HierarchySpec Spec() {
    Topology::HierarchySpec spec;
    spec.regions = 1;
    spec.racks_per_region = 2;
    spec.peers_per_rack = 2;
    return spec;
  }

  TwoRacks() {
    origin = sys.AddPeer("origin");
    mate = sys.AddPeer("mate");
    far = sys.AddPeer("far");
    far_mate = sys.AddPeer("far_mate");
    EXPECT_TRUE(sys.InstallReplicatedDocument(
                       "ed", "d", MakeCatalog(8, sys.peer(origin)->gen(), &rng),
                       {origin})
                    .ok());
  }

  bool Read(Evaluator* ev, PeerId reader) {
    return ev->Eval(reader, Expr::Apply(q, reader, {Expr::Doc("d", origin)}))
        .ok();
  }
  bool ReadAny(Evaluator* ev, PeerId reader) {
    return ev->Eval(reader, Expr::Apply(q, reader, {Expr::GenericDoc("ed")}))
        .ok();
  }
  /// A durable write of d at its origin; returns the notify messages it
  /// sent.
  uint64_t Write() {
    const uint64_t before = sys.network().stats().notify_messages();
    sys.peer(origin)->PutDocument(
        "d", MakeCatalog(4, sys.peer(origin)->gen(), &rng));
    sys.RunToQuiescence();
    return sys.network().stats().notify_messages() - before;
  }
  bool Advertised(PeerId holder) {
    return sys.catalog()->IsAdvertised(ResourceKind::kDocument, "d", holder);
  }
  size_t Members() { return sys.generics().DocumentMembers("ed")->size(); }
};

TEST(CopyAdmissionTest, ReadFromOwnRackMakesNoCopy) {
  TwoRacks f;
  Evaluator ev(&f.sys, CachingOptions());
  ASSERT_TRUE(f.Read(&ev, f.mate));

  EXPECT_EQ(f.sys.replicas().FindCache(f.mate), nullptr);
  EXPECT_FALSE(f.sys.replicas().IsCachedCopy(f.mate, "d"));
  EXPECT_FALSE(f.sys.peer(f.mate)->HasDocument("d"));
  EXPECT_FALSE(
      f.sys.replicas().subscriptions().IsSubscribed(ReplicaKey{f.origin, "d"},
                                                    f.mate));
  EXPECT_FALSE(f.Advertised(f.mate));
  EXPECT_EQ(f.Members(), 1u);
  EXPECT_EQ(f.sys.replicas().TotalStats().rack_declined, 1u);
  EXPECT_EQ(f.sys.replicas().TotalStats().inserts, 0u);

  // Nothing to invalidate: the write notifies nobody.
  EXPECT_EQ(f.Write(), 0u);
  EXPECT_EQ(f.sys.replicas().subscription_stats().drops, 0u);
}

TEST(CopyAdmissionTest, ReadFromAnotherRackInstallsAndAdvertises) {
  TwoRacks f;
  Evaluator ev(&f.sys, CachingOptions());
  ASSERT_TRUE(f.Read(&ev, f.far));

  EXPECT_TRUE(f.sys.replicas().HasFresh(f.far, f.origin, "d"));
  EXPECT_EQ(f.sys.replicas().InstalledOrigin(f.far, "d"), f.origin);
  EXPECT_TRUE(
      f.sys.replicas().subscriptions().IsSubscribed(ReplicaKey{f.origin, "d"},
                                                    f.far));
  EXPECT_TRUE(f.Advertised(f.far));
  EXPECT_EQ(f.Members(), 2u);
  EXPECT_EQ(f.sys.replicas().TotalStats().rack_declined, 0u);

  // The write notifies the holder and drops its copy.
  EXPECT_EQ(f.Write(), 1u);
  EXPECT_FALSE(f.sys.replicas().IsCachedCopy(f.far, "d"));
  EXPECT_FALSE(f.Advertised(f.far));
}

TEST(CopyAdmissionTest, RackMateDAnyLandsOnTheRacksSingleCopy) {
  TwoRacks f;
  EvalOptions any = CachingOptions();
  any.pick_policy = PickPolicy::kCacheAware;
  Evaluator ev(&f.sys, any);
  // The rack's first reader copies from the origin, a rack away...
  ASSERT_TRUE(f.ReadAny(&ev, f.far));
  ASSERT_EQ(f.sys.replicas().InstalledOrigin(f.far, "d"), f.origin);

  // ...and each later read by its rack-mate is served by that copy, over
  // the rack link, without making a second one.
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(f.ReadAny(&ev, f.far_mate));
    EXPECT_FALSE(f.sys.replicas().IsCachedCopy(f.far_mate, "d"));
    EXPECT_FALSE(f.Advertised(f.far_mate));
    EXPECT_EQ(f.Members(), 2u);
  }
  const EvalCounters& c = ev.counters();
  EXPECT_EQ(c.picks[/*copy=*/1][/*rack=*/1], 2u);
  EXPECT_EQ(c.picks[/*origin=*/0][/*region=*/2], 1u);
  EXPECT_EQ(f.sys.replicas().TotalStats().rack_declined, 2u);
  EXPECT_EQ(f.Write(), 1u);
}

TEST(CopyAdmissionTest, ShardedReadAppliesTheSameRule) {
  TwoRacks f;
  f.sys.replicas().set_sharding_enabled(true);
  ShardingConfig sharding;
  sharding.max_shard_bytes = 128;
  f.sys.replicas().set_sharding_config(sharding);
  ASSERT_TRUE(f.sys.replicas().ShardedReadApplies(f.origin, "d"));
  Evaluator ev(&f.sys, CachingOptions());

  ASSERT_TRUE(f.Read(&ev, f.mate));
  // A reader that makes no copy gets no cache. Its misses are counted
  // manager-side: the lookup's, and one per shard the delta shipped.
  EXPECT_EQ(f.sys.replicas().FindCache(f.mate), nullptr);
  EXPECT_FALSE(f.Advertised(f.mate));
  EXPECT_EQ(f.sys.replicas().TotalStats().rack_declined, 1u);
  EXPECT_EQ(f.sys.replicas().TotalStats().misses,
            1 + f.sys.replicas().shard_stats().shards_shipped);

  ASSERT_TRUE(f.Read(&ev, f.far));
  EXPECT_TRUE(f.sys.replicas().HasFresh(f.far, f.origin, "d"));
  EXPECT_TRUE(f.Advertised(f.far));
  EXPECT_EQ(f.sys.replicas().shard_stats().sharded_reads, 2u);
  EXPECT_EQ(f.sys.replicas().TotalStats().rack_declined, 1u);
}

TEST(CopyAdmissionTest, CoalescedSameRackReadsNeedNoCache) {
  // Two inputs of one join read the same rack-mate source: the second
  // joins the first's transfer, and neither makes a copy. The coalesced
  // hit is counted without allocating a cache for the reader.
  TwoRacks f;
  Query join = Query::Parse(
                   "for $a in input(0)/catalog/product "
                   "for $b in input(1)/catalog/product "
                   "where $a/name = $b/name return <m>{ $a/name }</m>")
                   .value();
  ExprPtr shared = Expr::Doc("d", f.origin);
  Evaluator ev(&f.sys, CachingOptions());
  ASSERT_TRUE(ev.Eval(f.mate, Expr::Apply(join, f.mate, {shared, shared}))
                  .ok());
  EXPECT_EQ(f.sys.replicas().FindCache(f.mate), nullptr);
  EXPECT_EQ(ev.counters().coalesced_joins, 1u);
  const TransferCacheStats total = f.sys.replicas().TotalStats();
  EXPECT_EQ(total.hits, 1u);
  EXPECT_GT(total.bytes_saved, 0u);
  EXPECT_EQ(total.rack_declined, 1u);
  EXPECT_EQ(total.inserts, 0u);
}

TEST(CopyAdmissionTest, FlatTopologyCachesEveryRemoteRead) {
  // No hierarchy: RackOf is UINT32_MAX for every peer, which must not
  // read as one shared rack.
  TwoPeers f;
  const PeerId other = f.sys.AddPeer("other");
  Evaluator ev(&f.sys, CachingOptions());
  for (PeerId reader : {f.client, other}) {
    ASSERT_TRUE(
        ev.Eval(reader, Expr::Apply(f.q, reader, {Expr::Doc("d", f.origin)}))
            .ok());
    EXPECT_TRUE(f.sys.replicas().HasFresh(reader, f.origin, "d"));
    EXPECT_TRUE(f.sys.catalog()->IsAdvertised(ResourceKind::kDocument, "d",
                                              reader));
  }
  EXPECT_EQ(f.sys.replicas().TotalStats().rack_declined, 0u);
}

// --- d@any routed to the nearest fresh replica ---

struct GenericFixture {
  AxmlSystem sys{Topology(LinkParams{0.080, 5.0e5})};  // slow WAN
  PeerId origin, client;
  Query q;

  GenericFixture() {
    origin = sys.AddPeer("origin");
    client = sys.AddPeer("client");
    Rng rng(13);
    TreePtr t = MakeCatalog(24, sys.peer(origin)->gen(), &rng);
    EXPECT_TRUE(sys.InstallReplicatedDocument("ed", "d", t, {origin}).ok());
    q = Query::Parse(
            "for $p in input(0)/catalog/product "
            "where $p/price < 900 return <r>{ $p/name }</r>")
            .value();
  }

  ExprPtr ReadAny() const {
    return Expr::Apply(q, client, {Expr::GenericDoc("ed")});
  }
};

TEST(GenericReplicaTest, DAnyResolvesToFreshLocalCopyForZeroBytes) {
  GenericFixture f;
  EvalOptions opts = CachingOptions();
  opts.pick_policy = PickPolicy::kCacheAware;
  Evaluator ev(&f.sys, opts);

  // Cold read: the only member is the origin; the transfer caches and
  // advertises a copy at the client.
  auto cold = ev.Eval(f.client, f.ReadAny());
  ASSERT_TRUE(cold.ok());
  const auto* members = f.sys.generics().DocumentMembers("ed");
  ASSERT_NE(members, nullptr);
  ASSERT_EQ(members->size(), 2u);

  // Warm read: the pick routes to the co-located fresh copy; no data
  // bytes cross the wire (discovery is control traffic, counted apart).
  f.sys.network().mutable_stats()->Reset();
  auto warm = ev.Eval(f.client, f.ReadAny());
  ASSERT_TRUE(warm.ok());
  EXPECT_EQ(f.sys.network().stats().remote_bytes(), 0u);
  EXPECT_TRUE(ResultsEqual(cold->results, warm->results));
}

TEST(GenericReplicaTest, StaleReplicaIsSweptOutOfTheClassOnPick) {
  GenericFixture f;
  EvalOptions opts = CachingOptions();
  opts.pick_policy = PickPolicy::kCacheAware;
  Evaluator ev(&f.sys, opts);
  ASSERT_TRUE(ev.Eval(f.client, f.ReadAny()).ok());
  ASSERT_EQ(f.sys.generics().DocumentMembers("ed")->size(), 2u);

  // Mutate the origin; the client's advertised copy is now a lie.
  Rng rng(3);
  f.sys.peer(f.origin)->PutDocument(
      "d", MakeCatalog(6, f.sys.peer(f.origin)->gen(), &rng));

  // The next d@any read sweeps the stale member during the pick and
  // falls back to the origin — results reflect the new content.
  f.sys.network().mutable_stats()->Reset();
  auto fresh = ev.Eval(f.client, f.ReadAny());
  ASSERT_TRUE(fresh.ok());
  EXPECT_GT(f.sys.network().stats().remote_bytes(), 0u);
  EXPECT_LE(fresh->results.size(), 6u);
  // The re-transfer re-advertised a fresh copy.
  EXPECT_EQ(f.sys.generics().DocumentMembers("ed")->size(), 2u);
  EXPECT_TRUE(f.sys.replicas().HasFresh(f.client, f.origin, "d"));
}

TEST(GenericReplicaTest, FingerprintUnchangedByCachingAndInvalidation) {
  // Two identical systems; only one routes reads through the replica
  // cache. Σ-fingerprints must agree at every step: cached copies are
  // soft state.
  GenericFixture cached, plain;
  EvalOptions copts = CachingOptions();
  copts.pick_policy = PickPolicy::kCacheAware;
  Evaluator cev(&cached.sys, copts);
  Evaluator pev(&plain.sys, EvalOptions{});

  ASSERT_TRUE(cev.Eval(cached.client, cached.ReadAny()).ok());
  ASSERT_TRUE(pev.Eval(plain.client, plain.ReadAny()).ok());
  EXPECT_EQ(cached.sys.StateFingerprint(), plain.sys.StateFingerprint());

  // Same durable mutation on both; the cached system invalidates on its
  // next read. Fingerprints stay in lockstep.
  Rng r1(77), r2(77);
  cached.sys.peer(cached.origin)
      ->PutDocument("d", MakeCatalog(10, cached.sys.peer(cached.origin)->gen(),
                                     &r1));
  plain.sys.peer(plain.origin)
      ->PutDocument("d", MakeCatalog(10, plain.sys.peer(plain.origin)->gen(),
                                     &r2));
  EXPECT_EQ(cached.sys.StateFingerprint(), plain.sys.StateFingerprint());

  ASSERT_TRUE(cev.Eval(cached.client, cached.ReadAny()).ok());
  ASSERT_TRUE(pev.Eval(plain.client, plain.ReadAny()).ok());
  EXPECT_EQ(cached.sys.StateFingerprint(), plain.sys.StateFingerprint());
}

// --- Optimizer integration ---

TEST(ReplicaOptimizerTest, CostModelChargesZeroWireBytesForFreshCopy) {
  TwoPeers f;
  Evaluator ev(&f.sys, CachingOptions());
  CostModel cache_aware(&f.sys, /*assume_replica_cache=*/true);
  CostModel plain(&f.sys);

  ExprPtr read = f.Read();
  CostEstimate before = cache_aware.Estimate(f.client, read);
  EXPECT_GT(before.remote_bytes, 0.0);

  ASSERT_TRUE(ev.Eval(f.client, read).ok());  // warm the cache
  CostEstimate after = cache_aware.Estimate(f.client, read);
  EXPECT_EQ(after.remote_bytes, 0.0);
  EXPECT_LT(after.time_s, before.time_s);

  // The default model prices for a default evaluator, which will pay
  // the transfer no matter what the cache holds.
  CostEstimate conservative = plain.Estimate(f.client, read);
  EXPECT_GT(conservative.remote_bytes, 0.0);
}

TEST(ReplicaOptimizerTest, Rule13ReadsTheCopyInsteadOfMaterializing) {
  TwoPeers f;
  Evaluator ev(&f.sys, CachingOptions());
  Query join = Query::Parse(
                   "for $a in input(0)/catalog/product "
                   "for $b in input(1)/catalog/product "
                   "where $a/name = $b/name and $a/price < 500 "
                   "return <m>{ $a/name }</m>")
                   .value();
  ExprPtr shared = Expr::Doc("d", f.origin);
  ExprPtr e = Expr::Apply(join, f.client, {shared, shared});

  // Cold: the optimizer may or may not materialize (cost decides), but
  // the chosen plan costs wire bytes.
  Optimizer cold_opt(&f.sys);
  OptimizedPlan cold = cold_opt.Optimize(f.client, e);
  EXPECT_GT(cold.cost.remote_bytes, 0.0);

  // Warm the cache, re-optimize: rule (13) proposes reading the
  // advertised local copy, which is strictly cheaper than transferring
  // twice, so the optimizer *selects* it — and the plan stays cheap on
  // a default evaluator (it names the copy explicitly).
  ASSERT_TRUE(ev.Eval(f.client, f.Read()).ok());
  Optimizer warm_opt(&f.sys);
  OptimizedPlan warm = warm_opt.Optimize(f.client, e);
  EXPECT_EQ(warm.cost.remote_bytes, 0.0);
  ASSERT_FALSE(warm.rules_applied.empty());
  EXPECT_EQ(warm.rules_applied.front(), std::string("transfer-cache(13)"));
  ASSERT_EQ(warm.expr->kind(), Expr::Kind::kApply);
  for (const ExprPtr& arg : warm.expr->args()) {
    EXPECT_EQ(arg->kind(), Expr::Kind::kDoc);
    EXPECT_EQ(arg->doc_peer(), f.client);
  }
  const ExprPtr cached_read = warm.expr;

  // The proposal is equivalent — and needs no replica-aware evaluator:
  // the copy is a real document at the client.
  Evaluator plain(&f.sys);
  auto base = plain.Eval(f.client, e);
  auto best = plain.Eval(f.client, cached_read);
  ASSERT_TRUE(base.ok());
  ASSERT_TRUE(best.ok());
  EXPECT_TRUE(ResultsEqual(base->results, best->results));
}

TEST(ReplicaOptimizerTest, Rule13NeverRewritesToAShadowedName) {
  // The client owns its own document "d" (unrelated content), so the
  // remote copy is cache-only — never installed under the local name.
  // Rewriting Doc(d, origin) -> Doc(d, client) would silently read the
  // wrong document; the rule must not propose it.
  TwoPeers f;
  Peer* client = f.sys.peer(f.client);
  client->PutDocument("d", Leafy("mine", "not-the-catalog", client->gen()));

  Evaluator ev(&f.sys, CachingOptions());
  ASSERT_TRUE(ev.Eval(f.client, f.Read()).ok());
  // Cached (repeated reads are still served)...
  EXPECT_TRUE(f.sys.replicas().HasFresh(f.client, f.origin, "d"));
  // ...but not installed: the local name belongs to the client's own doc.
  EXPECT_FALSE(f.sys.replicas().IsCachedCopy(f.client, "d"));
  EXPECT_FALSE(
      f.sys.replicas().HasFreshInstalled(f.client, f.origin, "d"));

  CostModel cost(&f.sys);
  uint64_t names = 0;
  RewriteContext ctx{&f.sys, &cost, &names};
  std::vector<ExprPtr> proposals;
  ExprPtr shared = Expr::Doc("d", f.origin);
  MakeTransferCacheRule()->Propose(f.client,
                                   Expr::Apply(f.q, f.client, {shared}),
                                   &ctx, &proposals);
  for (const ExprPtr& p : proposals) {
    for (const ExprPtr& arg : p->args()) {
      if (arg->kind() == Expr::Kind::kDoc) {
        EXPECT_NE(arg->doc_peer(), f.client)
            << "rewrite reads the client's unrelated \"d\"";
      }
    }
  }
}

// --- Proactive placement ---

namespace placement_test {

struct PlacementRig {
  AxmlSystem sys;
  PeerId origin, hot, cold;
  TreePtr doc;

  PlacementRig() {
    origin = sys.AddPeer("origin");
    hot = sys.AddPeer("hot-picker");
    cold = sys.AddPeer("cold-picker");
    Rng rng(11);
    NodeIdGen gen;
    doc = MakeCatalog(16, &gen, &rng);
    EXPECT_TRUE(sys.InstallDocument(origin, "d",
                                    doc->Clone(sys.peer(origin)->gen()))
                    .ok());
    sys.generics().AddDocumentMember("cls", ClassMember{"d", origin});
    PlacementConfig config;
    config.enabled = true;
    config.min_picks = 3;
    config.max_targets_per_class = 1;
    sys.replicas().placement().set_config(config);
  }

  /// Records `n` picks of "cls" by `from` in the demand table.
  void Demand(PeerId from, int n) {
    for (int i = 0; i < n; ++i) {
      EXPECT_TRUE(sys.generics()
                      .PickDocument("cls", from,
                                    PickPolicy::kFirst, sys.network())
                      .ok());
    }
  }
};

TEST(PlacementTest, SeedsTheTopPickerOnceDemandCrossesTheThreshold) {
  PlacementRig rig;
  rig.Demand(rig.cold, 2);  // below min_picks
  EXPECT_EQ(rig.sys.replicas().RunPlacement(), 0u);
  rig.Demand(rig.hot, 5);
  // hot qualifies and out-picks cold; max_targets_per_class = 1.
  EXPECT_EQ(rig.sys.replicas().RunPlacement(), 1u);
  EXPECT_TRUE(rig.sys.replicas().IsRefreshInFlight(rig.hot, rig.origin,
                                                   "d"));
  rig.sys.RunToQuiescence();
  // The seed landed, installed, and advertised without any read paying.
  EXPECT_TRUE(rig.sys.replicas().HasFreshInstalled(rig.hot, rig.origin,
                                                   "d"));
  EXPECT_TRUE(rig.sys.catalog()->IsAdvertised(ResourceKind::kDocument,
                                              "d", rig.hot));
  const auto* members = rig.sys.generics().DocumentMembers("cls");
  ASSERT_NE(members, nullptr);
  EXPECT_EQ(members->size(), 2u);
  EXPECT_EQ(rig.sys.replicas().placement_stats().landed, 1u);
  // A fresh holder is not re-seeded: the next round plans nothing.
  EXPECT_EQ(rig.sys.replicas().RunPlacement(), 0u);
}

TEST(PlacementTest, LaunchDrainsTheDemandThatEarnedTheSeed) {
  PlacementRig rig;
  rig.Demand(rig.hot, 5);
  EXPECT_EQ(rig.sys.generics().DocumentPickDemand("cls", rig.hot), 5u);
  EXPECT_EQ(rig.sys.replicas().RunPlacement(), 1u);
  // The launch consumed the demand: without fresh picks, nothing plans
  // — even though the shipment is still on the wire. Re-seeding after a
  // later eviction takes new demand, not the lifetime count.
  EXPECT_EQ(rig.sys.generics().DocumentPickDemand("cls", rig.hot), 0u);
  EXPECT_EQ(rig.sys.replicas().RunPlacement(), 0u);
  EXPECT_EQ(rig.sys.replicas().placement_stats().coalesced, 0u);
  rig.sys.RunToQuiescence();
  EXPECT_EQ(rig.sys.replicas().placement_stats().landed, 1u);
}

TEST(PlacementTest, CoalescesWithTheShipmentAlreadyInFlight) {
  PlacementRig rig;
  rig.Demand(rig.hot, 5);
  EXPECT_EQ(rig.sys.replicas().RunPlacement(), 1u);
  // Fresh demand while the first shipment is still on the wire: the new
  // decision folds into it — no second transfer, demand kept for later.
  rig.Demand(rig.hot, 5);
  EXPECT_EQ(rig.sys.replicas().RunPlacement(), 0u);
  EXPECT_EQ(rig.sys.replicas().placement_stats().coalesced, 1u);
  rig.sys.RunToQuiescence();
  EXPECT_EQ(rig.sys.replicas().placement_stats().shipments, 1u);
  EXPECT_EQ(rig.sys.replicas().placement_stats().landed, 1u);
}

TEST(PlacementTest, PerHolderByteBudgetDeniesTheSeed) {
  PlacementRig rig;
  PlacementConfig config = rig.sys.replicas().placement().config();
  config.byte_budget_per_holder = 10;  // far below the document size
  rig.sys.replicas().placement().set_config(config);
  rig.Demand(rig.hot, 5);
  EXPECT_EQ(rig.sys.replicas().RunPlacement(), 0u);
  EXPECT_EQ(rig.sys.replicas().placement_stats().budget_denied, 1u);
  EXPECT_FALSE(rig.sys.replicas().HasFresh(rig.hot, rig.origin, "d"));
  // The deny is terminal for that burst of picks: the demand is drained
  // too, so later rounds neither replan nor re-count the denial.
  EXPECT_EQ(rig.sys.replicas().RunPlacement(), 0u);
  EXPECT_EQ(rig.sys.replicas().placement_stats().budget_denied, 1u);
}

TEST(PlacementTest, MidFlightMutationWastesTheShipmentWithoutStaleness) {
  PlacementRig rig;
  // kLazy so the mutation does not push-drop anything; the landing-time
  // version check alone must reject the stale payload.
  rig.sys.replicas().set_refresh_policy(RefreshPolicy::kLazy);
  rig.Demand(rig.hot, 5);
  EXPECT_EQ(rig.sys.replicas().RunPlacement(), 1u);
  // The origin moves on while the seed is on the wire.
  Peer* host = rig.sys.peer(rig.origin);
  host->PutDocument("d", MakeTextElement("r", "new", host->gen()));
  rig.sys.RunToQuiescence();
  EXPECT_FALSE(rig.sys.replicas().HasFresh(rig.hot, rig.origin, "d"));
  EXPECT_EQ(rig.sys.replicas().placement_stats().wasted, 1u);
  EXPECT_EQ(rig.sys.replicas().placement_stats().landed, 0u);
}

TEST(PlacementTest, DisabledPolicyPlansNothing) {
  PlacementRig rig;
  PlacementConfig config;  // enabled = false
  rig.sys.replicas().placement().set_config(config);
  rig.Demand(rig.hot, 50);
  EXPECT_EQ(rig.sys.replicas().RunPlacement(), 0u);
  EXPECT_EQ(rig.sys.replicas().placement_stats().shipments, 0u);
}

}  // namespace placement_test

}  // namespace
}  // namespace axml
