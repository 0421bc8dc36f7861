// Unit tests for the push-refresh subscription table plus the
// correctness fixes riding along with it: the Version() base contract,
// the no-allocation ReadFreshCopy miss path, and the TransferCache stats
// invariants (immediate-eviction Put, dedup alias erase on promotion,
// TotalStats arithmetic across peers).

#include <gtest/gtest.h>

#include "algebra/evaluator.h"
#include "common/rng.h"
#include "xml/digest.h"
#include "replica/replica_manager.h"
#include "replica/subscription.h"
#include "xml/wire.h"
#include "test_util.h"

namespace axml {
namespace {

using testing::MakeCatalog;

// --- SubscriptionTable ---

TEST(SubscriptionTableTest, SubscribeIsIdempotentPerHolder) {
  SubscriptionTable table;
  const ReplicaKey key{PeerId(0), "d"};
  table.Subscribe(key, PeerId(1));
  table.Subscribe(key, PeerId(1));
  table.Subscribe(key, PeerId(2));
  EXPECT_EQ(table.HoldersOf(key).size(), 2u);
  EXPECT_EQ(table.subscription_count(), 2u);
  EXPECT_TRUE(table.IsSubscribed(key, PeerId(1)));
  EXPECT_FALSE(table.IsSubscribed(key, PeerId(3)));
}

TEST(SubscriptionTableTest, UnsubscribeRemovesOnlyThatHolder) {
  SubscriptionTable table;
  const ReplicaKey key{PeerId(0), "d"};
  table.Subscribe(key, PeerId(1));
  table.Subscribe(key, PeerId(2));
  table.Unsubscribe(key, PeerId(1));
  EXPECT_FALSE(table.IsSubscribed(key, PeerId(1)));
  EXPECT_TRUE(table.IsSubscribed(key, PeerId(2)));
  // Unknown key / holder: no-ops.
  table.Unsubscribe(ReplicaKey{PeerId(9), "x"}, PeerId(1));
  table.Unsubscribe(key, PeerId(7));
  EXPECT_EQ(table.subscription_count(), 1u);
}

TEST(SubscriptionTableTest, HoldersOfReturnsADetachedSnapshot) {
  SubscriptionTable table;
  const ReplicaKey key{PeerId(0), "d"};
  table.Subscribe(key, PeerId(1));
  table.Subscribe(key, PeerId(2));
  // The fan-out pattern: unsubscribe while iterating the snapshot.
  std::vector<PeerId> snapshot = table.HoldersOf(key);
  for (PeerId holder : snapshot) {
    table.Unsubscribe(key, holder);
  }
  EXPECT_EQ(snapshot.size(), 2u);
  EXPECT_EQ(table.subscription_count(), 0u);
  EXPECT_TRUE(table.HoldersOf(key).empty());
}

TEST(SubscriptionTableTest, PolicyNamesAreStable) {
  EXPECT_STREQ(RefreshPolicyName(RefreshPolicy::kLazy), "lazy");
  EXPECT_STREQ(RefreshPolicyName(RefreshPolicy::kDrop), "drop");
  EXPECT_STREQ(RefreshPolicyName(RefreshPolicy::kEagerRefresh),
               "eager_refresh");
}

// --- Version() base contract (regression) ---

TEST(VersionContractTest, NeverSeenNamesSitAtOneAndInstallBumps) {
  AxmlSystem sys;
  PeerId p = sys.AddPeer("p");
  // Never seen: exactly 1 — the documented floor.
  EXPECT_EQ(sys.replicas().Version(p, "d"), 1u);
  // The installing write is a mutation-listener event: 2.
  NodeIdGen* gen = sys.peer(p)->gen();
  ASSERT_TRUE(
      sys.InstallDocument(p, "d", MakeTextElement("r", "x", gen)).ok());
  EXPECT_EQ(sys.replicas().Version(p, "d"), 2u);
  // Each further mutation increments by one.
  sys.peer(p)->PutDocument("d", MakeTextElement("r", "y", sys.peer(p)->gen()));
  EXPECT_EQ(sys.replicas().Version(p, "d"), 3u);
}

TEST(VersionContractTest, FirstEverMutationInvalidatesPreexistingCopies) {
  // The seed's 0-base made the first-ever listener event land on the
  // same value the never-seen default reported, so a copy snapshotted
  // against the default could never be told apart from a fresh one.
  AxmlSystem sys;
  // kLazy isolates the version comparison from push-drop: the copy must
  // go stale by versioning alone, not because a push already removed it.
  sys.replicas().set_refresh_policy(RefreshPolicy::kLazy);
  PeerId owner = sys.AddPeer("owner");
  PeerId reader = sys.AddPeer("reader");
  NodeIdGen gen;
  TreePtr t = MakeTextElement("r", "x", &gen);
  // Snapshot taken at the never-seen version (no install event fired
  // for this name yet — e.g. state seeded outside the listener).
  const uint64_t snap = sys.replicas().Version(owner, "d");
  ASSERT_TRUE(sys.replicas().InsertCopy(reader, owner, "d",
                                        t->Clone(sys.peer(reader)->gen()),
                                        snap, wire::EncodeTree(*t)));
  ASSERT_TRUE(sys.replicas().HasFresh(reader, owner, "d"));
  // The first-ever mutation event must strand that copy.
  sys.replicas().NoteMutation(owner, "d");
  EXPECT_FALSE(sys.replicas().HasFresh(reader, owner, "d"));
}

// --- Fresh-copy read allocation fix (regression) ---

TEST(LookupFreshTest, MissDoesNotAllocateACacheForTheReader) {
  AxmlSystem sys;
  PeerId owner = sys.AddPeer("owner");
  PeerId reader = sys.AddPeer("reader");
  bool sharded = false;
  EXPECT_EQ(sys.replicas().ReadFreshCopy(reader, owner, "d", &sharded),
            nullptr);
  EXPECT_EQ(sys.replicas().ReadFreshCopy(reader, owner, "d", &sharded),
            nullptr);
  // No TransferCache (plus evict listener) sprang into existence for a
  // peer that only ever read.
  EXPECT_EQ(sys.replicas().FindCache(reader), nullptr);
  // The misses still count, manager-side.
  EXPECT_EQ(sys.replicas().TotalStats().misses, 2u);
  sys.replicas().ResetStats();
  EXPECT_EQ(sys.replicas().TotalStats().misses, 0u);
}

// --- TransferCache stats invariants ---

TEST(CacheStatsTest, RefusedOverBudgetPutCountsNothing) {
  NodeIdGen gen;
  Rng rng(7);
  TreePtr big = MakeCatalog(64, &gen, &rng);
  TransferCache cache(wire::EncodedTreeSize(*big) - 1);
  EXPECT_FALSE(
      cache.Put(ReplicaKey{PeerId(0), "big"},
                wire::EncodeTree(*big), DigestOf(*big), 1));
  EXPECT_EQ(cache.stats().inserts, 0u);
  EXPECT_EQ(cache.stats().evictions, 0u);
  EXPECT_EQ(cache.resident_bytes(), 0u);
  EXPECT_EQ(cache.blob_count(), 0u);
}

TEST(CacheStatsTest, OverwriteReleasesTheOldBlobBeforeCharging) {
  NodeIdGen gen;
  Rng rng(7);
  TreePtr v1 = MakeCatalog(8, &gen, &rng);
  TreePtr v2 = MakeCatalog(8, &gen, &rng);
  TransferCache cache(1 << 20);
  const ReplicaKey key{PeerId(1), "d"};
  ASSERT_TRUE(cache.Put(key, wire::EncodeTree(*v1), DigestOf(*v1), 1));
  ASSERT_TRUE(cache.Put(key, wire::EncodeTree(*v2), DigestOf(*v2), 2));
  EXPECT_EQ(cache.entry_count(), 1u);
  EXPECT_EQ(cache.blob_count(), 1u);
  EXPECT_EQ(cache.resident_bytes(), wire::EncodedTreeSize(*v2));
  EXPECT_EQ(cache.stats().inserts, 2u);
  // The overwrite is neither a budget eviction nor an invalidation.
  EXPECT_EQ(cache.stats().evictions, 0u);
  EXPECT_EQ(cache.stats().invalidations, 0u);
}

TEST(CacheStatsTest, PromotionErasesOnlyThePromotedEntry) {
  // Two origins serve identical content; the reader caches both, which
  // share one blob. A durable write onto one slot erases that slot's
  // entry only: the other origin's copy is fresh and its bytes are not
  // aliased by the promoted document.
  AxmlSystem sys;
  PeerId reader = sys.AddPeer("reader");
  PeerId o1 = sys.AddPeer("o1");
  PeerId o2 = sys.AddPeer("o2");
  Rng r1(42), r2(42);  // same seed -> identical content
  NodeIdGen g1, g2;
  TreePtr a = MakeCatalog(8, &g1, &r1);
  TreePtr b = MakeCatalog(8, &g2, &r2);
  ASSERT_TRUE(sys.replicas().InsertCopy(
      reader, o1, "d", a, sys.replicas().Version(o1, "d"),
      wire::EncodeTree(*a)));
  // The second origin publishes the same content under another name, so
  // both cache entries live in the reader's cache and share the blob.
  ASSERT_TRUE(sys.replicas().InsertCopy(
      reader, o2, "mirror", b, sys.replicas().Version(o2, "mirror"),
      wire::EncodeTree(*b)));
  const TransferCache* cache = sys.replicas().FindCache(reader);
  ASSERT_NE(cache, nullptr);
  ASSERT_EQ(cache->entry_count(), 2u);
  ASSERT_EQ(cache->blob_count(), 1u);

  const uint64_t resident_before = cache->resident_bytes();

  // Durable write onto the first copy's slot: the slot is promoted and
  // its entry goes; the mirror entry keeps the shared blob resident.
  Peer* host = sys.peer(reader);
  host->PutDocument("d", MakeTextElement("mine", "1", host->gen()));
  EXPECT_EQ(cache->entry_count(), 1u);
  EXPECT_EQ(cache->blob_count(), 1u);
  EXPECT_EQ(cache->resident_bytes(), resident_before);
  EXPECT_EQ(cache->Peek(ReplicaKey{o1, "d"}), nullptr);
  EXPECT_NE(cache->Peek(ReplicaKey{o2, "mirror"}), nullptr);
  EXPECT_TRUE(sys.replicas().HasFresh(reader, o2, "mirror"));
  EXPECT_TRUE(host->HasDocument("d"));  // the promoted document stays
  EXPECT_FALSE(sys.replicas().IsCachedCopy(reader, "d"));
}

TEST(CacheStatsTest, BudgetEvictionCountsFreedBytesAndPolicyVictims) {
  NodeIdGen gen;
  Rng rng(7);
  TreePtr a = MakeCatalog(8, &gen, &rng);
  TreePtr b = MakeCatalog(8, &gen, &rng);
  TreePtr c = MakeCatalog(8, &gen, &rng);
  TransferCache cache(1 << 20);
  ASSERT_TRUE(cache.Put(ReplicaKey{PeerId(0), "a"},
                        wire::EncodeTree(*a), DigestOf(*a), 1));
  ASSERT_TRUE(cache.Put(ReplicaKey{PeerId(0), "b"},
                        wire::EncodeTree(*b), DigestOf(*b), 1));
  ASSERT_TRUE(cache.Put(ReplicaKey{PeerId(0), "c"},
                        wire::EncodeTree(*c), DigestOf(*c), 1));
  const uint64_t resident_before = cache.resident_bytes();
  // Shrink to hold only the newest entry: two LRU victims depart and
  // their blob bytes are the reported churn.
  cache.set_byte_budget(wire::EncodedTreeSize(*c));
  EXPECT_EQ(cache.entry_count(), 1u);
  EXPECT_EQ(cache.stats().evictions, 2u);
  EXPECT_EQ(cache.stats().bytes_evicted,
            resident_before - cache.resident_bytes());
  EXPECT_EQ(cache.stats().victims_by_policy[static_cast<size_t>(
                EvictionPolicy::kLru)],
            2u);
  // Invalidations and erases are not churn.
  EXPECT_TRUE(cache.Erase(ReplicaKey{PeerId(0), "c"},
                          /*invalidation=*/true));
  EXPECT_EQ(cache.stats().bytes_evicted,
            resident_before - wire::EncodedTreeSize(*c));
  // The counter is part of the printable stats line.
  EXPECT_NE(cache.stats().ToString().find("bytes_evicted="),
            std::string::npos);
}

TEST(CacheStatsTest, DedupAliasEvictionFreesBlobBytesOnlyOnce) {
  // Two keys alias one blob; evicting the first alias frees nothing
  // (the blob stays resident), evicting the second frees the blob. The
  // churn counter must reflect bytes actually released, not entries.
  NodeIdGen g1, g2;
  Rng r1(42), r2(42);  // same seed -> identical content
  TreePtr a = MakeCatalog(8, &g1, &r1);
  TreePtr b = MakeCatalog(8, &g2, &r2);
  const uint64_t blob_bytes = wire::EncodedTreeSize(*a);
  TransferCache cache(1 << 20);
  ASSERT_TRUE(cache.Put(ReplicaKey{PeerId(1), "d"},
                        wire::EncodeTree(*a), DigestOf(*a), 1));
  ASSERT_TRUE(
      cache.Put(ReplicaKey{PeerId(2), "mirror"},
                wire::EncodeTree(*b), DigestOf(*b), 1));
  ASSERT_EQ(cache.blob_count(), 1u);
  ASSERT_EQ(cache.resident_bytes(), blob_bytes);
  // Force both aliases out.
  cache.set_byte_budget(0);
  EXPECT_EQ(cache.entry_count(), 0u);
  EXPECT_EQ(cache.stats().evictions, 2u);
  EXPECT_EQ(cache.stats().bytes_evicted, blob_bytes);
}

TEST(CacheStatsTest, VictimCountsSplitByPolicyAcrossASwitch) {
  NodeIdGen gen;
  Rng rng(7);
  TransferCache cache(1 << 20);
  auto fill = [&](const char* prefix) {
    for (int i = 0; i < 3; ++i) {
      TreePtr t = MakeCatalog(4 + i, &gen, &rng);
      ASSERT_TRUE(cache.Put(ReplicaKey{PeerId(0), StrCat(prefix, i)},
                            wire::EncodeTree(*t),
                            DigestOf(*t), 1));
    }
  };
  fill("a");
  cache.set_byte_budget(1);  // evict everything under LRU
  const uint64_t lru_victims = cache.stats().evictions;
  ASSERT_GT(lru_victims, 0u);
  cache.set_byte_budget(1 << 20);
  cache.set_eviction_policy(EvictionPolicy::kLfu);
  fill("b");
  cache.set_byte_budget(1);  // evict everything under LFU
  const TransferCacheStats& s = cache.stats();
  EXPECT_EQ(s.victims_by_policy[static_cast<size_t>(EvictionPolicy::kLru)],
            lru_victims);
  EXPECT_EQ(s.victims_by_policy[static_cast<size_t>(EvictionPolicy::kLfu)],
            s.evictions - lru_victims);
  EXPECT_GT(s.evictions, lru_victims);
}

TEST(CacheStatsTest, CostAwareProtectsTheExpensiveDistantCopy) {
  // Deterministic policy behavior: under kCostAware a small nearby-origin
  // copy is the victim even when the distant copy is older — under kLru
  // the distant (least recently inserted) copy would die. The manager
  // wires CostModel::RefetchCost, so the topology is the price list.
  AxmlSystem sys;
  PeerId reader = sys.AddPeer("reader");
  PeerId far = sys.AddPeer("far");
  PeerId near = sys.AddPeer("near");
  sys.network().mutable_topology()->SetLinkSymmetric(
      reader, far, LinkParams{0.500, 1.0e5});
  sys.network().mutable_topology()->SetLinkSymmetric(
      reader, near, LinkParams{0.001, 1.0e7});
  sys.replicas().set_default_eviction_policy(EvictionPolicy::kCostAware);
  Rng rng(7);
  NodeIdGen gen;
  TreePtr big = MakeCatalog(32, &gen, &rng);
  TreePtr small = MakeCatalog(8, &gen, &rng);
  TreePtr extra = MakeCatalog(8, &gen, &rng);
  // Slack for the few-byte size jitter between the two small catalogs.
  sys.replicas().set_default_byte_budget(wire::EncodedTreeSize(*big) +
                                         wire::EncodedTreeSize(*small) + 64);
  ASSERT_TRUE(sys.replicas().InsertCopy(
      reader, far, "hot", big, sys.replicas().Version(far, "hot"),
      wire::EncodeTree(*big)));
  ASSERT_TRUE(sys.replicas().InsertCopy(
      reader, near, "c0", small, sys.replicas().Version(near, "c0"),
      wire::EncodeTree(*small)));
  // Over budget now: someone must go — the cheap nearby copy, not the
  // expensive distant one, even though the distant one is older.
  ASSERT_TRUE(sys.replicas().InsertCopy(
      reader, near, "c1", extra, sys.replicas().Version(near, "c1"),
      wire::EncodeTree(*extra)));
  EXPECT_TRUE(sys.replicas().HasFresh(reader, far, "hot"));
  EXPECT_FALSE(sys.replicas().HasFresh(reader, near, "c0"));
  EXPECT_GT(sys.replicas().TotalStats().bytes_evicted, 0u);
}

TEST(CacheStatsTest, TotalStatsSumsAcrossPeersAndUncachedMisses) {
  AxmlSystem sys;
  PeerId owner = sys.AddPeer("owner");
  PeerId r1 = sys.AddPeer("r1");
  PeerId r2 = sys.AddPeer("r2");
  Rng rng(7);
  NodeIdGen gen;
  TreePtr t = MakeCatalog(8, &gen, &rng);

  ASSERT_TRUE(sys.replicas().InsertCopy(
      r1, owner, "d", t->Clone(sys.peer(r1)->gen()),
      sys.replicas().Version(owner, "d"), wire::EncodeTree(*t)));
  ASSERT_TRUE(sys.replicas().InsertCopy(
      r2, owner, "d", t->Clone(sys.peer(r2)->gen()),
      sys.replicas().Version(owner, "d"), wire::EncodeTree(*t)));
  // r1: one hit. r2: one hit, one (stale-free) hit. A third peer that
  // never cached: one manager-side miss.
  bool sharded = false;
  EXPECT_NE(sys.replicas().ReadFreshCopy(r1, owner, "d", &sharded), nullptr);
  EXPECT_NE(sys.replicas().ReadFreshCopy(r2, owner, "d", &sharded), nullptr);
  EXPECT_NE(sys.replicas().ReadFreshCopy(r2, owner, "d", &sharded), nullptr);
  PeerId r3 = sys.AddPeer("r3");
  EXPECT_EQ(sys.replicas().ReadFreshCopy(r3, owner, "d", &sharded), nullptr);

  const TransferCacheStats total = sys.replicas().TotalStats();
  EXPECT_EQ(total.inserts, 2u);
  EXPECT_EQ(total.hits, 3u);
  EXPECT_EQ(total.misses, 1u);
  EXPECT_EQ(total.bytes_saved,
            sys.replicas().FindCache(r1)->stats().bytes_saved +
                sys.replicas().FindCache(r2)->stats().bytes_saved);

  sys.replicas().ResetStats();
  const TransferCacheStats zero = sys.replicas().TotalStats();
  EXPECT_EQ(zero.hits + zero.misses + zero.inserts, 0u);
}

}  // namespace
}  // namespace axml
