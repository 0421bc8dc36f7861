// Fleet-scale smoke: the scenario harness (src/scenario/fleet.h) at CI
// size — a 200-peer, 2-region fleet under Zipf reads and mutations with
// the per-op stale-read check ON — comparing the central and Chord-DHT
// catalog backends:
//
//   - Freshness: zero stale reads on either backend.
//   - Cost shape: central answers every lookup in exactly 2 messages
//     but pins ~all catalog load on its server; the DHT pays ~log2(P)
//     messages per lookup and spreads the load (max single-node share
//     drops well below central's).
//   - Scaling: messages-per-lookup grows ~log P (64 -> 256 peers adds
//     ~2 hops, not 4x).
//
// The full 1000-peer soak is guarded behind AXML_FLEET_SOAK so CI time
// stays bounded; seeds come from AXML_TEST_SEED (CI runs a 5-seed
// matrix).

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>

#include "net/catalog.h"
#include "replica/transfer_cache.h"
#include "scenario/fleet.h"
#include "test_util.h"

namespace axml {
namespace {

using testing::TestSeed;

FleetConfig SmokeConfig(FleetBackend backend, uint64_t seed) {
  FleetConfig cfg;
  cfg.topo.regions = 2;
  cfg.topo.racks_per_region = 4;
  cfg.topo.peers_per_rack = 25;  // 200 peers
  cfg.backend = backend;
  cfg.ops = 400;
  cfg.seed = seed;
  return cfg;
}

TEST(FleetSmokeTest, CentralBackendStaysFreshAndConcentratesLoad) {
  FleetHarness fleet(SmokeConfig(FleetBackend::kCentral, TestSeed(1)));
  const FleetReport r = fleet.Run();
  EXPECT_EQ(r.stale_reads, 0u) << r.ToString();
  EXPECT_GT(r.lookups, 0u);
  // One request + one response, always.
  EXPECT_DOUBLE_EQ(r.msgs_per_lookup, 2.0);
  // The server handles every catalog message.
  EXPECT_GT(r.max_node_share, 0.9) << r.ToString();
}

TEST(FleetSmokeTest, DhtSpreadsLoadAtLogCostAndStaysFresh) {
  const uint64_t seed = TestSeed(1);
  FleetHarness central_fleet(SmokeConfig(FleetBackend::kCentral, seed));
  const FleetReport central = central_fleet.Run();
  FleetHarness dht_fleet(SmokeConfig(FleetBackend::kChordDht, seed));
  const FleetReport dht = dht_fleet.Run();

  EXPECT_EQ(dht.stale_reads, 0u) << dht.ToString();
  EXPECT_GT(dht.lookups, 0u);
  // Routed lookups cost more than central's single round trip but stay
  // within the Chord bound (~log2 P hops + the response).
  EXPECT_GT(dht.msgs_per_lookup, central.msgs_per_lookup);
  EXPECT_LE(dht.msgs_per_lookup, 2.0 * std::log2(200.0) + 2.0);
  // The headline: the hot-node share drops versus the central server.
  EXPECT_LT(dht.max_node_share, central.max_node_share) << dht.ToString();
  EXPECT_LT(dht.max_node_share, 0.5) << dht.ToString();
}

TEST(FleetSmokeTest, DhtLookupCostGrowsLogarithmically) {
  const uint64_t seed = TestSeed(1);
  FleetConfig small = SmokeConfig(FleetBackend::kChordDht, seed);
  small.topo.peers_per_rack = 8;  // 64 peers
  FleetConfig large = SmokeConfig(FleetBackend::kChordDht, seed);
  large.topo.peers_per_rack = 32;  // 256 peers
  FleetHarness small_fleet(small);
  const FleetReport r64 = small_fleet.Run();
  FleetHarness large_fleet(large);
  const FleetReport r256 = large_fleet.Run();

  // 4x the peers: messages-per-lookup moves by ~log2(4) = 2 hops, far
  // from the 4x a linear structure would pay.
  EXPECT_GT(r256.msgs_per_lookup, r64.msgs_per_lookup)
      << r64.ToString() << "\n" << r256.ToString();
  EXPECT_LT(r256.msgs_per_lookup, r64.msgs_per_lookup + 4.0)
      << r64.ToString() << "\n" << r256.ToString();
}

TEST(FleetSmokeTest, AdvertisementBatchingPaysPerDelta) {
  // Bring-up installs 32 documents from 8 origins inside one batch
  // window: the DHT pays at most one digest per (origin, responsible)
  // pair — strictly fewer messages than deltas — and a re-advertisement
  // of an installed doc is a counted no-op.
  FleetConfig cfg = SmokeConfig(FleetBackend::kChordDht, TestSeed(1));
  FleetHarness fleet(cfg);
  CatalogBackend* catalog = fleet.system().catalog();
  const CatalogStats after_bringup = catalog->stats();
  EXPECT_GE(after_bringup.advertise_deltas,
            uint64_t{cfg.origins} * cfg.docs_per_origin);
  EXPECT_LT(after_bringup.advertise_messages,
            after_bringup.advertise_deltas);

  const uint64_t noops_before = after_bringup.advertise_noops;
  catalog->Register(ResourceKind::kDocument, "d0_0", PeerId(0));
  EXPECT_EQ(catalog->stats().advertise_noops, noops_before + 1);
  EXPECT_EQ(catalog->stats().advertise_messages,
            after_bringup.advertise_messages);
}

TEST(FleetBookkeepingTest, TablesHoldOnlyWhatStillExists) {
  // kDrop writes empty many readers' caches; placement is off. A fixed
  // seed: the totals below are pinned.
  FleetConfig cfg = SmokeConfig(FleetBackend::kChordDht, /*seed=*/1);
  cfg.ops = 1000;
  ASSERT_EQ(cfg.refresh, RefreshPolicy::kDrop);
  FleetHarness fleet(cfg);
  const FleetReport r = fleet.Run();
  ASSERT_EQ(r.stale_reads, 0u) << r.ToString();
  AxmlSystem& sys = fleet.system();
  ASSERT_FALSE(sys.replicas().placement().config().enabled);

  size_t caches = 0;
  for (uint32_t i = 0; i < r.peers; ++i) {
    if (const TransferCache* cache = sys.replicas().FindCache(PeerId(i))) {
      ++caches;
      EXPECT_GT(cache->entry_count(), 0u) << "peer " << i;
    }
  }
  EXPECT_GT(caches, 0u);
  // Nothing reads pick demand while placement is off.
  EXPECT_TRUE(sys.generics().document_pick_demand().empty());
  // Forgotten caches keep their counters in the totals: the same figures
  // as when every emptied cache stayed allocated.
  EXPECT_EQ(sys.replicas().TotalStats().ToString(),
            "bytes_deduped=186 bytes_evicted=0 bytes_saved=1488 "
            "evictions=0 hits=24 inserts=704 invalidations=490 misses=958 "
            "rack_declined=254 victims_cost_aware=0 victims_lfu=0 "
            "victims_lru=0");
}

TEST(FleetFaultTest, ChordBackendSurvivesChurnWithZeroStaleReads) {
  // The faulted soak on the routed DHT backend: six non-origin peers
  // crash a third of the way in (mixed cache-losing and durable-cache
  // crashes) and rejoin at two thirds. The ring keeps the crashed
  // peers as members; successor resolution walks past them, so routed
  // lookups keep completing — and every read stays fresh throughout.
  FleetConfig cfg = SmokeConfig(FleetBackend::kChordDht, TestSeed(1));
  cfg.churn = true;
  cfg.churn_peers = 6;
  FleetHarness fleet(cfg);
  const FleetReport r = fleet.Run();
  EXPECT_EQ(r.crashes, 6u) << r.ToString();
  EXPECT_EQ(r.rejoins, 6u) << r.ToString();
  EXPECT_EQ(r.stale_reads, 0u) << r.ToString();
  EXPECT_GT(r.lookups, 0u);
  EXPECT_LE(r.msgs_per_lookup, 2.0 * std::log2(200.0) + 2.0)
      << r.ToString();
}

TEST(FleetFaultTest, CentralBackendSurvivesChurnWithZeroStaleReads) {
  // Same schedule against the central backend: the churn contract is
  // backend-independent (SetPeerLive is a no-op for central, whose
  // server — peer 0 — never crashes).
  FleetConfig cfg = SmokeConfig(FleetBackend::kCentral, TestSeed(1));
  cfg.churn = true;
  cfg.churn_peers = 6;
  FleetHarness fleet(cfg);
  const FleetReport r = fleet.Run();
  EXPECT_EQ(r.crashes, 6u) << r.ToString();
  EXPECT_EQ(r.stale_reads, 0u) << r.ToString();
}

TEST(FleetSoakTest, ThousandPeerDhtFleetIsFresh) {
  if (std::getenv("AXML_FLEET_SOAK") == nullptr) {
    GTEST_SKIP() << "set AXML_FLEET_SOAK=1 to run the 1000-peer soak";
  }
  FleetConfig cfg;
  cfg.topo.regions = 4;
  cfg.topo.racks_per_region = 5;
  cfg.topo.peers_per_rack = 50;  // 1000 peers
  cfg.backend = FleetBackend::kChordDht;
  cfg.origins = 16;
  cfg.ops = 2000;
  cfg.seed = TestSeed(1);
  FleetHarness fleet(cfg);
  const FleetReport r = fleet.Run();
  EXPECT_EQ(r.stale_reads, 0u) << r.ToString();
  EXPECT_GT(r.lookups, 0u);
  EXPECT_LE(r.msgs_per_lookup, 2.0 * std::log2(1000.0) + 2.0);
  EXPECT_LT(r.max_node_share, 0.2) << r.ToString();
}

TEST(FleetSoakTest, ThousandPeerDhtFleetSurvivesChurn) {
  if (std::getenv("AXML_FLEET_SOAK") == nullptr) {
    GTEST_SKIP() << "set AXML_FLEET_SOAK=1 to run the 1000-peer soak";
  }
  FleetConfig cfg;
  cfg.topo.regions = 4;
  cfg.topo.racks_per_region = 5;
  cfg.topo.peers_per_rack = 50;  // 1000 peers
  cfg.backend = FleetBackend::kChordDht;
  cfg.origins = 16;
  cfg.ops = 2000;
  cfg.seed = TestSeed(1);
  cfg.churn = true;
  cfg.churn_peers = 20;
  FleetHarness fleet(cfg);
  const FleetReport r = fleet.Run();
  EXPECT_EQ(r.crashes, 20u) << r.ToString();
  EXPECT_EQ(r.stale_reads, 0u) << r.ToString();
  EXPECT_GT(r.lookups, 0u);
}

}  // namespace
}  // namespace axml
