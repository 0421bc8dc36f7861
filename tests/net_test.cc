// Tests for the network substrate: event loop, topology, network
// transfer semantics, statistics, and the three discovery catalogs.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/str_util.h"
#include "net/catalog.h"
#include "net/event_loop.h"
#include "net/network.h"
#include "net/topology.h"
#include "obs/trace.h"
#include "peer/generic.h"
#include "peer/system.h"

namespace axml {
namespace {

// --- EventLoop ---

TEST(EventLoopTest, RunsInTimeOrder) {
  EventLoop loop;
  std::vector<int> order;
  loop.ScheduleAt(2.0, [&] { order.push_back(2); });
  loop.ScheduleAt(1.0, [&] { order.push_back(1); });
  loop.ScheduleAt(3.0, [&] { order.push_back(3); });
  EXPECT_EQ(loop.Run(), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(loop.now(), 3.0);
}

TEST(EventLoopTest, TiesBreakByScheduleOrder) {
  EventLoop loop;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    loop.ScheduleAt(1.0, [&order, i] { order.push_back(i); });
  }
  loop.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventLoopTest, EventsCanScheduleEvents) {
  EventLoop loop;
  int fired = 0;
  loop.ScheduleAt(1.0, [&] {
    loop.ScheduleAfter(0.5, [&] { ++fired; });
  });
  loop.Run();
  EXPECT_EQ(fired, 1);
  EXPECT_DOUBLE_EQ(loop.now(), 1.5);
}

TEST(EventLoopTest, PastSchedulesClampToNow) {
  EventLoop loop;
  loop.ScheduleAt(5.0, [] {});
  loop.Run();
  bool ran = false;
  loop.ScheduleAt(1.0, [&] { ran = true; });  // in the past
  loop.Run();
  EXPECT_TRUE(ran);
  EXPECT_DOUBLE_EQ(loop.now(), 5.0);
}

TEST(EventLoopTest, RunUntilStopsAtDeadline) {
  EventLoop loop;
  int count = 0;
  loop.ScheduleAt(1.0, [&] { ++count; });
  loop.ScheduleAt(2.0, [&] { ++count; });
  loop.ScheduleAt(10.0, [&] { ++count; });
  loop.RunUntil(5.0);
  EXPECT_EQ(count, 2);
  EXPECT_DOUBLE_EQ(loop.now(), 5.0);
  EXPECT_EQ(loop.pending(), 1u);
}

TEST(EventLoopTest, PeriodicFiresAsEventActivityAdvancesTime) {
  EventLoop loop;
  std::vector<SimTime> ticks;
  loop.AddPeriodic(1.0, [&] { ticks.push_back(loop.now()); });
  // No events: the loop quiesces immediately — the periodic task never
  // keeps it alive.
  EXPECT_EQ(loop.Run(), 0u);
  EXPECT_TRUE(ticks.empty());
  // Activity denser than the interval drives the plain cadence: events
  // at 1.5 and 2.5 carry time past the ticks due at 1.0 and 2.0, each
  // of which fires first, at its own due time.
  std::vector<SimTime> event_times;
  loop.ScheduleAt(1.5, [&] { event_times.push_back(loop.now()); });
  loop.ScheduleAt(2.5, [&] { event_times.push_back(loop.now()); });
  loop.Run();
  ASSERT_EQ(ticks.size(), 2u);
  EXPECT_DOUBLE_EQ(ticks[0], 1.0);
  EXPECT_DOUBLE_EQ(ticks[1], 2.0);
  ASSERT_EQ(event_times.size(), 2u);
  EXPECT_DOUBLE_EQ(event_times[1], 2.5);
}

TEST(EventLoopTest, PeriodicCoalescesMissedTicksAndCanBeRemoved) {
  EventLoop loop;
  int fired = 0;
  const uint64_t id = loop.AddPeriodic(1.0, [&] { ++fired; });
  // Jump time far ahead: the periodic fires for the earliest due tick,
  // then resumes its cadence from the current time instead of replaying
  // every missed interval.
  loop.ScheduleAt(100.0, [] {});
  loop.Run();
  EXPECT_EQ(fired, 1);
  loop.RemovePeriodic(id);
  loop.ScheduleAt(200.0, [] {});
  loop.Run();
  EXPECT_EQ(fired, 1);  // removed: no further firings
}

TEST(EventLoopTest, PeriodicTickMayPostEvents) {
  EventLoop loop;
  std::vector<std::string> order;
  loop.AddPeriodic(1.0, [&] {
    order.push_back("tick");
    loop.Post([&] { order.push_back("posted"); });
  });
  loop.ScheduleAt(1.5, [&] { order.push_back("event"); });
  loop.Run();
  // The tick fires before the event that carried time past it, and the
  // work it posts runs before the later event.
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], "tick");
  EXPECT_EQ(order[1], "posted");
  EXPECT_EQ(order[2], "event");
}

// --- Topology ---

TEST(TopologyTest, DefaultAndOverrides) {
  Topology t(LinkParams{0.010, 1e6});
  EXPECT_DOUBLE_EQ(t.Get(PeerId(0), PeerId(1)).latency_s, 0.010);
  t.SetLink(PeerId(0), PeerId(1), LinkParams{0.5, 10});
  EXPECT_DOUBLE_EQ(t.Get(PeerId(0), PeerId(1)).latency_s, 0.5);
  // Directed: the reverse keeps the default.
  EXPECT_DOUBLE_EQ(t.Get(PeerId(1), PeerId(0)).latency_s, 0.010);
  t.SetLinkSymmetric(PeerId(2), PeerId(3), LinkParams{0.2, 5});
  EXPECT_DOUBLE_EQ(t.Get(PeerId(3), PeerId(2)).latency_s, 0.2);
}

TEST(TopologyTest, LoopbackIsFree) {
  Topology t(LinkParams{0.1, 100});
  LinkParams self = t.Get(PeerId(1), PeerId(1));
  EXPECT_DOUBLE_EQ(self.latency_s, 0.0);
  EXPECT_LT(self.TransferTime(1 << 20), 1e-5);
}

TEST(TopologyTest, TransferTime) {
  LinkParams link{0.010, 1000};
  EXPECT_DOUBLE_EQ(link.TransferTime(500), 0.010 + 0.5);
}

TEST(TopologyTest, TwoClusters) {
  Topology t = Topology::TwoClusters(4, 2, LinkParams{0.001, 1e7},
                                     LinkParams{0.1, 1e5});
  EXPECT_DOUBLE_EQ(t.Get(PeerId(0), PeerId(1)).latency_s, 0.001);
  EXPECT_DOUBLE_EQ(t.Get(PeerId(2), PeerId(3)).latency_s, 0.001);
  EXPECT_DOUBLE_EQ(t.Get(PeerId(0), PeerId(2)).latency_s, 0.1);
}

TEST(TopologyTest, StarNeighborGraph) {
  Topology t = Topology::Star(PeerId(0), 4, LinkParams{0.001, 1e7},
                              LinkParams{0.05, 1e6});
  EXPECT_TRUE(t.has_neighbor_graph());
  EXPECT_EQ(t.Neighbors(PeerId(0)).size(), 3u);
  EXPECT_EQ(t.Neighbors(PeerId(2)).size(), 1u);
  EXPECT_DOUBLE_EQ(t.Get(PeerId(0), PeerId(3)).latency_s, 0.001);
  EXPECT_DOUBLE_EQ(t.Get(PeerId(1), PeerId(3)).latency_s, 0.05);
}

TEST(TopologyTest, RandomUniformWithinBounds) {
  Rng rng(21);
  Topology t = Topology::RandomUniform(5, LinkParams{0.001, 1e5},
                                       LinkParams{0.1, 1e7}, &rng);
  for (uint32_t i = 0; i < 5; ++i) {
    for (uint32_t j = 0; j < 5; ++j) {
      if (i == j) continue;
      LinkParams l = t.Get(PeerId(i), PeerId(j));
      EXPECT_GE(l.latency_s, 0.001);
      EXPECT_LE(l.latency_s, 0.1);
    }
  }
}

// --- Network ---

TEST(NetworkTest, DeliversWithLatencyAndBandwidth) {
  EventLoop loop;
  Network net(&loop, Topology(LinkParams{0.010, 1000}));
  bool delivered = false;
  net.Send(PeerId(0), PeerId(1), 500, [&] { delivered = true; });
  loop.Run();
  EXPECT_TRUE(delivered);
  EXPECT_DOUBLE_EQ(loop.now(), 0.010 + 0.5);
}

TEST(NetworkTest, FifoSerializationPerLink) {
  EventLoop loop;
  Network net(&loop, Topology(LinkParams{0.0, 1000}));
  std::vector<double> arrivals;
  // Two 1000-byte messages, same link: the second waits for the first's
  // transmission to finish.
  net.Send(PeerId(0), PeerId(1), 1000,
           [&] { arrivals.push_back(loop.now()); });
  net.Send(PeerId(0), PeerId(1), 1000,
           [&] { arrivals.push_back(loop.now()); });
  loop.Run();
  ASSERT_EQ(arrivals.size(), 2u);
  EXPECT_DOUBLE_EQ(arrivals[0], 1.0);
  EXPECT_DOUBLE_EQ(arrivals[1], 2.0);
}

TEST(NetworkTest, DistinctLinksDoNotInterfere) {
  EventLoop loop;
  Network net(&loop, Topology(LinkParams{0.0, 1000}));
  std::vector<double> arrivals;
  net.Send(PeerId(0), PeerId(1), 1000,
           [&] { arrivals.push_back(loop.now()); });
  net.Send(PeerId(0), PeerId(2), 1000,
           [&] { arrivals.push_back(loop.now()); });
  loop.Run();
  ASSERT_EQ(arrivals.size(), 2u);
  EXPECT_DOUBLE_EQ(arrivals[0], 1.0);
  EXPECT_DOUBLE_EQ(arrivals[1], 1.0);
}

TEST(NetworkTest, IdleLinksAreForgottenAndBusyOnesStillQueue) {
  EventLoop loop;
  Network net(&loop, Topology(LinkParams{0.001, 1e6}));
  // 0 -> 1 is busy transmitting for 5 s.
  net.Send(PeerId(0), PeerId(1), 5'000'000, [] {});
  // 10,000 sends, each on a link never used before, 0.2 ms apart; each
  // link is busy for 0.1 ms only.
  size_t delivered = 0;
  size_t peak = 0;
  for (uint32_t i = 0; i < 10'000; ++i) {
    loop.ScheduleAt(i * 0.0002, [&net, &delivered, &peak, i] {
      net.Send(PeerId(2 + i), PeerId(3 + i), 100, [&delivered] {
        ++delivered;
      });
      peak = std::max(peak, net.tracked_link_count());
    });
  }
  // A second message on 0 -> 1 still queues behind the first one.
  double arrival = 0;
  loop.ScheduleAt(2.0, [&] {
    net.Send(PeerId(0), PeerId(1), 1'000'000, [&] { arrival = loop.now(); });
  });
  loop.Run();
  EXPECT_EQ(delivered, 10'000u);
  EXPECT_LE(peak, 64u);
  EXPECT_DOUBLE_EQ(arrival, 5.0 + 1.0 + 0.001);
}

TEST(NetworkTest, StatsAccounting) {
  EventLoop loop;
  Network net(&loop, Topology(LinkParams{0.001, 1e6}));
  Tracer tracer([&loop] { return loop.now(); });
  tracer.set_enabled(true);
  net.set_tracer(&tracer);
  net.Send(PeerId(0), PeerId(1), 100, [] {});
  net.Send(PeerId(0), PeerId(1), 200, [] {});
  net.Send(PeerId(2), PeerId(2), 50, [] {});  // loopback
  loop.Run();
  const NetStats& s = net.stats();
  EXPECT_EQ(s.total_messages(), 3u);
  EXPECT_EQ(s.total_bytes(), 350u);
  EXPECT_EQ(s.remote_messages(), 2u);
  EXPECT_EQ(s.remote_bytes(), 300u);
  // Per link, the traced spans carry what the network no longer tallies.
  EXPECT_EQ(TracedLinkBytes(tracer, PeerId(0), PeerId(1)), 300u);
  EXPECT_EQ(TracedLinkBytes(tracer, PeerId(1), PeerId(0)), 0u);
  EXPECT_EQ(TracedLinkBytes(tracer, PeerId(2), PeerId(2)), 50u);
}

TEST(NetStatsTest, ResetClearsEveryCounterPairAndHistogram) {
  NetStats s;
  s.Record(PeerId(0), PeerId(1), 100);
  s.Record(PeerId(2), PeerId(2), 50);
  s.RecordControl(3, 192);  // feeds the histogram too: 3 x 64 bytes
  s.RecordNotify(PeerId(1), PeerId(0), 48);
  s.RecordDrop(100);
  ASSERT_EQ(s.total_messages(), 3u);
  ASSERT_EQ(s.message_bytes_histogram().count(), 6u);
  ASSERT_EQ(s.dropped_messages(), 1u);
  ASSERT_EQ(s.dropped_bytes(), 100u);

  s.Reset();

  EXPECT_EQ(s.total_messages(), 0u);
  EXPECT_EQ(s.total_bytes(), 0u);
  EXPECT_EQ(s.remote_messages(), 0u);
  EXPECT_EQ(s.remote_bytes(), 0u);
  EXPECT_EQ(s.control_messages(), 0u);
  EXPECT_EQ(s.control_bytes(), 0u);
  EXPECT_EQ(s.notify_messages(), 0u);
  EXPECT_EQ(s.notify_bytes(), 0u);
  EXPECT_EQ(s.dropped_messages(), 0u);
  EXPECT_EQ(s.dropped_bytes(), 0u);
  EXPECT_EQ(s.message_bytes_histogram().count(), 0u);
  EXPECT_EQ(s.message_bytes_histogram().sum(), 0u);

  // A reset object keeps working.
  s.Record(PeerId(0), PeerId(1), 7);
  EXPECT_EQ(s.total_bytes(), 7u);
  EXPECT_EQ(s.message_bytes_histogram().count(), 1u);
}

#if defined(GTEST_HAS_DEATH_TEST) && !defined(AXML_DISABLE_DCHECKS)
TEST(NetStatsDeathTest, NonConcretePeerInPairTripsTheDcheck) {
  // A message names two real peers; kInvalidIndex / kAnyIndex is a
  // caller bug the DCHECK turns into a loud failure.
  NetStats s;
  EXPECT_DEATH(s.Record(PeerId::Invalid(), PeerId(1), 10), "non-peer");
  EXPECT_DEATH(s.Record(PeerId(0), PeerId::Any(), 10), "non-peer");
  EXPECT_DEATH(s.RecordNotify(PeerId::Any(), PeerId(0), 10), "non-peer");
}
#endif

TEST(NetworkTest, ControlRoundtrip) {
  EventLoop loop;
  Network net(&loop, Topology(LinkParams{0.001, 1e6}));
  bool done = false;
  net.ControlRoundtrip(PeerId(0), PeerId(1), 3, 192, 0.25,
                       [&] { done = true; });
  loop.Run();
  EXPECT_TRUE(done);
  // The exchange's own delay (0.25) dominates this link's transmit +
  // latency, so completion lands exactly at the catalog's estimate.
  EXPECT_DOUBLE_EQ(loop.now(), 0.25);
  EXPECT_EQ(net.stats().control_messages(), 3u);
  EXPECT_EQ(net.stats().control_bytes(), 192u);
  // Control traffic now feeds the shared message-size histogram
  // (192 bytes over 3 messages = 64 each) and the anchor link's FIFO.
  EXPECT_EQ(net.stats().message_bytes_histogram().count(), 3u);
  EXPECT_EQ(net.stats().message_bytes_histogram().sum(), 192u);
}

TEST(NetworkTest, ControlRoundtripQueuesBehindAnchorLink) {
  // Pre-PR the roundtrip was a bare ScheduleAt and ignored link
  // occupancy; now it routes through the same per-link FIFO as data.
  EventLoop loop;
  Network net(&loop, Topology(LinkParams{0.001, 1e3}));  // 1 KB/s: slow
  bool data = false;
  bool control = false;
  net.Send(PeerId(0), PeerId(1), 1000, [&] { data = true; });  // 1 s transmit
  net.ControlRoundtrip(PeerId(0), PeerId(1), 2, 64, 0.01,
                       [&] { control = true; });
  loop.Run();
  EXPECT_TRUE(data);
  EXPECT_TRUE(control);
  // The control exchange starts only after the 1 s data transmit frees
  // the 0->1 link: 1.0 (queue) + max(64/1e3 + 0.001, 0.01) = 1.065.
  EXPECT_DOUBLE_EQ(loop.now(), 1.0 + 0.065);
}

// --- Catalogs ---

class CatalogKindTest : public ::testing::Test {
 protected:
  EventLoop loop_;
};

TEST_F(CatalogKindTest, CentralChargesRoundTripToServer) {
  Network net(&loop_, Topology(LinkParams{0.020, 1e6}));
  CentralCatalog cat(PeerId(0));
  cat.set_peer_count(10);
  cat.Register(ResourceKind::kDocument, "d", PeerId(3));
  LookupResult r = cat.LookupNow(ResourceKind::kDocument, "d", PeerId(5),
                                 net);
  ASSERT_EQ(r.holders.size(), 1u);
  EXPECT_EQ(r.holders[0], PeerId(3));
  EXPECT_EQ(r.messages, 2u);
  EXPECT_NEAR(r.delay_s, 2 * (0.020 + 64.0 / 1e6), 1e-9);
  // Lookup from the server itself is (nearly) free.
  LookupResult local = cat.LookupNow(ResourceKind::kDocument, "d",
                                     PeerId(0), net);
  EXPECT_LT(local.delay_s, r.delay_s);
}

TEST_F(CatalogKindTest, DhtScalesLogarithmically) {
  Network net(&loop_, Topology(LinkParams{0.010, 1e6}));
  ChordDhtCatalog cat;
  cat.Register(ResourceKind::kService, "s", PeerId(1));
  // Greedy finger routing takes O(log P) hops plus one response. The
  // ring is deterministic and every route on it fits in log2(P) hops;
  // the mean over every requester grows with P.
  struct Mean {
    double messages = 0;
    double delay_s = 0;
  };
  auto mean_over_requesters = [&](uint32_t peers, uint64_t max_messages) {
    cat.set_peer_count(peers);
    Mean m;
    for (uint32_t i = 0; i < peers; ++i) {
      LookupResult r =
          cat.LookupNow(ResourceKind::kService, "s", PeerId(i), net);
      EXPECT_LE(r.messages, max_messages);
      EXPECT_EQ(r.holders.size(), 1u);
      m.messages += static_cast<double>(r.messages) / peers;
      m.delay_s += r.delay_s / peers;
    }
    return m;
  };
  const Mean m16 = mean_over_requesters(16, 5);     // log2(16) + 1
  const Mean m1k = mean_over_requesters(1024, 11);  // log2(1024) + 1
  EXPECT_LT(m16.messages, m1k.messages);
  EXPECT_LT(m16.delay_s, m1k.delay_s);
}

TEST_F(CatalogKindTest, FloodVisitsNeighborGraph) {
  Topology topo(LinkParams{0.010, 1e6});
  // Chain 0-1-2-3.
  topo.AddNeighborEdge(PeerId(0), PeerId(1));
  topo.AddNeighborEdge(PeerId(1), PeerId(2));
  topo.AddNeighborEdge(PeerId(2), PeerId(3));
  Network net(&loop_, topo);
  FloodCatalog cat(/*ttl=*/7);
  cat.set_peer_count(4);
  cat.Register(ResourceKind::kDocument, "d", PeerId(3));
  LookupResult r = cat.LookupNow(ResourceKind::kDocument, "d", PeerId(0),
                                 net);
  ASSERT_EQ(r.holders.size(), 1u);
  EXPECT_EQ(r.holders[0], PeerId(3));
  EXPECT_GE(r.messages, 3u);  // every edge crossed at least once
  EXPECT_NEAR(r.delay_s, 2 * 0.010 * 3, 1e-9);  // depth 3, both ways
}

TEST_F(CatalogKindTest, FloodTtlLimitsReach) {
  Topology topo(LinkParams{0.010, 1e6});
  topo.AddNeighborEdge(PeerId(0), PeerId(1));
  topo.AddNeighborEdge(PeerId(1), PeerId(2));
  topo.AddNeighborEdge(PeerId(2), PeerId(3));
  Network net(&loop_, topo);
  FloodCatalog cat(/*ttl=*/2);
  cat.set_peer_count(4);
  cat.Register(ResourceKind::kDocument, "d", PeerId(3));
  LookupResult r = cat.LookupNow(ResourceKind::kDocument, "d", PeerId(0),
                                 net);
  EXPECT_TRUE(r.holders.empty());  // peer 3 is 3 hops away, TTL is 2
}

TEST_F(CatalogKindTest, AsyncLookupChargesControlTraffic) {
  Network net(&loop_, Topology(LinkParams{0.010, 1e6}));
  CentralCatalog cat(PeerId(0));
  cat.set_peer_count(4);
  cat.Register(ResourceKind::kDocument, "d", PeerId(2));
  bool called = false;
  cat.Lookup(ResourceKind::kDocument, "d", PeerId(1), &net,
             [&](const LookupResult& r) {
               called = true;
               EXPECT_EQ(r.holders.size(), 1u);
             });
  loop_.Run();
  EXPECT_TRUE(called);
  EXPECT_EQ(net.stats().control_messages(), 2u);
  EXPECT_GT(loop_.now(), 0.0);
}

TEST_F(CatalogKindTest, UnregisterRemovesHolder) {
  Network net(&loop_, Topology(LinkParams{0.010, 1e6}));
  CentralCatalog cat(PeerId(0));
  cat.Register(ResourceKind::kDocument, "d", PeerId(1));
  cat.Register(ResourceKind::kDocument, "d", PeerId(2));
  cat.Unregister(ResourceKind::kDocument, "d", PeerId(1));
  LookupResult r = cat.LookupNow(ResourceKind::kDocument, "d", PeerId(3),
                                 net);
  ASSERT_EQ(r.holders.size(), 1u);
  EXPECT_EQ(r.holders[0], PeerId(2));
  // Unknown resources return no holders but still cost a lookup.
  LookupResult miss = cat.LookupNow(ResourceKind::kDocument, "zz",
                                    PeerId(3), net);
  EXPECT_TRUE(miss.holders.empty());
  EXPECT_GT(miss.messages, 0u);
}

TEST_F(CatalogKindTest, ChordWithoutPeersRetractsCopiesForFree) {
  // A network attached but no peer count: there is no ring to price a
  // digest on, so registration and write-scoped retraction are both
  // free, as in a standalone catalog.
  Network net(&loop_, Topology(LinkParams{0.010, 1e6}));
  ChordDhtCatalog cat;
  cat.AttachNetwork(&net);
  cat.RegisterCopy(ResourceKind::kDocument, "d", PeerId(2), PeerId(1));
  EXPECT_TRUE(cat.IsAdvertised(ResourceKind::kDocument, "d", PeerId(2)));
  cat.RetractCopiesOf(ResourceKind::kDocument, "d", PeerId(1));
  loop_.Run();
  EXPECT_FALSE(cat.IsAdvertised(ResourceKind::kDocument, "d", PeerId(2)));
  EXPECT_EQ(cat.stats().retract_messages, 0u);
  EXPECT_EQ(cat.stats().advertise_deltas, 2u);
  EXPECT_EQ(net.stats().control_messages(), 0u);
}

TEST_F(CatalogKindTest, RegisterUnregisterRoundTrips) {
  Network net(&loop_, Topology(LinkParams{0.010, 1e6}));
  // The round-trip contract is implementation-independent; check it on
  // all three catalog structures.
  CentralCatalog central(PeerId(0));
  ChordDhtCatalog dht;
  FloodCatalog flood;
  for (CatalogBackend* cat :
       std::initializer_list<CatalogBackend*>{&central, &dht, &flood}) {
    cat->set_peer_count(4);
    EXPECT_FALSE(cat->IsAdvertised(ResourceKind::kDocument, "d", PeerId(1)));
    cat->Register(ResourceKind::kDocument, "d", PeerId(1));
    EXPECT_TRUE(cat->IsAdvertised(ResourceKind::kDocument, "d", PeerId(1)));
    EXPECT_EQ(cat->HolderCount(ResourceKind::kDocument, "d"), 1u);
    // Registration is idempotent.
    cat->Register(ResourceKind::kDocument, "d", PeerId(1));
    EXPECT_EQ(cat->HolderCount(ResourceKind::kDocument, "d"), 1u);
    // Document and service namespaces are disjoint.
    EXPECT_FALSE(cat->IsAdvertised(ResourceKind::kService, "d", PeerId(1)));
    LookupResult r =
        cat->LookupNow(ResourceKind::kDocument, "d", PeerId(2), net);
    ASSERT_EQ(r.holders.size(), 1u);
    EXPECT_EQ(r.holders[0], PeerId(1));
    cat->Unregister(ResourceKind::kDocument, "d", PeerId(1));
    EXPECT_FALSE(cat->IsAdvertised(ResourceKind::kDocument, "d", PeerId(1)));
    EXPECT_EQ(cat->HolderCount(ResourceKind::kDocument, "d"), 0u);
    // Unregistering an absent holder is a no-op.
    cat->Unregister(ResourceKind::kDocument, "d", PeerId(1));
    EXPECT_TRUE(cat->LookupNow(ResourceKind::kDocument, "d", PeerId(2), net)
                    .holders.empty());
  }
}

// --- Chord routing ---

/// Drives routed Chord lookups one at a time on a traced Network and
/// reads each route back off the "control" spans the hops leave.
class ChordRouteTest : public ::testing::Test {
 protected:
  void Build(Topology topo, uint32_t peers) {
    peers_ = peers;
    net_ = std::make_unique<Network>(&loop_, std::move(topo));
    net_->set_tracer(&tracer_);
    tracer_.set_enabled(true);
    cat_.set_peer_count(peers);
  }

  /// The peers a live Lookup from `from` visits, in order, excluding
  /// `from` and the response hop; the last one is the key's owner.
  std::vector<PeerId> RouteOf(const std::string& key, PeerId from) {
    tracer_.Clear();
    bool done = false;
    cat_.Lookup(ResourceKind::kDocument, key, from, net_.get(),
                [&](const LookupResult&) { done = true; });
    loop_.Run();
    EXPECT_TRUE(done) << key << " from " << from;
    std::vector<PeerId> route;
    PeerId cur = from;
    for (const TraceSpan& s : tracer_.Events()) {
      if (s.category != "net" || s.name != "control") continue;
      // The span's detail names the receiver: "-> p<index>".
      const PeerId to(static_cast<uint32_t>(std::stoul(s.detail.substr(4))));
      EXPECT_EQ(s.peer, cur) << "hops are not a chain: " << s.ToString();
      if (to == from) break;  // the response (or a local index read)
      route.push_back(to);
      cur = to;
    }
    return route;
  }

  /// The node a lookup from `from` resolves at: its region's key owner.
  PeerId OwnerOf(const std::string& key, PeerId from) {
    const std::vector<PeerId> route = RouteOf(key, from);
    return route.empty() ? from : route.back();
  }

  static std::vector<std::string> ClassKeys() {
    // The fleet_read shape: 8 origins x 4 documents, one class each.
    std::vector<std::string> keys;
    for (int o = 0; o < 8; ++o) {
      for (int d = 0; d < 4; ++d) keys.push_back(StrCat("cls_d", o, "_", d));
    }
    return keys;
  }

  EventLoop loop_;
  Tracer tracer_{[this] { return loop_.now(); }};
  std::unique_ptr<Network> net_;
  ChordDhtCatalog cat_;
  uint32_t peers_ = 0;
};

TEST_F(ChordRouteTest, HierarchicalLookupsResolveInsideTheRequestersRegion) {
  Topology::HierarchySpec spec;
  spec.regions = 2;
  spec.racks_per_region = 4;
  spec.peers_per_rack = 128;  // 1024 peers, the fleet_read ring
  Build(Topology::Hierarchical(spec), spec.peer_count());
  const std::vector<std::string> keys = ClassKeys();
  const Topology& topo = net_->topology();
  // Each region is its own ring of P / regions peers.
  const size_t max_hops = std::bit_width(peers_ / spec.regions) - 1;
  size_t wan_crossings = 0;
  double delay_s = 0;
  size_t routes = 0;
  for (uint32_t i = 0; i < peers_; ++i) {
    const PeerId from(i);
    for (const std::string& key : keys) {
      const std::vector<PeerId> route = RouteOf(key, from);
      ASSERT_LE(route.size(), max_hops) << key << " from " << from;
      double route_s = 0;
      PeerId cur = from;
      for (PeerId next : route) {
        wan_crossings += topo.RegionOf(cur) != topo.RegionOf(next);
        route_s += topo.Get(cur, next).TransferTime(kCatalogMsgBytes);
        cur = next;
      }
      if (!route.empty()) {
        route_s += topo.Get(cur, from).TransferTime(kCatalogMsgBytes);
      }
      // LookupNow prices the route the live lookup sent.
      const LookupResult now =
          cat_.LookupNow(ResourceKind::kDocument, key, from, *net_);
      ASSERT_DOUBLE_EQ(now.delay_s, route_s) << key << " from " << from;
      delay_s += now.delay_s;
      ++routes;
    }
  }
  // Every key has an owner in each region, so no hop (and no response)
  // crosses the 80 ms WAN: lookups cost rack and region links only.
  EXPECT_EQ(wan_crossings, 0u);
  EXPECT_LE(delay_s / routes, 0.025);
}

// Reference model of the classic Chord route: finger j of `cur` is the
// successor of cur + 2^j, and each hop takes the farthest finger that
// does not overshoot the key's owner. The ring points restate the
// catalog's: splitmix64 of (peer index + 1), FNV-1a of "d:" + name.
uint64_t SplitMix(uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

std::vector<PeerId> ClassicRoute(uint32_t peers, const std::string& key,
                                 uint32_t from) {
  std::vector<std::pair<uint64_t, uint32_t>> ring;
  for (uint32_t i = 0; i < peers; ++i) ring.emplace_back(SplitMix(i + 1), i);
  std::sort(ring.begin(), ring.end());
  auto successor = [&](uint64_t point) {
    auto it = std::lower_bound(ring.begin(), ring.end(),
                               std::pair<uint64_t, uint32_t>{point, 0});
    return it == ring.end() ? ring.front().second : it->second;
  };
  uint64_t h = 0xCBF29CE484222325ULL;
  for (unsigned char c : "d:" + key) {
    h ^= c;
    h *= 0x100000001B3ULL;
  }
  const uint32_t owner = successor(SplitMix(h));
  std::vector<PeerId> route;
  for (uint32_t cur = from; cur != owner;) {
    const uint64_t cur_pt = SplitMix(cur + 1);
    const uint64_t span = SplitMix(owner + 1) - cur_pt;
    for (int j = 63; j >= 0; --j) {
      const uint32_t f = successor(cur_pt + (uint64_t{1} << j));
      const uint64_t d = SplitMix(f + 1) - cur_pt;
      if (d != 0 && d <= span) {
        cur = f;
        break;
      }
    }
    route.push_back(PeerId(cur));
  }
  return route;
}

TEST_F(ChordRouteTest, UniformTopologyKeepsTheClassicRoute) {
  // Every candidate costs the same, so the ring-order tie-break picks
  // the classic finger on every hop. The small ring has owners whose
  // arc ends right before the requester's point.
  for (uint32_t peers : {16u, 256u}) {
    Build(Topology(LinkParams{0.010, 1e6}), peers);
    for (const std::string& key : ClassKeys()) {
      for (uint32_t i = 0; i < peers; ++i) {
        ASSERT_EQ(RouteOf(key, PeerId(i)), ClassicRoute(peers, key, i))
            << key << " from p" << i << " of " << peers;
      }
    }
  }
}

/// The 128-peer two-region ring: region 0 is peers 0-63, region 1 is
/// peers 64-127.
Topology::HierarchySpec TwoRegions128() {
  Topology::HierarchySpec spec;
  spec.regions = 2;
  spec.racks_per_region = 4;
  spec.peers_per_rack = 16;
  return spec;
}

TEST_F(ChordRouteTest, DurableEntriesReachEveryRegionOwnerAndCopiesTheirOwn) {
  const Topology::HierarchySpec spec = TwoRegions128();
  Build(Topology::Hierarchical(spec), spec.peer_count());
  cat_.AttachNetwork(net_.get());
  const std::string key = "cls_d0_0";
  const PeerId owner_a = OwnerOf(key, PeerId(0));
  const PeerId owner_b = OwnerOf(key, PeerId(64));
  ASSERT_EQ(net_->topology().RegionOf(owner_a), 0u);
  ASSERT_EQ(net_->topology().RegionOf(owner_b), 1u);
  // Holders that own the key in neither region.
  const PeerId durable_holder(owner_a == PeerId(1) ? 2 : 1);
  const PeerId copy_holder(owner_b == PeerId(65) ? 66 : 65);

  // The peers each advertisement call sends a digest to.
  auto digests = [&](auto advertise) {
    tracer_.Clear();
    auto sent = [&] {
      return cat_.stats().advertise_messages + cat_.stats().retract_messages;
    };
    const uint64_t before = sent();
    advertise();
    loop_.Run();
    std::vector<PeerId> to;
    for (const TraceSpan& s : tracer_.Events()) {
      if (s.category != "net" || s.name != "control") continue;
      to.push_back(
          PeerId(static_cast<uint32_t>(std::stoul(s.detail.substr(4)))));
    }
    EXPECT_EQ(sent() - before, to.size());
    std::sort(to.begin(), to.end());
    return to;
  };
  std::vector<PeerId> both = {owner_a, owner_b};
  std::sort(both.begin(), both.end());
  // A durable entry: one digest to the key's owner in each region, and
  // its retraction the same.
  EXPECT_EQ(digests([&] {
              cat_.Register(ResourceKind::kDocument, key, durable_holder);
            }),
            both);
  EXPECT_EQ(digests([&] {
              cat_.Unregister(ResourceKind::kDocument, key, durable_holder);
            }),
            both);
  // A cached copy: one digest, to its own region's owner, and so is its
  // retraction.
  EXPECT_EQ(digests([&] {
              cat_.RegisterCopy(ResourceKind::kDocument, key, copy_holder,
                                durable_holder);
            }),
            std::vector<PeerId>{owner_b});
  const Topology& topo = net_->topology();
  EXPECT_TRUE(cat_.VisibleFrom(ResourceKind::kDocument, key, copy_holder,
                               PeerId(100), topo));
  EXPECT_FALSE(cat_.VisibleFrom(ResourceKind::kDocument, key, copy_holder,
                                PeerId(10), topo));
  EXPECT_EQ(digests([&] {
              cat_.Unregister(ResourceKind::kDocument, key, copy_holder);
            }),
            std::vector<PeerId>{owner_b});
  // A copy widened to durable by a write: its own region's owner already
  // lists it, so only the other region's owner hears of it.
  EXPECT_EQ(digests([&] {
              cat_.RegisterCopy(ResourceKind::kDocument, key, copy_holder,
                                durable_holder);
            }),
            std::vector<PeerId>{owner_b});
  EXPECT_EQ(digests([&] {
              cat_.Register(ResourceKind::kDocument, key, copy_holder);
            }),
            std::vector<PeerId>{owner_a});
  EXPECT_TRUE(cat_.VisibleFrom(ResourceKind::kDocument, key, copy_holder,
                               PeerId(10), topo));
}

TEST_F(ChordRouteTest, CrashedRegionOwnerHandsItsLookupsToTheNextNodeOfItsRing) {
  const Topology::HierarchySpec spec = TwoRegions128();
  Build(Topology::Hierarchical(spec), spec.peer_count());
  const std::string key = "cls_d1_2";
  const PeerId owner_a = OwnerOf(key, PeerId(0));
  const PeerId owner_b = OwnerOf(key, PeerId(64));
  // Region 1's ring in point order: its owner's live successor there
  // takes the arc over, whichever node follows on the global order.
  std::vector<std::pair<uint64_t, uint32_t>> ring_b;
  for (uint32_t i = 64; i < 128; ++i) ring_b.emplace_back(SplitMix(i + 1), i);
  std::sort(ring_b.begin(), ring_b.end());
  size_t pos = 0;
  while (ring_b[pos].second != owner_b.index()) ++pos;
  const PeerId next_b(ring_b[(pos + 1) % ring_b.size()].second);

  cat_.SetPeerLive(owner_b, false);
  net_->SetPeerUp(owner_b, false);
  for (uint32_t i = 0; i < peers_; ++i) {
    if (PeerId(i) == owner_b) continue;
    EXPECT_EQ(OwnerOf(key, PeerId(i)), i < 64 ? owner_a : next_b)
        << "from p" << i;
  }
  cat_.SetPeerLive(owner_b, true);
  net_->SetPeerUp(owner_b, true);
  EXPECT_EQ(OwnerOf(key, PeerId(100)), owner_b);
}

TEST_F(ChordRouteTest, CrashedFirstHopIsSkippedAndTheOwnerStillAnswers) {
  Topology::HierarchySpec spec;
  spec.regions = 2;
  spec.racks_per_region = 4;
  spec.peers_per_rack = 16;  // 128 peers
  Build(Topology::Hierarchical(spec), spec.peer_count());
  cat_.Register(ResourceKind::kDocument, "cls_d0_0", PeerId(5));
  // A requester whose route is at least two hops, so its first hop is
  // a proximity choice rather than the owner itself.
  PeerId from;
  std::vector<PeerId> before;
  for (uint32_t i = 0; i < peers_ && before.size() < 2; ++i) {
    from = PeerId(i);
    before = RouteOf("cls_d0_0", from);
  }
  ASSERT_GE(before.size(), 2u);
  const PeerId first_hop = before.front();
  const PeerId owner = before.back();
  cat_.SetPeerLive(first_hop, false);
  net_->SetPeerUp(first_hop, false);
  const std::vector<PeerId> after = RouteOf("cls_d0_0", from);
  ASSERT_FALSE(after.empty());
  EXPECT_EQ(std::count(after.begin(), after.end(), first_hop), 0);
  EXPECT_EQ(after.back(), owner);
  const LookupResult r =
      cat_.LookupNow(ResourceKind::kDocument, "cls_d0_0", from, *net_);
  ASSERT_EQ(r.holders.size(), 1u);
  EXPECT_EQ(r.holders[0], PeerId(5));
  EXPECT_EQ(r.messages, after.size() + 1);
}

// --- Region-scoped d@any picks ---

TEST(RegionScopedPickTest, RandomPicksNeverLandOnAnotherRegionsCopy) {
  Topology::HierarchySpec spec;
  spec.regions = 2;
  spec.racks_per_region = 2;
  spec.peers_per_rack = 4;  // region 0 is peers 0-7, region 1 is 8-15
  AxmlSystem sys(Topology::Hierarchical(spec));
  for (uint32_t i = 0; i < spec.peer_count(); ++i) {
    sys.AddPeer(StrCat("p", i));
  }
  sys.SetCatalog(std::make_unique<ChordDhtCatalog>());
  // One durable origin in region 0 and a cached copy in each region.
  const PeerId origin(0);
  const PeerId copy_a(5);
  const PeerId copy_b(9);
  sys.catalog()->Register(ResourceKind::kDocument, "d", origin);
  sys.generics().AddDocumentMember("cls", ClassMember{"d", origin});
  for (PeerId copy : {copy_a, copy_b}) {
    sys.catalog()->RegisterCopy(ResourceKind::kDocument, "d", copy, origin);
    sys.generics().AddDocumentMember("cls", ClassMember{"d", copy});
  }
  // Each reader picks among what its region's key owner knows: the
  // origin and its own region's copy, never the other region's copy.
  for (const auto& [reader, own, other] :
       {std::tuple{PeerId(14), copy_b, copy_a},
        std::tuple{PeerId(2), copy_a, copy_b}}) {
    bool picked_own = false;
    for (uint64_t seed = 1; seed <= 200; ++seed) {
      sys.generics().SeedRandom(seed);
      const Result<ClassMember> m = sys.generics().PickDocument(
          "cls", reader, PickPolicy::kRandom, sys.network());
      ASSERT_TRUE(m.ok()) << m.status().ToString();
      ASSERT_NE(m->peer, other) << "seed " << seed << " reader " << reader;
      picked_own |= m->peer == own;
    }
    EXPECT_TRUE(picked_own) << "reader " << reader;
    // The reader's catalog lookup reports the same holders.
    const LookupResult r = sys.catalog()->LookupNow(
        ResourceKind::kDocument, "d", reader, sys.network());
    EXPECT_EQ(r.holders, (std::vector<PeerId>{origin, own}));
  }
}

}  // namespace
}  // namespace axml
