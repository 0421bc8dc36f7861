// Tests for the deterministic fault injector and the network's fault
// paths: drops, retransmission, partitions, and peer crash gating.

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/str_util.h"
#include "net/event_loop.h"
#include "net/fault_injector.h"
#include "net/network.h"
#include "net/topology.h"

namespace axml {
namespace {

// --- FaultInjector unit tests ---

TEST(FaultInjectorTest, ZeroConfigDeliversAndDrawsNoRandomness) {
  Rng rng(42);
  Rng control(42);
  FaultInjector inj(&rng);
  for (int i = 0; i < 100; ++i) {
    FaultInjector::Verdict v = inj.Judge(PeerId(0), PeerId(1), i * 0.1);
    EXPECT_FALSE(v.drop);
    EXPECT_DOUBLE_EQ(v.extra_delay, 0.0);
  }
  // The byte-identical-when-idle contract: an all-zero config consumed
  // nothing from the injected stream.
  EXPECT_EQ(rng.Next(), control.Next());
  EXPECT_EQ(inj.stats().judged, 100u);
  EXPECT_EQ(inj.stats().delivered, 100u);
  EXPECT_EQ(inj.stats().dropped, 0u);
}

TEST(FaultInjectorTest, LoopbackIsNeverJudged) {
  Rng rng(7);
  FaultInjector inj(&rng);
  FaultConfig cfg;
  cfg.loss_prob = 1.0;
  inj.set_config(cfg);
  FaultInjector::Verdict v = inj.Judge(PeerId(3), PeerId(3), 1.0);
  EXPECT_FALSE(v.drop);
  EXPECT_EQ(inj.stats().judged, 0u);
}

TEST(FaultInjectorTest, CertainLossDropsEverything) {
  Rng rng(7);
  FaultInjector inj(&rng);
  FaultConfig cfg;
  cfg.loss_prob = 1.0;
  inj.set_config(cfg);
  for (int i = 0; i < 10; ++i) {
    FaultInjector::Verdict v = inj.Judge(PeerId(0), PeerId(1), 0.0);
    EXPECT_TRUE(v.drop);
    EXPECT_FALSE(v.partitioned);
  }
  EXPECT_EQ(inj.stats().dropped, 10u);
  EXPECT_EQ(inj.stats().delivered, 0u);
}

TEST(FaultInjectorTest, SameSeedReplaysTheSameVerdicts) {
  FaultConfig cfg;
  cfg.loss_prob = 0.3;
  cfg.spike_prob = 0.2;
  cfg.spike_delay_s = 0.5;
  cfg.reorder_prob = 0.1;
  cfg.reorder_delay_s = 0.05;

  auto run = [&cfg](uint64_t seed) {
    Rng rng(seed);
    FaultInjector inj(&rng);
    inj.set_config(cfg);
    std::vector<std::pair<bool, SimTime>> verdicts;
    for (int i = 0; i < 200; ++i) {
      FaultInjector::Verdict v = inj.Judge(PeerId(i % 4), PeerId(5), 0.0);
      verdicts.push_back({v.drop, v.extra_delay});
    }
    return verdicts;
  };

  EXPECT_EQ(run(123), run(123));
  EXPECT_NE(run(123), run(124));
}

TEST(FaultInjectorTest, SpikeAndReorderDelaysAccumulate) {
  Rng rng(1);
  FaultInjector inj(&rng);
  FaultConfig cfg;
  cfg.spike_prob = 1.0;
  cfg.spike_delay_s = 0.5;
  cfg.reorder_prob = 1.0;
  cfg.reorder_delay_s = 0.05;
  inj.set_config(cfg);
  FaultInjector::Verdict v = inj.Judge(PeerId(0), PeerId(1), 0.0);
  EXPECT_FALSE(v.drop);
  EXPECT_DOUBLE_EQ(v.extra_delay, 0.55);
  EXPECT_EQ(inj.stats().delayed, 1u);
}

TEST(FaultInjectorTest, PartitionWindowDropsCrossingTrafficWithoutRandomness) {
  Rng rng(9);
  Rng control(9);
  FaultInjector inj(&rng);
  PartitionWindow w;
  w.start_s = 1.0;
  w.end_s = 2.0;
  w.island = {PeerId(0), PeerId(1)};
  inj.AddPartition(w);

  // Crossing the island boundary inside the window: dropped, marked as
  // a partition loss, and no Rng draw happened.
  FaultInjector::Verdict v = inj.Judge(PeerId(0), PeerId(2), 1.5);
  EXPECT_TRUE(v.drop);
  EXPECT_TRUE(v.partitioned);
  // Both endpoints inside the island talk freely.
  EXPECT_FALSE(inj.Judge(PeerId(0), PeerId(1), 1.5).drop);
  // Both outside too.
  EXPECT_FALSE(inj.Judge(PeerId(2), PeerId(3), 1.5).drop);
  // Outside the window the link heals; end is exclusive.
  EXPECT_FALSE(inj.Judge(PeerId(0), PeerId(2), 0.5).drop);
  EXPECT_FALSE(inj.Judge(PeerId(0), PeerId(2), 2.0).drop);
  EXPECT_EQ(rng.Next(), control.Next());
  EXPECT_EQ(inj.stats().partition_dropped, 1u);
}

TEST(FaultInjectorTest, PerLinkOverrideBeatsTheGlobalConfig) {
  Rng rng(5);
  FaultInjector inj(&rng);
  FaultConfig lossy;
  lossy.loss_prob = 1.0;
  inj.set_config(lossy);
  inj.SetLinkConfig(PeerId(0), PeerId(1), FaultConfig{});  // perfect link
  EXPECT_FALSE(inj.Judge(PeerId(0), PeerId(1), 0.0).drop);
  // The override is directed: the reverse link keeps the global config.
  EXPECT_TRUE(inj.Judge(PeerId(1), PeerId(0), 0.0).drop);
}

TEST(FaultInjectorTest, StatsToStringAndExportStayInLockstep) {
  Rng rng(3);
  FaultInjector inj(&rng);
  FaultConfig cfg;
  cfg.loss_prob = 0.5;
  inj.set_config(cfg);
  for (int i = 0; i < 50; ++i) inj.Judge(PeerId(0), PeerId(1), 0.0);

  const FaultStats& s = inj.stats();
  const std::string str = s.ToString();
  std::map<std::string, uint64_t> exported;
  MetricSink sink("fault", &exported);
  ExportCounters(s, sink);
  ASSERT_EQ(exported.size(), 5u);
  for (const auto& [name, value] : exported) {
    EXPECT_NE(str.find(StrCat(name.substr(6), "=", value)),
              std::string::npos)
        << "ToString is missing " << name;
  }
  EXPECT_EQ(s.judged, s.delivered + s.dropped + s.partition_dropped);
}

// --- Network integration: drops, retransmission, partitions, crashes ---

TEST(NetworkFaultTest, DroppedSendIsCountedAndNeverDelivered) {
  EventLoop loop;
  Network net(&loop, Topology(LinkParams{0.01, 1e6}));
  Rng rng(11);
  FaultInjector inj(&rng);
  FaultConfig cfg;
  cfg.loss_prob = 1.0;
  inj.set_config(cfg);
  net.set_fault_injector(&inj);

  bool delivered = false;
  net.Send(PeerId(0), PeerId(1), 100, [&] { delivered = true; });
  loop.Run();
  EXPECT_FALSE(delivered);
  EXPECT_EQ(net.stats().dropped_messages(), 1u);
  EXPECT_EQ(net.stats().dropped_bytes(), 100u);
  // Send-level accounting still charged the attempt: the bytes hit the
  // wire even though they evaporated.
  EXPECT_EQ(net.stats().total_messages(), 1u);
}

TEST(NetworkFaultTest, SendReliableRetransmitsThroughLoss) {
  EventLoop loop;
  Network net(&loop, Topology(LinkParams{0.01, 1e6}));
  Rng rng(13);
  FaultInjector inj(&rng);
  FaultConfig cfg;
  cfg.loss_prob = 0.8;  // heavy loss: several retransmissions expected
  inj.set_config(cfg);
  net.set_fault_injector(&inj);

  bool delivered = false;
  net.SendReliable(PeerId(0), PeerId(1), 500, [&] { delivered = true; });
  loop.Run();
  EXPECT_TRUE(delivered);
  EXPECT_GT(net.stats().dropped_messages(), 0u);
  // Every retransmission is real traffic.
  EXPECT_EQ(net.stats().total_messages(),
            net.stats().dropped_messages() + 1);
}

TEST(NetworkFaultTest, SendReliableOutlivesAPartitionWindow) {
  EventLoop loop;
  Network net(&loop, Topology(LinkParams{0.01, 1e6}));
  Rng rng(17);
  FaultInjector inj(&rng);
  PartitionWindow w;
  w.start_s = 0.0;
  w.end_s = 1.0;
  w.island = {PeerId(0)};
  inj.AddPartition(w);
  net.set_fault_injector(&inj);

  bool delivered = false;
  net.SendReliable(PeerId(0), PeerId(1), 100, [&] { delivered = true; });
  loop.Run();
  EXPECT_TRUE(delivered);
  // The retransmission loop carried virtual time past the window's end
  // before the copy could cross.
  EXPECT_GE(loop.now(), 1.0);
  EXPECT_GT(inj.stats().partition_dropped, 0u);
}

TEST(NetworkFaultTest, ControlRoundtripRetriesThroughLoss) {
  EventLoop loop;
  Network net(&loop, Topology(LinkParams{0.01, 1e6}));
  Rng rng(19);
  FaultInjector inj(&rng);
  FaultConfig cfg;
  cfg.loss_prob = 0.7;
  inj.set_config(cfg);
  net.set_fault_injector(&inj);

  bool done = false;
  net.ControlRoundtrip(PeerId(0), PeerId(1), 2, 128, 0.05,
                       [&] { done = true; });
  loop.Run();
  EXPECT_TRUE(done);
  // Each retry after the initial 2-message exchange charges one fresh
  // control message.
  EXPECT_GE(net.stats().control_messages(), 2u);
}

TEST(NetworkFaultTest, SendToDownPeerDropsAndCrashInFlightDropsOnArrival) {
  EventLoop loop;
  Network net(&loop, Topology(LinkParams{0.01, 1e6}));

  net.SetPeerUp(PeerId(1), false);
  bool to_down = false;
  net.Send(PeerId(0), PeerId(1), 50, [&] { to_down = true; });
  loop.Run();
  EXPECT_FALSE(to_down);
  EXPECT_EQ(net.stats().dropped_messages(), 1u);

  // A crash while the message is in flight: committed at send time,
  // evaporates on arrival.
  bool in_flight = false;
  net.Send(PeerId(0), PeerId(2), 50, [&] { in_flight = true; });
  net.SetPeerUp(PeerId(2), false);
  loop.Run();
  EXPECT_FALSE(in_flight);
  EXPECT_EQ(net.stats().dropped_messages(), 2u);

  // Rejoin restores delivery.
  net.SetPeerUp(PeerId(1), true);
  bool after_rejoin = false;
  net.Send(PeerId(0), PeerId(1), 50, [&] { after_rejoin = true; });
  loop.Run();
  EXPECT_TRUE(after_rejoin);
}

TEST(NetworkFaultTest, SendReliableAbandonsACrashedDestination) {
  EventLoop loop;
  Network net(&loop, Topology(LinkParams{0.01, 1e6}));
  net.SetPeerUp(PeerId(1), false);
  bool delivered = false;
  net.SendReliable(PeerId(0), PeerId(1), 100, [&] { delivered = true; });
  // Terminates: retrying into a down peer forever would hang the loop.
  loop.Run();
  EXPECT_FALSE(delivered);
}

TEST(NetworkFaultTest, IdleInjectorIsByteIdenticalToNoInjector) {
  auto run = [](bool attach_injector) {
    EventLoop loop;
    Network net(&loop, Topology(LinkParams{0.02, 1e5}));
    Rng rng(23);
    FaultInjector inj(&rng);
    if (attach_injector) net.set_fault_injector(&inj);  // all-zero config
    std::vector<SimTime> arrivals;
    for (int i = 0; i < 5; ++i) {
      net.Send(PeerId(i % 2), PeerId(2), 100 * (i + 1),
               [&arrivals, &loop] { arrivals.push_back(loop.now()); });
    }
    net.SendReliable(PeerId(0), PeerId(1), 700,
                     [&arrivals, &loop] { arrivals.push_back(loop.now()); });
    net.ControlRoundtrip(PeerId(1), PeerId(0), 2, 128, 0.05,
                         [&arrivals, &loop] {
                           arrivals.push_back(loop.now());
                         });
    loop.Run();
    return std::make_tuple(arrivals, loop.now(), net.stats().ToString());
  };
  EXPECT_EQ(run(false), run(true));
}

}  // namespace
}  // namespace axml
