// Deterministic network fault injection.
//
// The paper's replication story assumes a transport that never fails;
// every "no stale read" property so far was proven on that perfect
// fabric. The FaultInjector is the controlled way to break it: the
// Network consults Judge() for every link message and the injector
// decides — from per-link loss probability, delay spikes, reordering
// hold-backs, and scheduled partition windows — whether the message is
// dropped or delayed. All randomness comes from ONE injected seeded Rng
// (common/rng.h), never from an internal or global source, so a fault
// schedule replays identically for a given seed (scripts/check_source.py
// lints this file pair for it). A zero FaultConfig draws nothing from
// the Rng at all, so an attached-but-idle injector leaves a run
// byte-identical to one with no injector.

#ifndef AXML_NET_FAULT_INJECTOR_H_
#define AXML_NET_FAULT_INJECTOR_H_

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/ids.h"
#include "common/rng.h"
#include "net/sim_time.h"
#include "obs/metrics.h"

namespace axml {

/// Per-link fault parameters. Every probability defaults to 0 — a
/// default FaultConfig is a perfect link.
struct FaultConfig {
  /// Per-message Bernoulli loss probability.
  double loss_prob = 0;
  /// Probability of a latency spike; a spiked message arrives
  /// `spike_delay_s` later than scheduled.
  double spike_prob = 0;
  SimTime spike_delay_s = 0;
  /// Probability of a reordering hold-back: the message is delayed by
  /// `reorder_delay_s`, letting later traffic on other links (and any
  /// non-held message on this link) overtake it.
  double reorder_prob = 0;
  SimTime reorder_delay_s = 0;
};

/// A scheduled partition: during [start_s, end_s) every message with
/// exactly one endpoint inside `island` is dropped (both directions).
struct PartitionWindow {
  SimTime start_s = 0;
  SimTime end_s = 0;
  std::set<PeerId> island;
};

/// Counters for injected faults.
struct FaultStats {
  uint64_t judged = 0;           ///< messages the injector ruled on
  uint64_t delivered = 0;        ///< ruled deliverable (possibly delayed)
  uint64_t dropped = 0;          ///< random per-link losses
  uint64_t partition_dropped = 0;///< losses to a partition window
  uint64_t delayed = 0;          ///< spike or reorder hold-backs applied

  std::string ToString() const { return CountersToString(*this); }

  static constexpr auto kCounters = std::make_tuple(
      Counter{"judged", &FaultStats::judged},
      Counter{"delivered", &FaultStats::delivered},
      Counter{"dropped", &FaultStats::dropped},
      Counter{"partition_dropped", &FaultStats::partition_dropped},
      Counter{"delayed", &FaultStats::delayed});
};
static_assert(CountersCover<FaultStats>());

/// Rules on the fate of each network message. Owned by whoever owns the
/// Rng (tests, benches, the soak harness); the Network only borrows it
/// via Network::set_fault_injector.
class FaultInjector {
 public:
  /// `rng` must outlive the injector. The injector NEVER constructs or
  /// seeds an Rng of its own — determinism of the whole simulation
  /// hinges on every draw coming from this one injected, seeded stream.
  explicit FaultInjector(Rng* rng) : rng_(rng) {}

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  /// Fault parameters applied to every link without an override.
  void set_config(const FaultConfig& config) { config_ = config; }
  const FaultConfig& config() const { return config_; }

  /// Overrides the directed link from->to.
  void SetLinkConfig(PeerId from, PeerId to, const FaultConfig& config);

  /// Schedules a partition window. Windows may overlap; a message is
  /// dropped if any active window separates its endpoints.
  void AddPartition(PartitionWindow window);

  /// What happens to one message on from->to at virtual time `now`.
  struct Verdict {
    bool drop = false;
    /// True when the drop came from a partition window (no Rng draw).
    bool partitioned = false;
    /// Added to the arrival time of a delivered message.
    SimTime extra_delay = 0;
  };

  /// Rules on one message. Loopback (from == to) is not a network link
  /// and is always delivered untouched. Partition windows are checked
  /// first and consume no randomness; loss, spike and reorder each draw
  /// from the injected Rng only when their probability is non-zero, so
  /// a zero config consumes no randomness at all.
  Verdict Judge(PeerId from, PeerId to, SimTime now);

  const FaultStats& stats() const { return stats_; }

 private:
  const FaultConfig& ConfigFor(PeerId from, PeerId to) const;

  Rng* rng_;
  FaultConfig config_;
  std::map<std::pair<PeerId, PeerId>, FaultConfig> link_configs_;
  std::vector<PartitionWindow> partitions_;
  FaultStats stats_;
};

}  // namespace axml

#endif  // AXML_NET_FAULT_INJECTOR_H_
