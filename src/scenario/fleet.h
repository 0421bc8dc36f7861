// Fleet-scale scenario harness.
//
// Stands up hundreds to thousands of peers in a WAN/region/rack
// hierarchy (Topology::Hierarchical), spreads origin documents across
// regions, and drives a Zipf-skewed read/mutation workload through the
// algebra evaluator with the replica cache on — the scale gate the
// ROADMAP's 1k–10k-peer item asks for. The harness is gtest-free so
// benches (bench_fleet) and tests (fleet_test) share one workload
// definition: tests assert on the returned FleetReport (stale_reads
// must be 0, DHT lookup cost ~log P, hot-node share), benches turn the
// same numbers into schema-v1 JSON.
//
// Everything is deterministic from FleetConfig::seed; equal configs
// give equal reports.

#ifndef AXML_SCENARIO_FLEET_H_
#define AXML_SCENARIO_FLEET_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/ids.h"
#include "common/rng.h"
#include "net/topology.h"
#include "peer/system.h"
#include "replica/replica_manager.h"
#include "xml/tree.h"

namespace axml {

/// Which discovery backend the fleet runs on.
enum class FleetBackend { kCentral, kChordDht };

/// Knobs of one fleet run. Defaults give the CI smoke shape: 200 peers
/// in 2 regions.
struct FleetConfig {
  /// Peer layout; peer count = regions * racks_per_region *
  /// peers_per_rack.
  Topology::HierarchySpec topo;
  FleetBackend backend = FleetBackend::kChordDht;

  /// Origin documents: `origins` peers spread evenly across the fleet
  /// each host `docs_per_origin` documents (every document also anchors
  /// a generic class for d@any reads).
  uint32_t origins = 8;
  uint32_t docs_per_origin = 4;
  /// Filler elements per document (payload size knob).
  size_t doc_filler = 4;

  /// Workload: `ops` reads issued by uniformly random readers against
  /// Zipf(s)-ranked documents; `generic_read_fraction` of them resolve
  /// d@any through the catalog, the rest read doc@origin directly.
  /// Every `mutate_every`-th op also mutates a Zipf-chosen document at
  /// its origin (0 disables mutations).
  uint64_t ops = 1000;
  double zipf_s = 1.0;
  double generic_read_fraction = 0.3;
  uint64_t mutate_every = 16;
  uint64_t seed = 1;

  /// Replica-layer shape.
  uint64_t cache_budget = 4000;
  RefreshPolicy refresh = RefreshPolicy::kDrop;

  /// Churn schedule (the faulted soak): when true, `churn_peers`
  /// non-origin peers crash one third into the run (alternating
  /// cache-losing and durable-cache crashes) and rejoin at two thirds;
  /// readers are drawn from live peers only, the freshness check stays
  /// on throughout, and the repair machinery (leases, shipment retries,
  /// periodic anti-entropy) is armed. On the chord-dht backend this
  /// also exercises ring liveness repair: lookups route around the
  /// crashed arc until rejoin.
  bool churn = false;
  uint32_t churn_peers = 4;
};

/// What one fleet run produced. `msgs_per_lookup` and
/// `max_node_share` are the backend-comparison headline: central pins
/// ~all catalog load on its server at ~2 messages per lookup, the DHT
/// spreads load at ~log2(P) messages per lookup.
struct FleetReport {
  std::string backend;
  uint64_t peers = 0;
  uint64_t ops = 0;
  uint64_t generic_reads = 0;
  uint64_t mutations = 0;
  /// Reads whose result differed from the origin's document at read
  /// time (every read is compared by canonical form).
  uint64_t stale_reads = 0;

  uint64_t lookups = 0;
  double msgs_per_lookup = 0;
  double max_node_share = 0;
  uint64_t lookup_bytes = 0;
  uint64_t advertise_messages = 0;
  uint64_t advertise_bytes = 0;

  uint64_t wire_messages = 0;
  uint64_t wire_bytes = 0;
  uint64_t remote_bytes = 0;
  double sim_s = 0;

  /// Churn schedule actually executed (0 when FleetConfig::churn off).
  uint64_t crashes = 0;
  uint64_t rejoins = 0;

  std::string ToString() const;
};

/// Builds the fleet in the constructor (peers, topology, backend,
/// origin documents — advertisements batched), runs the workload in
/// Run(). The system stays inspectable afterwards.
class FleetHarness {
 public:
  explicit FleetHarness(FleetConfig config);

  /// Drives the configured workload to quiescence and reports.
  FleetReport Run();

  AxmlSystem& system() { return sys_; }
  const FleetConfig& config() const { return config_; }

 private:
  struct FleetDoc {
    DocName name;
    PeerId origin;
    std::string class_name;
    uint64_t revision = 1;
  };

  TreePtr MakeDoc(const FleetDoc& doc, NodeIdGen* gen) const;

  FleetConfig config_;
  Rng rng_;
  AxmlSystem sys_;
  std::vector<FleetDoc> docs_;
};

}  // namespace axml

#endif  // AXML_SCENARIO_FLEET_H_
