// Network topology: per-directed-link latency and bandwidth.
//
// The paper "makes no assumption about the structure of the peer
// network"; benches therefore sweep several topologies. A Topology is a
// default link parameterization plus per-pair overrides, and a logical
// neighbor graph used by the flooding catalog.

#ifndef AXML_NET_TOPOLOGY_H_
#define AXML_NET_TOPOLOGY_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/ids.h"
#include "common/rng.h"
#include "net/sim_time.h"

namespace axml {

/// Parameters of one directed link.
struct LinkParams {
  /// One-way propagation delay, seconds.
  double latency_s = 0.010;
  /// Transmission rate, bytes per second.
  double bandwidth_bps = 1.0e6;

  /// Time for `bytes` to traverse the link (latency + transmission).
  double TransferTime(uint64_t bytes) const {
    return latency_s + static_cast<double>(bytes) / bandwidth_bps;
  }
};

/// Link parameters for all peer pairs, with overrides, plus an optional
/// neighbor graph (defaults to the complete graph on registered peers).
class Topology {
 public:
  Topology() = default;
  explicit Topology(LinkParams default_link) : default_(default_link) {}

  /// Default parameters for links without an override.
  void set_default_link(LinkParams p) { default_ = p; }
  const LinkParams& default_link() const { return default_; }

  /// Overrides the directed link a->b.
  void SetLink(PeerId a, PeerId b, LinkParams p);
  /// Overrides both directions.
  void SetLinkSymmetric(PeerId a, PeerId b, LinkParams p);
  /// Parameters of the directed link a->b (loopback links are free).
  LinkParams Get(PeerId a, PeerId b) const;

  /// Declares the logical neighbor edge a--b (used by flooding lookups).
  void AddNeighborEdge(PeerId a, PeerId b);
  /// Neighbors of `p` in the logical graph; empty when no edges were
  /// declared (callers then treat the graph as complete).
  const std::vector<PeerId>& Neighbors(PeerId p) const;
  bool has_neighbor_graph() const { return !neighbors_.empty(); }

  // --- Factory helpers for benches and tests ---

  /// All pairs share `link`.
  static Topology Uniform(LinkParams link);
  /// Star: spokes reach each other through cheap hub links; the hub peer
  /// has `hub_link` to everyone, spoke-to-spoke links use `spoke_link`.
  static Topology Star(PeerId hub, uint32_t n_peers, LinkParams hub_link,
                       LinkParams spoke_link);
  /// Two clusters with fast intra-cluster and slow inter-cluster links.
  /// Peers [0, split) form cluster A, [split, n_peers) cluster B.
  static Topology TwoClusters(uint32_t n_peers, uint32_t split,
                              LinkParams intra, LinkParams inter);
  /// Random latencies uniform in [lo.latency, hi.latency] and bandwidths
  /// uniform in [lo.bw, hi.bw]; symmetric.
  static Topology RandomUniform(uint32_t n_peers, LinkParams lo,
                                LinkParams hi, Rng* rng);

  /// WAN/region/rack hierarchy for fleet-scale scenarios. Peers are laid
  /// out in contiguous blocks: peer i sits in rack i / peers_per_rack,
  /// racks group into regions of racks_per_region. Same rack -> `rack`,
  /// same region -> `region`, otherwise `wan`. State is O(P) (two flat
  /// zone vectors), not O(P^2) pairwise overrides — the representation
  /// TwoClusters-style factories cannot afford at 10k peers.
  struct HierarchySpec {
    uint32_t regions = 2;
    uint32_t racks_per_region = 4;
    uint32_t peers_per_rack = 25;
    LinkParams wan{0.080, 1.0e6};
    LinkParams region{0.010, 2.0e7};
    LinkParams rack{0.001, 1.0e8};

    uint32_t peer_count() const {
      return regions * racks_per_region * peers_per_rack;
    }
  };
  static Topology Hierarchical(const HierarchySpec& spec);

  /// Region index of `p` in a Hierarchical topology; UINT32_MAX for
  /// peers outside the hierarchy (or a non-hierarchical topology).
  uint32_t RegionOf(PeerId p) const;
  /// Rack index of `p`, like RegionOf.
  uint32_t RackOf(PeerId p) const;
  /// Region of every peer of a Hierarchical topology by index; empty for
  /// a non-hierarchical one.
  const std::vector<uint32_t>& regions() const { return region_of_; }

 private:
  static uint64_t Key(PeerId a, PeerId b) {
    return (static_cast<uint64_t>(a.index()) << 32) | b.index();
  }

  LinkParams default_;
  std::unordered_map<uint64_t, LinkParams> overrides_;
  std::unordered_map<PeerId, std::vector<PeerId>> neighbors_;

  // Hierarchical zones: rack_of_/region_of_ are indexed by peer index;
  // empty unless built by Hierarchical(). Explicit SetLink overrides
  // still win over the zone relation.
  std::vector<uint32_t> rack_of_;
  std::vector<uint32_t> region_of_;
  LinkParams tier_wan_;
  LinkParams tier_region_;
  LinkParams tier_rack_;
};

}  // namespace axml

#endif  // AXML_NET_TOPOLOGY_H_
