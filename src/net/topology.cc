#include "net/topology.h"

namespace axml {

void Topology::SetLink(PeerId a, PeerId b, LinkParams p) {
  overrides_[Key(a, b)] = p;
}

void Topology::SetLinkSymmetric(PeerId a, PeerId b, LinkParams p) {
  SetLink(a, b, p);
  SetLink(b, a, p);
}

LinkParams Topology::Get(PeerId a, PeerId b) const {
  if (a == b) {
    // Loopback: effectively free (memory copy), modeled as zero latency
    // and very high bandwidth so local "transfers" cost ~nothing.
    return LinkParams{0.0, 1.0e12};
  }
  auto it = overrides_.find(Key(a, b));
  if (it != overrides_.end()) return it->second;
  if (a.index() < rack_of_.size() && b.index() < rack_of_.size()) {
    if (rack_of_[a.index()] == rack_of_[b.index()]) return tier_rack_;
    if (region_of_[a.index()] == region_of_[b.index()]) return tier_region_;
    return tier_wan_;
  }
  return default_;
}

Topology Topology::Hierarchical(const HierarchySpec& spec) {
  // The WAN tier doubles as the default so peers added past the declared
  // hierarchy still get a sane (slow) link.
  Topology t(spec.wan);
  const uint32_t n = spec.peer_count();
  t.rack_of_.resize(n);
  t.region_of_.resize(n);
  for (uint32_t i = 0; i < n; ++i) {
    t.rack_of_[i] = i / spec.peers_per_rack;
    t.region_of_[i] = i / (spec.racks_per_region * spec.peers_per_rack);
  }
  t.tier_wan_ = spec.wan;
  t.tier_region_ = spec.region;
  t.tier_rack_ = spec.rack;
  return t;
}

uint32_t Topology::RegionOf(PeerId p) const {
  if (!p.is_concrete() || p.index() >= region_of_.size()) return UINT32_MAX;
  return region_of_[p.index()];
}

uint32_t Topology::RackOf(PeerId p) const {
  if (!p.is_concrete() || p.index() >= rack_of_.size()) return UINT32_MAX;
  return rack_of_[p.index()];
}

void Topology::AddNeighborEdge(PeerId a, PeerId b) {
  neighbors_[a].push_back(b);
  neighbors_[b].push_back(a);
}

const std::vector<PeerId>& Topology::Neighbors(PeerId p) const {
  static const std::vector<PeerId> kEmpty;
  auto it = neighbors_.find(p);
  return it == neighbors_.end() ? kEmpty : it->second;
}

Topology Topology::Uniform(LinkParams link) { return Topology(link); }

Topology Topology::Star(PeerId hub, uint32_t n_peers, LinkParams hub_link,
                        LinkParams spoke_link) {
  Topology t(spoke_link);
  for (uint32_t i = 0; i < n_peers; ++i) {
    PeerId p(i);
    if (p == hub) continue;
    t.SetLinkSymmetric(hub, p, hub_link);
    t.AddNeighborEdge(hub, p);
  }
  return t;
}

Topology Topology::TwoClusters(uint32_t n_peers, uint32_t split,
                               LinkParams intra, LinkParams inter) {
  Topology t(inter);
  for (uint32_t i = 0; i < n_peers; ++i) {
    for (uint32_t j = i + 1; j < n_peers; ++j) {
      bool same = (i < split) == (j < split);
      if (same) t.SetLinkSymmetric(PeerId(i), PeerId(j), intra);
    }
  }
  return t;
}

Topology Topology::RandomUniform(uint32_t n_peers, LinkParams lo,
                                 LinkParams hi, Rng* rng) {
  Topology t(lo);
  for (uint32_t i = 0; i < n_peers; ++i) {
    for (uint32_t j = i + 1; j < n_peers; ++j) {
      LinkParams p;
      p.latency_s = lo.latency_s +
                    rng->UniformDouble() * (hi.latency_s - lo.latency_s);
      p.bandwidth_bps =
          lo.bandwidth_bps +
          rng->UniformDouble() * (hi.bandwidth_bps - lo.bandwidth_bps);
      t.SetLinkSymmetric(PeerId(i), PeerId(j), p);
    }
  }
  return t;
}

}  // namespace axml
