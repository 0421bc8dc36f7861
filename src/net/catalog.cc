#include "net/catalog.h"

#include <algorithm>
#include <bit>
#include <deque>
#include <limits>
#include <memory>
#include <unordered_map>
#include <unordered_set>

#include "common/logging.h"

namespace axml {

namespace {

// Deterministic 64-bit mixer (splitmix64): ring points must not depend
// on process state, so equal seeds give equal rings.
uint64_t Mix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

// FNV-1a over the key string, finished through the mixer so nearby names
// spread over the ring.
uint64_t HashKey(const std::string& s) {
  uint64_t h = 0xCBF29CE484222325ULL;
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001B3ULL;
  }
  return Mix64(h);
}

// Clockwise ring distance from `a` to `b` (unsigned wraparound).
uint64_t RingDist(uint64_t a, uint64_t b) { return b - a; }

// Live nodes of one finger interval priced as next-hop candidates. On
// a single 1024-peer ring spanning two regions, 16 left only the forced
// last WAN crossing (0.50 per route); 8 gave 0.51 and 4 gave 0.66. On a
// region ring they choose between rack and region links.
constexpr size_t kFingerCandidates = 16;

}  // namespace

void CatalogBackend::Register(ResourceKind kind, const std::string& name,
                              PeerId holder) {
  Advertise(kind, name, holder, PeerId::Invalid());
}

void CatalogBackend::RegisterCopy(ResourceKind kind, const std::string& name,
                                  PeerId holder, PeerId origin) {
  AXML_DCHECK(origin.valid());
  Advertise(kind, name, holder, origin);
}

void CatalogBackend::Advertise(ResourceKind kind, const std::string& name,
                               PeerId holder, PeerId origin) {
  auto& v = entries_[MapKey(kind, name)];
  auto it = std::find_if(v.begin(), v.end(),
                         [&](const Entry& e) { return e.holder == holder; });
  if (it == v.end()) {
    v.push_back(Entry{holder, origin});
    OnAdvertiseDelta(kind, name, holder, /*add=*/true,
                     origin.valid() ? DeltaScope::kCopy
                                    : DeltaScope::kDurable);
  } else if (it->copy() && !origin.valid()) {
    // A durable write promoted the copy: its entry widens to durable.
    it->origin = PeerId::Invalid();
    OnAdvertiseDelta(kind, name, holder, /*add=*/true, DeltaScope::kWiden);
  } else {
    // Already advertised: the delta protocol makes this free.
    ++stats_.advertise_noops;
  }
}

void CatalogBackend::Unregister(ResourceKind kind, const std::string& name,
                                PeerId holder) {
  auto it = entries_.find(MapKey(kind, name));
  if (it == entries_.end()) {
    ++stats_.advertise_noops;
    return;
  }
  auto& v = it->second;
  auto pos = std::find_if(v.begin(), v.end(),
                          [&](const Entry& e) { return e.holder == holder; });
  if (pos == v.end()) {
    ++stats_.advertise_noops;
    return;
  }
  const bool copy = pos->copy();
  v.erase(pos);
  if (v.empty()) entries_.erase(it);
  OnAdvertiseDelta(kind, name, holder, /*add=*/false,
                   copy ? DeltaScope::kCopy : DeltaScope::kDurable);
}

void CatalogBackend::RetractCopiesOf(ResourceKind kind,
                                     const std::string& name, PeerId origin) {
  auto it = entries_.find(MapKey(kind, name));
  if (it == entries_.end()) return;
  auto& v = it->second;
  // Descent is transitive: a copy's entry names the peer it was fetched
  // from, so each pass adds the copies of the copies found so far.
  std::set<PeerId> sources{origin};
  std::vector<PeerId> holders;
  for (bool grew = true; grew;) {
    grew = false;
    for (const Entry& e : v) {
      if (e.copy() && sources.count(e.origin) > 0 &&
          sources.insert(e.holder).second) {
        holders.push_back(e.holder);
        grew = true;
      }
    }
  }
  if (holders.empty()) return;
  std::erase_if(v, [&](const Entry& e) {
    return e.holder != origin && sources.count(e.holder) > 0;
  });
  if (v.empty()) entries_.erase(it);
  OnRetractCopies(kind, name, origin, holders);
}

void CatalogBackend::OnAdvertiseDelta(ResourceKind kind,
                                      const std::string& name, PeerId holder,
                                      bool add, DeltaScope scope) {
  // Default: the delta happened but cost nothing on the wire (the seed's
  // "registration is charged lazily on lookup" model).
  (void)kind;
  (void)name;
  (void)holder;
  (void)scope;
  RecordDigest(/*retract=*/!add, 0, 0, 1);
}

void CatalogBackend::OnRetractCopies(ResourceKind kind,
                                     const std::string& name, PeerId origin,
                                     const std::vector<PeerId>& holders) {
  (void)kind;
  (void)name;
  (void)origin;
  RecordDigest(/*retract=*/true, 0, 0, holders.size());
}

void CatalogBackend::EndAdvertiseBatch() {
  if (advertise_batch_depth_ == 0) return;
  if (--advertise_batch_depth_ == 0) FlushAdvertiseBatch();
}

const std::vector<CatalogBackend::Entry>* CatalogBackend::Entries(
    ResourceKind kind, const std::string& name) const {
  auto it = entries_.find(MapKey(kind, name));
  return it == entries_.end() ? nullptr : &it->second;
}

std::vector<PeerId> CatalogBackend::Holders(ResourceKind kind,
                                            const std::string& name) const {
  std::vector<PeerId> holders;
  if (const auto* entries = Entries(kind, name)) {
    holders.reserve(entries->size());
    for (const Entry& e : *entries) holders.push_back(e.holder);
  }
  return holders;
}

bool CatalogBackend::IsAdvertised(ResourceKind kind, const std::string& name,
                                  PeerId holder) const {
  const std::vector<Entry>* entries = Entries(kind, name);
  return entries != nullptr &&
         std::any_of(entries->begin(), entries->end(),
                     [&](const Entry& e) { return e.holder == holder; });
}

size_t CatalogBackend::HolderCount(ResourceKind kind,
                                   const std::string& name) const {
  const std::vector<Entry>* entries = Entries(kind, name);
  return entries == nullptr ? 0 : entries->size();
}

bool CatalogBackend::VisibleFrom(ResourceKind kind, const std::string& name,
                                 PeerId holder, PeerId from,
                                 const Topology& topo) const {
  (void)kind;
  (void)name;
  (void)holder;
  (void)from;
  (void)topo;
  return true;
}

double CatalogBackend::MaxNodeLoadShare() const {
  uint64_t total = 0;
  uint64_t max = 0;
  for (const auto& [node, n] : node_load_) {
    (void)node;
    total += n;
    max = std::max(max, n);
  }
  return total == 0 ? 0.0
                    : static_cast<double>(max) / static_cast<double>(total);
}

void CatalogBackend::ExportMetrics(MetricSink& sink) const {
  ExportCounters(stats_, sink);
  uint64_t total = 0;
  uint64_t max = 0;
  for (const auto& [node, n] : node_load_) {
    (void)node;
    total += n;
    max = std::max(max, n);
  }
  sink.Value("node_load_total", total);
  sink.Value("node_load_max", max);
}

void CatalogBackend::ResetStats() {
  stats_ = CatalogStats{};
  node_load_.clear();
}

// --- CentralCatalog ---

LookupResult CentralCatalog::LookupNow(ResourceKind kind,
                                       const std::string& name, PeerId from,
                                       const Network& net) {
  LookupResult r;
  r.holders = Holders(kind, name);
  // Request to the server + response back.
  r.delay_s = net.topology().Get(from, server_).TransferTime(
                  kCatalogMsgBytes) +
              net.topology().Get(server_, from).TransferTime(
                  kCatalogMsgBytes);
  r.messages = 2;
  r.bytes = 2 * kCatalogMsgBytes;
  return r;
}

void CentralCatalog::Lookup(ResourceKind kind, const std::string& name,
                            PeerId from, Network* net, LookupCallback cb) {
  LookupResult r = LookupNow(kind, name, from, *net);
  RecordLookup(r.messages, r.bytes);
  // The server handles the request; the requester receiving its own
  // response is not load.
  AddNodeLoad(server_);
  // The exchange is anchored on the requester->server link, so it queues
  // behind (and is judged with) that link's data traffic.
  net->ControlRoundtrip(from, server_, r.messages, r.bytes, r.delay_s,
                        [cb = std::move(cb), r] { cb(r); });
}

// --- ChordDhtCatalog ---

uint64_t ChordDhtCatalog::PeerPoint(uint32_t index) {
  return Mix64(static_cast<uint64_t>(index) + 1);
}

uint64_t ChordDhtCatalog::KeyPoint(const std::string& map_key) {
  return HashKey(map_key);
}

void ChordDhtCatalog::EnsureRings(const Topology& topo) const {
  if (!rings_dirty_ && ring_regions_ == topo.regions()) return;
  ring_regions_ = topo.regions();
  rings_.clear();
  ring_of_.assign(peer_count_, 0);
  std::map<uint32_t, uint32_t> ring_of_region;
  for (uint32_t i = 0; i < peer_count_; ++i) {
    const auto [it, fresh] = ring_of_region.try_emplace(
        topo.RegionOf(PeerId(i)), static_cast<uint32_t>(rings_.size()));
    if (fresh) rings_.emplace_back();
    ring_of_[i] = it->second;
    rings_[it->second].emplace_back(PeerPoint(i), i);
  }
  for (Ring& ring : rings_) std::sort(ring.begin(), ring.end());
  rings_dirty_ = false;
}

const ChordDhtCatalog::Ring& ChordDhtCatalog::RingOf(PeerId peer) const {
  const bool member = peer.is_concrete() && peer.index() < ring_of_.size();
  return rings_[member ? ring_of_[peer.index()] : 0];
}

size_t ChordDhtCatalog::RingIndexOf(const Ring& ring, uint64_t point) {
  auto it = std::lower_bound(
      ring.begin(), ring.end(), point,
      [](const std::pair<uint64_t, uint32_t>& e, uint64_t p) {
        return e.first < p;
      });
  return it == ring.end() ? 0 : static_cast<size_t>(it - ring.begin());
}

uint32_t ChordDhtCatalog::SuccessorOf(const Ring& ring,
                                      uint64_t point) const {
  const size_t first = RingIndexOf(ring, point);
  // Successor-list repair, lazily: a crashed successor is skipped and
  // its arc falls to the next live peer, so digests and lookups keep
  // landing on reachable nodes through churn. When every peer is down
  // (quiesced test teardown) the nominal successor is returned — the
  // network gate stops the traffic anyway.
  for (size_t n = 0; n < ring.size(); ++n) {
    const uint32_t peer = ring[(first + n) % ring.size()].second;
    if (IsLive(peer)) return peer;
  }
  return ring[first].second;
}

void ChordDhtCatalog::SetPeerLive(PeerId peer, bool live) {
  if (!peer.is_concrete()) return;
  // The ring itself is membership, not liveness: the peer keeps its
  // point (and reclaims its arc on rejoin); routing filters through
  // down_ at resolution time, so no finger state needs rebuilding.
  if (live) {
    down_.erase(peer.index());
  } else {
    down_.insert(peer.index());
  }
}

uint32_t ChordDhtCatalog::NextHop(const Topology& topo, const Ring& ring,
                                  uint32_t cur, uint32_t owner) const {
  const uint64_t cur_pt = PeerPoint(cur);
  const uint64_t span = RingDist(cur_pt, PeerPoint(owner));
  // Greedy finger routing takes the farthest finger that does not
  // overshoot the owner. Finger j covers ring distances [2^j, 2^(j+1));
  // every j with 2^j > span overshoots, and the interval of the highest
  // j with 2^j <= span always holds the owner itself, so that interval
  // (clipped to the span) is the only one a hop needs. The strict `<`
  // keeps ring order on ties, which makes a uniform topology pick the
  // classic successor of cur + 2^j.
  const uint64_t lo = std::bit_floor(span);
  const size_t first = RingIndexOf(ring, cur_pt + lo);
  uint32_t best = owner;
  double best_delay = std::numeric_limits<double>::infinity();
  size_t live = 0;
  for (size_t n = 0; n < ring.size() && live < kFingerCandidates; ++n) {
    const auto& [point, peer] = ring[(first + n) % ring.size()];
    const uint64_t d = RingDist(cur_pt, point);
    if (d < lo || d > span) break;  // wrapped round to `cur`, or past
    if (!IsLive(peer)) continue;
    ++live;
    const double delay =
        topo.Get(PeerId(cur), PeerId(peer)).TransferTime(kCatalogMsgBytes);
    if (delay < best_delay) {
      best = peer;
      best_delay = delay;
    }
  }
  return best;
}

std::vector<PeerId> ChordDhtCatalog::Route(ResourceKind kind,
                                           const std::string& name,
                                           PeerId from,
                                           const Topology& topo) const {
  EnsureRings(topo);
  std::vector<PeerId> path;
  if (rings_.empty()) return path;
  const Ring& ring = RingOf(from);
  const uint32_t owner = SuccessorOf(ring, KeyPoint(MapKey(kind, name)));
  // Requesters outside the ring (tests with ad-hoc ids) enter through
  // the owner directly.
  if (!from.is_concrete() || from.index() >= peer_count_) {
    path.push_back(PeerId(owner));
    return path;
  }
  uint32_t cur = from.index();
  while (cur != owner) {
    cur = NextHop(topo, ring, cur, owner);
    path.push_back(PeerId(cur));
  }
  return path;
}

bool ChordDhtCatalog::SeenFrom(const Entry& e, PeerId from,
                               const Topology& topo) {
  // A copy was told only to its own region's owner.
  return !e.copy() || topo.RegionOf(e.holder) == topo.RegionOf(from);
}

bool ChordDhtCatalog::VisibleFrom(ResourceKind kind, const std::string& name,
                                  PeerId holder, PeerId from,
                                  const Topology& topo) const {
  const std::vector<Entry>* entries = Entries(kind, name);
  if (entries == nullptr) return true;
  auto it = std::find_if(entries->begin(), entries->end(),
                         [&](const Entry& e) { return e.holder == holder; });
  return it == entries->end() || SeenFrom(*it, from, topo);
}

std::vector<PeerId> ChordDhtCatalog::HoldersSeenFrom(
    ResourceKind kind, const std::string& name, PeerId from,
    const Topology& topo) const {
  std::vector<PeerId> holders;
  if (const auto* entries = Entries(kind, name)) {
    for (const Entry& e : *entries) {
      if (SeenFrom(e, from, topo)) holders.push_back(e.holder);
    }
  }
  return holders;
}

LookupResult ChordDhtCatalog::LookupNow(ResourceKind kind,
                                        const std::string& name, PeerId from,
                                        const Network& net) {
  LookupResult r;
  r.holders = HoldersSeenFrom(kind, name, from, net.topology());
  const std::vector<PeerId> route = Route(kind, name, from, net.topology());
  PeerId cur = from;
  for (PeerId next : route) {
    r.delay_s += net.topology().Get(cur, next).TransferTime(kCatalogMsgBytes);
    ++r.messages;
    cur = next;
  }
  if (cur != from) {
    // Response hop owner -> requester.
    r.delay_s += net.topology().Get(cur, from).TransferTime(kCatalogMsgBytes);
    ++r.messages;
  }
  r.bytes = r.messages * kCatalogMsgBytes;
  return r;
}

/// One routed lookup in flight: the precomputed route and what the hops
/// taken so far cost.
struct ChordDhtCatalog::LookupChain {
  ResourceKind kind;
  std::string name;
  PeerId from;
  std::vector<PeerId> route;
  size_t i = 0;
  double delay_s = 0;
  uint64_t messages = 0;
  Network* net = nullptr;
  LookupCallback cb;
};

void ChordDhtCatalog::Lookup(ResourceKind kind, const std::string& name,
                             PeerId from, Network* net, LookupCallback cb) {
  ++stats_.lookups;
  auto st = std::make_shared<LookupChain>();
  st->kind = kind;
  st->name = name;
  st->from = from;
  st->route = Route(kind, name, from, net->topology());
  st->net = net;
  st->cb = std::move(cb);
  LookupStep(st);
}

void ChordDhtCatalog::LookupStep(const std::shared_ptr<LookupChain>& st) {
  // Iterative hop-by-hop routing: each hop is a ControlRoundtrip on the
  // actual cur->next link, so it is priced against that link's traffic,
  // traced, and subject to fault injection; the receiving node's load
  // counter moves when the hop is delivered. Only the pending hop's
  // callback owns the chain, so it is freed when the lookup completes.
  if (st->i >= st->route.size()) {
    LookupResult r;
    // Holders snapshot when the request reaches the region owner.
    r.holders =
        HoldersSeenFrom(st->kind, st->name, st->from, st->net->topology());
    const PeerId owner = st->route.empty() ? st->from : st->route.back();
    if (owner == st->from) {
      // The requester owns the entry's arc: a local index read.
      r.delay_s = st->delay_s;
      r.messages = st->messages;
      r.bytes = r.messages * kCatalogMsgBytes;
      st->net->ControlRoundtrip(st->from, st->from, 0, 0, 0.0,
                                [st, r] { st->cb(r); });
      return;
    }
    const double back = st->net->topology()
                            .Get(owner, st->from)
                            .TransferTime(kCatalogMsgBytes);
    r.delay_s = st->delay_s + back;
    r.messages = st->messages + 1;
    r.bytes = r.messages * kCatalogMsgBytes;
    stats_.lookup_messages += 1;
    stats_.lookup_bytes += kCatalogMsgBytes;
    st->net->ControlRoundtrip(owner, st->from, 1, kCatalogMsgBytes,
                              back, [st, r] { st->cb(r); });
    return;
  }
  const PeerId cur = st->i == 0 ? st->from : st->route[st->i - 1];
  const PeerId next = st->route[st->i];
  ++st->i;
  const double d =
      st->net->topology().Get(cur, next).TransferTime(kCatalogMsgBytes);
  st->delay_s += d;
  ++st->messages;
  stats_.lookup_messages += 1;
  stats_.lookup_bytes += kCatalogMsgBytes;
  st->net->ControlRoundtrip(cur, next, 1, kCatalogMsgBytes, d,
                            [this, st, next] {
                              AddNodeLoad(next);
                              LookupStep(st);
                            });
}

void ChordDhtCatalog::OnAdvertiseDelta(ResourceKind kind,
                                       const std::string& name, PeerId holder,
                                       bool add, DeltaScope scope) {
  if (net_ == nullptr || !holder.is_concrete()) {
    // Standalone (no network attached): free, like the seed.
    RecordDigest(!add, 0, 0, 1);
    return;
  }
  EnsureRings(net_->topology());
  if (rings_.empty()) {
    RecordDigest(!add, 0, 0, 1);
    return;
  }
  // A durable entry goes to the key's owner in every region, a copy only
  // to the owner in the holder's region, and a widened copy to the owners
  // that have not heard of it yet.
  const uint64_t key = KeyPoint(MapKey(kind, name));
  const Ring& home = RingOf(holder);
  for (const Ring& ring : rings_) {
    const bool is_home = &ring == &home;
    if ((scope == DeltaScope::kCopy && !is_home) ||
        (scope == DeltaScope::kWiden && is_home)) {
      continue;
    }
    const uint32_t owner = SuccessorOf(ring, key);
    if (in_advertise_batch()) {
      ++pending_digests_[{holder.index(), owner, !add}];
    } else {
      SendDigest(holder.index(), owner, 1, !add);
    }
  }
}

void ChordDhtCatalog::OnRetractCopies(ResourceKind kind,
                                      const std::string& name, PeerId origin,
                                      const std::vector<PeerId>& holders) {
  if (net_ == nullptr || !origin.is_concrete()) {
    CatalogBackend::OnRetractCopies(kind, name, origin, holders);
    return;
  }
  EnsureRings(net_->topology());
  if (rings_.empty()) {
    CatalogBackend::OnRetractCopies(kind, name, origin, holders);
    return;
  }
  // Each copy was told only to its own region's owner; the origin sends
  // one flat digest to each such owner, whatever the number of copies it
  // lists there. The digest names (name, origin), not the holders, so it
  // never grows and is never batched.
  const uint64_t key = KeyPoint(MapKey(kind, name));
  std::map<uint32_t, uint64_t> per_owner;
  for (PeerId holder : holders) {
    ++per_owner[SuccessorOf(RingOf(holder), key)];
  }
  for (const auto& [owner, deltas] : per_owner) {
    SendDigest(origin.index(), owner, 1, /*retract=*/true);
    // The digest is one entry on the wire but removes `deltas` entries.
    RecordDigest(/*retract=*/true, 0, 0, deltas - 1);
  }
}

void ChordDhtCatalog::FlushAdvertiseBatch() {
  if (net_ == nullptr) {
    pending_digests_.clear();
    return;
  }
  for (const auto& [to, deltas] : pending_digests_) {
    const auto& [holder, owner, retract] = to;
    SendDigest(holder, owner, deltas, retract);
  }
  pending_digests_.clear();
}

void ChordDhtCatalog::SendDigest(uint32_t from, uint32_t owner,
                                 uint64_t deltas, bool retract) {
  if (from == owner) {
    // The sender owns the entry's arc: a local index write.
    RecordDigest(retract, 0, 0, deltas);
    return;
  }
  const uint64_t bytes =
      kCatalogMsgBytes + (deltas - 1) * kCatalogDigestEntryBytes;
  const PeerId h(from);
  const PeerId r(owner);
  const double d = net_->topology().Get(h, r).TransferTime(bytes);
  RecordDigest(retract, 1, bytes, deltas);
  AddNodeLoad(r);
  net_->ControlRoundtrip(h, r, 1, bytes, d, [] {});
}

// --- FloodCatalog ---

LookupResult FloodCatalog::LookupNow(ResourceKind kind,
                                     const std::string& name, PeerId from,
                                     const Network& net) {
  LookupResult r;
  const std::vector<PeerId> holders = Holders(kind, name);
  const std::unordered_set<PeerId> holder_set(holders.begin(), holders.end());

  // BFS over the neighbor graph up to the TTL, counting one message per
  // edge traversed (the classic Gnutella cost). If no neighbor graph is
  // declared, fall back to "broadcast to everyone in one hop".
  if (!net.topology().has_neighbor_graph()) {
    uint32_t n = std::max<uint32_t>(peer_count_, 1) - 1;
    r.messages = n;
    r.bytes = static_cast<uint64_t>(n) * kCatalogMsgBytes;
    r.delay_s = net.topology().default_link().latency_s * 2;
    r.holders = holders;
    return r;
  }

  std::unordered_map<PeerId, uint32_t> depth;
  std::deque<PeerId> frontier{from};
  depth[from] = 0;
  uint32_t found_depth = 0;
  while (!frontier.empty()) {
    PeerId cur = frontier.front();
    frontier.pop_front();
    uint32_t d = depth[cur];
    if (holder_set.count(cur) && cur != from) {
      r.holders.push_back(cur);
      found_depth = std::max(found_depth, d);
    }
    if (d >= ttl_) continue;
    for (PeerId nb : net.topology().Neighbors(cur)) {
      ++r.messages;  // the query travels this edge regardless
      if (!depth.count(nb)) {
        depth[nb] = d + 1;
        frontier.push_back(nb);
      }
    }
  }
  // A holder on `from` itself also answers.
  if (holder_set.count(from)) r.holders.push_back(from);
  r.bytes = r.messages * kCatalogMsgBytes;
  const double hop = net.topology().default_link().latency_s;
  // Delay: query floods to found_depth, response unwinds the same path.
  r.delay_s = 2.0 * hop * std::max<uint32_t>(found_depth, 1);
  return r;
}

void FloodCatalog::Lookup(ResourceKind kind, const std::string& name,
                          PeerId from, Network* net, LookupCallback cb) {
  LookupResult r = LookupNow(kind, name, from, *net);
  // Flood load diffuses over every visited peer; it is not attributed
  // to node_load (the hot-node comparison is central vs DHT).
  RecordLookup(r.messages, r.bytes);
  // Flood traffic diffuses over every edge; like the DHT it is anchored
  // on the requester's loopback rather than any single link.
  net->ControlRoundtrip(from, from, r.messages, r.bytes, r.delay_s,
                        [cb = std::move(cb), r] { cb(r); });
}

}  // namespace axml
