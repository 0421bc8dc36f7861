// Resource-discovery catalog backends.
//
// §2 of the paper: "We make no assumption about the structure of the peer
// network, e.g. whether a DHT-style index is present or not. We will
// discuss the impact of various network structures further on." The
// catalog is where that impact shows: resolving `d@any` (def. 9) needs to
// discover which peers hold members of the equivalence class. The
// CatalogBackend interface makes the structure pluggable; three
// implementations exist:
//
//  - CentralCatalog:  one index server; lookup = RTT to the server plus a
//                     small request/response payload.
//  - ChordDhtCatalog: a real Chord-style ring per topology region over
//                     the peer ids. Lookups route hop-by-hop through
//                     finger intervals to a key owner in the requester's
//                     region, each hop a Network::ControlRoundtrip on the
//                     actual link — so DHT traffic is priced, traced and
//                     fault-injectable like every other message.
//                     Advertisements route as digest messages to the key
//                     owners and batch (Begin/EndAdvertiseBatch), so
//                     re-advertising an unchanged entry is free and bulk
//                     installs pay per delta, not per call.
//  - FloodCatalog:    Gnutella-style flooding over the topology's
//                     neighbor graph with a TTL; cost = one message per
//                     edge visited, delay = the depth at which the
//                     resource was first found.
//
// Lookups charge control-plane traffic to the Network's stats and
// complete asynchronously after the modeled delay. Every backend also
// feeds CatalogStats — lookup/advertisement message counts plus a
// per-serving-node load table, the data behind the hot-node share
// comparison in bench_fleet.

#ifndef AXML_NET_CATALOG_H_
#define AXML_NET_CATALOG_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/ids.h"
#include "common/status.h"
#include "net/network.h"
#include "obs/metrics.h"

namespace axml {

/// What kind of resource a catalog entry names.
enum class ResourceKind { kDocument, kService };

/// Result of a catalog lookup.
struct LookupResult {
  /// Peers that advertise the resource (may be empty).
  std::vector<PeerId> holders;
  /// Modeled control-plane cost of this lookup.
  double delay_s = 0;
  uint64_t messages = 0;
  uint64_t bytes = 0;
};

/// Aggregate traffic counters one catalog backend has generated.
/// `advertise_*` count the digests that add or widen entries,
/// `retract_*` the digests that remove them (a holder's Unregister, or a
/// write's RetractCopiesOf). `advertise_deltas` counts every entry change
/// applied at a key owner, in either direction. `advertise_noops` counts
/// Register calls for already-advertised entries — the
/// re-advertisements the delta protocol makes free — and Unregister
/// calls for entries already gone.
struct CatalogStats {
  uint64_t lookups = 0;
  uint64_t lookup_messages = 0;
  uint64_t lookup_bytes = 0;
  uint64_t advertise_messages = 0;
  uint64_t advertise_bytes = 0;
  uint64_t retract_messages = 0;
  uint64_t retract_bytes = 0;
  uint64_t advertise_deltas = 0;
  uint64_t advertise_noops = 0;

  static constexpr auto kCounters = std::make_tuple(
      Counter{"lookups", &CatalogStats::lookups},
      Counter{"lookup_messages", &CatalogStats::lookup_messages},
      Counter{"lookup_bytes", &CatalogStats::lookup_bytes},
      Counter{"advertise_messages", &CatalogStats::advertise_messages},
      Counter{"advertise_bytes", &CatalogStats::advertise_bytes},
      Counter{"retract_messages", &CatalogStats::retract_messages},
      Counter{"retract_bytes", &CatalogStats::retract_bytes},
      Counter{"advertise_deltas", &CatalogStats::advertise_deltas},
      Counter{"advertise_noops", &CatalogStats::advertise_noops});
};
static_assert(CountersCover<CatalogStats>());

/// Interface shared by all catalog backends. The base class owns the
/// authoritative name -> holders index (synchronously consistent, as in
/// the seed); backends differ in how lookups and advertisement deltas
/// are *routed* and therefore what they cost.
class CatalogBackend {
 public:
  using LookupCallback = std::function<void(const LookupResult&)>;

  virtual ~CatalogBackend() = default;

  /// Short stable identifier ("central", "chord-dht", ...) for benches
  /// and reports.
  virtual const char* backend_name() const = 0;

  /// Advertises that `holder` provides `name` durably (an installed
  /// document or service). Only an *effective* delta (the entry was not
  /// already advertised) reaches the backend's routing hook; a repeat
  /// Register is a counted no-op. Registering a cached copy's entry
  /// durably (a write promoted the copy) widens its scope.
  void Register(ResourceKind kind, const std::string& name, PeerId holder);
  /// Advertises a cached copy of `name` at `holder`, fetched from
  /// `origin` (a durable holder, or another copy for a copy of a copy).
  /// The entry is the same as a durable one for every backend but Chord,
  /// which tells only the holder's region (see ChordDhtCatalog).
  void RegisterCopy(ResourceKind kind, const std::string& name,
                    PeerId holder, PeerId origin);
  /// Retracts `holder`'s entry, durable or copy, from wherever it was
  /// advertised. The holder sends the retraction: this is the path for
  /// drops the holder decides on its own (eviction, validation, crash).
  void Unregister(ResourceKind kind, const std::string& name, PeerId holder);
  /// Retracts every copy entry of `name` descending from `origin`: its
  /// copies, their copies, and so on. A write at `origin` calls this
  /// once before it drops those copies, so the retraction is origin-sent
  /// — one digest per key owner that lists such entries (Chord), not one
  /// per holder.
  void RetractCopiesOf(ResourceKind kind, const std::string& name,
                       PeerId origin);

  /// True when `holder` currently advertises `name`. Free (no modeled
  /// traffic): used by tests and the replica layer to check registration
  /// state without a lookup.
  bool IsAdvertised(ResourceKind kind, const std::string& name,
                    PeerId holder) const;
  /// Number of peers advertising `name` (free, like IsAdvertised).
  size_t HolderCount(ResourceKind kind, const std::string& name) const;

  /// True when a lookup of `name` from `from` would report `holder`: the
  /// entry is durable, unknown, or a copy the requester's key owner was
  /// told about. Only Chord scopes copies; the others see every entry.
  /// Free, like IsAdvertised: the d@any pick filters its members by it.
  virtual bool VisibleFrom(ResourceKind kind, const std::string& name,
                           PeerId holder, PeerId from,
                           const Topology& topo) const;

  /// Resolves `name` from peer `from`: charges modeled traffic on `net`
  /// and invokes `cb` after the modeled delay.
  virtual void Lookup(ResourceKind kind, const std::string& name,
                      PeerId from, Network* net, LookupCallback cb) = 0;

  /// Synchronous variant used by tests and the cost model: returns the
  /// result without touching the network or the stats.
  virtual LookupResult LookupNow(ResourceKind kind, const std::string& name,
                                 PeerId from, const Network& net) = 0;

  /// Number of peers this catalog assumes in the system (for cost
  /// formulas and the DHT ring); set by AxmlSystem.
  void set_peer_count(uint32_t n) {
    if (n == peer_count_) return;
    peer_count_ = n;
    OnPeerCountChanged();
  }

  /// Wires the system's Network in so backends can charge real
  /// advertisement traffic. Left null (the default, and the standalone /
  /// bench-model usage), registration stays free as in the seed.
  void AttachNetwork(Network* net) { net_ = net; }

  /// Marks `peer` crashed (`live` false) or rejoined (`live` true).
  /// AxmlSystem::CrashPeer / RejoinPeer call this right after flipping
  /// the Network's liveness gate. Routed backends (Chord) steer lookups
  /// and digests around down peers; analytic backends ignore it.
  virtual void SetPeerLive(PeerId peer, bool live) {
    (void)peer;
    (void)live;
  }

  /// Opens / closes an advertisement batch window. While a window is
  /// open, effective deltas coalesce per (holder, responsible node) and
  /// flush as one digest message each on the final EndAdvertiseBatch —
  /// how a bulk install (fleet bring-up, placement round) pays O(delta)
  /// instead of O(calls). Windows nest; backends without routed
  /// advertisements treat both as no-ops.
  void BeginAdvertiseBatch() { ++advertise_batch_depth_; }
  void EndAdvertiseBatch();

  // --- observability ---

  const CatalogStats& stats() const { return stats_; }
  /// Catalog messages *handled* by each peer (routing hops received,
  /// lookups served, digests applied). Requesters receiving their own
  /// response are not load. Empty for backends that do not attribute
  /// load to nodes (flooding).
  const std::map<uint32_t, uint64_t>& node_load() const {
    return node_load_;
  }
  /// Largest single-node share of all handled catalog messages, in
  /// [0, 1]; 0 when no messages were handled. Central pins this near 1
  /// at its server, a balanced DHT drives it toward 1/P.
  double MaxNodeLoadShare() const;
  /// Stats counters plus node_load_max / node_load_total.
  void ExportMetrics(MetricSink& sink) const;
  void ResetStats();

 protected:
  /// One advertisement: its holder, and for a cached copy the peer it
  /// was fetched from (invalid for a durable entry).
  struct Entry {
    PeerId holder;
    PeerId origin = PeerId::Invalid();
    bool copy() const { return origin.valid(); }
  };

  /// Which key owners an advertisement delta concerns, in Chord's
  /// region-scoped terms: a copy's own region, every region (durable),
  /// or every region but the holder's (a copy widened to durable: its
  /// own region's owner already lists it).
  enum class DeltaScope { kCopy, kDurable, kWiden };

  /// Invoked once for every effective advertisement delta (add or
  /// remove) of one holder's entry. Backends route / price it; the
  /// default is free.
  virtual void OnAdvertiseDelta(ResourceKind kind, const std::string& name,
                                PeerId holder, bool add, DeltaScope scope);
  /// Invoked once per RetractCopiesOf that removed entries, with the
  /// removed holders. Backends route / price it; the default is free.
  virtual void OnRetractCopies(ResourceKind kind, const std::string& name,
                               PeerId origin,
                               const std::vector<PeerId>& holders);
  /// Invoked when the last advertisement batch window closes.
  virtual void FlushAdvertiseBatch() {}
  /// Invoked when set_peer_count changes the value.
  virtual void OnPeerCountChanged() {}

  void RecordLookup(uint64_t messages, uint64_t bytes) {
    ++stats_.lookups;
    stats_.lookup_messages += messages;
    stats_.lookup_bytes += bytes;
  }
  /// Counts `messages` digests of `bytes` that applied `deltas` entry
  /// changes; `retract` digests remove entries.
  void RecordDigest(bool retract, uint64_t messages, uint64_t bytes,
                    uint64_t deltas) {
    (retract ? stats_.retract_messages : stats_.advertise_messages) +=
        messages;
    (retract ? stats_.retract_bytes : stats_.advertise_bytes) += bytes;
    stats_.advertise_deltas += deltas;
  }
  void AddNodeLoad(PeerId node, uint64_t messages = 1) {
    node_load_[node.index()] += messages;
  }
  bool in_advertise_batch() const { return advertise_batch_depth_ > 0; }

  const std::vector<Entry>* Entries(ResourceKind kind,
                                    const std::string& name) const;
  /// Every holder of `name`, in advertisement order.
  std::vector<PeerId> Holders(ResourceKind kind,
                              const std::string& name) const;
  static std::string MapKey(ResourceKind kind, const std::string& name) {
    return (kind == ResourceKind::kDocument ? "d:" : "s:") + name;
  }

  uint32_t peer_count_ = 0;
  Network* net_ = nullptr;
  CatalogStats stats_;

 private:
  void Advertise(ResourceKind kind, const std::string& name, PeerId holder,
                 PeerId origin);

  std::map<std::string, std::vector<Entry>> entries_;
  std::map<uint32_t, uint64_t> node_load_;
  uint32_t advertise_batch_depth_ = 0;
};

/// Single well-known index server. Advertisements stay free ("charged
/// lazily on lookup", as in the seed); every lookup loads the server.
class CentralCatalog : public CatalogBackend {
 public:
  explicit CentralCatalog(PeerId server) : server_(server) {}

  const char* backend_name() const override { return "central"; }
  void Lookup(ResourceKind kind, const std::string& name, PeerId from,
              Network* net, LookupCallback cb) override;
  LookupResult LookupNow(ResourceKind kind, const std::string& name,
                         PeerId from, const Network& net) override;

  PeerId server() const { return server_; }

 private:
  PeerId server_;
};

/// A real Chord-style DHT over the peer ids, one ring per topology
/// region (the hierarchical DHT of Coral and Canon). Each peer owns the
/// arc of its region's 64-bit hash ring ending at its point; in region r,
/// entry `name` lives at the successor of hash(name) on r's ring — the
/// key's *region owner*. The regions are those of the Topology a lookup
/// travels on (Topology::RegionOf); a topology without regions is one
/// region, so its ring and routes are the classic single-ring ones.
///
/// Lookups route greedily through finger intervals of the requester's
/// region ring, giving O(log P/R) hops, each hop a ControlRoundtrip on
/// the actual cur->next link, and end at that region's owner: no hop and
/// no response leaves the region. Fingers are proximity-aware (proximity
/// neighbour selection, Dabek et al., NSDI 2004): finger j of `cur` is,
/// among the first 16 live ring nodes of the interval [cur + 2^j,
/// cur + 2^(j+1)) that do not overshoot the owner, the one with the
/// cheapest priced hop from `cur`. Ties go to the first node in ring
/// order, so on a uniform topology every route is the classic
/// successor-of-(cur + 2^j) route. Each hop uses the highest j with
/// 2^j <= the remaining ring distance; that interval always holds the
/// owner, so it is never empty.
///
/// Advertisement deltas route as digest messages holder -> owner
/// (holders cache their owners' addresses, the standard one-hop put) and
/// coalesce per (holder, owner, direction) under Begin/EndAdvertiseBatch.
/// Scope:
///  - a durable entry (Register) goes to the owner in every region;
///  - a cached copy (RegisterCopy) goes only to the owner in the holder's
///    own region;
///  - a copy widened to durable (Register of a copy's holder) goes to
///    the owners of the other regions only.
/// So a region owner knows the durable members plus its own region's
/// copies, and that is all a lookup from the region may report
/// (VisibleFrom; the d@any pick filters its members the same way). A
/// copy across the WAN never beats the member it replicates on a
/// cache-aware or nearest pick, so hiding it changes no such pick.
///
/// Retraction has two senders. A holder that drops its own entry
/// (eviction, validation, crash) sends Unregister's digest to the owners
/// it advertised to. A write drops every copy descending from its origin
/// at once, so the origin retracts them all (RetractCopiesOf) with one
/// flat kCatalogMsgBytes digest — "drop the copies of `name` from me" —
/// to each region owner that lists at least one of them; the holders
/// send nothing.
///
/// The rings are rebuilt lazily when peer_count or the topology's regions
/// change, so fleet bring-up (P AddPeer calls) does not pay P ring
/// builds. Liveness-aware routing (SetPeerLive): a crashed peer stays a
/// ring member, but successor resolution walks past it — its arc is
/// absorbed by the next live peer of its region ring, the lazy form of
/// Chord's successor-list repair — and fingers are resolved when a route
/// uses them, through the same filter, so every hop of every route lands
/// on a live node. Rejoin restores the peer's arc on the next
/// resolution; no finger tables exist to fix up.
class ChordDhtCatalog : public CatalogBackend {
 public:
  ChordDhtCatalog() = default;

  const char* backend_name() const override { return "chord-dht"; }
  void Lookup(ResourceKind kind, const std::string& name, PeerId from,
              Network* net, LookupCallback cb) override;
  LookupResult LookupNow(ResourceKind kind, const std::string& name,
                         PeerId from, const Network& net) override;
  bool VisibleFrom(ResourceKind kind, const std::string& name, PeerId holder,
                   PeerId from, const Topology& topo) const override;
  void SetPeerLive(PeerId peer, bool live) override;

 protected:
  void OnAdvertiseDelta(ResourceKind kind, const std::string& name,
                        PeerId holder, bool add, DeltaScope scope) override;
  void OnRetractCopies(ResourceKind kind, const std::string& name,
                       PeerId origin,
                       const std::vector<PeerId>& holders) override;
  void FlushAdvertiseBatch() override;
  void OnPeerCountChanged() override { rings_dirty_ = true; }

 private:
  struct LookupChain;
  /// (point, peer index) of one region's peers, sorted by point.
  using Ring = std::vector<std::pair<uint64_t, uint32_t>>;

  /// Takes the next hop of a routed lookup, or answers it once the
  /// region owner is reached.
  void LookupStep(const std::shared_ptr<LookupChain>& st);

  /// Rebuilds the region rings when peer_count or `topo`'s regions have
  /// changed since the last build.
  void EnsureRings(const Topology& topo) const;
  /// The ring of `peer`'s region; requesters outside the ring (tests
  /// with ad-hoc ids) use the first ring.
  const Ring& RingOf(PeerId peer) const;
  /// Ring position of peer `index` (a splitmix64 point, deterministic).
  static uint64_t PeerPoint(uint32_t index);
  /// Ring position of an entry key.
  static uint64_t KeyPoint(const std::string& map_key);
  /// True unless the peer is marked down via SetPeerLive.
  bool IsLive(uint32_t index) const { return down_.count(index) == 0; }
  /// Index into `ring` of the first entry at or clockwise of `point`.
  static size_t RingIndexOf(const Ring& ring, uint64_t point);
  /// The first *live* peer of `ring` at or clockwise of `point` (a
  /// crashed successor is skipped — its arc falls to the next live peer).
  uint32_t SuccessorOf(const Ring& ring, uint64_t point) const;
  /// True when `from`'s region owner knows entry `e` (see VisibleFrom).
  static bool SeenFrom(const Entry& e, PeerId from, const Topology& topo);
  /// Holders a lookup from `from` reports.
  std::vector<PeerId> HoldersSeenFrom(ResourceKind kind,
                                      const std::string& name, PeerId from,
                                      const Topology& topo) const;
  /// Routing path from `from` to its region owner, excluding `from`
  /// itself and including the owner; empty when `from` is the owner.
  /// Regions come from, and hops are priced on, `topo`.
  std::vector<PeerId> Route(ResourceKind kind, const std::string& name,
                            PeerId from, const Topology& topo) const;
  /// Next routing hop from `cur` toward `owner` on `ring` (see the class
  /// comment for the finger choice).
  uint32_t NextHop(const Topology& topo, const Ring& ring, uint32_t cur,
                   uint32_t owner) const;
  /// One digest message `from` -> `owner` covering `deltas` entries;
  /// `retract` digests remove entries.
  void SendDigest(uint32_t from, uint32_t owner, uint64_t deltas,
                  bool retract);

  /// One ring per region, in order of the regions' first peer index.
  mutable std::vector<Ring> rings_;
  /// Index into rings_ of each peer.
  mutable std::vector<uint32_t> ring_of_;
  /// The topology regions (Topology::regions) the rings were built from.
  mutable std::vector<uint32_t> ring_regions_;
  mutable bool rings_dirty_ = true;
  /// Peers currently crashed (by index); routing skips them.
  std::set<uint32_t> down_;
  /// Deltas pending in the open batch window, coalesced per
  /// (holder, owner, retract).
  std::map<std::tuple<uint32_t, uint32_t, bool>, uint64_t> pending_digests_;
};

/// Unstructured flooding over the topology's neighbor graph.
class FloodCatalog : public CatalogBackend {
 public:
  explicit FloodCatalog(uint32_t ttl = 7) : ttl_(ttl) {}

  const char* backend_name() const override { return "flood"; }
  void Lookup(ResourceKind kind, const std::string& name, PeerId from,
              Network* net, LookupCallback cb) override;
  LookupResult LookupNow(ResourceKind kind, const std::string& name,
                         PeerId from, const Network& net) override;

 private:
  uint32_t ttl_;
};

/// Approximate wire size of a catalog request/response message.
constexpr uint64_t kCatalogMsgBytes = 64;
/// Incremental size of one extra entry in an advertisement digest.
constexpr uint64_t kCatalogDigestEntryBytes = 16;

}  // namespace axml

#endif  // AXML_NET_CATALOG_H_
