// Replica placement and versioned invalidation.
//
// The paper's rule (13) materializes a transferred tree as a local copy;
// its generic documents (def. 9) read "any" member of an equivalence
// class. Both presuppose a runtime notion of *replicas*: who holds a
// copy, how fresh it is, and when reading a copy beats a transfer. The
// ReplicaManager is that layer:
//
//  - every (owner peer, doc name) carries a version, bumped whenever the
//    owner mutates the document (Peer's mutation listener);
//  - each peer owns a TransferCache of remote copies, held as the wire
//    bytes they arrived in and tagged with the origin version at copy
//    time;
//  - a fresh copy is installed as a local document and *advertised*: the
//    discovery catalog lists the caching peer as a holder, and the copy
//    joins every generic class the origin belongs to — so d@any
//    resolution routes to the nearest fresh copy;
//  - the manager, not the evaluator, decides a read copy's shape: a
//    read is served by ReadFreshCopy when a fresh copy exists (whole or
//    sharded), fetched as a shard delta by FetchForRead when the
//    document replicates as shards, and otherwise shipped whole by the
//    evaluator, whose landing hands the copy to InsertReadCopy;
//  - a read makes a copy only when its source sits outside the reader's
//    rack: a source in the same rack already serves every rack-mate over
//    the link a new copy would use;
//  - every successful cache insert *subscribes* the holder at the origin
//    under the inserted entry's exact key — whole-document, manifest or
//    data shard (SubscriptionTable); a mutation at the origin pushes to
//    every holder whose copy can serve a read by name (a whole-document
//    entry, an installed sharded copy, a refresh in flight) immediately.
//    A partial sharded holder is never pushed, on any path: data shards
//    are content-addressed and never go stale, and its stale manifest is
//    caught by the version check of its next read. Under
//    RefreshPolicy::kDrop the pushed holder's copy and all its
//    advertisements are retracted at mutation time (never a stale
//    advertisement between a write and the next read); under
//    kEagerRefresh the origin additionally ships the new version through
//    the transfer path, re-materializing the copy without a read asking
//    for it (in-flight coalescing of back-to-back mutations);
//  - under RefreshPolicy::kLazy (the PR 1 baseline) a stale copy is
//    instead dropped on its next lookup: evicted from the cache, removed
//    as a local document, unregistered from the catalog, and withdrawn
//    from its generic classes;
//  - documents above the sharding threshold (xml/sharding.h, enabled via
//    set_sharding_enabled) replicate as *shards*: a versioned manifest
//    plus immutable content-addressed data shards, each its own cache
//    entry. Reads, eager refresh and placement then ship only the shards
//    the holder lacks (a "delta"), a mutation of one subtree re-ships
//    one dirty shard instead of the whole document, and a byte budget
//    smaller than the document can still hold a useful partial copy.
//
// Cached copies are soft state: AxmlSystem::StateFingerprint skips them,
// so Σ-equivalence (the rule-equivalence property) is judged on durable
// documents only.
//
// Reentrancy contract (docs/architecture.md is the canonical
// statement): the manager runs on the one thread that runs its System.
// Mutation fan-out is synchronous — NoteMutation drops
// subscribed copies before it returns — and *legally* nests across
// distinct documents: a drop fires RemoveDocument, whose mutation
// listener re-enters NoteMutation for the holder's own name. What must
// never happen is re-entering NoteMutation for the *same* (owner, name)
// while its fan-out is still running (the version table and subscription
// state for that key are mid-mutation), so NoteMutation keeps a per-key
// active set and aborts on a same-key cycle (death-tested). The caches'
// evict listeners call back into the manager (advertisement retraction,
// unsubscription) but never back into the cache that fired them — the
// cache's own ReentrancyGuard enforces that side.

#ifndef AXML_REPLICA_REPLICA_MANAGER_H_
#define AXML_REPLICA_REPLICA_MANAGER_H_

#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>

#include "common/ids.h"
#include "net/sim_time.h"
#include "peer/generic.h"
#include "replica/eviction_policy.h"
#include "replica/placement.h"
#include "replica/shard_delta.h"
#include "replica/subscription.h"
#include "replica/transfer_cache.h"
#include "xml/sharding.h"
#include "xml/tree.h"

namespace axml {

class AxmlSystem;

/// What a simulated peer crash does to the peer's replica cache.
enum class CrashMode {
  /// The cache dies with the process: every entry is wiped (evict
  /// listeners retract advertisements and subscriptions as usual).
  kLoseCache,
  /// The cache survives on disk. Its entries may rot while the peer is
  /// down — rejoin reconciles them against every origin before anything
  /// is re-advertised.
  kDurableCache,
};

/// Counters for the sharded-replication paths (bench_sharding reports
/// these; cumulative since the last ResetStats).
struct ShardStats {
  uint64_t sharded_reads = 0;      ///< read-path delta fetches issued
  uint64_t sharded_shipments = 0;  ///< refresh/placement delta shipments
  uint64_t manifests_shipped = 0;  ///< manifests that crossed the wire
  uint64_t shards_shipped = 0;     ///< data shards that crossed the wire
  uint64_t shard_bytes_shipped = 0;
  /// Resident shards a delta did not have to re-ship, and their bytes —
  /// the wire traffic partial copies avoided.
  uint64_t shards_reused = 0;
  uint64_t shard_bytes_saved = 0;
  uint64_t full_hits = 0;     ///< reads assembled entirely from residents
  uint64_t partial_hits = 0;  ///< delta reads that reused >= 1 shard

  std::string ToString() const { return CountersToString(*this); }

  static constexpr auto kCounters = std::make_tuple(
      Counter{"sharded_reads", &ShardStats::sharded_reads},
      Counter{"sharded_shipments", &ShardStats::sharded_shipments},
      Counter{"manifests_shipped", &ShardStats::manifests_shipped},
      Counter{"shards_shipped", &ShardStats::shards_shipped},
      Counter{"shard_bytes_shipped", &ShardStats::shard_bytes_shipped},
      Counter{"shards_reused", &ShardStats::shards_reused},
      Counter{"shard_bytes_saved", &ShardStats::shard_bytes_saved},
      Counter{"full_hits", &ShardStats::full_hits},
      Counter{"partial_hits", &ShardStats::partial_hits});
};
static_assert(CountersCover<ShardStats>());

/// Owns every peer's transfer cache and the document version table.
class ReplicaManager {
 public:
  /// The manager of `sys`'s replicas (AxmlSystem owns one); it touches
  /// peers, the catalog and the generic registry when advertising or
  /// retracting copies.
  explicit ReplicaManager(AxmlSystem& sys) : sys_(&sys) {}
  ReplicaManager(const ReplicaManager&) = delete;
  ReplicaManager& operator=(const ReplicaManager&) = delete;

  // --- Document versions ---

  /// Current version of `name` on `owner`. Always >= 1: exactly 1 for a
  /// name this manager never saw a mutation for, and incremented on
  /// every mutation-listener event — the installing write included, so
  /// an installed document sits at 2 and no mutation history can ever
  /// collide with the never-seen default. (The seed returned 0 for
  /// never-seen names while documenting 1, which made the first-ever
  /// listener event land on 1 — indistinguishable from never-seen.)
  uint64_t Version(PeerId owner, const DocName& name) const;

  /// Records a mutation of `name` on `owner` (wired to Peer's mutation
  /// listener: PutDocument, AppendUnderNode, RemoveDocument). Copies made
  /// at earlier versions become stale; under the push policies (kDrop,
  /// kEagerRefresh) every subscribed holder is notified here — its copy
  /// and advertisements are gone before this call returns — while kLazy
  /// leaves them to be dropped on their next lookup.
  void NoteMutation(PeerId owner, const DocName& name);

  // --- Push-based refresh ---

  /// What a mutation does to subscribed copy holders. Default: kDrop —
  /// immediate coherence; kLazy restores the drop-on-lookup baseline.
  void set_refresh_policy(RefreshPolicy p) { refresh_policy_ = p; }
  RefreshPolicy refresh_policy() const { return refresh_policy_; }

  const SubscriptionStats& subscription_stats() const {
    return subscription_stats_;
  }
  const SubscriptionTable& subscriptions() const { return subscriptions_; }

  // --- Fault tolerance (leases, retry, anti-entropy, churn) ---
  //
  // Everything in this block is off by default and, when off, leaves a
  // run byte-identical to a manager without it — the soak harness pins
  // that. The perfect-fabric coherence story never needed it: copy
  // drops are synchronous with the mutation, so no read can see stale
  // content. Under injected faults and peer churn the *origin-side*
  // state (subscriptions, in-flight shipments) and a crashed holder's
  // durable cache can diverge; leases, bounded shipment retry and the
  // anti-entropy sweep bound how long that divergence lives.

  /// Leased subscriptions: every `renew_interval_s` of virtual time each
  /// up holder re-registers its interest at every origin it holds copies
  /// of (one encoded LeaseRenewal message per (holder, origin) pair,
  /// priced at its wire size, lossy);
  /// an origin that heard nothing from a holder for `ttl_s` expires the
  /// lease — the holder's subscriptions are forgotten, and an *up*
  /// holder also drops its lapsed entries (the lease contract: a holder
  /// that cannot renew stops serving; a crashed holder's cache is left
  /// for rejoin-time reconciliation). Runs off EventLoop::AddPeriodic,
  /// so an idle loop still quiesces. 0/0 (the default) disables leases
  /// and clears all deadlines.
  void ConfigureLeases(SimTime renew_interval_s, SimTime ttl_s);
  SimTime lease_renew_interval() const { return lease_renew_interval_; }
  SimTime lease_ttl() const { return lease_ttl_; }

  /// Bounded retry-with-backoff for refresh/placement shipments: when
  /// `max_attempts` > 0, every launched shipment arms a timeout of
  /// 3 x the estimated transfer time + `backoff_base_s` x attempt
  /// number; a shipment whose landing never fired (dropped by the fault
  /// injector or a crashed endpoint) is relaunched up to `max_attempts`
  /// total attempts, then the holder falls back to lazy pulls
  /// (SubscriptionStats::dropped_to_lazy). Default: off — a dropped
  /// shipment would just never land.
  void set_shipment_retry(int max_attempts, SimTime backoff_base_s);
  int shipment_retry_attempts() const { return ship_max_attempts_; }

  /// Periodic anti-entropy: every `interval_s` of virtual time, every up
  /// holder reconciles its cache against the origins (ReconcileHolder),
  /// charging one control roundtrip per (holder, origin) pair. 0 (the
  /// default) disables the tick; RunAntiEntropySweep stays callable
  /// manually.
  void set_anti_entropy_interval(SimTime interval_s);
  SimTime anti_entropy_interval() const { return anti_entropy_interval_; }

  /// One sweep over every up holder's cache. Returns entries repaired
  /// (stale or orphaned entries dropped).
  size_t RunAntiEntropySweep();

  /// Reconciles one holder's cache against current origin state,
  /// shard-granularly: stale whole-document and manifest entries (origin
  /// version moved on) and orphaned data shards (no longer referenced by
  /// the origin's current split) are dropped; surviving fresh entries
  /// are re-subscribed at the origin (repairing subscriptions lost to
  /// lease expiry or crash) and a complete fresh copy whose local name
  /// slot is free is re-installed and re-advertised. Under
  /// kEagerRefresh, a dropped stale whole-document entry, or a stale
  /// manifest whose every listed shard was resident, starts a
  /// re-materializing shipment; a partial sharded copy ships nothing and
  /// its next read fetches the delta. Charges one control roundtrip per
  /// (holder, origin) pair compared. Returns entries dropped.
  size_t ReconcileHolder(PeerId holder);

  /// Peer-churn hooks (AxmlSystem::CrashPeer/RejoinPeer call these after
  /// flipping the Network's liveness bit). Crash cancels in-flight
  /// shipments toward the peer, retracts every advertisement of its
  /// installed copies (a down peer must never be routable), and under
  /// kLoseCache wipes its transfer cache. Origin-side subscriptions of a
  /// durable-cache peer survive — leases or rejoin clean them up.
  void OnPeerCrash(PeerId peer, CrashMode mode);
  /// Rejoin reconciles the surviving cache (ReconcileHolder) before
  /// anything is re-advertised — a rejoining peer can never serve the
  /// stale state it crashed with.
  void OnPeerRejoin(PeerId peer);

  /// Arrival hook of an invalidation notification (wired as SendNotify's
  /// delivery callback): drops whatever stale whole-document/manifest
  /// entries of `origin` the holder still has. On a perfect fabric this
  /// is always a no-op — PushInvalidate dropped them synchronously at
  /// mutation time — and a notification arriving late (holder already
  /// dropped the doc, or crashed and rejoined at a newer version) is
  /// tolerated the same way: a no-op, never an abort.
  void OnNotifyDelivered(PeerId origin, PeerId holder);

  // --- Document sharding (xml/sharding.h) ---

  /// Turns sharded replication on or off. When on, documents for which
  /// ShouldShard holds (bigger than sharding_config().max_shard_bytes,
  /// >= 2 root children, no embedded service calls) replicate as
  /// manifest + data shards; everything else keeps the whole-document
  /// path. Off by default.
  void set_sharding_enabled(bool on) { sharding_enabled_ = on; }
  bool sharding_enabled() const { return sharding_enabled_; }

  /// Splitter knobs. Takes effect on the next version of each document
  /// (the per-origin split is cached per document version).
  void set_sharding_config(ShardingConfig cfg);
  const ShardingConfig& sharding_config() const { return shard_config_; }

  /// The current sharded form of origin's `name`, split once per
  /// document version and cached. nullptr when sharding is disabled, the
  /// document is absent or too small, or it embeds service calls (their
  /// activation state must not be frozen into shard blobs). Logically
  /// const: the memoized split and the origin's NodeIdGen do mutate.
  const ShardedDocument* OriginShards(PeerId origin,
                                      const DocName& name) const;

  /// Starts a read-path delta fetch: ships only the manifest (if stale)
  /// and the data shards `reader` lacks; resident shards are served
  /// locally (each counts a cache hit). When the transfer lands, the
  /// copy is cached + installed + advertised (InsertShardedCopy) unless
  /// a rack-mate served it, and `deliver` receives the assembled
  /// document (nullptr only if the reader peer vanished mid-flight).
  /// Never allocates a TransferCache: a reader without one plans
  /// against nothing resident, and only the landing's InsertShardedCopy
  /// creates its cache. Returns false without sending when the sharded
  /// path does not apply — callers fall back to the whole-document
  /// transfer.
  bool FetchForRead(PeerId reader, PeerId origin, const DocName& name,
                    std::function<void(TreePtr)> deliver);

  /// Records a landed sharded shipment at `reader`: caches the manifest
  /// (versioned) and each shipped data shard (immutable, version 0),
  /// subscribes the holder, and — when every manifest shard is resident
  /// and the local name slot is free — installs and advertises the
  /// assembled document. Returns true when the manifest was cached (the
  /// sharded copy exists, possibly partial); false when the snapshot is
  /// stale or the cache refused the manifest.
  /// `manifest_blob` and each shard's bytes are stored as they are.
  bool InsertShardedCopy(PeerId reader, PeerId origin, const DocName& name,
                         const std::string& manifest_blob,
                         const std::vector<DocumentShard>& shipped,
                         uint64_t snapshot_version);

  /// Wire bytes a sharded read of origin's `name` at `reader` would move
  /// right now: the stale-or-absent manifest plus every non-resident
  /// data shard. False when the sharded path does not apply (callers
  /// price a full transfer). The cost model prices partial copies with
  /// this — a peer holding most of the shards reads almost for free.
  bool ShardedDeltaBytes(PeerId reader, PeerId origin, const DocName& name,
                         uint64_t* bytes) const;

  const ShardStats& shard_stats() const { return shard_stats_; }

  /// True when an eager-refresh shipment of origin's `name` toward
  /// `reader` is on the wire.
  bool IsRefreshInFlight(PeerId reader, PeerId origin,
                         const DocName& name) const;

  /// Cost-model probe: true when `reader` holds a fresh copy *or* one is
  /// being re-materialized right now (eager refresh in flight). Under
  /// kEagerRefresh a mutation therefore does not decay the fresh-copy
  /// assumption plans are priced on.
  bool ExpectedFresh(PeerId reader, PeerId origin,
                     const DocName& name) const;

  // --- Per-peer caches ---

  /// The transfer cache of `peer`, created on first use with the default
  /// byte budget; forgotten when it empties (see ForgetIfEmpty).
  TransferCache* CacheFor(PeerId peer);
  /// nullptr when `peer` holds nothing (and set no budget of its own).
  const TransferCache* FindCache(PeerId peer) const;

  /// Counts a read of `reader` that joined an in-flight transfer instead
  /// of issuing its own (the evaluator's coalescing): a hit of its cache,
  /// or a manager-side one when the reader has none (see TotalStats).
  void RecordCoalescedHit(PeerId reader, uint64_t bytes);

  /// Budget applied to caches created after this call.
  void set_default_byte_budget(uint64_t bytes) { default_budget_ = bytes; }
  uint64_t default_byte_budget() const { return default_budget_; }

  /// Victim-selection policy for the transfer caches. Applies to caches
  /// created later *and* switches every existing cache (recency and
  /// frequency bookkeeping restarts — benches flip policies between
  /// runs). Every cache also gets CostModel::RefetchCost wired in as its
  /// refetch-cost estimate, so kCostAware prices victims off the real
  /// topology.
  void set_default_eviction_policy(EvictionPolicy p);
  EvictionPolicy default_eviction_policy() const {
    return default_eviction_policy_;
  }

  // --- Proactive placement ---

  /// Placement policy and its config (disabled until someone enables it
  /// via placement().set_config).
  PlacementPolicy& placement() { return placement_; }
  const PlacementPolicy& placement() const { return placement_; }
  const PlacementStats& placement_stats() const { return placement_stats_; }

  /// One placement round: plans shipments from the GenericCatalog's pick
  /// demand (PlacementPolicy::Plan) and starts them through the shared
  /// shipment path — coalesced with in-flight refresh/placement
  /// shipments, denied by the per-holder placement byte budget, cached +
  /// installed + advertised when they land. Returns shipments started;
  /// the caller drives the event loop to land them.
  size_t RunPlacement();

  // --- Copies ---

  /// Records that `landed` — a copy of origin's `name`, freshly minted
  /// for `reader` — materialized there: stores `encoded`, the bytes the
  /// shipment carried, in reader's transfer cache and, when the reader
  /// holds no unrelated document of that name, installs `landed` itself
  /// as a local document and advertises it (catalog + generic classes of
  /// the origin). `snapshot_version` is the origin's version *when the
  /// content was copied for shipping* — passing the landing-time version
  /// would brand content cloned before a mid-flight mutation as fresh.
  /// Returns false without caching when the snapshot is already stale,
  /// the blob exceeds the cache budget, or the copy is not cacheable.
  bool InsertCopy(PeerId reader, PeerId origin, const DocName& name,
                  TreePtr landed, uint64_t snapshot_version,
                  std::string encoded);

  /// The landing of a whole-document read at `reader`: InsertCopy,
  /// unless `landed` still carries service calls (a copy would freeze
  /// their activation state) or a rack-mate served it (AdmitReadCopy).
  /// Returns true when the copy was cached.
  bool InsertReadCopy(PeerId reader, PeerId origin, const DocName& name,
                      TreePtr landed, uint64_t snapshot_version,
                      std::string encoded);

  /// A private instance, freshly decoded for `reader`, of its fresh copy
  /// of origin's `name`, or nullptr. `*sharded` tells which shape served
  /// it. A fresh whole-document entry wins — e.g. one cached before
  /// sharding was enabled, which the cost model prices at zero. Else,
  /// when the document replicates as shards (OriginShards), the copy is
  /// assembled from resident shards iff the manifest is fresh and every
  /// shard it references is resident (ShardStats::full_hits); else the
  /// whole-document entry is read. Counts hit/miss stats and touches
  /// recency of every entry it reads; a stale entry is dropped (cache,
  /// local document, catalog, generic classes) before the miss returns.
  /// Never allocates: a reader that never cached anything gets a plain
  /// miss (counted manager-side, see TotalStats), not a TransferCache.
  TreePtr ReadFreshCopy(PeerId reader, PeerId origin, const DocName& name,
                        bool* sharded);

  /// True when `reader` holds a fresh copy of origin's `name` — a
  /// whole-document entry at the current version, or a complete sharded
  /// copy (fresh manifest, every data shard resident). No side effects
  /// and no stats — the cost model probes with this.
  bool HasFresh(PeerId reader, PeerId origin, const DocName& name) const;

  /// Serialized content bytes of the fresh copy (for a sharded copy, the
  /// sum of its data-shard bytes), 0 when absent or incomplete.
  uint64_t FreshCopyBytes(PeerId reader, PeerId origin,
                          const DocName& name) const;

  /// True when document `name` on `peer` is soft replica state (skipped
  /// by StateFingerprint).
  bool IsCachedCopy(PeerId peer, const DocName& name) const;

  /// The origin whose copy is installed as `peer`'s local document
  /// `name`, or PeerId::Invalid() when that slot holds no copy. Only the
  /// installed copy carries advertisements — a cache-only copy (slot
  /// taken by an unrelated document or another origin's copy) serves
  /// repeated reads but is never advertised; tests mirror-check
  /// advertisements against this.
  PeerId InstalledOrigin(PeerId peer, const DocName& name) const;

  /// True when `reader` holds a fresh copy of origin's `name` that is
  /// also *installed* as reader's local document of that name. Only then
  /// may a rewrite substitute Doc(name, reader) for Doc(name, origin) —
  /// a cache-only copy (local name taken by an unrelated document or a
  /// copy from another origin) must not be read by name.
  bool HasFreshInstalled(PeerId reader, PeerId origin,
                         const DocName& name) const;

  /// Generic-pick validation hook: a member that is a cached copy must be
  /// fresh to stay in its class; a stale one is dropped (with all its
  /// advertisements) and the call returns false. Durable members always
  /// validate.
  bool ValidateMember(const std::string& class_name,
                      const ClassMember& member);

  /// Drops one copy (fresh or stale) with its advertisements; returns
  /// true when it existed.
  bool DropCopy(PeerId reader, PeerId origin, const DocName& name);
  /// Drops every cached copy on every peer (benches reset between runs).
  void DropAllCopies();

  /// Sum of every peer's cache counters, forgotten caches included.
  TransferCacheStats TotalStats() const;
  void ResetStats();

  /// Mounts the whole replica layer into `sink`: subscription counters
  /// under "replica/subscription/...", shard counters under
  /// "replica/shard/...", placement under "replica/placement/...", and
  /// the summed cache counters (TotalStats) plus every cache's
  /// resident_bytes and entry_count, summed, under "replica/cache/...".
  /// A peer that holds something has its own counters in
  /// FindCache(peer)->stats().
  /// AxmlSystem registers this at the registry root.
  void ExportMetrics(MetricSink& sink) const;

 private:
  /// Memoized origin-side split: recomputed when the document's version
  /// moves past `version`.
  struct OriginShardState {
    uint64_t version = 0;
    ShardedDocument sharded;
  };

  /// Retracts the local document + catalog + generic-class advertisements
  /// of the copy `key` held at `reader`. Invoked by the caches' evict
  /// listeners, so budget evictions retract advertisements too. Losing
  /// *any* piece of a sharded copy (manifest or data shard) retracts the
  /// installed document — installed ⇔ fully resident in cache. The
  /// catalog retraction is the holder's own; when a write dropped the
  /// copy, PushInvalidate's origin-sent retraction already removed the
  /// entry and the holder sends nothing.
  void RetractAdvertisements(PeerId reader, const ReplicaKey& key);

  /// Installs `tree` as reader's local document `name` and advertises it
  /// (catalog + the origin's generic classes), unless the name slot is
  /// taken. `tree` must be freshly minted for the reader (never a cache
  /// blob). Shared tail of InsertCopy / InsertShardedCopy.
  void InstallAndAdvertise(PeerId reader, PeerId origin,
                           const DocName& name, TreePtr tree);

  /// Caches one landed payload at `holder` via InsertCopy or
  /// InsertShardedCopy, whichever matches its shape.
  bool InsertLanded(PeerId holder, const ReplicaKey& key,
                    const ShipmentPayload& payload);

  /// Withdraws `member` from every generic class it belongs to.
  void LeaveGenericClasses(const ClassMember& member);
  /// Erases `peer`'s cache, its counters folded into uncached_stats_,
  /// when it is empty and CacheFor would rebuild it as it is. Called
  /// after the cache call that emptied it returns, never from within.
  void ForgetIfEmpty(PeerId peer);

  /// Read-path admission, asked by both read landings (InsertReadCopy
  /// and FetchForRead's) before they cache: false when `source` — the
  /// origin or a copy holder the payload came from — sits in `reader`'s
  /// rack of a Hierarchical topology. That source already serves every
  /// rack-mate over the rack link a new copy would use, so the reader
  /// caches, subscribes to and advertises nothing
  /// (TransferCacheStats::rack_declined counts each decline). Outside a
  /// hierarchy every peer's rack is UINT32_MAX, and every read is
  /// admitted. Placement and refresh shipments do not ask.
  bool AdmitReadCopy(PeerId reader, PeerId source);

  /// Replaces the periodic tick `*tick_id` (0 = none) with one running
  /// `fn` every `interval_s` of virtual time; none when `interval_s` is
  /// not positive.
  void RearmTick(uint64_t* tick_id, SimTime interval_s,
                 std::function<void()> fn);

  /// Sends `holder` one invalidation notification for `key`: an encoded
  /// one-key wire::NotifyBatch, origin -> holder, priced at its encoded
  /// size, which its "notify" trace span records too.
  void SendNotifyMessage(const ReplicaKey& key, PeerId holder);

  /// Records one "replica" trace event when tracing is on; the detail
  /// string (the key, or `detail` followed by `origin` when valid) is
  /// built only then.
  void TraceEvent(const char* event, PeerId peer, uint64_t bytes,
                  const ReplicaKey& key) const;
  void TraceEvent(const char* event, PeerId peer, const char* detail,
                  PeerId origin = PeerId::Invalid()) const;

  /// Mutation fan-out (kDrop / kEagerRefresh): notifies every subscribed
  /// holder whose copy can serve a read by name — a whole-document entry
  /// or pending refresh (doc-level key), or an installed sharded copy
  /// (manifest key + installed slot) — drops its whole-document entry
  /// and manifest synchronously, and under eager refresh starts the
  /// re-materializing shipment. Before the drops, the origin retracts
  /// the catalog entries of every copy they will take down
  /// (CatalogBackend::RetractCopiesOf). Every other subscribed holder —
  /// a partial sharded copy — is skipped (SubscriptionStats::
  /// clean_skips): its data shards are content-addressed and never go
  /// stale, its stale manifest is caught by the version check on its
  /// next read, and it was never installed or advertised, so no stale
  /// read can route to it.
  void PushInvalidate(const ReplicaKey& key);

  /// Ships the origin's current version of `key` to `holder`; the copy
  /// re-enters the cache (and its advertisements) when it lands. Folds
  /// into an already in-flight shipment.
  /// `attempt` > 0 marks a catch-up shipment after a mid-flight
  /// mutation; the chain is capped at kMaxCatchupAttempts, after which
  /// the holder falls back to lazy pulls (catchup_exhausted). Returns
  /// true when a shipment is (now) in flight for the pair — false means
  /// nothing will land (document removed).
  bool StartRefresh(PeerId holder, const ReplicaKey& key, int attempt);

  /// Executes one planned placement seeding through the same in-flight
  /// machinery StartRefresh uses (one shipment per (holder, key) pair on
  /// the wire, whatever started it). Returns true when a new shipment
  /// launched; launching drains the decision's (class, holder) demand.
  bool StartPlacementShipment(const PlacementDecision& decision);

  /// Shared wire leg of StartRefresh and StartPlacementShipment: encodes
  /// the origin's current content — whole, or as a sharded delta against
  /// the holder's resident shards when the sharded path applies —
  /// registers a generation token in refresh_inflight_, and sends.
  /// `admit` sees the wire size (the *delta* size for sharded
  /// shipments) before anything is committed — return false to veto
  /// (and charge whatever budget applies on true). `on_land` runs at
  /// arrival with the flight token already cleared; a landing whose
  /// token was canceled (DropAllCopies) or superseded mid-flight is
  /// silently discarded before `on_land`. Returns false when nothing
  /// launched (missing peer or document, service calls frozen, admit
  /// veto). Precondition: no shipment in flight for (holder, key).
  /// `attempt` counts retransmissions when shipment retry is on
  /// (set_shipment_retry): a launch arms a timeout that relaunches the
  /// same admit/on_land pair — re-admitted, the retry is real wire
  /// traffic — until the attempt cap, then unsubscribes the holder
  /// (dropped_to_lazy).
  bool LaunchShipment(
      PeerId holder, const ReplicaKey& key,
      const std::function<bool(uint64_t bytes)>& admit,
      std::function<void(const ShipmentPayload& payload, uint64_t bytes)>
          on_land,
      int attempt = 0);

  /// The lease tick body (renewals + expiries), and a helper shared
  /// with reconciliation that re-subscribes a holder's resident fresh
  /// entries of `origin`, returning how many were newly subscribed.
  void LeaseTick();
  size_t ResubscribeResident(PeerId holder, PeerId origin);

  /// (owner, name) keys whose NoteMutation fan-out is running right now.
  /// Distinct keys legally nest (drop → RemoveDocument → listener →
  /// NoteMutation for the holder's name); a same-key cycle aborts.
  std::set<ReplicaKey> active_mutations_;
  AxmlSystem* const sys_;
  uint64_t default_budget_ = TransferCache::kDefaultByteBudget;
  EvictionPolicy default_eviction_policy_ = EvictionPolicy::kLru;
  std::map<PeerId, std::unique_ptr<TransferCache>> caches_;
  /// key = (owner, name). An entry outlives a dropped copy slot: erased,
  /// a re-created slot would restart at version 2 under kLazy, and a
  /// copy of a copy or a shipment that snapshotted its first life at 2
  /// would pass as fresh.
  std::map<ReplicaKey, uint64_t> versions_;
  /// (reader, local doc name) -> origin, for copies installed as local
  /// documents. Guards against shadowing a reader's own documents and
  /// lets IsCachedCopy answer without scanning caches.
  std::map<std::pair<PeerId, DocName>, PeerId> installed_;

  RefreshPolicy refresh_policy_ = RefreshPolicy::kDrop;
  SubscriptionTable subscriptions_;
  SubscriptionStats subscription_stats_;
  /// (holder, key) -> generation of the refresh shipment on the wire.
  /// The landing callback acts only when its own generation is still
  /// registered: a shipment outliving a DropAllCopies (its event is
  /// queued in the loop) must not hijack the token of a newer shipment
  /// for the same pair.
  std::map<std::pair<PeerId, ReplicaKey>, uint64_t> refresh_inflight_;
  uint64_t refresh_generation_ = 0;
  /// Counters no single cache holds: misses and coalesced hits of
  /// readers that never cached anything (no cache is allocated just to
  /// count them) and AdmitReadCopy declines. TotalStats starts from it.
  TransferCacheStats uncached_stats_;

  // Fault-tolerance knobs (all off by default; see the public block).
  SimTime lease_renew_interval_ = 0;
  SimTime lease_ttl_ = 0;
  uint64_t lease_tick_id_ = 0;  ///< EventLoop periodic id; 0 = none
  /// (origin, holder) -> virtual time the lease lapses. Granted lazily
  /// on first sight of a subscription pair, re-armed by each renewal
  /// arrival.
  std::map<std::pair<PeerId, PeerId>, SimTime> lease_deadlines_;
  int ship_max_attempts_ = 0;
  SimTime ship_backoff_base_s_ = 0;
  SimTime anti_entropy_interval_ = 0;
  uint64_t anti_entropy_tick_id_ = 0;

  PlacementPolicy placement_;
  PlacementStats placement_stats_;
  /// Wire bytes placement spent per receiving holder (the placement
  /// config's per-holder budget draws down against this).
  std::map<PeerId, uint64_t> placement_spent_;

  bool sharding_enabled_ = false;
  ShardingConfig shard_config_;
  /// Per-(origin, name) memoized split, keyed by document-level key;
  /// mutable because cost-model probes (const) may recompute it.
  mutable std::map<ReplicaKey, OriginShardState> origin_shards_;
  ShardStats shard_stats_;
};

}  // namespace axml

#endif  // AXML_REPLICA_REPLICA_MANAGER_H_
