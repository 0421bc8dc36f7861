#include "replica/replica_manager.h"

#include <algorithm>
#include <optional>
#include <set>
#include <vector>

#include "common/logging.h"
#include "common/str_util.h"
#include "net/catalog.h"
#include "net/topology.h"
#include "opt/cost_model.h"
#include "peer/peer.h"
#include "peer/system.h"
#include "xml/wire.h"

namespace axml {

namespace {

/// Cap on the eager-refresh catch-up chain: a shipment landing on a
/// moved origin version launches at most this many total attempts
/// before the holder falls back to lazy pulls. Under sustained
/// mutation (every mutation overtaking the shipment in flight) an
/// unbounded chain would ship forever without ever landing fresh.
constexpr int kMaxCatchupAttempts = 3;

/// The system's wire encode/decode accounting, nullptr for unbound
/// managers (headless unit tests).
wire::WireStats* WireStatsOf(AxmlSystem* sys) {
  return sys == nullptr ? nullptr : &sys->wire_stats();
}

/// The shipped-and-reused counters one delta adds, whichever path sent
/// it.
void CountShardDelta(const ShardDelta& delta, ShardStats* stats) {
  if (delta.ships_manifest()) ++stats->manifests_shipped;
  stats->shards_shipped += delta.missing.size();
  stats->shard_bytes_shipped += delta.missing_bytes;
  stats->shards_reused += delta.reused();
  stats->shard_bytes_saved += delta.reused_bytes;
}

}  // namespace

uint64_t ReplicaManager::Version(PeerId owner, const DocName& name) const {
  auto it = versions_.find(ReplicaKey{owner, name});
  return it == versions_.end() ? 1 : it->second;
}

void ReplicaManager::NoteMutation(PeerId owner, const DocName& name) {
#ifndef AXML_DISABLE_DCHECKS
  // Same-key cycle detection (the header's reentrancy contract):
  // distinct keys legally nest — a drop's RemoveDocument fires the
  // mutation listener, which re-enters here for the *holder's* name —
  // but re-entering for the same (owner, name) means the fan-out looped
  // back into its own mid-mutation version/subscription state.
  AXML_CHECK(active_mutations_.insert(ReplicaKey{owner, name}).second)
      << "NoteMutation re-entered for " << ReplicaKey{owner, name}.ToString()
      << " while its own fan-out is running (same-key mutation cycle)";
  struct ActiveEraser {
    std::set<ReplicaKey>* active;
    ReplicaKey key;
    ~ActiveEraser() { active->erase(key); }
  } active_eraser{&active_mutations_, ReplicaKey{owner, name}};
#endif
  // One mutation = one causal chain: every notify, shipment and landing
  // the fan-out below triggers — synchronously or across simulated
  // network hops — inherits this id (unless the mutation is itself part
  // of a chain already, e.g. a landed copy installing).
  Tracer* tr = trace();
  Tracer::Scope trace_scope(tr, tr != nullptr ? tr->CurrentOrNew() : 0);
  TraceEvent("mutation", owner, 0, ReplicaKey{owner, name});

  // A never-mutated document is at version 1 (the header's contract), so
  // the first mutation must land on 2 — default-constructing the slot at
  // 0 and incrementing would leave it indistinguishable from fresh.
  ++versions_.try_emplace(ReplicaKey{owner, name}, 1).first->second;

  // Push to copy holders first: under kDrop/kEagerRefresh every
  // subscriber's copy and advertisements are retracted before this call
  // returns — no stale advertisement survives into the window between
  // this mutation and the next read.
  if (refresh_policy_ != RefreshPolicy::kLazy && sys_ != nullptr) {
    PushInvalidate(ReplicaKey{owner, name});
  }

  // A durable write onto a document slot we were using for a cached copy
  // (e.g. send(d@p, ...) landing on the copy's name) promotes the slot:
  // the copy ceases to exist, the document stays. Other cache entries
  // that share the copy's bytes stay fresh: the promoted document is a
  // decoded tree and aliases none of them.
  auto it = installed_.find({owner, name});
  if (it == installed_.end()) return;
  const PeerId origin = it->second;
  installed_.erase(it);
  auto cache_it = caches_.find(owner);
  if (TransferCache* cache = cache_it == caches_.end()
                                 ? nullptr
                                 : cache_it->second.get()) {
    cache->Erase(ReplicaKey{origin, name}, /*invalidation=*/true);
    // The sharded layout of the promoted copy goes too: manifest and
    // data shards of (origin, name) no longer describe anything.
    for (const ReplicaKey& k : cache->KeysForDoc(origin, name)) {
      cache->Erase(k, /*invalidation=*/true);
    }
  }
  // A durable put keeps the catalog entry (the peer genuinely holds a
  // document of this name now) and widens it from the copy's scope to a
  // durable one; a removal must retract it — the listener fires for
  // both, so check which one happened. Membership in the origin's
  // classes goes either way: the write may have broken equivalence.
  if (sys_ != nullptr) {
    const Peer* holder = sys_->peer(owner);
    const bool still_exists = holder != nullptr && holder->HasDocument(name);
    if (CatalogBackend* catalog = sys_->catalog()) {
      if (still_exists) {
        catalog->Register(ResourceKind::kDocument, name, owner);
      } else {
        catalog->Unregister(ResourceKind::kDocument, name, owner);
      }
    }
    LeaveGenericClasses(ClassMember{name, owner});
  }
}

TransferCache* ReplicaManager::CacheFor(PeerId peer) {
  auto it = caches_.find(peer);
  if (it != caches_.end()) return it->second.get();
  auto cache = std::make_unique<TransferCache>(default_budget_,
                                               default_eviction_policy_);
  cache->set_evict_listener(
      [this, peer](const ReplicaKey& key,
                   const TransferCache::Entry& entry) {
        TraceEvent("evict", peer, entry.bytes, key);
        // Subscriptions mirror residency exactly: each departing entry
        // — whole document, manifest, or data shard — ends its own
        // subscription, so mutation fan-out targets precisely what the
        // holder still has. The installed document is retracted on
        // losing *any* piece (installed ⇔ fully resident in cache).
        subscriptions_.Unsubscribe(key, peer);
        RetractAdvertisements(peer, key);
      });
  if (sys_ != nullptr) {
    // The cost-aware policy prices victims by what re-pulling them over
    // the holder<-origin link would cost (CostModel::RefetchCost): a
    // copy of a distant origin survives bursts of cheap nearby traffic.
    cache->set_refetch_cost(
        [this, peer](const ReplicaKey& key, uint64_t bytes) {
          return CostModel(sys_).RefetchCost(peer, key.origin, bytes);
        });
  }
  return caches_.emplace(peer, std::move(cache)).first->second.get();
}

void ReplicaManager::set_default_eviction_policy(EvictionPolicy p) {
  default_eviction_policy_ = p;
  for (auto& [peer, cache] : caches_) cache->set_eviction_policy(p);
}

const TransferCache* ReplicaManager::FindCache(PeerId peer) const {
  auto it = caches_.find(peer);
  return it == caches_.end() ? nullptr : it->second.get();
}

void ReplicaManager::RecordCoalescedHit(PeerId reader, uint64_t bytes) {
  auto it = caches_.find(reader);
  if (it != caches_.end()) {
    it->second->RecordCoalescedHit(bytes);
    return;
  }
  ++uncached_stats_.hits;
  uncached_stats_.bytes_saved += bytes;
}

bool ReplicaManager::InsertCopy(PeerId reader, PeerId origin,
                                const DocName& name, TreePtr landed,
                                uint64_t snapshot_version,
                                std::string encoded) {
  if (sys_ == nullptr || reader == origin || !origin.is_concrete()) {
    return false;
  }
  Peer* holder = sys_->peer(reader);
  if (holder == nullptr || landed == nullptr) return false;
  if (snapshot_version != Version(origin, name)) {
    return false;  // the origin moved on while the copy was on the wire
  }

  const ReplicaKey key{origin, name};
  TransferCache* cache = CacheFor(reader);
  // Put retracts an older copy of the same key first (evict listener), so
  // the install guard below sees a clean slot.
  if (!cache->Put(key, std::move(encoded), DigestOf(*landed),
                  snapshot_version)) {
    return false;  // over budget: not worth caching
  }
  if (cache->Peek(key) == nullptr) {
    return false;  // evicted immediately by the budget
  }

  // The origin now owes this reader a push on every mutation of `name`
  // (cache-only copies included: they serve reads too and must not go
  // stale silently).
  subscriptions_.Subscribe(key, reader);

  // Install + advertise the landed tree itself: the cache holds only
  // bytes, so the installed document shares nothing with it.
  InstallAndAdvertise(reader, origin, name, std::move(landed));
  return true;
}

void ReplicaManager::InstallAndAdvertise(PeerId reader, PeerId origin,
                                         const DocName& name,
                                         TreePtr tree) {
  Peer* holder = sys_->peer(reader);
  // Skip when the local name is taken — by the reader's own document or
  // by a copy from another origin (the cache still serves repeated reads
  // either way).
  if (holder == nullptr || installed_.count({reader, name}) > 0 ||
      holder->HasDocument(name)) {
    return;
  }
  TraceEvent("install", reader, 0, ReplicaKey{origin, name});
  holder->PutDocument(name, std::move(tree));
  installed_[{reader, name}] = origin;
  if (sys_->catalog() != nullptr) {
    sys_->catalog()->RegisterCopy(ResourceKind::kDocument, name, reader,
                                  origin);
  }
  for (const std::string& cls :
       sys_->generics().DocumentClassesOf(ClassMember{name, origin})) {
    sys_->generics().AddDocumentMember(cls, ClassMember{name, reader});
  }
}

bool ReplicaManager::AdmitReadCopy(PeerId reader, PeerId source) {
  const Topology& topo = sys_->network().topology();
  const uint32_t rack = topo.RackOf(reader);
  if (rack == UINT32_MAX || rack != topo.RackOf(source)) return true;
  ++uncached_stats_.rack_declined;
  return false;
}

EncodedBlob ReplicaManager::LookupFresh(PeerId reader, PeerId origin,
                                        const DocName& name) {
  if (reader == origin || !origin.is_concrete()) return nullptr;
  // A miss from a peer that never cached anything must not allocate a
  // TransferCache (plus evict listener) for it — readers that never
  // insert would each leak an empty cache. The miss is tallied
  // manager-side so TotalStats stays truthful.
  auto it = caches_.find(reader);
  if (it == caches_.end()) {
    ++uncached_stats_.misses;
    return nullptr;
  }
  return it->second->Get(ReplicaKey{origin, name}, Version(origin, name));
}

bool ReplicaManager::HasFresh(PeerId reader, PeerId origin,
                              const DocName& name) const {
  return FreshCopyBytes(reader, origin, name) > 0;
}

uint64_t ReplicaManager::FreshCopyBytes(PeerId reader, PeerId origin,
                                        const DocName& name) const {
  const TransferCache* cache = FindCache(reader);
  if (cache == nullptr) return 0;
  const TransferCache::Entry* e = cache->Peek(ReplicaKey{origin, name});
  if (e != nullptr && e->origin_version == Version(origin, name)) {
    return e->bytes;
  }
  // A complete sharded copy is as fresh as a whole-document one.
  const TransferCache::Entry* m = cache->Peek(ManifestKey(origin, name));
  if (m == nullptr || m->origin_version != Version(origin, name)) return 0;
  TreePtr manifest = DecodeManifest(*m->encoded, WireStatsOf(sys_));
  return manifest == nullptr
             ? 0
             : ResidentShardBytes(*cache, origin, name, *manifest);
}

bool ReplicaManager::IsCachedCopy(PeerId peer, const DocName& name) const {
  return installed_.count({peer, name}) > 0;
}

PeerId ReplicaManager::InstalledOrigin(PeerId peer,
                                       const DocName& name) const {
  auto it = installed_.find({peer, name});
  return it == installed_.end() ? PeerId::Invalid() : it->second;
}

bool ReplicaManager::HasFreshInstalled(PeerId reader, PeerId origin,
                                       const DocName& name) const {
  auto it = installed_.find({reader, name});
  return it != installed_.end() && it->second == origin &&
         HasFresh(reader, origin, name);
}

bool ReplicaManager::ValidateMember(const std::string& /*class_name*/,
                                    const ClassMember& member) {
  auto it = installed_.find({member.peer, member.name});
  if (it == installed_.end()) return true;  // durable member
  const PeerId origin = it->second;
  if (HasFresh(member.peer, origin, member.name)) return true;
  DropCopy(member.peer, origin, member.name);
  return false;
}

bool ReplicaManager::DropCopy(PeerId reader, PeerId origin,
                              const DocName& name) {
  auto it = caches_.find(reader);
  if (it == caches_.end()) return false;
  // Whole-document entry and manifest both carry the copy's identity;
  // data shards are immutable content and stay (reused by the next
  // delta, garbage-collected by eviction or orphan cleanup).
  const bool whole = it->second->Erase(ReplicaKey{origin, name},
                                       /*invalidation=*/true);
  const bool manifest = it->second->Erase(ManifestKey(origin, name),
                                          /*invalidation=*/true);
  return whole || manifest;
}

void ReplicaManager::DropAllCopies() {
  for (auto& [peer, cache] : caches_) cache->Clear();
  // Cancel in-flight refresh shipments: their landing callbacks see the
  // erased flight token and discard the payload, so a reset cannot be
  // undone by a late arrival.
  for (const auto& [flight, generation] : refresh_inflight_) {
    subscriptions_.Unsubscribe(/*key=*/flight.second,
                               /*holder=*/flight.first);
  }
  refresh_inflight_.clear();
}

TransferCacheStats ReplicaManager::TotalStats() const {
  TransferCacheStats total = uncached_stats_;
  for (const auto& [peer, cache] : caches_) AddCounters(total, cache->stats());
  return total;
}

Tracer* ReplicaManager::trace() const {
  return sys_ == nullptr ? nullptr : &sys_->tracer();
}

void ReplicaManager::TraceEvent(const char* event, PeerId peer,
                                uint64_t bytes, const ReplicaKey& key) const {
  if (Tracer* tr = trace(); tr != nullptr && tr->enabled()) {
    tr->Record("replica", event, peer, bytes, 0, key.ToString());
  }
}

void ReplicaManager::TraceEvent(const char* event, PeerId peer,
                                const char* detail, PeerId origin) const {
  if (Tracer* tr = trace(); tr != nullptr && tr->enabled()) {
    tr->Record("replica", event, peer, 0, 0,
               origin.valid() ? StrCat(detail, origin.ToString()) : detail);
  }
}

void ReplicaManager::LeaveGenericClasses(const ClassMember& member) {
  // Explicit snapshot: DocumentClassesOf returns its vector by value,
  // but RemoveDocumentMember rewrites the registry's reverse index
  // underneath us — never iterate the registry's own storage here.
  const std::vector<std::string> classes =
      sys_->generics().DocumentClassesOf(member);
  for (const std::string& cls : classes) {
    sys_->generics().RemoveDocumentMember(cls, member);
  }
}

void ReplicaManager::RearmTick(uint64_t* tick_id, SimTime interval_s,
                               std::function<void()> fn) {
  if (*tick_id != 0) {
    sys_->loop().RemovePeriodic(*tick_id);
    *tick_id = 0;
  }
  if (interval_s > 0) {
    *tick_id = sys_->loop().AddPeriodic(interval_s, std::move(fn));
  }
}

void ReplicaManager::ExportMetrics(MetricSink& sink) const {
  MetricSink subscription = sink.Scoped("replica/subscription");
  ExportCounters(subscription_stats_, subscription);
  MetricSink shard = sink.Scoped("replica/shard");
  ExportCounters(shard_stats_, shard);
  MetricSink placement = sink.Scoped("replica/placement");
  ExportCounters(placement_stats_, placement);
  MetricSink cache = sink.Scoped("replica/cache");
  ExportCounters(TotalStats(), cache);
  for (const auto& [peer, c] : caches_) {
    // Re-emitting a name sums: these are fleet-wide totals.
    cache.Value("resident_bytes", c->resident_bytes());
    cache.Value("entry_count", c->entry_count());
  }
  sink.Value("replica/subscriptions/active",
             subscriptions_.subscription_count());
}

void ReplicaManager::ResetStats() {
  for (auto& [peer, cache] : caches_) cache->ResetStats();
  subscription_stats_ = SubscriptionStats{};
  placement_stats_ = PlacementStats{};
  shard_stats_ = ShardStats{};
  uncached_stats_ = TransferCacheStats{};
  placement_spent_.clear();
}

bool ReplicaManager::IsRefreshInFlight(PeerId reader, PeerId origin,
                                       const DocName& name) const {
  return refresh_inflight_.count({reader, ReplicaKey{origin, name}}) > 0;
}

bool ReplicaManager::ExpectedFresh(PeerId reader, PeerId origin,
                                   const DocName& name) const {
  return HasFresh(reader, origin, name) ||
         IsRefreshInFlight(reader, origin, name);
}

void ReplicaManager::RetractAdvertisements(PeerId reader,
                                           const ReplicaKey& key) {
  auto it = installed_.find({reader, key.name});
  if (it == installed_.end() || it->second != key.origin) {
    return;  // cache-only copy, nothing advertised
  }
  installed_.erase(it);
  if (sys_ == nullptr) return;
  if (Peer* holder = sys_->peer(reader)) {
    (void)holder->RemoveDocument(key.name);
  }
  if (sys_->catalog() != nullptr) {
    sys_->catalog()->Unregister(ResourceKind::kDocument, key.name, reader);
  }
  LeaveGenericClasses(ClassMember{key.name, reader});
}

void ReplicaManager::PushInvalidate(const ReplicaKey& key) {
  // Snapshot of this document's subscription keys (the drop loop below
  // unsubscribes mid-flight). No subscribers: nothing to push — and no
  // reason to split the new version.
  const std::vector<ReplicaKey> sub_keys =
      subscriptions_.KeysForDoc(key.origin, key.name);
  if (sub_keys.empty()) return;
  // Shard ids the *new* version still references; resident data shards
  // outside this set are dirty.
  const std::set<std::string> live = LiveShardIds(key);
  // Classify subscribed holders. A holder is dirty — and must be
  // pushed — when its copy's *content by name* changed or it holds
  // pieces the new version abandoned:
  //  - a whole-document entry or a pending refresh (doc-level key);
  //  - an installed sharded copy (manifest key + installed slot): it is
  //    advertised and readable by name, so any mutation dirties it;
  //  - a data shard outside the new live set.
  // Everything else — partial holders whose every resident shard is
  // still referenced — is clean: their manifest's version check catches
  // the staleness on the next lookup, and nothing they advertise (they
  // advertise nothing) can serve a stale read meanwhile.
  std::vector<PeerId> dirty;  // notification order: first subscription wins
  std::set<PeerId> dirty_set;
  std::set<PeerId> doc_wide;  // dirty through a doc-level/installed copy
  std::set<PeerId> subscribed;
  for (const ReplicaKey& sk : sub_keys) {
    for (PeerId holder : subscriptions_.HoldersOf(sk)) {
      subscribed.insert(holder);
      bool holder_dirty = false;
      if (sk.is_doc()) {
        holder_dirty = true;
      } else if (sk.is_manifest()) {
        holder_dirty = InstalledOrigin(holder, key.name) == key.origin;
      } else {
        holder_dirty = live.count(sk.shard) == 0;
      }
      if (!holder_dirty) continue;
      if (dirty_set.insert(holder).second) dirty.push_back(holder);
      if (!sk.is_shard_data()) doc_wide.insert(holder);
    }
  }
  subscription_stats_.clean_skips += subscribed.size() - dirty_set.size();
  // Every copy advertised under this document descends from an up dirty
  // holder (a down one was retracted at crash), so the loop below drops
  // them all, copies of copies through the cascade. The origin retracts
  // their catalog entries in one go; the drops' own Unregister calls
  // then find nothing left to send.
  if (CatalogBackend* catalog = sys_->catalog(); catalog != nullptr) {
    catalog->RetractCopiesOf(ResourceKind::kDocument, key.name, key.origin);
  }
  for (PeerId holder : dirty) {
    // A crashed holder's cache is unreachable — nothing to drop, nobody
    // to notify. Its entries rot until rejoin-time reconciliation (and
    // its subscriptions until the lease expires); it is not advertised
    // meanwhile (OnPeerCrash retracted), so no read can route to it.
    if (!sys_->network().IsPeerUp(holder)) {
      ++subscription_stats_.down_skips;
      continue;
    }
    ++subscription_stats_.notifies;
    if (doc_wide.count(holder) > 0) {
      ++subscription_stats_.doc_notifies;
    } else {
      ++subscription_stats_.shard_notifies;
    }
    // Size 0: under batching the wire size exists only at send time.
    TraceEvent("notify", holder, 0, key);
    // The notification is wire traffic on the origin->holder link;
    // NetStats tallies it apart from data transfers. Inside a
    // NotifyBatch window, events to the same (origin, holder) pair share
    // one message.
    QueueNotify(key, holder);
    // Coherence is synchronous: copy and advertisements are gone before
    // the mutating call returns — no lookup can ever see them stale.
    if (DropCopy(holder, key.origin, key.name)) {
      ++subscription_stats_.drops;
    }
    // Dirty data shards go too; live residents stay and seed the next
    // delta. (The scan also covers copies stranded by disabling
    // sharding: live is empty then, so every shard is dirty.)
    auto cit = caches_.find(holder);
    if (cit != caches_.end()) {
      for (const ReplicaKey& k :
           cit->second->KeysForDoc(key.origin, key.name)) {
        if (k.is_shard_data() && live.count(k.shard) == 0) {
          cit->second->Erase(k, /*invalidation=*/true);
        }
      }
    }
    if (refresh_policy_ == RefreshPolicy::kEagerRefresh &&
        StartRefresh(holder, key, /*attempt=*/0)) {
      // The holder stays subscribed (doc-level flight interest) while
      // its copy re-materializes, so a mutation overtaking the shipment
      // is pushed (and coalesced) too.
      subscriptions_.Subscribe(key, holder);
    }
  }
}

void ReplicaManager::QueueNotify(const ReplicaKey& key, PeerId holder) {
  if (notify_batch_depth_ > 0) {
    std::vector<ReplicaKey>& queued =
        pending_notifies_[{key.origin, holder}];
    if (!queued.empty()) ++subscription_stats_.batched;
    queued.push_back(key);
    return;
  }
  if (sys_ != nullptr) {
    SendNotifyMessage(key.origin, holder, {key});
  }
}

void ReplicaManager::SendNotifyMessage(
    PeerId origin, PeerId holder, const std::vector<ReplicaKey>& keys) {
  wire::NotifyBatch batch;
  batch.origin = origin.index();
  batch.keys.reserve(keys.size());
  for (const ReplicaKey& k : keys) {
    batch.keys.push_back({k.name, k.shard});
  }
  // The arrival hook is the asynchronous half of invalidation: a no-op
  // on the perfect fabric (the drop already happened, synchronously), a
  // repair when faults let stale state survive. The priced size is the
  // encoded batch's — one key or fifty, the bytes are what they are.
  sys_->network().SendNotify(
      origin, holder, wire::EncodeNotifyBatch(batch, WireStatsOf(sys_)),
      [this, origin, holder](const wire::Payload& p) {
        // The carried keys are advisory — the repair rescans the whole
        // cache — but a payload that does not parse is a bug, not a
        // tolerable fault.
        Result<wire::NotifyBatch> got =
            wire::DecodeNotifyBatch(p, WireStatsOf(sys_));
        AXML_DCHECK(got.ok());
        OnNotifyDelivered(origin, holder);
      });
}

void ReplicaManager::BeginNotifyBatch() { ++notify_batch_depth_; }

void ReplicaManager::EndNotifyBatch() {
  AXML_CHECK(notify_batch_depth_ > 0);
  if (--notify_batch_depth_ > 0) return;
  for (const auto& [pair, queued] : pending_notifies_) {
    if (sys_ != nullptr && !queued.empty()) {
      SendNotifyMessage(pair.first, pair.second, queued);
    }
  }
  pending_notifies_.clear();
}

void ReplicaManager::set_sharding_config(ShardingConfig cfg) {
  shard_config_ = cfg;
  // Memoized splits were cut under the old knobs; recut on next use.
  origin_shards_.clear();
}

const ShardedDocument* ReplicaManager::OriginShards(
    PeerId origin, const DocName& name) const {
  if (!sharding_enabled_ || sys_ == nullptr || !origin.is_concrete()) {
    return nullptr;
  }
  Peer* host = sys_->peer(origin);
  const ReplicaKey key{origin, name};
  TreePtr root = host == nullptr ? nullptr : host->GetDocument(name);
  // Service calls are excluded as on every caching path: a shard blob
  // would freeze their activation state.
  if (root == nullptr || root->ContainsServiceCall() ||
      !ShouldShard(*root, shard_config_)) {
    origin_shards_.erase(key);
    return nullptr;
  }
  const uint64_t version = Version(origin, name);
  auto it = origin_shards_.find(key);
  if (it != origin_shards_.end() && it->second.version == version) {
    return &it->second.sharded;
  }
  OriginShardState state;
  state.version = version;
  state.sharded = SplitDocument(*root, shard_config_);
  auto pos = origin_shards_.insert_or_assign(key, std::move(state)).first;
  return &pos->second.sharded;
}

bool ReplicaManager::ShardedReadApplies(PeerId origin,
                                        const DocName& name) const {
  return OriginShards(origin, name) != nullptr;
}

std::set<std::string> ReplicaManager::LiveShardIds(
    const ReplicaKey& doc) const {
  std::set<std::string> live;
  if (const ShardedDocument* sd = OriginShards(doc.origin, doc.name)) {
    for (const DocumentShard& s : sd->shards) live.insert(s.id.ToString());
  }
  return live;
}

bool ReplicaManager::HasFreshWholeCopy(PeerId reader, PeerId origin,
                                       const DocName& name) const {
  const TransferCache* cache = FindCache(reader);
  if (cache == nullptr) return false;
  const TransferCache::Entry* e = cache->Peek(ReplicaKey{origin, name});
  return e != nullptr && e->origin_version == Version(origin, name);
}

bool ReplicaManager::ShardedDeltaBytes(PeerId reader, PeerId origin,
                                       const DocName& name,
                                       uint64_t* bytes) const {
  const ShardedDocument* sd = OriginShards(origin, name);
  if (sd == nullptr || reader == origin) return false;
  *bytes = PlanShardDelta(*sd, FindCache(reader), origin, name,
                          Version(origin, name))
               .bytes();
  return true;
}

TreePtr ReplicaManager::LookupShardedFresh(PeerId reader, PeerId origin,
                                           const DocName& name) {
  if (sys_ == nullptr || reader == origin || !origin.is_concrete()) {
    return nullptr;
  }
  auto it = caches_.find(reader);
  if (it == caches_.end()) {
    ++uncached_stats_.misses;  // as in LookupFresh: never allocate
    return nullptr;
  }
  TransferCache* cache = it->second.get();
  // A stale manifest is dropped by this Get (with its advertisements,
  // via the evict listener) and the read falls through to a delta fetch.
  EncodedBlob blob = cache->Get(ManifestKey(origin, name),
                                Version(origin, name));
  if (blob == nullptr) return nullptr;
  Peer* holder = sys_->peer(reader);
  if (holder == nullptr) return nullptr;
  TreePtr manifest = DecodeManifest(*blob, WireStatsOf(sys_));
  if (manifest == nullptr) return nullptr;
  // Assemble from Peeks first: an incomplete copy must not charge
  // recency/hit credit for shards this read cannot use yet (the delta
  // fetch that follows will claim them).
  TreePtr assembled = AssembleResident(*cache, origin, name, *manifest,
                                       holder->gen(), WireStatsOf(sys_));
  if (assembled == nullptr) return nullptr;
  for (const std::string& id : ManifestShardIds(*manifest)) {
    cache->Get(ShardDataKey(origin, name, id), kImmutableShardVersion);
  }
  ++shard_stats_.full_hits;
  return assembled;
}

bool ReplicaManager::FetchForRead(PeerId reader, PeerId origin,
                                  const DocName& name,
                                  std::function<void(TreePtr)> deliver) {
  if (sys_ == nullptr || reader == origin) return false;
  const ShardedDocument* sd = OriginShards(origin, name);
  if (sd == nullptr || sys_->peer(reader) == nullptr) return false;
  auto cache_it = caches_.find(reader);
  TransferCache* cache =
      cache_it == caches_.end() ? nullptr : cache_it->second.get();
  const uint64_t snap_version = Version(origin, name);
  const ShardDelta delta =
      PlanShardDelta(*sd, cache, origin, name, snap_version);
  // Residents serve locally: each is a cache hit (the partial-copy
  // payoff) and is pinned for the assembly at landing. Each shard the
  // delta ships counts a miss — manager-side for a reader without a
  // cache, which has no residents.
  std::map<std::string, EncodedBlob> parts;
  if (cache == nullptr) {
    uncached_stats_.misses += delta.distinct.size();
  } else {
    for (const DocumentShard* s : delta.distinct) {
      const std::string id = s->id.ToString();
      if (EncodedBlob resident = cache->Get(ShardDataKey(origin, name, id),
                                            kImmutableShardVersion)) {
        parts[id] = std::move(resident);
      }
    }
  }
  wire::Payload payload = EncodeCopyShipment(
      origin, name, snap_version, &delta, nullptr, WireStatsOf(sys_));
  const uint64_t wire_bytes = payload.size();
  ++shard_stats_.sharded_reads;
  CountShardDelta(delta, &shard_stats_);
  if (delta.reused_bytes > 0) ++shard_stats_.partial_hits;

  // A read-path delta fetch roots its own chain (unless the read is
  // already inside one); the Send below carries the id to the landing.
  Tracer* tr = trace();
  Tracer::Scope trace_scope(tr, tr != nullptr ? tr->CurrentOrNew() : 0);
  TraceEvent("delta_fetch", reader, wire_bytes, ReplicaKey{origin, name});

  // Reliable: the read path runs the loop to quiescence and a silently
  // lost delta would hang the read; the fabric retransmits under loss.
  sys_->network().SendReliable(
      origin, reader, std::move(payload),
      [this, reader, origin, name,
       resident_manifest = delta.resident_manifest,
       parts = std::move(parts), snap_version,
       deliver = std::move(deliver)](const wire::Payload& p) mutable {
        Peer* dest = sys_->peer(reader);
        std::optional<ShipmentPayload> landed;
        if (dest != nullptr) {
          landed = DecodeCopyShipment(p, resident_manifest, dest->gen(),
                                      WireStatsOf(sys_));
        }
        TreePtr manifest =
            landed.has_value()
                ? DecodeManifest(landed->manifest, WireStatsOf(sys_))
                : nullptr;
        if (manifest == nullptr) {
          deliver(nullptr);  // reader vanished mid-flight, or bad payload
          return;
        }
        // Cache what landed, unless a rack-mate served it (a stale
        // snapshot is refused there but the read below still delivers
        // it — a read observes the version it was issued against,
        // exactly like the whole-document path).
        if (AdmitReadCopy(reader, origin)) {
          InsertShardedCopy(reader, origin, name, landed->manifest,
                            landed->shards, snap_version);
        }
        std::map<std::string, const std::string*> blobs;
        for (const auto& [id, part] : parts) blobs[id] = part.get();
        for (const DocumentShard& s : landed->shards) {
          blobs[s.id.ToString()] = &s.encoded;
        }
        deliver(AssembleCopy(
            *manifest,
            [&blobs](const std::string& id) -> const std::string* {
              auto blob = blobs.find(id);
              return blob == blobs.end() ? nullptr : blob->second;
            },
            dest->gen(), WireStatsOf(sys_)));
      });
  return true;
}

bool ReplicaManager::InsertShardedCopy(
    PeerId reader, PeerId origin, const DocName& name,
    const std::string& manifest_blob,
    const std::vector<DocumentShard>& shipped, uint64_t snapshot_version) {
  if (sys_ == nullptr || reader == origin || !origin.is_concrete()) {
    return false;
  }
  Peer* holder = sys_->peer(reader);
  if (holder == nullptr) return false;
  if (snapshot_version != Version(origin, name)) {
    return false;  // the origin moved on while the delta was on the wire
  }
  TreePtr manifest = DecodeManifest(manifest_blob, WireStatsOf(sys_));
  if (manifest == nullptr) return false;

  TransferCache* cache = CacheFor(reader);
  const ReplicaKey mkey = ManifestKey(origin, name);
  // Re-Putting an identical fresh manifest would churn the evict
  // listener (retract + re-advertise) for nothing — skip it.
  const TransferCache::Entry* resident = cache->Peek(mkey);
  const ContentDigest mdigest = DigestOf(*manifest);
  if (resident == nullptr || resident->origin_version != snapshot_version ||
      !(resident->digest == mdigest)) {
    if (!cache->Put(mkey, manifest_blob, mdigest, snapshot_version)) {
      return false;  // manifest alone over budget: nothing to anchor on
    }
  }
  // Subscriptions mirror residency: each data shard that survives its
  // Put subscribes the holder under its exact key (a later Put may
  // evict it again — the evict listener unsubscribes then), so mutation
  // fan-out can skip this holder while its pieces stay referenced.
  // Shards resident from earlier deltas subscribed at their own insert.
  for (const DocumentShard& s : shipped) {
    const ReplicaKey skey = ShardDataKey(origin, name, s.id.ToString());
    // Budget refusals are fine — the copy stays partial and later reads
    // fetch the gap again.
    if (cache->Put(skey, s.encoded, s.id, kImmutableShardVersion) &&
        cache->Peek(skey) != nullptr) {
      subscriptions_.Subscribe(skey, reader);
    }
  }
  // The shard Puts may have evicted the manifest right back out; the
  // surviving shards stay resident (and subscribed) for future deltas.
  if (cache->Peek(mkey) == nullptr) return false;
  subscriptions_.Subscribe(mkey, reader);

  // Install + advertise only a *complete* copy; a partial one serves
  // delta reads but must never be read by name. The assembly decodes
  // fresh nodes from the resident bytes.
  if (TreePtr assembled = AssembleResident(*cache, origin, name, *manifest,
                                           holder->gen(), WireStatsOf(sys_))) {
    InstallAndAdvertise(reader, origin, name, std::move(assembled));
  }
  return true;
}

size_t ReplicaManager::RunPlacement() {
  if (sys_ == nullptr || !placement_.config().enabled) return 0;
  size_t started = 0;
  for (const PlacementDecision& decision :
       placement_.Plan(sys_->generics(), *this)) {
    if (StartPlacementShipment(decision)) ++started;
  }
  return started;
}

void ReplicaManager::set_placement_tick_interval(SimTime interval_s) {
  AXML_CHECK(sys_ != nullptr);
  placement_tick_interval_ = interval_s;
  RearmTick(&placement_tick_id_, interval_s, [this] { RunPlacement(); });
}

bool ReplicaManager::LaunchShipment(
    PeerId holder, const ReplicaKey& key,
    const std::function<bool(uint64_t bytes)>& admit,
    std::function<void(const ShipmentPayload& payload, uint64_t bytes)>
        on_land,
    int attempt) {
  AXML_CHECK(refresh_inflight_.count({holder, key}) == 0);
  const Peer* origin = sys_->peer(key.origin);
  if (origin == nullptr || sys_->peer(holder) == nullptr) return false;
  // A shipment toward (or from) a crashed peer would only evaporate on
  // the wire; rejoin-time reconciliation re-materializes copies instead.
  if (!sys_->network().IsPeerUp(holder) ||
      !sys_->network().IsPeerUp(key.origin)) {
    return false;
  }
  TreePtr root = origin->GetDocument(key.name);
  // A removed document has nothing to ship; a tree still carrying
  // service calls is excluded, as on the evaluator's insert path — a
  // copy would freeze its activation state.
  if (root == nullptr || root->ContainsServiceCall()) return false;

  // Snapshot now: the shipped content is the version at send time; a
  // mid-flight mutation must not brand it fresh (the insert compares).
  const uint64_t snap_version = Version(key.origin, key.name);
  // Sharded documents ship as a delta against the holder's residents:
  // the manifest unless the holder's is already fresh (e.g. a placement
  // round completing a partial copy), plus the shards it lacks.
  std::optional<ShardDelta> delta;
  if (const ShardedDocument* sd = OriginShards(key.origin, key.name)) {
    delta = PlanShardDelta(*sd, FindCache(holder), key.origin, key.name,
                           snap_version);
  }
  wire::Payload payload = EncodeCopyShipment(
      key.origin, key.name, snap_version, delta ? &*delta : nullptr,
      root.get(), WireStatsOf(sys_));
  const uint64_t bytes = payload.size();
  if (!admit(bytes)) return false;
  TraceEvent("shipment", holder, bytes, key);
  if (delta.has_value()) {
    ++shard_stats_.sharded_shipments;
    CountShardDelta(*delta, &shard_stats_);
  }
  const uint64_t generation = ++refresh_generation_;
  refresh_inflight_[{holder, key}] = generation;
  // Copies for the retry timeout below, taken before on_land moves into
  // the delivery callback.
  auto on_land_retry = ship_max_attempts_ > 0 ? on_land : nullptr;
  EncodedBlob resident_manifest = delta ? delta->resident_manifest : nullptr;
  sys_->network().Send(
      key.origin, holder, std::move(payload),
      [this, holder, key, resident_manifest, generation,
       on_land = std::move(on_land)](const wire::Payload& p) {
        auto it = refresh_inflight_.find({holder, key});
        if (it == refresh_inflight_.end() || it->second != generation) {
          // Canceled (DropAllCopies) while on the wire — and possibly
          // superseded by a newer shipment for the same pair, whose
          // token must stay untouched.
          return;
        }
        refresh_inflight_.erase(it);
        Peer* dest = sys_->peer(holder);
        if (dest == nullptr) return;
        // Decode at the landing site: the receiving peer mints its own
        // node ids from the received bytes — the simulated form of
        // deserialization at the destination.
        std::optional<ShipmentPayload> landed = DecodeCopyShipment(
            p, resident_manifest, dest->gen(), WireStatsOf(sys_));
        if (landed.has_value()) on_land(*landed, p.size());
      });
  if (ship_max_attempts_ > 0) {
    // Bounded retry-with-backoff: if the landing has not cleared the
    // flight token by the timeout, the shipment was dropped (injector or
    // crash). Relaunch the same admit/on_land pair — re-admitted; the
    // retransmission is real wire traffic — until the attempt cap, then
    // drop the holder back to lazy pulls. A landing that merely arrived
    // late (delay spike) erased the token already, so the timeout
    // no-ops; a delayed payload arriving after a relaunch sees the new
    // generation and is discarded.
    const SimTime timeout =
        3 * sys_->network().EstimateTransferTime(key.origin, holder, bytes) +
        ship_backoff_base_s_ * (attempt + 1);
    sys_->loop().ScheduleAfter(
        timeout, [this, holder, key, generation, attempt, admit,
                  on_land = std::move(on_land_retry)] {
          auto it = refresh_inflight_.find({holder, key});
          if (it == refresh_inflight_.end() || it->second != generation) {
            return;  // landed, canceled, or superseded — nothing to do
          }
          refresh_inflight_.erase(it);
          ++subscription_stats_.ship_timeouts;
          TraceEvent("ship_timeout", holder, 0, key);
          if (attempt + 1 < ship_max_attempts_ &&
              sys_->network().IsPeerUp(holder) &&
              sys_->network().IsPeerUp(key.origin)) {
            ++subscription_stats_.ship_retries;
            if (LaunchShipment(holder, key, admit, on_land, attempt + 1)) {
              return;
            }
          }
          ++subscription_stats_.dropped_to_lazy;
          subscriptions_.Unsubscribe(key, holder);
        });
  }
  return true;
}

bool ReplicaManager::InsertLanded(PeerId holder, const ReplicaKey& key,
                                  const ShipmentPayload& payload) {
  if (payload.whole != nullptr) {
    // The cache stores the very bytes the shipment carried — the
    // budgeted size is the priced wire size by construction.
    return InsertCopy(holder, key.origin, key.name, payload.whole,
                      payload.snapshot_version, payload.whole_encoded);
  }
  return InsertShardedCopy(holder, key.origin, key.name, payload.manifest,
                           payload.shards, payload.snapshot_version);
}

bool ReplicaManager::StartPlacementShipment(
    const PlacementDecision& decision) {
  const PeerId holder = decision.holder;
  const ReplicaKey& key = decision.key;
  if (refresh_inflight_.count({holder, key}) > 0) {
    // An eager refresh or an earlier placement round is already shipping
    // this very copy; one shipment per pair on the wire, whoever asked.
    ++placement_stats_.coalesced;
    return false;
  }
  const bool launched = LaunchShipment(
      holder, key,
      /*admit=*/
      [this, holder](uint64_t bytes) {
        // A copy the holder's cache cannot even admit would land only
        // to be refused — charge nothing and skip.
        const TransferCache* cache = FindCache(holder);
        if (bytes >
            (cache != nullptr ? cache->byte_budget() : default_budget_)) {
          ++placement_stats_.budget_denied;
          return false;
        }
        uint64_t& spent = placement_spent_[holder];
        const uint64_t budget = placement_.config().byte_budget_per_holder;
        if (spent > budget || bytes > budget - spent) {
          ++placement_stats_.budget_denied;
          return false;
        }
        spent += bytes;
        ++placement_stats_.shipments;
        placement_stats_.shipped_bytes += bytes;
        return true;
      },
      /*on_land=*/
      [this, holder, key, decision](const ShipmentPayload& payload,
                                    uint64_t /*bytes*/) {
        if (InsertLanded(holder, key, payload)) {
          ++placement_stats_.landed;
        } else {
          // The origin moved on while this was on the wire, or the
          // holder's cache refused the copy. Placement does not chase —
          // but the picks that earned this seed were real demand, and
          // the launch drained them. Credit half back so the next round
          // can re-decide: halving makes a permanently failing seed
          // decay to nothing instead of replaying forever.
          ++placement_stats_.wasted;
          sys_->generics().AddDocumentPickDemand(decision.class_name, holder,
                                                 decision.demand / 2);
        }
      });
  // Either way the decision consumed the demand that earned it: a seed
  // that launched must be re-earned by fresh picks after a later
  // eviction, and a terminal deny (budget exhausted, document removed,
  // service calls frozen) must not replay — and re-count — every round
  // from the same stale burst. Only coalescing (above) keeps demand: the
  // in-flight shipment may still miss and the next round re-decides.
  sys_->generics().DrainDocumentPickDemand(decision.class_name, holder);
  return launched;
}

bool ReplicaManager::StartRefresh(PeerId holder, const ReplicaKey& key,
                                  int attempt) {
  if (refresh_inflight_.count({holder, key}) > 0) {
    // A shipment is already on the wire; its landing check catches the
    // newer version with one catch-up pull.
    ++subscription_stats_.coalesced;
    return true;
  }
  const bool launched = LaunchShipment(
      holder, key,
      /*admit=*/
      [this, attempt](uint64_t /*bytes*/) {
        if (attempt > 0) ++subscription_stats_.retries;
        return true;
      },
      /*on_land=*/
      [this, holder, key, attempt](const ShipmentPayload& payload,
                                   uint64_t bytes) {
        if (InsertLanded(holder, key, payload)) {
          ++subscription_stats_.refreshes;
          subscription_stats_.refresh_bytes += bytes;
          // A sharded landing re-subscribed the holder under its
          // manifest and shard keys; the doc-level flight interest has
          // served its purpose unless a whole-document entry backs it.
          if (payload.whole == nullptr) {
            const TransferCache* c = FindCache(holder);
            if (c == nullptr || c->Peek(key) == nullptr) {
              subscriptions_.Unsubscribe(key, holder);
            }
          }
        } else if (Version(key.origin, key.name) !=
                   payload.snapshot_version) {
          // The origin moved on while this was on the wire: a catch-up
          // shipment brings the holder current — but the chain is
          // capped. Under sustained mutation (every landing overtaken
          // mid-flight) an unbounded chain ships forever without ever
          // landing fresh; past the cap the holder falls back to lazy
          // pulls.
          if (attempt + 1 >= kMaxCatchupAttempts) {
            ++subscription_stats_.catchup_exhausted;
            subscriptions_.Unsubscribe(key, holder);
          } else if (!StartRefresh(holder, key, attempt + 1)) {
            subscriptions_.Unsubscribe(key, holder);
          }
        } else {
          // Landed at the right version but would not cache (over the
          // holder's cache budget): stop pushing to this holder.
          subscriptions_.Unsubscribe(key, holder);
        }
      });
  return launched;
}

// --- Fault tolerance: leases, anti-entropy, churn ---

void ReplicaManager::ConfigureLeases(SimTime renew_interval_s,
                                     SimTime ttl_s) {
  AXML_CHECK(sys_ != nullptr);
  lease_renew_interval_ = renew_interval_s;
  lease_ttl_ = ttl_s;
  lease_deadlines_.clear();
  RearmTick(&lease_tick_id_, ttl_s > 0 ? renew_interval_s : 0,
            [this] { LeaseTick(); });
}

void ReplicaManager::set_shipment_retry(int max_attempts,
                                        SimTime backoff_base_s) {
  ship_max_attempts_ = max_attempts;
  ship_backoff_base_s_ = backoff_base_s;
}

void ReplicaManager::set_anti_entropy_interval(SimTime interval_s) {
  AXML_CHECK(sys_ != nullptr);
  anti_entropy_interval_ = interval_s;
  RearmTick(&anti_entropy_tick_id_, interval_s,
            [this] { RunAntiEntropySweep(); });
}

void ReplicaManager::LeaseTick() {
  const SimTime now = sys_->loop().now();
  // Live (origin, holder) pairs and their subscribed-key counts,
  // straight from the subscription table (std::map: deterministic
  // order). The count rides in the renewal body.
  std::map<std::pair<PeerId, PeerId>, uint64_t> live;
  for (const auto& [key, holders] : subscriptions_.entries()) {
    for (PeerId h : holders) ++live[{key.origin, h}];
  }
  // Deadlines for vanished pairs go; new pairs are granted a full TTL
  // on first sight (before the expiry scan — a fresh grant never
  // expires on the tick that created it).
  for (auto it = lease_deadlines_.begin(); it != lease_deadlines_.end();) {
    if (live.count(it->first) == 0) {
      it = lease_deadlines_.erase(it);
    } else {
      ++it;
    }
  }
  for (const auto& [pair, keys] : live) {
    lease_deadlines_.try_emplace(pair, now + lease_ttl_);
  }
  // Expiry: the origin forgets a silent holder. An *up* holder also
  // self-invalidates its lapsed entries — the lease contract says a
  // holder that could not renew stops serving, and its own clock tells
  // it so; we model that holder-side drop synchronously. A crashed
  // holder's cache is unreachable and is left for rejoin-time
  // reconciliation.
  for (auto it = lease_deadlines_.begin(); it != lease_deadlines_.end();) {
    if (now < it->second) {
      ++it;
      continue;
    }
    const PeerId origin = it->first.first;
    const PeerId holder = it->first.second;
    std::vector<ReplicaKey> keys;
    for (const auto& [key, holders] : subscriptions_.entries()) {
      if (key.origin != origin) continue;
      if (std::find(holders.begin(), holders.end(), holder) !=
          holders.end()) {
        keys.push_back(key);
      }
    }
    const bool up = sys_->network().IsPeerUp(holder);
    auto cit = caches_.find(holder);
    for (const ReplicaKey& k : keys) {
      if (up && cit != caches_.end()) {
        // Evict listener unsubscribes + retracts advertisements.
        cit->second->Erase(k, /*invalidation=*/true);
      }
      // Flight-interest keys (and a crashed holder's entries) have no
      // cache entry to fire the listener; unsubscribe is idempotent.
      subscriptions_.Unsubscribe(k, holder);
    }
    ++subscription_stats_.lease_expiries;
    TraceEvent("lease_expire", holder, "origin ", origin);
    it = lease_deadlines_.erase(it);
  }
  // Renewals: every up holder re-registers at every origin it is
  // subscribed to, one lossy message per (origin, holder) pair. The
  // arrival re-arms the deadline and re-subscribes whatever fresh
  // entries the holder still has resident — repairing an expiry that
  // fired while renewals were being lost.
  for (const auto& [pair, keys] : live) {
    const PeerId origin = pair.first;
    const PeerId holder = pair.second;
    if (lease_deadlines_.count(pair) == 0) continue;  // just expired
    if (!sys_->network().IsPeerUp(holder) ||
        !sys_->network().IsPeerUp(origin)) {
      continue;
    }
    wire::LeaseRenewal lease;
    lease.holder = holder.index();
    lease.origin = origin.index();
    lease.subscribed_keys = keys;
    sys_->network().Send(
        holder, origin, wire::EncodeLeaseRenewal(lease, WireStatsOf(sys_)),
        [this, origin, holder](const wire::Payload& p) {
          Result<wire::LeaseRenewal> got =
              wire::DecodeLeaseRenewal(p, WireStatsOf(sys_));
          AXML_DCHECK(got.ok());
          ++subscription_stats_.lease_renewals;
          lease_deadlines_[{origin, holder}] =
              sys_->loop().now() + lease_ttl_;
          subscription_stats_.sweep_resubscribes +=
              ResubscribeResident(holder, origin);
        });
  }
}

size_t ReplicaManager::ResubscribeResident(PeerId holder, PeerId origin) {
  auto cit = caches_.find(holder);
  if (cit == caches_.end()) return 0;
  TransferCache* cache = cit->second.get();
  size_t added = 0;
  for (const ReplicaKey& k : cache->Keys()) {
    if (k.origin != origin) continue;
    if (!k.is_shard_data()) {
      // Whole-document and manifest entries re-subscribe only while
      // fresh — a stale entry is about to be reconciled away, and
      // subscribing it would re-invite pushes for content the holder
      // no longer serves.
      const TransferCache::Entry* e = cache->Peek(k);
      if (e == nullptr || e->origin_version != Version(origin, k.name)) {
        continue;
      }
    }
    if (!subscriptions_.IsSubscribed(k, holder)) {
      subscriptions_.Subscribe(k, holder);
      ++added;
    }
  }
  return added;
}

size_t ReplicaManager::RunAntiEntropySweep() {
  if (sys_ == nullptr) return 0;
  size_t repairs = 0;
  for (const auto& [holder, cache] : caches_) {
    if (!sys_->network().IsPeerUp(holder)) continue;
    repairs += ReconcileHolder(holder);
  }
  return repairs;
}

size_t ReplicaManager::ReconcileHolder(PeerId holder) {
  if (sys_ == nullptr) return 0;
  auto cit = caches_.find(holder);
  if (cit == caches_.end()) return 0;
  TransferCache* cache = cit->second.get();
  Peer* dest = sys_->peer(holder);

  // Group the holder's resident keys by document.
  std::map<ReplicaKey, std::vector<ReplicaKey>> docs;
  std::set<PeerId> origins;
  for (const ReplicaKey& k : cache->Keys()) {
    docs[ReplicaKey{k.origin, k.name}].push_back(k);
    origins.insert(k.origin);
  }

  size_t repairs = 0;
  for (const auto& [doc, keys] : docs) {
    const uint64_t current = Version(doc.origin, doc.name);
    // Resident data shards outside the origin's current split are
    // orphans.
    const std::set<std::string> live = LiveShardIds(doc);
    bool dropped_doc = false;
    for (const ReplicaKey& k : keys) {
      const TransferCache::Entry* e = cache->Peek(k);
      if (e == nullptr) continue;  // evicted by an earlier repair
      const bool stale = k.is_shard_data()
                             ? live.count(k.shard) == 0
                             : e->origin_version != current;
      if (!stale) continue;
      // Read the size first: the Erase frees the entry `e` points at.
      const uint64_t freed = e->bytes;
      // Evict listener unsubscribes + retracts advertisements.
      cache->Erase(k, /*invalidation=*/true);
      ++repairs;
      ++subscription_stats_.sweep_repairs;
      if (!k.is_shard_data()) dropped_doc = true;
      TraceEvent("repair", holder, freed, k);
    }
    // Surviving fresh complete copies whose name slot is free are
    // re-installed and re-advertised — a rejoining durable cache kept
    // the content but lost its installation at crash time.
    if (dest != nullptr) {
      const TransferCache::Entry* whole = cache->Peek(doc);
      if (whole != nullptr && whole->origin_version == current) {
        if (TreePtr tree = DecodeStoredTree(*whole->encoded, dest->gen(),
                                            WireStatsOf(sys_))) {
          InstallAndAdvertise(holder, doc.origin, doc.name, std::move(tree));
        }
      } else if (const TransferCache::Entry* m =
                     cache->Peek(ManifestKey(doc.origin, doc.name));
                 m != nullptr && m->origin_version == current) {
        TreePtr manifest = DecodeManifest(*m->encoded, WireStatsOf(sys_));
        TreePtr assembled =
            manifest == nullptr
                ? nullptr
                : AssembleResident(*cache, doc.origin, doc.name, *manifest,
                                   dest->gen(), WireStatsOf(sys_));
        if (assembled != nullptr) {
          InstallAndAdvertise(holder, doc.origin, doc.name,
                              std::move(assembled));
        }
      }
    }
    // A dropped stale copy re-materializes eagerly under kEagerRefresh,
    // exactly as a mutation-time drop would have.
    if (dropped_doc && refresh_policy_ == RefreshPolicy::kEagerRefresh &&
        StartRefresh(holder, doc, /*attempt=*/0)) {
      subscriptions_.Subscribe(doc, holder);
    }
  }

  // Repair origin-side subscription state and charge the digest
  // exchange: one control roundtrip per (holder, origin) pair, carrying
  // a real encoded DigestExchange — per surviving document the
  // manifest/whole version + digest and each resident shard digest,
  // priced at the actual encoded bytes (the response leg is modeled at
  // the same size: the origin answers digest-for-digest).
  for (PeerId origin : origins) {
    subscription_stats_.sweep_resubscribes +=
        ResubscribeResident(holder, origin);
    if (origin == holder || !sys_->network().IsPeerUp(origin)) continue;
    wire::DigestExchange ex;
    ex.holder = holder.index();
    ex.origin = origin.index();
    for (const auto& [doc, keys] : docs) {
      if (doc.origin != origin) continue;
      wire::DigestExchange::Doc d;
      d.name = doc.name;
      bool any = false;
      for (const ReplicaKey& k : keys) {
        const TransferCache::Entry* e = cache->Peek(k);
        if (e == nullptr) continue;  // reconciled away above
        any = true;
        if (k.is_shard_data()) {
          d.shards.push_back(e->digest);
        } else {
          d.version = e->origin_version;
          d.manifest = e->digest;
        }
      }
      if (any) ex.docs.push_back(std::move(d));
    }
    wire::Payload payload =
        wire::EncodeDigestExchange(ex, WireStatsOf(sys_));
    const uint64_t response_bytes = payload.size();
    const SimTime delay =
        sys_->network().EstimateTransferTime(holder, origin,
                                             payload.size()) +
        sys_->network().EstimateTransferTime(origin, holder,
                                             response_bytes);
    sys_->network().ControlRoundtrip(holder, origin, 2, std::move(payload),
                                     response_bytes, delay, [] {});
  }
  return repairs;
}

void ReplicaManager::OnPeerCrash(PeerId peer, CrashMode mode) {
  AXML_CHECK(sys_ != nullptr);
  TraceEvent("crash", peer,
             mode == CrashMode::kLoseCache ? "lose_cache" : "durable_cache");
  // In-flight shipments toward the crashed holder will never land (the
  // payload evaporates on arrival at a down peer); cancel their tokens
  // so a post-rejoin relaunch starts clean, and end the flight
  // interest.
  for (auto it = refresh_inflight_.begin();
       it != refresh_inflight_.end();) {
    if (it->first.first == peer) {
      subscriptions_.Unsubscribe(it->first.second, peer);
      it = refresh_inflight_.erase(it);
    } else {
      ++it;
    }
  }
  if (mode == CrashMode::kLoseCache) {
    // The cache dies with the process; evict listeners retract every
    // entry's advertisements and subscriptions.
    if (auto cit = caches_.find(peer); cit != caches_.end()) {
      cit->second->Clear();
    }
  }
  // Durable mode keeps the cache, but a down peer must never be
  // routable: every installed copy's advertisements go now. Collect
  // first — RetractAdvertisements mutates installed_. Origin-side
  // subscriptions survive (the origin has not heard of the crash);
  // PushInvalidate skips the down holder and leases or rejoin clean up.
  std::vector<ReplicaKey> installed;
  for (const auto& [slot, origin] : installed_) {
    if (slot.first == peer) {
      installed.push_back(ReplicaKey{origin, slot.second});
    }
  }
  for (const ReplicaKey& k : installed) {
    RetractAdvertisements(peer, k);
  }
}

void ReplicaManager::OnPeerRejoin(PeerId peer) {
  AXML_CHECK(sys_ != nullptr);
  TraceEvent("rejoin", peer, "");
  // Reconcile the surviving cache against every origin *before* the
  // peer serves anything: stale entries drop, fresh complete copies
  // re-install and re-advertise, subscriptions repair. A rejoining
  // peer can never serve the state it crashed with unverified.
  ReconcileHolder(peer);
}

void ReplicaManager::OnNotifyDelivered(PeerId origin, PeerId holder) {
  auto cit = caches_.find(holder);
  if (cit == caches_.end()) return;  // late notify, holder has nothing
  TransferCache* cache = cit->second.get();
  // Collect first: Erase fires the evict listener, which mutates the
  // cache's key set.
  std::vector<ReplicaKey> stale;
  for (const ReplicaKey& k : cache->Keys()) {
    if (k.origin != origin || k.is_shard_data()) continue;
    const TransferCache::Entry* e = cache->Peek(k);
    if (e != nullptr && e->origin_version != Version(origin, k.name)) {
      stale.push_back(k);
    }
  }
  for (const ReplicaKey& k : stale) {
    cache->Erase(k, /*invalidation=*/true);
    ++subscription_stats_.notify_repairs;
    TraceEvent("notify_repair", holder, 0, k);
  }
}

}  // namespace axml
