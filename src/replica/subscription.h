// Push-based replica refresh: the subscription table and its policy.
//
// PR 1's replica layer invalidated lazily — a stale copy lived until its
// next lookup, leaving stale catalog entries and generic-class members
// advertised in between. The paper's rule (13) and generic documents
// (def. 9) only pay off if copies stay *fresh*, so this module flips the
// direction: the origin knows every holder of every copy (the version
// table already records both sides), and a mutation notifies them all
// immediately. Each holder either drops its copy on the spot — the
// advertisements go at *mutation* time, not lookup time — or, under
// RefreshPolicy::kEagerRefresh, re-materializes the new version through
// the existing transfer path.

#ifndef AXML_REPLICA_SUBSCRIPTION_H_
#define AXML_REPLICA_SUBSCRIPTION_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/ids.h"
#include "replica/transfer_cache.h"

namespace axml {

/// What a mutation at the origin does to each subscribed copy holder.
enum class RefreshPolicy {
  /// No push: stale copies are dropped on their next lookup (the PR 1
  /// behavior, kept as the bench baseline — its stale-advertisement
  /// window is exactly what the push policies close).
  kLazy,
  /// Push-invalidate: the holder drops the copy and retracts its
  /// catalog/generic advertisements at mutation time.
  kDrop,
  /// Push-refresh: like kDrop, but the origin also ships the new version
  /// so the holder's copy re-materializes without a read asking for it.
  /// Bounded by a per-holder refresh byte budget; back-to-back mutations
  /// coalesce onto the in-flight shipment.
  kEagerRefresh,
};

const char* RefreshPolicyName(RefreshPolicy p);

/// Counters for the push path (benches compare policies with these).
/// All counters are cumulative since the last ReplicaManager::ResetStats.
struct SubscriptionStats {
  /// Invalidation events pushed to holders — one per (mutated key,
  /// holder) pair. Wire *messages* can be fewer: under a notify batch
  /// (ReplicaManager::NotifyBatch) events to the same (origin, holder)
  /// pair share one message (NetStats::notify_messages counts those).
  uint64_t notifies = 0;
  /// Notifies split by targeting: `doc_notifies` went to holders whose
  /// copy is dirty as a whole (a whole-document entry, an installed
  /// sharded copy, or a pending refresh shipment); `shard_notifies`
  /// went to partial holders only because they held a data shard the
  /// new version no longer references. doc + shard == notifies.
  uint64_t doc_notifies = 0;
  uint64_t shard_notifies = 0;
  /// Subscribed holders a mutation did *not* notify because every piece
  /// they hold is still referenced by the new version — the fan-out
  /// shard-granular subscriptions save over document-level ones.
  uint64_t clean_skips = 0;
  /// Notify events folded into an earlier message of the same batch;
  /// `notifies - batched` is the number of wire messages sent.
  uint64_t batched = 0;
  uint64_t drops = 0;          ///< copies dropped at mutation time
  uint64_t refreshes = 0;      ///< eager re-materializations that landed
  uint64_t refresh_bytes = 0;  ///< wire bytes those shipments cost
  /// Refresh requests folded into a shipment already in flight.
  uint64_t coalesced = 0;
  /// Catch-up shipments issued because the origin moved on mid-flight.
  uint64_t retries = 0;
  /// Always 0: eager refresh has no per-holder byte budget. Kept
  /// because perfbench reports it as `replica.budget_denied_per_write`.
  uint64_t budget_denied = 0;
  /// Lease renewals that reached the origin (ReplicaManager::
  /// ConfigureLeases; each arrival re-arms the holder's deadline).
  uint64_t lease_renewals = 0;
  /// (origin, holder) leases that expired: the origin forgot a silent
  /// holder's subscriptions (an up holder also self-invalidates its
  /// lapsed copies — the lease contract).
  uint64_t lease_expiries = 0;
  /// Catch-up chains cut off at the attempt cap: the origin kept moving
  /// while shipments were in flight; the holder fell back to lazy.
  uint64_t catchup_exhausted = 0;
  /// Shipments whose landing never fired within the retry timeout
  /// (dropped by the fault injector or a crashed endpoint).
  uint64_t ship_timeouts = 0;
  /// Timed-out shipments relaunched (bounded retry-with-backoff).
  uint64_t ship_retries = 0;
  /// Holders dropped back to lazy pulls after shipment retries ran out.
  uint64_t dropped_to_lazy = 0;
  /// Stale or orphaned cache entries removed by anti-entropy
  /// reconciliation (periodic sweep or rejoin).
  uint64_t sweep_repairs = 0;
  /// Resident fresh entries re-subscribed by reconciliation or a lease
  /// renewal (repairing origin-side state lost to expiry or crash).
  uint64_t sweep_resubscribes = 0;
  /// Stale entries a late-arriving notification cleaned up — on a
  /// perfect fabric always 0 (invalidation drops are synchronous).
  uint64_t notify_repairs = 0;
  /// Mutation fan-outs that skipped a crashed holder (its cache is
  /// unreachable; reconciliation repairs it at rejoin).
  uint64_t down_skips = 0;

  std::string ToString() const { return CountersToString(*this); }

  static constexpr auto kCounters = std::make_tuple(
      Counter{"notifies", &SubscriptionStats::notifies},
      Counter{"doc_notifies", &SubscriptionStats::doc_notifies},
      Counter{"shard_notifies", &SubscriptionStats::shard_notifies},
      Counter{"clean_skips", &SubscriptionStats::clean_skips},
      Counter{"batched", &SubscriptionStats::batched},
      Counter{"drops", &SubscriptionStats::drops},
      Counter{"refreshes", &SubscriptionStats::refreshes},
      Counter{"refresh_bytes", &SubscriptionStats::refresh_bytes},
      Counter{"coalesced", &SubscriptionStats::coalesced},
      Counter{"retries", &SubscriptionStats::retries},
      Counter{"budget_denied", &SubscriptionStats::budget_denied},
      Counter{"lease_renewals", &SubscriptionStats::lease_renewals},
      Counter{"lease_expiries", &SubscriptionStats::lease_expiries},
      Counter{"catchup_exhausted", &SubscriptionStats::catchup_exhausted},
      Counter{"ship_timeouts", &SubscriptionStats::ship_timeouts},
      Counter{"ship_retries", &SubscriptionStats::ship_retries},
      Counter{"dropped_to_lazy", &SubscriptionStats::dropped_to_lazy},
      Counter{"sweep_repairs", &SubscriptionStats::sweep_repairs},
      Counter{"sweep_resubscribes", &SubscriptionStats::sweep_resubscribes},
      Counter{"notify_repairs", &SubscriptionStats::notify_repairs},
      Counter{"down_skips", &SubscriptionStats::down_skips});
};
static_assert(CountersCover<SubscriptionStats>());

/// Who holds copies of which (owner, doc, shard). Maintained by the
/// ReplicaManager: a successful cache insert subscribes the reader under
/// the inserted entry's *exact* key — whole-document (shard dimension
/// empty), `#manifest`, or one data shard — and any cache drop
/// (staleness, budget eviction, overwrite) unsubscribes that key, so a
/// holder is subscribed to exactly the pieces it has resident. (One
/// exception: an eager-refresh shipment in flight keeps its holder
/// subscribed under the document-level key until it lands.) Mutation
/// fan-out unions the dirty keys' holders, so a partial holder caching
/// only untouched shards is not notified at all.
class SubscriptionTable {
 public:
  /// Idempotent: a holder subscribes once per key.
  void Subscribe(const ReplicaKey& key, PeerId holder);
  void Unsubscribe(const ReplicaKey& key, PeerId holder);

  /// Snapshot by value: notification fan-out drops copies (and thereby
  /// unsubscribes holders) while iterating.
  std::vector<PeerId> HoldersOf(const ReplicaKey& key) const;
  bool IsSubscribed(const ReplicaKey& key, PeerId holder) const;

  /// Every subscribed key of document (origin, name) — the document
  /// key, the manifest, and any data shards — in key order. O(log n +
  /// answer); mutation fan-out classifies holders with this.
  std::vector<ReplicaKey> KeysForDoc(PeerId origin,
                                     const DocName& name) const;

  /// Total (key, holder) pairs across all keys.
  size_t subscription_count() const;

  /// Read-only view of the whole table, in key order (the lease tick
  /// derives live (origin, holder) pairs from it; deterministic
  /// iteration order matters there).
  const std::map<ReplicaKey, std::vector<PeerId>>& entries() const;

 private:
  std::map<ReplicaKey, std::vector<PeerId>> holders_;
};

// Notification, lease-renewal and anti-entropy message sizes are no
// longer modeled constants: each message is encoded (xml/wire.h —
// NotifyBatch, LeaseRenewal, DigestExchange) and priced at its actual
// encoded byte count.

}  // namespace axml

#endif  // AXML_REPLICA_SUBSCRIPTION_H_
