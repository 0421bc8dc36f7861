// Pluggable eviction for the transfer cache.
//
// Which copy a cache keeps matters as much as having a cache at all:
// rule (13) only pays off when the materialized copy is still resident
// on the next read. The TransferCache therefore delegates its victim
// selection to a strategy object:
//
//  - kLru       — evict the least recently used entry (the original
//                 hardwired behavior, still the default);
//  - kLfu       — evict the least frequently used entry (per-entry
//                 counters with periodic halving, so yesterday's hot
//                 entry can still die today);
//  - kCostAware — evict the entry with the highest
//                   bytes × staleness / refetch-cost
//                 score, where refetch cost is the modeled time to pull
//                 the copy again over the holder<-origin link
//                 (CostModel::RefetchCost). Big, long-untouched copies
//                 that are cheap to re-pull from a nearby origin die
//                 first; a copy of a distant origin survives bursts of
//                 nearby traffic.
//
// Strategies own all their bookkeeping; the cache guarantees every
// resident key is OnInsert'ed exactly once and OnErase'd exactly once,
// with OnAccess touches in between.
//
// Contract (docs/architecture.md is the canonical statement):
// strategies must not call back into the cache that drives them (the
// cache's own ReentrancyGuard turns such a callback into an abort).
// PickVictim is const and repeatable — the cache erases the victim
// itself and informs the strategy through OnErase. A strategy never sees ReplicaKey::shard
// semantics: manifests and data shards compete for budget like any
// other entry (a policy that pinned manifests would be a new strategy,
// not a special case here).

#ifndef AXML_REPLICA_EVICTION_POLICY_H_
#define AXML_REPLICA_EVICTION_POLICY_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>

#include "replica/replica_key.h"

namespace axml {

/// How a TransferCache chooses budget-eviction victims.
enum class EvictionPolicy : uint8_t {
  kLru = 0,
  kLfu = 1,
  kCostAware = 2,
};

inline constexpr size_t kEvictionPolicyCount = 3;

const char* EvictionPolicyName(EvictionPolicy p);

/// Modeled cost of re-fetching a departed copy (`key`, `bytes` serialized
/// bytes) to the cache's owner — seconds on the holder<-origin link. The
/// ReplicaManager wires this to CostModel::RefetchCost; unset, every
/// refetch costs the same and kCostAware degrades to size×recency.
using RefetchCostFn =
    std::function<double(const ReplicaKey& key, uint64_t bytes)>;

/// Victim-selection strategy consulted by TransferCache.
class EvictionStrategy {
 public:
  virtual ~EvictionStrategy() = default;

  virtual EvictionPolicy policy() const = 0;

  /// `key` entered the cache holding `bytes` serialized bytes.
  virtual void OnInsert(const ReplicaKey& key, uint64_t bytes) = 0;
  /// A lookup hit touched `key`.
  virtual void OnAccess(const ReplicaKey& key) = 0;
  /// `key` left the cache (budget eviction, staleness drop, erase, or
  /// overwrite — the strategy cannot tell and must not care).
  virtual void OnErase(const ReplicaKey& key) = 0;

  /// Entries currently tracked; always equals the cache's entry_count().
  virtual size_t size() const = 0;

  /// Chooses the next budget victim; false iff no entries are tracked.
  virtual bool PickVictim(ReplicaKey* victim) const = 0;
};

/// Builds a strategy for `policy`. `refetch_cost` is consulted only by
/// kCostAware (the others ignore it).
std::unique_ptr<EvictionStrategy> MakeEvictionStrategy(
    EvictionPolicy policy, RefetchCostFn refetch_cost = nullptr);

}  // namespace axml

#endif  // AXML_REPLICA_EVICTION_POLICY_H_
