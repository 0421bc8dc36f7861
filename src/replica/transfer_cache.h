// Per-peer transfer cache: a byte-budgeted store of remote copies, held
// as the wire bytes they crossed the link in, with pluggable eviction.
//
// Rule (13) of the paper materializes a transferred tree as a local copy
// so it can be read twice; this cache is the runtime home of those
// copies. Entries are keyed by (origin peer, doc name) — the identity of
// the remote source — and store the content digest and the origin's
// document version at copy time, so the ReplicaManager can detect stale
// copies. Storage is content-addressed: a blob is its encoded bytes,
// named by the digest of the tree they encode. Entries whose trees are
// unordered-equal share one blob (canonical encoding makes their bytes
// identical), and the byte budget charges each blob once (identical
// content replicated from several mirrors costs one slot). The cache
// never holds a decoded tree: a reader that needs one decodes the bytes
// with its own NodeIdGen, which is the copy §3.2 asks every send for.
// Victim selection under budget pressure is delegated to an
// EvictionStrategy (eviction_policy.h): LRU (default), LFU, or
// cost-aware scoring by refetch cost from the origin.

#ifndef AXML_REPLICA_TRANSFER_CACHE_H_
#define AXML_REPLICA_TRANSFER_CACHE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/ids.h"
#include "common/reentrancy_guard.h"
#include "obs/metrics.h"
#include "xml/digest.h"
#include "replica/eviction_policy.h"
#include "replica/replica_key.h"

namespace axml {

/// One stored blob's wire bytes (a kTree encoding, xml/wire.h). Shared,
/// so a holder of the pointer keeps the bytes alive across an eviction.
using EncodedBlob = std::shared_ptr<const std::string>;

/// Counters for one cache (benches report these; EXP-4's crossover is
/// visible in bytes_saved, not just wall clock).
struct TransferCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t inserts = 0;
  uint64_t evictions = 0;      ///< entries dropped by the byte budget
  uint64_t invalidations = 0;  ///< entries dropped as stale
  /// Blob bytes the budget evictions released (cache churn). An evicted
  /// dedup alias whose blob stays resident releases nothing.
  uint64_t bytes_evicted = 0;
  /// Budget evictions split by the policy that chose the victim
  /// (indexed by EvictionPolicy); sums to `evictions` unless the policy
  /// was switched mid-run.
  uint64_t victims_by_policy[kEvictionPolicyCount] = {};
  /// Encoded wire bytes of hit entries: transfers the cache avoided.
  uint64_t bytes_saved = 0;
  /// Bytes not stored again because an equal blob was already resident.
  uint64_t bytes_deduped = 0;
  /// Read landings not cached because their source sits in the reader's
  /// rack (ReplicaManager::AdmitReadCopy; counted manager-side, so a
  /// single cache's stats always read 0).
  uint64_t rack_declined = 0;

  std::string ToString() const { return CountersToString(*this); }

  static constexpr auto kCounters = std::make_tuple(
      Counter{"hits", &TransferCacheStats::hits},
      Counter{"misses", &TransferCacheStats::misses},
      Counter{"inserts", &TransferCacheStats::inserts},
      Counter{"evictions", &TransferCacheStats::evictions},
      Counter{"invalidations", &TransferCacheStats::invalidations},
      Counter{"bytes_evicted", &TransferCacheStats::bytes_evicted},
      Counter{"bytes_saved", &TransferCacheStats::bytes_saved},
      Counter{"bytes_deduped", &TransferCacheStats::bytes_deduped},
      Counter{"rack_declined", &TransferCacheStats::rack_declined},
      Counter{"victims_", &TransferCacheStats::victims_by_policy,
              &EvictionPolicyName});
};
static_assert(CountersCover<TransferCacheStats>());

/// Byte-budgeted cache of encoded remote copies with content-addressed
/// blob sharing and pluggable eviction. One instance
/// per caching peer (owned by ReplicaManager).
///
/// Contract (docs/architecture.md is the canonical statement):
///  - Reentrancy: the evict listener fires *during* Put / Get / Erase /
///    Clear / set_byte_budget, before the entry is unlinked. It must not
///    call back into a mutating method of this cache (the entry map is
///    mid-mutation) — enforced by a ReentrancyGuard armed across every
///    mutating entry point (violation aborts; death-tested). It may
///    freely touch other state (the ReplicaManager's listener retracts
///    advertisements and subscriptions, which never re-enter the cache).
///  - Returned blobs are immutable bytes shared by every dedup alias.
///    A consumer that needs a tree decodes its own, minting fresh node
///    ids, so no consumer can reach the stored content.
///  - Keys are opaque: the cache never inspects ReplicaKey::shard. Shard
///    semantics (manifest freshness, data-shard immutability, orphan
///    cleanup) live entirely in the ReplicaManager.
class TransferCache {
 public:
  static constexpr uint64_t kDefaultByteBudget = 4ull << 20;  // 4 MiB

  explicit TransferCache(uint64_t byte_budget = kDefaultByteBudget,
                         EvictionPolicy policy = EvictionPolicy::kLru)
      : byte_budget_(byte_budget),
        strategy_(MakeEvictionStrategy(policy)) {}

  TransferCache(const TransferCache&) = delete;
  TransferCache& operator=(const TransferCache&) = delete;

  /// One cached copy.
  struct Entry {
    EncodedBlob encoded;  ///< the blob (content-equal entries share it)
    ContentDigest digest;
    uint64_t origin_version = 0;
    uint64_t bytes = 0;  ///< encoded wire size of the blob
  };

  /// Called just before an entry leaves the cache (eviction, staleness
  /// drop, or overwrite), so the owner can retract advertisements.
  using EvictListener = std::function<void(const ReplicaKey&, const Entry&)>;
  void set_evict_listener(EvictListener fn) { on_evict_ = std::move(fn); }

  // --- Eviction policy ---

  EvictionPolicy eviction_policy() const { return strategy_->policy(); }

  /// Swaps the victim-selection strategy. Resident entries are re-seeded
  /// into the new strategy in key order — recency and frequency history
  /// does not survive the switch.
  void set_eviction_policy(EvictionPolicy policy);

  /// Wires the refetch-cost estimate kCostAware scores victims with
  /// (the ReplicaManager passes CostModel::RefetchCost). Takes effect
  /// immediately — the active strategy is rebuilt.
  void set_refetch_cost(RefetchCostFn fn);

  /// Inserts (or overwrites) the copy for `key`, evicting entries per
  /// the eviction policy until the budget holds. `encoded` is the
  /// copy's wire encoding (a landing stores the bytes it received) and
  /// `digest` the DigestOf the tree it encodes; the cache never encodes
  /// or decodes. Returns false — and caches nothing — when the blob
  /// alone exceeds the budget. A blob equal to an already resident one
  /// is shared, not stored twice. Entry::bytes — the budgeted size — is
  /// the encoded byte count, so what the budget charges is what a
  /// re-ship would put on the wire.
  bool Put(const ReplicaKey& key, std::string encoded, ContentDigest digest,
           uint64_t origin_version);

  /// The cached blob for `key` iff present *and* its origin_version
  /// equals `expected_version`; touches the eviction strategy and counts
  /// a hit. A present but stale entry is dropped (invalidation) and
  /// counts a miss, as does an absent key. Returns nullptr on miss.
  EncodedBlob Get(const ReplicaKey& key, uint64_t expected_version);

  /// Read-only view with no recency or stats side effects; nullptr if
  /// absent. Entry::encoded is the exact bytes a shipment of this entry
  /// puts on the wire.
  const Entry* Peek(const ReplicaKey& key) const;

  /// Drops `key`; `invalidation` selects which counter the drop charges.
  /// Returns true when the entry existed.
  bool Erase(const ReplicaKey& key, bool invalidation = false);

  /// Drops everything (budget and stats are kept).
  void Clear();

  /// Every resident key of document (origin, name) — the whole-document
  /// entry, the manifest, and any data shards — in key order. O(log n +
  /// answer); the ReplicaManager's shard orphan cleanup scans with this.
  std::vector<ReplicaKey> KeysForDoc(PeerId origin,
                                     const DocName& name) const;

  /// Every resident key, in key order (tests and debugging; no recency
  /// side effects).
  std::vector<ReplicaKey> Keys() const;

  size_t entry_count() const { return entries_.size(); }
  /// Distinct blobs resident (dedup makes this <= entry_count()).
  size_t blob_count() const { return blobs_.size(); }
  /// Unique blob bytes currently held.
  uint64_t resident_bytes() const { return resident_bytes_; }

  uint64_t byte_budget() const { return byte_budget_; }
  /// Shrinking the budget evicts immediately.
  void set_byte_budget(uint64_t budget);

  const TransferCacheStats& stats() const { return stats_; }
  void ResetStats() { stats_ = TransferCacheStats{}; }

  /// Counts a transfer avoided by joining an in-flight copy (the
  /// evaluator's read coalescing); the copy itself is recorded by the
  /// Put that follows the landing.
  void RecordCoalescedHit(uint64_t bytes) {
    ++stats_.hits;
    stats_.bytes_saved += bytes;
  }

  /// Full cross-check of the internal bookkeeping: entry/blob refcount
  /// agreement, resident-byte accounting, budget compliance, strategy
  /// entry tracking. Returns a description of the first violation, or ""
  /// when consistent. Test/debug hook — O(entries), no side effects.
  std::string IntegrityError() const;

 private:
  /// Unlinks `it`'s entry, releasing its blob reference. Runs the evict
  /// listener first. Returns the blob bytes the drop released (0 while
  /// other aliases keep the blob resident).
  uint64_t Drop(std::map<ReplicaKey, Entry>::iterator it,
                uint64_t* counter);
  /// Evicts strategy-chosen victims until resident_bytes_ <=
  /// byte_budget_.
  void EvictToBudget();
  /// Rebuilds the strategy for `policy`, re-seeding resident entries.
  void RebuildStrategy(EvictionPolicy policy);

  /// Armed across every mutating entry point; the evict listener runs
  /// inside the armed window, so a listener that calls back trips it.
  ReentrancyGuard mutation_guard_;
  uint64_t byte_budget_;
  std::unique_ptr<EvictionStrategy> strategy_;
  RefetchCostFn refetch_cost_;

  struct Blob {
    EncodedBlob encoded;
    uint32_t refs = 0;
  };
  std::map<ReplicaKey, Entry> entries_;
  std::map<ContentDigest, Blob> blobs_;
  uint64_t resident_bytes_ = 0;
  TransferCacheStats stats_;
  EvictListener on_evict_;
};

}  // namespace axml

#endif  // AXML_REPLICA_TRANSFER_CACHE_H_
