// Proactive replica placement: seed copies on hot paths.
//
// The replica layer so far is purely reactive — a copy materializes only
// after some read paid the transfer, and a mutation (under kDrop) strands
// every hot reader until its next read pays again. The GenericCatalog
// already records *demand*: every d@any resolution counts a (class,
// caller) pick. The PlacementPolicy turns that signal into shipments —
// for each document class whose demand at some caller crossed a
// threshold, the durable origin ships the document to the top-picking
// peers through the existing transfer path (budget-checked, coalesced
// with in-flight refresh shipments, advertised on landing). Subsequent
// d@any picks at those peers ride the free loopback link.
//
// The policy is a pure planner: Plan() inspects demand and replica state
// and returns shipment decisions; ReplicaManager::RunPlacement executes
// them (it owns the wire machinery and the budgets). Plan() is const,
// deterministic for a given demand table and replica state, and free of
// side effects — callers may re-plan at any time; only launching a
// decision drains the demand that earned it. Single-threaded, like the
// rest of the system. When document sharding is enabled, a placement
// shipment is a shard *delta*: the per-holder byte budget is charged
// only for the pieces the holder lacks, so even a document larger than
// the holder's cache can be seeded partially.

#ifndef AXML_REPLICA_PLACEMENT_H_
#define AXML_REPLICA_PLACEMENT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/ids.h"
#include "obs/metrics.h"
#include "replica/replica_key.h"

namespace axml {

class GenericCatalog;
class ReplicaManager;

/// Knobs for proactive placement. Disabled by default — placement only
/// ships when somebody turned it on.
struct PlacementConfig {
  bool enabled = false;
  /// Picks one caller must accumulate for one class before it qualifies
  /// as a hot path worth seeding.
  uint64_t min_picks = 4;
  /// Per class, at most this many top-picking peers get copies.
  size_t max_targets_per_class = 2;
  /// Cap on shipments one RunPlacement round may start.
  size_t max_shipments_per_round = 8;
  /// Lifetime wire-byte cap per receiving holder for placement
  /// shipments (reset by ReplicaManager::ResetStats). Exhausted holders
  /// are skipped.
  uint64_t byte_budget_per_holder = UINT64_MAX;
};

/// Counters for the placement path.
struct PlacementStats {
  uint64_t shipments = 0;      ///< proactive shipments started
  uint64_t landed = 0;         ///< copies that materialized + advertised
  uint64_t shipped_bytes = 0;  ///< wire bytes those shipments cost
  /// Decisions folded into a shipment already in flight (eager refresh
  /// or an earlier placement round).
  uint64_t coalesced = 0;
  /// Decisions denied by the per-holder placement byte budget.
  uint64_t budget_denied = 0;
  /// Shipments that landed but would not cache (origin moved on while on
  /// the wire, or the holder's cache refused the copy).
  uint64_t wasted = 0;

  std::string ToString() const { return CountersToString(*this); }

  static constexpr auto kCounters = std::make_tuple(
      Counter{"shipments", &PlacementStats::shipments},
      Counter{"landed", &PlacementStats::landed},
      Counter{"shipped_bytes", &PlacementStats::shipped_bytes},
      Counter{"coalesced", &PlacementStats::coalesced},
      Counter{"budget_denied", &PlacementStats::budget_denied},
      Counter{"wasted", &PlacementStats::wasted});
};
static_assert(CountersCover<PlacementStats>());

/// One planned shipment: push origin's document to `holder`.
struct PlacementDecision {
  PeerId holder;
  ReplicaKey key;          ///< (durable origin, doc name)
  std::string class_name;  ///< the class whose demand earned the seed
  uint64_t demand = 0;     ///< picks that earned it (for traces)
};

/// Watches GenericCatalog pick demand and plans proactive copies. Owned
/// by the ReplicaManager; pure — all wire effects live in the manager.
class PlacementPolicy {
 public:
  void set_config(PlacementConfig config) { config_ = config; }
  const PlacementConfig& config() const { return config_; }

  /// Plans this round's shipments from the current demand table:
  /// qualifying (class, caller) pairs, ranked by demand, capped per
  /// class and per round. Skips callers that are the origin, already
  /// hold a fresh copy, or already appear as class members. Deterministic
  /// for a given demand table and replica state.
  std::vector<PlacementDecision> Plan(const GenericCatalog& generics,
                                      const ReplicaManager& replicas) const;

 private:
  PlacementConfig config_;
};

}  // namespace axml

#endif  // AXML_REPLICA_PLACEMENT_H_
