#include "replica/placement.h"

#include <algorithm>

#include "peer/generic.h"
#include "replica/replica_manager.h"

namespace axml {

std::vector<PlacementDecision> PlacementPolicy::Plan(
    const GenericCatalog& generics, const ReplicaManager& replicas) const {
  std::vector<PlacementDecision> plan;
  if (!config_.enabled) return plan;
  const auto& demand = generics.document_pick_demand();
  // The table is ordered by (class, caller): walk it one class at a time.
  for (auto it = demand.begin(); it != demand.end();) {
    const std::string& class_name = it->first.first;
    std::vector<std::pair<PeerId, uint64_t>> pickers;
    while (it != demand.end() && it->first.first == class_name) {
      if (it->second >= config_.min_picks && it->first.second.is_concrete()) {
        pickers.emplace_back(it->first.second, it->second);
      }
      ++it;
    }
    if (pickers.empty()) continue;
    const std::vector<ClassMember>* members =
        generics.DocumentMembers(class_name);
    if (members == nullptr || members->empty()) continue;
    // The seed source is the durable origin — the first member that is
    // not itself somebody's cached copy (a copy may evict any time; the
    // origin is the stable ground truth the paper's d@any equivalence
    // asserts).
    const ClassMember* origin = nullptr;
    for (const ClassMember& m : *members) {
      if (m.peer.is_concrete() && !replicas.IsCachedCopy(m.peer, m.name)) {
        origin = &m;
        break;
      }
    }
    if (origin == nullptr) continue;
    // Hottest callers first; the table walk above produced PeerId order,
    // so a stable sort keeps ties deterministic.
    std::stable_sort(pickers.begin(), pickers.end(),
                     [](const std::pair<PeerId, uint64_t>& a,
                        const std::pair<PeerId, uint64_t>& b) {
                       return a.second > b.second;
                     });
    size_t seeded = 0;
    for (const auto& [peer, picks] : pickers) {
      if (seeded >= config_.max_targets_per_class) break;
      if (peer == origin->peer) continue;
      // A peer already serving the class durably (a mirror) or holding a
      // fresh copy reads locally today; seeding it ships dead bytes.
      if (std::any_of(members->begin(), members->end(),
                      [peer = peer](const ClassMember& m) {
                        return m.peer == peer;
                      })) {
        continue;
      }
      if (replicas.HasFresh(peer, origin->peer, origin->name)) continue;
      plan.push_back(PlacementDecision{
          peer, ReplicaKey{origin->peer, origin->name}, class_name,
          picks});
      ++seeded;
    }
  }
  if (plan.size() > config_.max_shipments_per_round) {
    plan.resize(config_.max_shipments_per_round);
  }
  return plan;
}

}  // namespace axml
