// Generic documents and services (§2.3) and the pick functions of
// definition (9).
//
// "A generic document ed@any denotes any among a set of regular documents
// which we consider to be equivalent; we say ed is a document equivalence
// class." Equivalence classes are *declared* here (the paper's semantic
// fixpoint equivalence [5] is undecidable; deployed members are asserted
// equivalent by whoever replicates them — the GenericCatalog can
// optionally verify unordered-equality of current replica contents).
//
// pickDoc/pickService: "The implementation of an actual pick function at
// p depends on p's knowledge of the existing documents and services, p's
// preferences etc." We provide the classic policies and let benches
// compare them (EXP-6).

#ifndef AXML_PEER_GENERIC_H_
#define AXML_PEER_GENERIC_H_

#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/ids.h"
#include "common/rng.h"
#include "common/status.h"
#include "net/network.h"

namespace axml {

/// One concrete member of an equivalence class: a (name, peer) pair.
struct ClassMember {
  std::string name;  ///< document or service name on that peer
  PeerId peer;

  bool operator==(const ClassMember&) const = default;
};

/// How pickDoc / pickService choose among members.
enum class PickPolicy {
  kFirst,        ///< first registered member (baseline)
  kRandom,       ///< uniform random member
  kNearest,      ///< member whose link from the caller is fastest for a
                 ///< nominal payload
  kLeastLoaded,  ///< member with the fewest picks so far (greedy balance)
  kCacheAware,   ///< member with the fastest estimated transfer of its
                 ///< *actual* payload (per-member size hint); a replica
                 ///< co-located with the caller rides the free loopback
                 ///< link and wins outright
};

const char* PickPolicyName(PickPolicy p);

/// Registry of document and service equivalence classes.
class GenericCatalog {
 public:
  GenericCatalog() : rng_(0xA11CE) {}

  /// Declares `member` part of the document class `class_name`.
  void AddDocumentMember(const std::string& class_name, ClassMember member);
  void AddServiceMember(const std::string& class_name, ClassMember member);
  void RemoveDocumentMember(const std::string& class_name,
                            const ClassMember& member);
  void RemoveServiceMember(const std::string& class_name,
                           const ClassMember& member);

  const std::vector<ClassMember>* DocumentMembers(
      const std::string& class_name) const;
  const std::vector<ClassMember>* ServiceMembers(
      const std::string& class_name) const;

  /// Names of every document class `member` belongs to (replica
  /// advertisement joins a cached copy to its origin's classes).
  std::vector<std::string> DocumentClassesOf(const ClassMember& member) const;

  /// pickDoc (def. (9)): chooses a member of document class `class_name`
  /// for caller `from` under `policy`. `net` provides link estimates for
  /// kNearest; `nominal_bytes` is the payload size used to rank links.
  Result<ClassMember> PickDocument(const std::string& class_name,
                                   PeerId from, PickPolicy policy,
                                   const Network& net,
                                   uint64_t nominal_bytes = 4096);
  /// pickService, same contract.
  Result<ClassMember> PickService(const std::string& class_name,
                                  PeerId from, PickPolicy policy,
                                  const Network& net,
                                  uint64_t nominal_bytes = 4096);

  /// Picks recorded per peer (drives kLeastLoaded; benches read it to
  /// show balance).
  uint64_t PickCount(PeerId peer) const;
  void ResetPickCounts();

  // --- Demand signal (read-only export for replica placement) ---

  /// Document picks recorded per (class, calling peer): how often `from`
  /// resolved `class_name`@any. This is the demand signal the
  /// PlacementPolicy seeds proactive copies from.
  uint64_t DocumentPickDemand(const std::string& class_name,
                              PeerId from) const;
  /// The whole demand table, ordered by (class, caller). Cleared by
  /// ResetPickCounts alongside the per-peer counts.
  const std::map<std::pair<std::string, PeerId>, uint64_t>&
  document_pick_demand() const {
    return doc_pick_demand_;
  }

  /// Zeroes the demand one (class, caller) pair accumulated. The
  /// ReplicaManager drains a pair when its placement seed launches, so
  /// re-seeding after a later eviction takes fresh picks — the counters
  /// are otherwise lifetime-monotonic and would replay forever.
  void DrainDocumentPickDemand(const std::string& class_name, PeerId from) {
    doc_pick_demand_.erase({class_name, from});
  }

  /// Credits demand back to a (class, caller) pair. The placement waste
  /// path returns *half* the drained demand when a launched seed lands
  /// stale or refused — the picks that earned the seed were real and
  /// must not vanish with the wasted shipment, while halving guarantees
  /// a permanently failing seed decays to nothing instead of replaying
  /// every round.
  void AddDocumentPickDemand(const std::string& class_name, PeerId from,
                             uint64_t n) {
    if (n > 0) doc_pick_demand_[{class_name, from}] += n;
  }

  void set_default_policy(PickPolicy p) { default_policy_ = p; }
  PickPolicy default_policy() const { return default_policy_; }

  /// Reseeds the kRandom policy for reproducibility.
  void SeedRandom(uint64_t seed) { rng_.Seed(seed); }

  /// Freshness gate consulted before every document pick: members failing
  /// it (stale cached copies) are removed from the class on the spot. The
  /// validator may itself remove members (the ReplicaManager retracts a
  /// stale copy's advertisements); PickDocument re-reads the class after
  /// the sweep. Unset = every member validates.
  using MemberValidator =
      std::function<bool(const std::string& class_name, const ClassMember&)>;
  void set_document_validator(MemberValidator fn) {
    doc_validator_ = std::move(fn);
  }

  /// Which members caller `from` may pick at all: what its resource
  /// catalog tells it exists (a region-scoped catalog does not report
  /// cached copies outside the caller's region). Applied to document
  /// picks after the freshness sweep. Unset = every member is visible.
  using MemberVisibility =
      std::function<bool(const ClassMember& member, PeerId from)>;
  void set_member_visibility(MemberVisibility fn) {
    visibility_ = std::move(fn);
  }

  /// Per-member payload-size estimate for kCacheAware (actual serialized
  /// bytes of that member's copy). Unset = `nominal_bytes` for everyone.
  using MemberSizeHint = std::function<uint64_t(const ClassMember&)>;
  void set_member_size_hint(MemberSizeHint fn) {
    size_hint_ = std::move(fn);
  }

 private:
  Result<ClassMember> Pick(const std::vector<ClassMember>* candidates,
                           const char* what, const std::string& class_name,
                           PeerId from, PickPolicy policy, const Network& net,
                           uint64_t nominal_bytes);

  std::map<std::string, std::vector<ClassMember>> doc_classes_;
  std::map<std::string, std::vector<ClassMember>> svc_classes_;
  /// Reverse index: document member -> class names. Kept in lockstep
  /// with doc_classes_; DocumentClassesOf runs on every replica
  /// advertisement and retraction, so it must not scan every class.
  std::map<std::pair<PeerId, std::string>, std::vector<std::string>>
      doc_member_classes_;
  std::map<PeerId, uint64_t> pick_counts_;
  /// (class, caller) -> document picks; the placement demand signal.
  std::map<std::pair<std::string, PeerId>, uint64_t> doc_pick_demand_;
  PickPolicy default_policy_ = PickPolicy::kNearest;
  Rng rng_;
  MemberValidator doc_validator_;
  MemberVisibility visibility_;
  MemberSizeHint size_hint_;
};

}  // namespace axml

#endif  // AXML_PEER_GENERIC_H_
