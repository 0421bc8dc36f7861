#include "peer/generic.h"

#include <algorithm>
#include <iterator>

#include "common/str_util.h"

namespace axml {

const char* PickPolicyName(PickPolicy p) {
  switch (p) {
    case PickPolicy::kFirst:
      return "first";
    case PickPolicy::kRandom:
      return "random";
    case PickPolicy::kNearest:
      return "nearest";
    case PickPolicy::kLeastLoaded:
      return "least_loaded";
    case PickPolicy::kCacheAware:
      return "cache_aware";
  }
  return "?";
}

void GenericCatalog::AddDocumentMember(const std::string& class_name,
                                       ClassMember member) {
  auto& v = doc_classes_[class_name];
  if (std::find(v.begin(), v.end(), member) == v.end()) {
    auto& classes = doc_member_classes_[{member.peer, member.name}];
    if (std::find(classes.begin(), classes.end(), class_name) ==
        classes.end()) {
      classes.push_back(class_name);
    }
    v.push_back(std::move(member));
  }
}

void GenericCatalog::AddServiceMember(const std::string& class_name,
                                      ClassMember member) {
  auto& v = svc_classes_[class_name];
  if (std::find(v.begin(), v.end(), member) == v.end()) {
    v.push_back(std::move(member));
  }
}

void GenericCatalog::RemoveDocumentMember(const std::string& class_name,
                                          const ClassMember& member) {
  auto it = doc_classes_.find(class_name);
  if (it == doc_classes_.end()) return;
  auto& v = it->second;
  v.erase(std::remove(v.begin(), v.end(), member), v.end());
  if (v.empty()) doc_classes_.erase(it);
  auto rev = doc_member_classes_.find({member.peer, member.name});
  if (rev != doc_member_classes_.end()) {
    auto& classes = rev->second;
    classes.erase(std::remove(classes.begin(), classes.end(), class_name),
                  classes.end());
    if (classes.empty()) doc_member_classes_.erase(rev);
  }
}

void GenericCatalog::RemoveServiceMember(const std::string& class_name,
                                         const ClassMember& member) {
  auto it = svc_classes_.find(class_name);
  if (it == svc_classes_.end()) return;
  auto& v = it->second;
  v.erase(std::remove(v.begin(), v.end(), member), v.end());
  if (v.empty()) svc_classes_.erase(it);
}

const std::vector<ClassMember>* GenericCatalog::DocumentMembers(
    const std::string& class_name) const {
  auto it = doc_classes_.find(class_name);
  return it == doc_classes_.end() ? nullptr : &it->second;
}

const std::vector<ClassMember>* GenericCatalog::ServiceMembers(
    const std::string& class_name) const {
  auto it = svc_classes_.find(class_name);
  return it == svc_classes_.end() ? nullptr : &it->second;
}

std::vector<std::string> GenericCatalog::DocumentClassesOf(
    const ClassMember& member) const {
  auto it = doc_member_classes_.find({member.peer, member.name});
  return it == doc_member_classes_.end() ? std::vector<std::string>{}
                                         : it->second;
}

Result<ClassMember> GenericCatalog::PickDocument(
    const std::string& class_name, PeerId from, PickPolicy policy,
    const Network& net, uint64_t nominal_bytes) {
  if (doc_validator_) {
    // Freshness sweep: a stale cached copy must not serve d@any. The
    // validator retracts stale members itself (possibly several, when a
    // retraction cascades); sweep a snapshot, then pick from what's left.
    auto it = doc_classes_.find(class_name);
    if (it != doc_classes_.end()) {
      const std::vector<ClassMember> snapshot = it->second;
      for (const ClassMember& m : snapshot) {
        (void)doc_validator_(class_name, m);
      }
    }
  }
  const std::vector<ClassMember>* members = DocumentMembers(class_name);
  std::vector<ClassMember> visible;
  auto hidden = [&](const ClassMember& m) { return !visibility_(m, from); };
  if (members != nullptr && visibility_ &&
      std::any_of(members->begin(), members->end(), hidden)) {
    std::remove_copy_if(members->begin(), members->end(),
                        std::back_inserter(visible), hidden);
    members = &visible;
  }
  Result<ClassMember> picked = Pick(members, "document", class_name, from,
                                    policy, net, nominal_bytes);
  if (picked.ok() && from.is_concrete()) {
    // Demand signal for proactive placement: who keeps resolving which
    // class. Only concrete callers count — a copy can only be seeded at
    // a real peer.
    ++doc_pick_demand_[{class_name, from}];
  }
  return picked;
}

Result<ClassMember> GenericCatalog::PickService(
    const std::string& class_name, PeerId from, PickPolicy policy,
    const Network& net, uint64_t nominal_bytes) {
  return Pick(ServiceMembers(class_name), "service", class_name, from,
              policy, net, nominal_bytes);
}

Result<ClassMember> GenericCatalog::Pick(
    const std::vector<ClassMember>* candidates, const char* what,
    const std::string& class_name, PeerId from, PickPolicy policy,
    const Network& net, uint64_t nominal_bytes) {
  if (candidates == nullptr || candidates->empty()) {
    return Status::NotFound(
        StrCat("no members in ", what, " class \"", class_name, "\""));
  }
  const std::vector<ClassMember>& members = *candidates;
  const ClassMember* chosen = nullptr;
  switch (policy) {
    case PickPolicy::kFirst:
      chosen = &members.front();
      break;
    case PickPolicy::kRandom:
      chosen = &members[rng_.Index(members.size())];
      break;
    case PickPolicy::kNearest: {
      double best = 0;
      for (const auto& m : members) {
        double t =
            net.topology().Get(m.peer, from).TransferTime(nominal_bytes);
        if (chosen == nullptr || t < best) {
          best = t;
          chosen = &m;
        }
      }
      break;
    }
    case PickPolicy::kLeastLoaded: {
      uint64_t best = 0;
      for (const auto& m : members) {
        uint64_t load = PickCount(m.peer);
        if (chosen == nullptr || load < best) {
          best = load;
          chosen = &m;
        }
      }
      break;
    }
    case PickPolicy::kCacheAware: {
      // Like kNearest but network-distance-aware for the real payload:
      // each member is ranked by the estimated time to move *its* copy
      // (size hint) over its link to the caller. A co-located replica
      // rides the free loopback link and wins outright.
      double best = 0;
      for (const auto& m : members) {
        uint64_t bytes =
            size_hint_ ? size_hint_(m) : nominal_bytes;
        if (bytes == 0) bytes = nominal_bytes;
        double t = net.topology().Get(m.peer, from).TransferTime(bytes);
        if (chosen == nullptr || t < best) {
          best = t;
          chosen = &m;
        }
      }
      break;
    }
  }
  ++pick_counts_[chosen->peer];
  return *chosen;
}

uint64_t GenericCatalog::PickCount(PeerId peer) const {
  auto it = pick_counts_.find(peer);
  return it == pick_counts_.end() ? 0 : it->second;
}

uint64_t GenericCatalog::DocumentPickDemand(const std::string& class_name,
                                            PeerId from) const {
  auto it = doc_pick_demand_.find({class_name, from});
  return it == doc_pick_demand_.end() ? 0 : it->second;
}

void GenericCatalog::ResetPickCounts() {
  pick_counts_.clear();
  doc_pick_demand_.clear();
}

}  // namespace axml
