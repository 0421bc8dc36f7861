#include "replica/subscription.h"

#include <algorithm>

namespace axml {

const char* RefreshPolicyName(RefreshPolicy p) {
  switch (p) {
    case RefreshPolicy::kLazy:
      return "lazy";
    case RefreshPolicy::kDrop:
      return "drop";
    case RefreshPolicy::kEagerRefresh:
      return "eager_refresh";
  }
  return "?";
}

void SubscriptionTable::Subscribe(const ReplicaKey& key, PeerId holder) {
  AXML_DCHECK_CALLED_ON_SEQUENCE(sequence_checker_);
  auto& v = holders_[key];
  if (std::find(v.begin(), v.end(), holder) == v.end()) {
    v.push_back(holder);
  }
}

void SubscriptionTable::Unsubscribe(const ReplicaKey& key, PeerId holder) {
  AXML_DCHECK_CALLED_ON_SEQUENCE(sequence_checker_);
  auto it = holders_.find(key);
  if (it == holders_.end()) return;
  auto& v = it->second;
  v.erase(std::remove(v.begin(), v.end(), holder), v.end());
  if (v.empty()) holders_.erase(it);
}

std::vector<PeerId> SubscriptionTable::HoldersOf(
    const ReplicaKey& key) const {
  AXML_DCHECK_CALLED_ON_SEQUENCE(sequence_checker_);
  auto it = holders_.find(key);
  return it == holders_.end() ? std::vector<PeerId>{} : it->second;
}

bool SubscriptionTable::IsSubscribed(const ReplicaKey& key,
                                     PeerId holder) const {
  AXML_DCHECK_CALLED_ON_SEQUENCE(sequence_checker_);
  auto it = holders_.find(key);
  if (it == holders_.end()) return false;
  const auto& v = it->second;
  return std::find(v.begin(), v.end(), holder) != v.end();
}

std::vector<ReplicaKey> SubscriptionTable::KeysForDoc(
    PeerId origin, const DocName& name) const {
  AXML_DCHECK_CALLED_ON_SEQUENCE(sequence_checker_);
  std::vector<ReplicaKey> keys;
  // Keys order by (origin, name, shard), so one document's keys — the
  // doc key (shard "") first — form a contiguous range.
  for (auto it = holders_.lower_bound(ReplicaKey{origin, name});
       it != holders_.end() && it->first.origin == origin &&
       it->first.name == name;
       ++it) {
    keys.push_back(it->first);
  }
  return keys;
}

size_t SubscriptionTable::subscription_count() const {
  AXML_DCHECK_CALLED_ON_SEQUENCE(sequence_checker_);
  size_t n = 0;
  for (const auto& [key, v] : holders_) n += v.size();
  return n;
}

const std::map<ReplicaKey, std::vector<PeerId>>& SubscriptionTable::entries()
    const {
  AXML_DCHECK_CALLED_ON_SEQUENCE(sequence_checker_);
  return holders_;
}

}  // namespace axml
