#include "replica/transfer_cache.h"

#include "common/logging.h"
#include "common/str_util.h"

namespace axml {

void TransferCache::set_eviction_policy(EvictionPolicy policy) {
  AXML_REENTRANCY_GUARD(mutation_guard_, "TransferCache::set_eviction_policy");
  if (policy == strategy_->policy()) return;
  RebuildStrategy(policy);
}

void TransferCache::set_refetch_cost(RefetchCostFn fn) {
  AXML_REENTRANCY_GUARD(mutation_guard_, "TransferCache::set_refetch_cost");
  refetch_cost_ = std::move(fn);
  RebuildStrategy(strategy_->policy());
}

void TransferCache::RebuildStrategy(EvictionPolicy policy) {
  strategy_ = MakeEvictionStrategy(policy, refetch_cost_);
  for (const auto& [key, entry] : entries_) {
    strategy_->OnInsert(key, entry.bytes);
  }
}

bool TransferCache::Put(const ReplicaKey& key, std::string encoded,
                        ContentDigest digest, uint64_t origin_version) {
  AXML_REENTRANCY_GUARD(mutation_guard_, "TransferCache::Put");
  AXML_CHECK(!encoded.empty());
  // The budgeted size is the wire encoding's — the bytes a (re)shipment
  // of this entry costs. Canonical encoding makes the bytes a pure
  // function of content, so dedup aliases agree on the size.
  const uint64_t bytes = encoded.size();
  if (bytes > byte_budget_) return false;

  auto existing = entries_.find(key);
  if (existing != entries_.end()) {
    Drop(existing, nullptr);
  }

  auto [blob_it, fresh_blob] = blobs_.try_emplace(digest);
  Blob& blob = blob_it->second;
  if (fresh_blob) {
    blob.encoded = std::make_shared<const std::string>(std::move(encoded));
    resident_bytes_ += bytes;
  } else {
    // Content-addressed sharing: an equal blob is already resident; the
    // new copy aliases it and costs no additional budget.
    stats_.bytes_deduped += bytes;
  }
  ++blob.refs;

  entries_.emplace(key, Entry{blob.encoded, digest, origin_version, bytes});
  strategy_->OnInsert(key, bytes);
  ++stats_.inserts;

  EvictToBudget();
  return entries_.count(key) > 0;
}

EncodedBlob TransferCache::Get(const ReplicaKey& key,
                               uint64_t expected_version) {
  AXML_REENTRANCY_GUARD(mutation_guard_, "TransferCache::Get");
  auto it = entries_.find(key);
  if (it == entries_.end()) {
    ++stats_.misses;
    return nullptr;
  }
  if (it->second.origin_version != expected_version) {
    Drop(it, &stats_.invalidations);
    ++stats_.misses;
    return nullptr;
  }
  strategy_->OnAccess(key);
  ++stats_.hits;
  stats_.bytes_saved += it->second.bytes;
  return it->second.encoded;
}

const TransferCache::Entry* TransferCache::Peek(
    const ReplicaKey& key) const {
  auto it = entries_.find(key);
  return it == entries_.end() ? nullptr : &it->second;
}

bool TransferCache::Erase(const ReplicaKey& key, bool invalidation) {
  AXML_REENTRANCY_GUARD(mutation_guard_, "TransferCache::Erase");
  auto it = entries_.find(key);
  if (it == entries_.end()) return false;
  Drop(it, invalidation ? &stats_.invalidations : nullptr);
  return true;
}

void TransferCache::Clear() {
  AXML_REENTRANCY_GUARD(mutation_guard_, "TransferCache::Clear");
  while (!entries_.empty()) {
    Drop(entries_.begin(), nullptr);
  }
}

std::vector<ReplicaKey> TransferCache::KeysForDoc(
    PeerId origin, const DocName& name) const {
  std::vector<ReplicaKey> keys;
  for (auto it = entries_.lower_bound(ReplicaKey{origin, name});
       it != entries_.end() && it->first.origin == origin &&
       it->first.name == name;
       ++it) {
    keys.push_back(it->first);
  }
  return keys;
}

std::vector<ReplicaKey> TransferCache::Keys() const {
  std::vector<ReplicaKey> keys;
  keys.reserve(entries_.size());
  for (const auto& [key, entry] : entries_) keys.push_back(key);
  return keys;
}

void TransferCache::set_byte_budget(uint64_t budget) {
  AXML_REENTRANCY_GUARD(mutation_guard_, "TransferCache::set_byte_budget");
  byte_budget_ = budget;
  EvictToBudget();
}

uint64_t TransferCache::Drop(std::map<ReplicaKey, Entry>::iterator it,
                             uint64_t* counter) {
  if (on_evict_) on_evict_(it->first, it->second);
  auto blob_it = blobs_.find(it->second.digest);
  AXML_CHECK(blob_it != blobs_.end());
  uint64_t freed = 0;
  if (--blob_it->second.refs == 0) {
    freed = blob_it->second.encoded->size();
    resident_bytes_ -= freed;
    blobs_.erase(blob_it);
  }
  strategy_->OnErase(it->first);
  entries_.erase(it);
  if (counter != nullptr) ++*counter;
  return freed;
}

void TransferCache::EvictToBudget() {
  while (resident_bytes_ > byte_budget_) {
    ReplicaKey victim;
    if (!strategy_->PickVictim(&victim)) break;
    auto it = entries_.find(victim);
    AXML_CHECK(it != entries_.end());
    const size_t policy_index = static_cast<size_t>(strategy_->policy());
    stats_.bytes_evicted += Drop(it, &stats_.evictions);
    ++stats_.victims_by_policy[policy_index];
  }
}

std::string TransferCache::IntegrityError() const {
  if (strategy_->size() != entries_.size()) {
    return StrCat("strategy tracks ", strategy_->size(), " entries, cache ",
                  entries_.size());
  }
  if (resident_bytes_ > byte_budget_) {
    return StrCat("resident_bytes ", resident_bytes_, " over budget ",
                  byte_budget_);
  }
  // Recompute blob refcounts and resident bytes from the entries.
  std::map<ContentDigest, uint32_t> refs;
  for (const auto& [key, entry] : entries_) {
    ++refs[entry.digest];
    auto blob_it = blobs_.find(entry.digest);
    if (blob_it == blobs_.end()) {
      return StrCat("entry ", key.ToString(), " names a missing blob");
    }
    if (entry.bytes != blob_it->second.encoded->size()) {
      return StrCat("entry ", key.ToString(), " bytes ", entry.bytes,
                    " != encoded blob size ",
                    blob_it->second.encoded->size());
    }
  }
  if (refs.size() != blobs_.size()) {
    return StrCat("blob table holds ", blobs_.size(), " blobs, entries use ",
                  refs.size());
  }
  uint64_t total_bytes = 0;
  for (const auto& [digest, blob] : blobs_) {
    auto it = refs.find(digest);
    const uint32_t expected = it == refs.end() ? 0 : it->second;
    if (blob.refs != expected) {
      return StrCat("blob refcount ", blob.refs, " != alias count ",
                    expected);
    }
    if (blob.refs == 0) return "blob resident with zero refs";
    total_bytes += blob.encoded->size();
  }
  if (total_bytes != resident_bytes_) {
    return StrCat("blob bytes sum ", total_bytes, " != resident_bytes ",
                  resident_bytes_);
  }
  return "";
}

}  // namespace axml
