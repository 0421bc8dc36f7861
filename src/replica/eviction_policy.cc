#include "replica/eviction_policy.h"

#include <algorithm>
#include <list>
#include <map>

#include "common/logging.h"

namespace axml {

const char* EvictionPolicyName(EvictionPolicy p) {
  switch (p) {
    case EvictionPolicy::kLru:
      return "lru";
    case EvictionPolicy::kLfu:
      return "lfu";
    case EvictionPolicy::kCostAware:
      return "cost_aware";
  }
  return "?";
}

namespace {

/// The original hardwired behavior: a recency list, victim = back.
class LruStrategy final : public EvictionStrategy {
 public:
  EvictionPolicy policy() const override { return EvictionPolicy::kLru; }

  void OnInsert(const ReplicaKey& key, uint64_t /*bytes*/) override {
    mru_.push_front(key);
    pos_[key] = mru_.begin();
  }

  void OnAccess(const ReplicaKey& key) override {
    auto it = pos_.find(key);
    AXML_CHECK(it != pos_.end());
    mru_.splice(mru_.begin(), mru_, it->second);
  }

  void OnErase(const ReplicaKey& key) override {
    auto it = pos_.find(key);
    AXML_CHECK(it != pos_.end());
    mru_.erase(it->second);
    pos_.erase(it);
  }

  size_t size() const override { return pos_.size(); }

  bool PickVictim(ReplicaKey* victim) const override {
    if (mru_.empty()) return false;
    *victim = mru_.back();
    return true;
  }

 private:
  std::list<ReplicaKey> mru_;  ///< front = most recently used
  std::map<ReplicaKey, std::list<ReplicaKey>::iterator> pos_;
};

/// Least frequently used, with periodic halving so a formerly hot entry
/// does not pin its slot forever on stale counts.
class LfuStrategy final : public EvictionStrategy {
 public:
  /// Every this many insert/access events, all frequencies halve.
  static constexpr uint64_t kAgeInterval = 256;

  EvictionPolicy policy() const override { return EvictionPolicy::kLfu; }

  void OnInsert(const ReplicaKey& key, uint64_t /*bytes*/) override {
    Tick();
    freqs_[key] = Counts{1, tick_};
  }

  void OnAccess(const ReplicaKey& key) override {
    Tick();
    auto it = freqs_.find(key);
    AXML_CHECK(it != freqs_.end());
    ++it->second.freq;
    it->second.last_tick = tick_;
  }

  void OnErase(const ReplicaKey& key) override {
    AXML_CHECK(freqs_.erase(key) == 1);
  }

  size_t size() const override { return freqs_.size(); }

  bool PickVictim(ReplicaKey* victim) const override {
    const std::pair<const ReplicaKey, Counts>* best = nullptr;
    for (const auto& kv : freqs_) {
      // Least frequent; among equals the least recently touched.
      if (best == nullptr || kv.second.freq < best->second.freq ||
          (kv.second.freq == best->second.freq &&
           kv.second.last_tick < best->second.last_tick)) {
        best = &kv;
      }
    }
    if (best == nullptr) return false;
    *victim = best->first;
    return true;
  }

 private:
  struct Counts {
    uint64_t freq = 0;
    uint64_t last_tick = 0;
  };

  void Tick() {
    if (++tick_ % kAgeInterval != 0) return;
    for (auto& [key, counts] : freqs_) {
      counts.freq = std::max<uint64_t>(1, counts.freq / 2);
    }
  }

  uint64_t tick_ = 0;
  std::map<ReplicaKey, Counts> freqs_;
};

/// GreedyDual-Size flavor: victim score = bytes × age / refetch-cost, so
/// the cache sheds big, long-untouched entries whose origin is cheap to
/// reach and protects copies that would be expensive to pull again.
class CostAwareStrategy final : public EvictionStrategy {
 public:
  explicit CostAwareStrategy(RefetchCostFn refetch_cost)
      : refetch_cost_(std::move(refetch_cost)) {}

  EvictionPolicy policy() const override {
    return EvictionPolicy::kCostAware;
  }

  void OnInsert(const ReplicaKey& key, uint64_t bytes) override {
    // Priced once at insert: key.origin and bytes are fixed for the
    // entry's lifetime, and the wired CostModel call is far too heavy to
    // repeat per entry on every victim scan. A topology edit mid-flight
    // reprices only subsequently inserted entries.
    double cost = refetch_cost_ ? refetch_cost_(key, bytes) : 1.0;
    // A free link (co-located or unset fn) must not divide by zero; the
    // floor also keeps loopback copies maximally evictable.
    cost = std::max(cost, 1e-9);
    entries_[key] = State{bytes, ++tick_, cost};
  }

  void OnAccess(const ReplicaKey& key) override {
    auto it = entries_.find(key);
    AXML_CHECK(it != entries_.end());
    it->second.last_tick = ++tick_;
  }

  void OnErase(const ReplicaKey& key) override {
    AXML_CHECK(entries_.erase(key) == 1);
  }

  size_t size() const override { return entries_.size(); }

  bool PickVictim(ReplicaKey* victim) const override {
    const std::pair<const ReplicaKey, State>* best = nullptr;
    double best_score = 0;
    for (const auto& kv : entries_) {
      const double age =
          static_cast<double>(tick_ - kv.second.last_tick) + 1.0;
      const double score =
          static_cast<double>(kv.second.bytes) * age / kv.second.cost;
      if (best == nullptr || score > best_score) {
        best = &kv;
        best_score = score;
      }
    }
    if (best == nullptr) return false;
    *victim = best->first;
    return true;
  }

 private:
  struct State {
    uint64_t bytes = 0;
    uint64_t last_tick = 0;
    double cost = 1.0;  ///< refetch price, fixed at insert
  };

  RefetchCostFn refetch_cost_;
  uint64_t tick_ = 0;
  std::map<ReplicaKey, State> entries_;
};

}  // namespace

std::unique_ptr<EvictionStrategy> MakeEvictionStrategy(
    EvictionPolicy policy, RefetchCostFn refetch_cost) {
  switch (policy) {
    case EvictionPolicy::kLru:
      return std::make_unique<LruStrategy>();
    case EvictionPolicy::kLfu:
      return std::make_unique<LfuStrategy>();
    case EvictionPolicy::kCostAware:
      return std::make_unique<CostAwareStrategy>(std::move(refetch_cost));
  }
  AXML_CHECK(false);
  return nullptr;
}

}  // namespace axml
