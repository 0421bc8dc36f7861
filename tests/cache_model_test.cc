// Model-based property test for the TransferCache under every eviction
// policy.
//
// Hand-written example tests stop scaling once the cache's state space
// is policies × budgets × dedup aliasing × versioned staleness. This
// harness drives ~10k seeded-random Put/Get/Erase/set_byte_budget ops
// per policy against a plain-map reference oracle — over *shard-granular*
// keys (whole-document, manifest and data-shard entries of one document
// coexist as independent entries) — and asserts the invariants after
// every single op:
//
//   - resident_bytes <= byte_budget, blob_count <= entry_count,
//   - blob refcounts match alias counts and the resident-byte sum
//     (recomputed externally from Keys()+Peek, plus the cache's own
//     IntegrityError cross-check),
//   - hits + misses == Gets issued, and the per-policy victim counts
//     sum to the evictions,
//   - a hit is *sound*: the returned blob decodes to exactly the content
//     the oracle recorded at the expected version — never stale bytes,
//   - every resident blob is byte-identical to the encoder's output for
//     the content the oracle last put under its key,
//   - the evict listener fired exactly once per departing entry,
//   - a subscription table driven by the manager's shard-granular rule
//     (subscribe each surviving insert, unsubscribe each departure)
//     tracks exactly the resident key set.
//
// The seed comes from AXML_TEST_SEED (tests/test_util.h); CI runs a
// 5-seed matrix, so a failure reproduces as a pinned one-liner.

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <vector>

#include "common/rng.h"
#include "xml/digest.h"
#include "replica/eviction_policy.h"
#include "replica/transfer_cache.h"
#include "test_util.h"
#include "xml/tree_equal.h"
#include "xml/wire.h"

namespace axml {
namespace {

using testing::MakeCatalog;
using testing::TestSeed;

constexpr size_t kOps = 10000;
constexpr size_t kOrigins = 4;
constexpr size_t kNames = 6;

struct OracleDoc {
  size_t content = 0;   ///< index into the content pool
  uint64_t version = 1; ///< current origin version
};

class CacheModelHarness {
 public:
  CacheModelHarness(EvictionPolicy policy, uint64_t seed)
      : rng_(seed), cache_(/*byte_budget=*/4096, policy) {
    // A synthetic refetch-cost surface so kCostAware actually ranks
    // origins differently (origin 0 cheapest, origin 3 dearest).
    cache_.set_refetch_cost([](const ReplicaKey& key, uint64_t bytes) {
      return (key.origin.index() + 1) * 0.02 +
             static_cast<double>(bytes) * 1e-6;
    });
    cache_.set_evict_listener(
        [this](const ReplicaKey& key, const TransferCache::Entry&) {
          departures_.push_back(key);
          // Mirror of the ReplicaManager's shard-granular subscription
          // rule: every departing entry — whole-document, manifest or
          // data shard — ends its own subscription.
          subscribed_.erase(key);
        });
    // Content pool: distinct sizes exercise budget pressure; two entries
    // share identical content to exercise dedup aliasing under eviction.
    Rng content_rng(0xC0FFEE);
    for (size_t n : {2, 4, 4, 8, 12, 16, 24, 32}) {
      contents_.push_back(MakeCatalog(n, &gen_, &content_rng));
    }
    Rng twin_rng(0xC0FFEE);  // same seed -> contents_[8] == contents_[0]
    contents_.push_back(MakeCatalog(2, &gen_, &twin_rng));
    for (const TreePtr& t : contents_) {
      canonical_.push_back(CanonicalForm(*t));
      encoded_.push_back(wire::EncodeTree(*t));
    }
  }

  void Run(size_t ops) {
    for (size_t i = 0; i < ops; ++i) {
      Step();
      if (::testing::Test::HasFailure()) {
        FAIL() << "invariant broken at op " << i << " (policy "
               << EvictionPolicyName(cache_.eviction_policy())
               << "); rerun with AXML_TEST_SEED pinned";
      }
    }
    // The workload must have actually exercised the interesting paths.
    EXPECT_GT(cache_.stats().evictions, 0u);
    EXPECT_GT(cache_.stats().hits, 0u);
    EXPECT_GT(cache_.stats().misses, 0u);
    EXPECT_GT(cache_.stats().bytes_deduped, 0u);
  }

 private:
  ReplicaKey RandomKey() {
    ReplicaKey key{PeerId(static_cast<uint32_t>(rng_.Index(kOrigins))),
                   StrCat("d", rng_.Index(kNames))};
    // Shard-granular keys: the cache treats the shard dimension as
    // opaque, so whole-document keys, manifests and data shards of one
    // document must coexist as independent entries under every policy.
    const uint64_t kind = rng_.Uniform(4);
    if (kind == 1) {
      key.shard = kManifestShardId;
    } else if (kind >= 2) {
      key.shard = StrCat("shard", rng_.Index(3));
    }
    return key;
  }

  OracleDoc& OracleFor(const ReplicaKey& key) { return oracle_[key]; }

  void Step() {
    const std::vector<ReplicaKey> before_keys = cache_.Keys();
    const size_t departures_before = departures_.size();
    const uint64_t inserts_before = cache_.stats().inserts;
    const ReplicaKey key = RandomKey();
    bool did_put = false;

    const uint64_t op = rng_.Uniform(100);
    if (op < 40) {
      DoPut(key);
      did_put = true;
    } else if (op < 65) {
      DoGet(key);
    } else if (op < 75) {
      cache_.Erase(key, /*invalidation=*/rng_.Bernoulli(0.5));
    } else if (op < 85) {
      // Origin-side mutation: the oracle's version moves on; the copy
      // (if any) is now stale and must die on its next lookup.
      ++OracleFor(key).version;
    } else if (op < 95) {
      static constexpr uint64_t kBudgets[] = {600, 1500, 4096, 12000,
                                              1u << 20};
      cache_.set_byte_budget(kBudgets[rng_.Index(5)]);
    } else {
      cache_.Clear();
    }

    CheckInvariants(before_keys, departures_before, inserts_before, key,
                    did_put);
  }

  /// The tree a blob encodes; the cache itself never decodes.
  TreePtr Decode(const std::string& blob) {
    Result<TreePtr> tree = wire::DecodeTree(blob, &gen_);
    EXPECT_TRUE(tree.ok());
    return tree.ok() ? std::move(tree).value() : TreeNode::Text("");
  }

  void DoPut(const ReplicaKey& key) {
    OracleDoc& doc = OracleFor(key);
    const size_t content = rng_.Index(contents_.size());
    const TreePtr& proto = contents_[content];
    const uint64_t bytes = encoded_[content].size();
    const bool fits = bytes <= cache_.byte_budget();
    const bool accepted = cache_.Put(key, encoded_[content],
                                     DigestOf(*proto), doc.version);
    if (!fits) {
      // A refused over-budget Put caches nothing and leaves any resident
      // copy for this key untouched — the oracle must not move either.
      EXPECT_FALSE(accepted) << "over-budget Put must refuse";
      return;
    }
    // The Put proceeded: the old copy (if any) is gone; the new content
    // is resident unless the policy self-evicted it immediately.
    doc.content = content;
    if (accepted) {
      const TransferCache::Entry* e = cache_.Peek(key);
      ASSERT_NE(e, nullptr);
      EXPECT_EQ(e->origin_version, doc.version);
      EXPECT_EQ(CanonicalForm(*Decode(*e->encoded)),
                canonical_[doc.content]);
    }
    // Subscribe exactly the entries that survived the insert — the
    // manager's rule (it re-checks residency with Peek after Put, since
    // a Put can self-evict its own key under budget pressure).
    if (accepted && cache_.Peek(key) != nullptr) {
      subscribed_.insert(key);
    }
  }

  void DoGet(const ReplicaKey& key) {
    const OracleDoc& doc = OracleFor(key);
    // Mostly ask at the current version; sometimes at a future one,
    // which must always miss (and invalidate a resident copy).
    const bool future = rng_.Bernoulli(0.2);
    const uint64_t expected = doc.version + (future ? 1 : 0);
    ++gets_issued_;
    EncodedBlob got = cache_.Get(key, expected);
    if (future) {
      EXPECT_EQ(got, nullptr) << "no copy can exist at a future version";
    }
    if (got != nullptr) {
      // Soundness: a hit serves exactly the content the oracle recorded
      // for this key — a stale tree here is the bug class this whole
      // subsystem exists to prevent.
      EXPECT_EQ(CanonicalForm(*Decode(*got)), canonical_[doc.content]);
    }
  }

  void CheckInvariants(const std::vector<ReplicaKey>& before_keys,
                       size_t departures_before, uint64_t inserts_before,
                       const ReplicaKey& op_key, bool did_put) {
    // The cache's own full cross-check: blob refcounts vs alias counts,
    // resident-byte accounting, strategy bookkeeping, budget compliance.
    EXPECT_EQ(cache_.IntegrityError(), "");
    EXPECT_LE(cache_.resident_bytes(), cache_.byte_budget());
    EXPECT_LE(cache_.blob_count(), cache_.entry_count());

    // External recomputation (not trusting the cache's self-report):
    // distinct digests and their byte sum must match the blob table.
    std::map<std::string, uint64_t> digest_bytes;
    for (const ReplicaKey& k : cache_.Keys()) {
      const TransferCache::Entry* e = cache_.Peek(k);
      ASSERT_NE(e, nullptr);
      digest_bytes[e->digest.ToString()] = e->bytes;
      // Every resident entry is something the oracle once put — at a
      // version the oracle has not passed.
      auto it = oracle_.find(k);
      ASSERT_NE(it, oracle_.end());
      EXPECT_LE(e->origin_version, it->second.version);
      // Wire-format oracle: the resident blob is exactly what the
      // encoder produces for the content the oracle last put under this
      // key, and the entry's priced bytes are that blob's length — the
      // cache never charges an estimate that drifts from the bytes it
      // would actually ship.
      ASSERT_NE(e->encoded, nullptr);
      EXPECT_EQ(*e->encoded, encoded_[it->second.content]);
      EXPECT_EQ(e->encoded->size(), e->bytes);
    }
    EXPECT_EQ(digest_bytes.size(), cache_.blob_count());
    uint64_t total = 0;
    for (const auto& [digest, bytes] : digest_bytes) total += bytes;
    EXPECT_EQ(total, cache_.resident_bytes());

    // hits + misses arithmetic.
    EXPECT_EQ(cache_.stats().hits + cache_.stats().misses, gets_issued_);

    // Every budget eviction is charged to the policy that chose it.
    uint64_t victims = 0;
    for (uint64_t v : cache_.stats().victims_by_policy) victims += v;
    EXPECT_EQ(victims, cache_.stats().evictions);

    // Shard-granular subscription invariant: a holder driven by the
    // subscribe-on-insert / unsubscribe-on-evict rule is subscribed to
    // exactly the keys it has resident — whole-document, manifest and
    // data-shard entries alike. This is what lets mutation fan-out skip
    // holders of untouched shards without ever leaking a subscription.
    const std::vector<ReplicaKey> resident = cache_.Keys();
    EXPECT_EQ(subscribed_,
              std::set<ReplicaKey>(resident.begin(), resident.end()));

    // Evict-listener contract: exactly one event per departing entry.
    // Departures this op = entries before + entries inserted - entries
    // after (the only ways in and out).
    const uint64_t inserted = cache_.stats().inserts - inserts_before;
    const size_t expected_departures =
        before_keys.size() + inserted - cache_.entry_count();
    const size_t fired = departures_.size() - departures_before;
    EXPECT_EQ(fired, expected_departures);
    // Each event names an entry that was resident at op start, or (at
    // most once more, for insert-then-self-evict / overwrite) the op's
    // own Put key.
    std::set<ReplicaKey> before_set(before_keys.begin(), before_keys.end());
    std::map<ReplicaKey, int> fired_counts;
    for (size_t i = departures_before; i < departures_.size(); ++i) {
      ++fired_counts[departures_[i]];
    }
    for (const auto& [k, count] : fired_counts) {
      const bool was_resident = before_set.count(k) > 0;
      const bool is_put_key = did_put && k == op_key;
      EXPECT_TRUE(was_resident || is_put_key)
          << "listener fired for never-resident " << k.ToString();
      EXPECT_LE(count, (was_resident ? 1 : 0) + (is_put_key ? 1 : 0))
          << "listener fired twice for " << k.ToString();
    }
  }

  Rng rng_;
  NodeIdGen gen_;
  TransferCache cache_;
  std::vector<TreePtr> contents_;
  std::vector<std::string> canonical_;
  std::vector<std::string> encoded_;  ///< wire::EncodeTree of contents_
  std::map<ReplicaKey, OracleDoc> oracle_;
  std::vector<ReplicaKey> departures_;
  std::set<ReplicaKey> subscribed_;  ///< mirror of resident keys
  uint64_t gets_issued_ = 0;
};

class CacheModelTest
    : public ::testing::TestWithParam<EvictionPolicy> {};

TEST_P(CacheModelTest, TenThousandRandomOpsHoldEveryInvariant) {
  CacheModelHarness harness(GetParam(), TestSeed(0xABCD1234));
  harness.Run(kOps);
}

INSTANTIATE_TEST_SUITE_P(
    AllPolicies, CacheModelTest,
    ::testing::Values(EvictionPolicy::kLru, EvictionPolicy::kLfu,
                      EvictionPolicy::kCostAware),
    [](const ::testing::TestParamInfo<EvictionPolicy>& param_info) {
      return EvictionPolicyName(param_info.param);
    });

}  // namespace
}  // namespace axml
