// Multi-peer soak of the replica layer across the full policy grid.
//
// An 8-peer system (two distant origins, six readers on a fast regional
// backbone) runs Zipf-skewed reads — direct doc@origin reads and
// d@any generic resolutions — interleaved with periodic mutations at
// the origins and proactive placement rounds,
// under every (EvictionPolicy × RefreshPolicy) pair. Sharding is on
// with a cap small enough that the larger documents replicate as
// manifest + data shards, so every combination also soaks the
// shard-granular paths. Four properties must hold:
//
//   1. No stale read ever lands: every read returns content equal to
//      the origin's document *at read time*, whichever copy served it.
//   2. At quiescence, catalog and generic-class advertisements exactly
//      mirror cache contents: every resident copy is installed and
//      advertised; every absent copy is neither.
//   3. Subscriptions mirror residency shard-granularly: a holder is
//      subscribed to exactly the keys it has resident — so a mutation
//      can target holders of dirty shards and skip the rest without
//      ever leaking or dropping a subscription.
//   4. The causal tracer (on for the whole soak) links each sampled
//      mutation cascade under one trace id; the buffer round-trips
//      through the Chrome-trace export.
//
// The seed comes from AXML_TEST_SEED (CI runs a 5-seed matrix).

#include <gtest/gtest.h>

#include <fstream>
#include <set>
#include <tuple>
#include <vector>

#include "algebra/evaluator.h"
#include "common/rng.h"
#include "net/catalog.h"
#include "net/fault_injector.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "peer/system.h"
#include "replica/replica_manager.h"
#include "test_util.h"
#include "xml/tree_equal.h"

namespace axml {
namespace {

using testing::TestSeed;

constexpr size_t kOrigins = 2;
constexpr size_t kReaders = 6;
constexpr size_t kDocsPerOrigin = 6;
constexpr size_t kSoakOps = 400;

struct SoakDoc {
  DocName name;
  PeerId origin;
  std::string class_name;
  uint64_t revision = 1;
  size_t filler = 0;
};

TreePtr MakeDoc(const SoakDoc& doc, NodeIdGen* gen) {
  TreePtr root = TreeNode::Element("doc", gen);
  root->AddChild(
      MakeTextElement("id", StrCat(doc.name, "#", doc.revision), gen));
  for (size_t i = 0; i < doc.filler; ++i) {
    root->AddChild(
        MakeTextElement("x", StrCat(doc.name, "-", doc.revision, "-", i),
                        gen));
  }
  return root;
}

/// What the soak's network fabric does underneath the workload.
enum class FaultMode {
  kNone,          ///< perfect fabric, no injector attached
  kIdleInjector,  ///< injector attached with an all-zero config — must be
                  ///< byte-identical to kNone
  kFaults,        ///< lossy links, a partition window, peer churn, plus
                  ///< the repair machinery (leases, retries, sweep)
};

class SoakHarness {
 public:
  SoakHarness(EvictionPolicy eviction, RefreshPolicy refresh,
              uint64_t seed, FaultMode fault_mode = FaultMode::kNone)
      : fault_mode_(fault_mode),
        rng_(seed),
        // The injector's stream is independent of the workload's so a
        // fault schedule never perturbs which ops the workload issues.
        fault_rng_(seed ^ 0xFA17),
        injector_(&fault_rng_),
        // Readers share a fast backbone; origin links cross a slow WAN.
        sys_(Topology::TwoClusters(
            kOrigins + kReaders, kOrigins,
            /*intra=*/LinkParams{0.004, 6.0e6},
            /*inter=*/LinkParams{0.150, 4.0e5})) {
    for (size_t i = 0; i < kOrigins; ++i) {
      origins_.push_back(sys_.AddPeer(StrCat("origin", i)));
    }
    for (size_t i = 0; i < kReaders; ++i) {
      readers_.push_back(sys_.AddPeer(StrCat("reader", i)));
    }
    sys_.replicas().set_refresh_policy(refresh);
    sys_.replicas().set_default_eviction_policy(eviction);
    // Tight enough that hot-tail churn forces evictions.
    sys_.replicas().set_default_byte_budget(5000);
    // Small enough that the larger docs shard (the smaller ones keep
    // the whole-document path, so both coexist in every cache).
    ShardingConfig shard_cfg;
    shard_cfg.max_shard_bytes = 300;
    sys_.replicas().set_sharding_config(shard_cfg);
    sys_.replicas().set_sharding_enabled(true);
    PlacementConfig placement;
    placement.enabled = true;
    placement.min_picks = 3;
    placement.max_targets_per_class = 1;
    placement.max_shipments_per_round = 8;
    sys_.replicas().placement().set_config(placement);
    // Property 4 rides along: spans record for the whole soak (the ring
    // wraps; the most recent cascades stay resident).
    sys_.tracer().set_enabled(true);
    if (fault_mode_ == FaultMode::kIdleInjector) {
      // Attached but all-zero: the byte-identical contract under test.
      sys_.network().set_fault_injector(&injector_);
    } else if (fault_mode_ == FaultMode::kFaults) {
      FaultConfig cfg;
      cfg.loss_prob = 0.2;
      cfg.spike_prob = 0.1;
      cfg.spike_delay_s = 0.05;
      cfg.reorder_prob = 0.1;
      cfg.reorder_delay_s = 0.02;
      injector_.set_config(cfg);
      // One partition window islanding two readers mid-soak.
      PartitionWindow w;
      w.start_s = 5.0;
      w.end_s = 12.0;
      w.island = {readers_[0], readers_[1]};
      injector_.AddPartition(w);
      sys_.network().set_fault_injector(&injector_);
      // The repair machinery the faults are aimed at: leased
      // subscriptions, bounded shipment retries, periodic anti-entropy.
      sys_.replicas().ConfigureLeases(/*renew_interval_s=*/0.5,
                                      /*ttl_s=*/2.0);
      sys_.replicas().set_shipment_retry(/*max_attempts=*/3,
                                         /*backoff_base_s=*/0.25);
      sys_.replicas().set_anti_entropy_interval(2.0);
    }

    for (size_t o = 0; o < kOrigins; ++o) {
      for (size_t d = 0; d < kDocsPerOrigin; ++d) {
        SoakDoc doc;
        doc.name = StrCat(o == 0 ? "a" : "b", d);
        doc.origin = origins_[o];
        doc.class_name = StrCat("cls_", doc.name);
        doc.filler = 4 + (o * kDocsPerOrigin + d) * 5;
        EXPECT_TRUE(sys_.InstallDocument(
                            doc.origin, doc.name,
                            MakeDoc(doc, sys_.peer(doc.origin)->gen()))
                        .ok());
        sys_.generics().AddDocumentMember(
            doc.class_name, ClassMember{doc.name, doc.origin});
        docs_.push_back(doc);
      }
    }
  }

  void Run() {
    EvalOptions opts;
    opts.use_replica_cache = true;
    opts.pick_policy = PickPolicy::kCacheAware;
    Evaluator ev(&sys_, opts);
    ZipfSampler zipf(docs_.size(), 1.0);
    for (size_t i = 0; i < kSoakOps; ++i) {
      if (fault_mode_ == FaultMode::kFaults) {
        // Churn: one durable-cache crash and one cache-losing crash,
        // each rejoining later in the soak.
        if (i == kSoakOps / 3) {
          sys_.CrashPeer(readers_[2], CrashMode::kDurableCache);
        }
        if (i == kSoakOps / 2) {
          sys_.CrashPeer(readers_[3], CrashMode::kLoseCache);
        }
        if (i == 2 * kSoakOps / 3) sys_.RejoinPeer(readers_[2]);
        if (i == 3 * kSoakOps / 4) sys_.RejoinPeer(readers_[3]);
      }
      SoakDoc& doc = docs_[zipf.Sample(&rng_)];
      PeerId reader = readers_[rng_.Index(readers_.size())];
      // A crashed peer issues nothing; re-draw the issuer.
      while (!sys_.IsPeerUp(reader)) {
        reader = readers_[rng_.Index(readers_.size())];
      }
      // 70% direct doc@origin reads, 30% d@any resolutions.
      ExprPtr read = rng_.Bernoulli(0.7)
                         ? Expr::Doc(doc.name, doc.origin)
                         : Expr::GenericDoc(doc.class_name);
      auto out = ev.Eval(reader, read);
      ASSERT_TRUE(out.ok()) << out.status().ToString();
      ASSERT_EQ(out->results.size(), 1u);
      // Property 1 — no stale read: whatever copy served this, its
      // content equals the origin's document right now.
      TreePtr truth = sys_.peer(doc.origin)->GetDocument(doc.name);
      ASSERT_NE(truth, nullptr);
      EXPECT_EQ(CanonicalForm(*out->results[0]), CanonicalForm(*truth))
          << "stale read of " << doc.name << " at op " << i;
      if (::testing::Test::HasFailure()) return;

      if (i % 7 == 6) {
        // Mutation at the origin: bump the revision; push policies
        // retract or refresh copies before this returns.
        SoakDoc& victim = docs_[zipf.Sample(&rng_)];
        ++victim.revision;
        Peer* host = sys_.peer(victim.origin);
        host->PutDocument(victim.name, MakeDoc(victim, host->gen()));
        sys_.RunToQuiescence();
      }
      if (i % 30 == 29) {
        sys_.replicas().RunPlacement();
        sys_.RunToQuiescence();
      }
    }
    sys_.RunToQuiescence();
    if (fault_mode_ == FaultMode::kFaults) {
      // The reconciliation window: faults stop, everyone rejoins, one
      // final sweep repairs whatever the schedule left behind. After it
      // the perfect-fabric invariants must hold again, exactly.
      EXPECT_GT(injector_.stats().dropped +
                    injector_.stats().partition_dropped,
                0u)
          << "the fault schedule never actually dropped anything";
      EXPECT_GT(sys_.network().stats().dropped_messages(), 0u);
      sys_.network().set_fault_injector(nullptr);
      for (PeerId reader : readers_) {
        if (!sys_.IsPeerUp(reader)) sys_.RejoinPeer(reader);
      }
      sys_.RunToQuiescence();
      sys_.replicas().RunAntiEntropySweep();
      sys_.RunToQuiescence();
      sys_.replicas().ConfigureLeases(0, 0);
      sys_.replicas().set_anti_entropy_interval(0);
    }
    CheckQuiescentMirror();
    // Under a fault schedule the span ring is dominated by drop/repair
    // spans and a sampled cascade's tail may be missing a hop; the
    // causal-chain assertions belong to the perfect fabric.
    if (fault_mode_ != FaultMode::kFaults) CheckTraceCascades();
  }

  /// Everything observable about the finished run, for the
  /// byte-identical comparison: final virtual time, the full metric
  /// snapshot, and the Σ fingerprint.
  std::string RunDigest() {
    return StrCat("t=", sys_.loop().now(), "\n", sys_.DumpMetrics(), "\n",
                  sys_.StateFingerprint());
  }

 private:
  /// Property 2: advertisements exactly mirror cache contents. Only the
  /// *installed* copy of a name carries advertisements; a cache-only
  /// copy (its local slot taken — e.g. a copy-of-a-copy chain left a
  /// different origin's copy installed under kLazy) serves reads but is
  /// never advertised.
  void CheckQuiescentMirror() {
    const RefreshPolicy refresh = sys_.replicas().refresh_policy();
    const SubscriptionTable& subs = sys_.replicas().subscriptions();
    for (PeerId reader : readers_) {
      const TransferCache* cache = sys_.replicas().FindCache(reader);
      std::set<std::pair<PeerId, DocName>> resident;  // (origin, name)
      std::set<ReplicaKey> resident_keys;
      if (cache != nullptr) {
        EXPECT_EQ(cache->IntegrityError(), "");
        for (const ReplicaKey& key : cache->Keys()) {
          resident.insert({key.origin, key.name});
          resident_keys.insert(key);
          // Property 3, forward direction: whatever is resident is
          // subscribed under its exact key.
          EXPECT_TRUE(subs.IsSubscribed(key, reader))
              << key.ToString() << " resident at " << reader.ToString()
              << " but not subscribed";
          if (refresh != RefreshPolicy::kLazy && !key.is_shard_data()) {
            // Push policies leave no stale *dirty* entry behind at
            // quiescence: whole-document entries are always pushed;
            // data shards are immutable (version 0 by design); a
            // manifest may outlive the version it was cut at only on a
            // clean partial holder — never installed, so nothing
            // advertised can serve it, and its version check drops it
            // on the next lookup.
            const TransferCache::Entry* e = cache->Peek(key);
            ASSERT_NE(e, nullptr);
            if (key.is_doc() ||
                sys_.replicas().InstalledOrigin(reader, key.name) ==
                    key.origin) {
              EXPECT_EQ(e->origin_version,
                        sys_.replicas().Version(key.origin, key.name))
                  << key.ToString() << " resident but stale under push";
            }
          }
        }
      }
      // Property 3, reverse direction: every subscription of this
      // reader names a resident entry — shard-granular fan-out never
      // leaks a subscription past its entry's departure.
      for (const SoakDoc& doc : docs_) {
        for (const ReplicaKey& key : subs.KeysForDoc(doc.origin, doc.name)) {
          if (subs.IsSubscribed(key, reader)) {
            EXPECT_TRUE(resident_keys.count(key) > 0)
                << key.ToString() << " subscribed by " << reader.ToString()
                << " without a resident entry";
          }
        }
      }
      for (const SoakDoc& doc : docs_) {
        const PeerId installed_origin =
            sys_.replicas().InstalledOrigin(reader, doc.name);
        if (installed_origin.valid()) {
          // Installed => backed by a resident cache entry for that very
          // origin, advertised in the catalog, and a class member.
          EXPECT_TRUE(resident.count({installed_origin, doc.name}) > 0)
              << doc.name << " installed at " << reader.ToString()
              << " without a resident backing entry";
          EXPECT_TRUE(sys_.catalog()->IsAdvertised(
              ResourceKind::kDocument, doc.name, reader))
              << doc.name << " installed at " << reader.ToString()
              << " but not in the catalog";
          EXPECT_TRUE(InClass(doc.name, reader))
              << doc.name << " installed at " << reader.ToString()
              << " but not a class member";
        } else {
          // Not installed => no advertisement of any kind survives.
          EXPECT_FALSE(sys_.catalog()->IsAdvertised(
              ResourceKind::kDocument, doc.name, reader))
              << doc.name << " advertised by " << reader.ToString()
              << " without an installed copy";
          EXPECT_FALSE(InClass(doc.name, reader))
              << doc.name << " still a class member at "
              << reader.ToString() << " without an installed copy";
        }
      }
    }
    // Origins stay advertised and in their classes throughout.
    for (const SoakDoc& doc : docs_) {
      EXPECT_TRUE(sys_.catalog()->IsAdvertised(ResourceKind::kDocument,
                                               doc.name, doc.origin));
      EXPECT_TRUE(InClass(doc.name, doc.origin));
    }
  }

  /// Property 4: every mutation span recorded at an origin anchors a
  /// causal chain that reaches its notifies (and, under eager refresh,
  /// the shipment and the re-install) under the same trace id; the
  /// buffer exports as Chrome-trace JSON.
  void CheckTraceCascades() {
    const std::vector<TraceSpan> events = sys_.tracer().Events();
    ASSERT_FALSE(events.empty());

    std::set<PeerId> origin_set(origins_.begin(), origins_.end());
    size_t cascades = 0, eager_complete = 0;
    for (const TraceSpan& root : events) {
      if (root.category != "replica" || root.name != "mutation" ||
          origin_set.count(root.peer) == 0) {
        continue;
      }
      EXPECT_NE(root.trace, 0u) << root.ToString();
      bool notify = false, shipment = false, install = false;
      for (const TraceSpan& s : events) {
        if (s.trace != root.trace || s.seq <= root.seq) continue;
        if (s.category != "replica") continue;
        if (s.name == "notify") notify = true;
        if (s.name == "shipment") shipment = true;
        if (s.name == "install") install = true;
      }
      // A mutation with live holders must notify them in-chain. (The
      // last cascades in the ring always have their tails resident —
      // spans append in causal order, so a truncated chain can only
      // lose its *head*, never break this implication.)
      if (notify) ++cascades;
      if (notify && shipment && install) ++eager_complete;
    }
    if (sys_.replicas().refresh_policy() != RefreshPolicy::kLazy) {
      // Lazy never pushes, so only the push policies fan out in-chain.
      EXPECT_GT(cascades, 0u) << "no mutation cascade left in the ring";
    }
    if (sys_.replicas().refresh_policy() == RefreshPolicy::kEagerRefresh) {
      EXPECT_GT(eager_complete, 0u)
          << "eager refresh never linked mutation->notify->shipment->"
             "install under one trace id";
    }

    // The export round-trips: non-trivial JSON lands on disk.
    const std::string path =
        StrCat(::testing::TempDir(), "soak_trace_",
               EvictionPolicyName(sys_.replicas().default_eviction_policy()),
               "_", static_cast<int>(sys_.replicas().refresh_policy()),
               ".json");
    {
      std::ofstream out(path);
      ASSERT_TRUE(out.good()) << path;
      out << sys_.tracer().ToChromeJson();
    }
    std::ifstream in(path);
    std::string json((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("\"replica\""), std::string::npos);
    EXPECT_GT(json.size(), 1000u) << path;
  }

  bool InClass(const DocName& name, PeerId peer) {
    for (const SoakDoc& doc : docs_) {
      if (doc.name != name) continue;
      const std::vector<ClassMember>* members =
          sys_.generics().DocumentMembers(doc.class_name);
      if (members == nullptr) return false;
      for (const ClassMember& m : *members) {
        if (m.peer == peer && m.name == name) return true;
      }
      return false;
    }
    return false;
  }

  FaultMode fault_mode_;
  Rng rng_;
  Rng fault_rng_;
  FaultInjector injector_;
  AxmlSystem sys_;
  std::vector<PeerId> origins_;
  std::vector<PeerId> readers_;
  std::vector<SoakDoc> docs_;
};

using PolicyPair = std::tuple<EvictionPolicy, RefreshPolicy>;

class ReplicaSoakTest : public ::testing::TestWithParam<PolicyPair> {};

TEST_P(ReplicaSoakTest, NoStaleReadsAndAdvertisementsMirrorCaches) {
  const auto [eviction, refresh] = GetParam();
  SoakHarness harness(eviction, refresh, TestSeed(0x50AC));
  harness.Run();
}

INSTANTIATE_TEST_SUITE_P(
    PolicyGrid, ReplicaSoakTest,
    ::testing::Combine(::testing::Values(EvictionPolicy::kLru,
                                         EvictionPolicy::kLfu,
                                         EvictionPolicy::kCostAware),
                       ::testing::Values(RefreshPolicy::kLazy,
                                         RefreshPolicy::kDrop,
                                         RefreshPolicy::kEagerRefresh)),
    [](const ::testing::TestParamInfo<PolicyPair>& param_info) {
      return StrCat(EvictionPolicyName(std::get<0>(param_info.param)), "_",
                    RefreshPolicyName(std::get<1>(param_info.param)));
    });

// The full soak under an adversarial fault schedule: 20% loss, delay
// spikes, reordering, a partition window islanding two readers, two
// crashes (one durable, one cache-losing) with later rejoins, leases,
// bounded shipment retry, and a periodic anti-entropy sweep.  The
// per-op stale assert stays ON throughout: the coherence contract must
// survive churn, and after the reconciliation finale every mirror
// invariant must hold exactly as on the perfect fabric.
class ReplicaSoakFaultTest : public ::testing::TestWithParam<PolicyPair> {};

TEST_P(ReplicaSoakFaultTest, NoStaleReadSurvivesTheFaultSchedule) {
  const auto [eviction, refresh] = GetParam();
  SoakHarness harness(eviction, refresh, TestSeed(0xFA17),
                      FaultMode::kFaults);
  harness.Run();
}

INSTANTIATE_TEST_SUITE_P(
    FaultGrid, ReplicaSoakFaultTest,
    ::testing::Combine(::testing::Values(EvictionPolicy::kLru,
                                         EvictionPolicy::kLfu,
                                         EvictionPolicy::kCostAware),
                       ::testing::Values(RefreshPolicy::kLazy,
                                         RefreshPolicy::kDrop,
                                         RefreshPolicy::kEagerRefresh)),
    [](const ::testing::TestParamInfo<PolicyPair>& param_info) {
      return StrCat(EvictionPolicyName(std::get<0>(param_info.param)), "_",
                    RefreshPolicyName(std::get<1>(param_info.param)));
    });

// An attached-but-idle injector must not perturb the simulation: same
// seed, same ops, and the final virtual time, every exported metric,
// and every peer's state fingerprint are byte-identical to a run with
// no injector at all.
TEST(ReplicaSoakFaultOffTest, IdleInjectorIsByteIdenticalToNoInjector) {
  SoakHarness plain(EvictionPolicy::kLru, RefreshPolicy::kDrop,
                    TestSeed(0x1DE0), FaultMode::kNone);
  SoakHarness idle(EvictionPolicy::kLru, RefreshPolicy::kDrop,
                   TestSeed(0x1DE0), FaultMode::kIdleInjector);
  plain.Run();
  idle.Run();
  EXPECT_EQ(plain.RunDigest(), idle.RunDigest());
}

}  // namespace
}  // namespace axml
