// The callback reentrancy contracts, exercised from both sides: the
// legal patterns must run clean, and every contract violation must
// abort (death tests) — proof the ReentrancyGuard and per-key
// mutation-cycle machinery is load-bearing, not decorative.
// docs/architecture.md ("Threading & determinism contract") is the
// canonical statement of what is enforced here.

#include <gtest/gtest.h>

#include <string>

#include "common/logging.h"
#include "common/reentrancy_guard.h"
#include "peer/system.h"
#include "replica/transfer_cache.h"
#include "test_util.h"
#include "xml/digest.h"
#include "xml/label_interner.h"
#include "xml/wire.h"

namespace axml {
namespace {

// --- ReentrancyGuard ---

TEST(ReentrancyGuardTest, SequentialScopesAreFine) {
  ReentrancyGuard guard;
  for (int i = 0; i < 3; ++i) {
    AXML_REENTRANCY_GUARD(guard, "ReentrancyGuardTest::sequential");
  }
}

TEST(ReentrancyGuardDeathTest, NestedReentrancyAborts) {
  EXPECT_DEATH(
      {
        ReentrancyGuard guard;
        ScopedReentrancyCheck outer(guard, "outer region");
        ScopedReentrancyCheck inner(guard, "inner region");
      },
      "reentrancy: inner region entered while outer region");
}

// --- TransferCache: evict-listener reentrancy ---

TEST(TransferCacheDeathTest, EvictListenerCallingBackAborts) {
  EXPECT_DEATH(
      {
        NodeIdGen gen;
        TreePtr first = MakeTextElement("r", std::string(60, 'a'), &gen);
        TreePtr second = MakeTextElement("r", std::string(60, 'b'), &gen);
        // A budget that admits either tree alone but not both, so the
        // second Put must evict the first.
        TransferCache cache(wire::EncodedTreeSize(*first) +
                            wire::EncodedTreeSize(*second) - 1);
        cache.set_evict_listener(
            [&cache](const ReplicaKey& key, const TransferCache::Entry&) {
              // The contract forbids exactly this: the listener fires
              // while the entry map is mid-mutation.
              cache.Erase(key);
            });
        cache.Put(ReplicaKey{PeerId(0), "a"},
                  wire::EncodeTree(*first), DigestOf(*first), 1);
        // Over budget: evicts "a", firing the listener inside Put.
        cache.Put(ReplicaKey{PeerId(0), "b"},
                  wire::EncodeTree(*second), DigestOf(*second), 1);
      },
      "reentrancy: TransferCache::Erase entered while TransferCache::Put");
}

TEST(TransferCacheContractTest, EvictListenerMayReadTheCache) {
  // The legal side of the same contract: const readers stay open to the
  // listener (the ReplicaManager's retraction path peeks at siblings).
  NodeIdGen gen;
  TreePtr first = MakeTextElement("r", std::string(60, 'a'), &gen);
  TreePtr second = MakeTextElement("r", std::string(60, 'b'), &gen);
  TransferCache cache(wire::EncodedTreeSize(*first) +
                      wire::EncodedTreeSize(*second) - 1);
  size_t keys_seen_during_evict = 0;
  cache.set_evict_listener(
      [&cache, &keys_seen_during_evict](const ReplicaKey&,
                                        const TransferCache::Entry&) {
        keys_seen_during_evict = cache.Keys().size();
      });
  cache.Put(ReplicaKey{PeerId(0), "a"},
            wire::EncodeTree(*first), DigestOf(*first), 1);
  cache.Put(ReplicaKey{PeerId(0), "b"},
            wire::EncodeTree(*second), DigestOf(*second), 1);
  // The listener fires before the victim is unlinked, so it sees both
  // "a" (mid-drop) and the incoming "b".
  EXPECT_EQ(keys_seen_during_evict, 2u);
  EXPECT_EQ(cache.IntegrityError(), "");
  EXPECT_EQ(cache.Keys().size(), 1u);  // only "b" survived
}

// --- ReplicaManager: same-key mutation cycles ---

TEST(ReplicaManagerContractTest, DistinctKeyMutationsLegallyNest) {
  // The nesting the per-key guard must NOT flag: push-drop removes the
  // holder's installed copy, RemoveDocument fires the holder's mutation
  // listener, and the system listener re-enters NoteMutation for the
  // *holder's* key while the origin's fan-out is still on the stack.
  AxmlSystem sys;
  PeerId owner = sys.AddPeer("owner");
  PeerId reader = sys.AddPeer("reader");
  NodeIdGen gen;
  TreePtr t = MakeTextElement("r", "x", &gen);
  ASSERT_TRUE(sys.InstallDocument(owner, "d", t->CloneSameIds()).ok());
  ASSERT_TRUE(sys.replicas().InsertCopy(reader, owner, "d",
                                        t->Clone(sys.peer(reader)->gen()),
                                        sys.replicas().Version(owner, "d"),
                                        wire::EncodeTree(*t)));
  ASSERT_TRUE(sys.replicas().HasFresh(reader, owner, "d"));
  sys.replicas().NoteMutation(owner, "d");  // nests; must not abort
  EXPECT_FALSE(sys.replicas().HasFresh(reader, owner, "d"));
}

TEST(ReplicaManagerDeathTest, SameKeyMutationCycleAborts) {
  EXPECT_DEATH(
      {
        AxmlSystem sys;
        PeerId owner = sys.AddPeer("owner");
        PeerId reader = sys.AddPeer("reader");
        NodeIdGen gen;
        TreePtr t = MakeTextElement("r", "x", &gen);
        ASSERT_TRUE(sys.InstallDocument(owner, "d", t->CloneSameIds()).ok());
        ASSERT_TRUE(
            sys.replicas().InsertCopy(reader, owner, "d",
                                      t->Clone(sys.peer(reader)->gen()),
                                      sys.replicas().Version(owner, "d"),
                                      wire::EncodeTree(*t)));
        // A buggy listener: when the push-drop removes reader's copy,
        // re-enter NoteMutation for the key whose fan-out is running.
        sys.peer(reader)->add_mutation_listener(
            [&sys, owner](const DocName&) {
              sys.replicas().NoteMutation(owner, "d");
            });
        sys.replicas().NoteMutation(owner, "d");
      },
      "same-key mutation cycle");
}

TEST(ReplicaManagerContractTest, CrashRejoinChurnNestsLegally) {
  // Churn drives the same nesting the guards must keep legal: the
  // crash-time retraction removes the holder's installed copy, firing
  // the holder's mutation listener inside OnPeerCrash; rejoin-time
  // reconciliation re-installs and re-advertises inside OnPeerRejoin;
  // and a notification committed to the wire before the crash lands
  // after the rejoin, at a holder whose state has moved on — a
  // tolerated no-op, never an abort.
  AxmlSystem sys;
  PeerId owner = sys.AddPeer("owner");
  PeerId reader = sys.AddPeer("reader");
  NodeIdGen gen;
  TreePtr t = MakeTextElement("r", "x", &gen);
  ASSERT_TRUE(sys.InstallDocument(owner, "d", t->CloneSameIds()).ok());
  ASSERT_TRUE(sys.replicas().InsertCopy(reader, owner, "d",
                                        t->Clone(sys.peer(reader)->gen()),
                                        sys.replicas().Version(owner, "d"),
                                        wire::EncodeTree(*t)));
  // The notify is committed to the wire here; the synchronous push-drop
  // already removed reader's copy.
  sys.peer(owner)->PutDocument("d",
                               MakeTextElement("r", "y", sys.peer(owner)->gen()));
  sys.CrashPeer(reader, CrashMode::kDurableCache);
  sys.RejoinPeer(reader);
  sys.RunToQuiescence();  // the late notify lands post-rejoin: no-op

  // Round two: the holder crashes with a copy resident, the origin
  // moves on while it is down (the fan-out skips it), and the rejoin
  // reconciliation must drop the stale survivor before it can serve.
  TreePtr current = sys.peer(owner)->GetDocument("d");
  ASSERT_TRUE(sys.replicas().InsertCopy(
      reader, owner, "d", current->Clone(sys.peer(reader)->gen()),
      sys.replicas().Version(owner, "d"), wire::EncodeTree(*current)));
  sys.CrashPeer(reader, CrashMode::kDurableCache);
  sys.peer(owner)->PutDocument("d",
                               MakeTextElement("r", "z", sys.peer(owner)->gen()));
  sys.RunToQuiescence();
  EXPECT_GT(sys.replicas().subscription_stats().down_skips, 0u);
  sys.RejoinPeer(reader);
  sys.RunToQuiescence();
  EXPECT_FALSE(sys.replicas().HasFresh(reader, owner, "d"));
  EXPECT_GT(sys.replicas().subscription_stats().sweep_repairs, 0u);
}

// --- LabelInterner: references into the process-wide dictionary ---

TEST(LabelInternerConcurrencyTest, TextReferencesSurviveConcurrentGrowth) {
  // A LabelText reference held while the interner grows underneath it
  // (the same thread interning hundreds of labels) stays valid.
  const std::string& anchor = LabelText(InternLabel("growth_anchor"));
  const std::string* before = &anchor;
  for (int i = 0; i < 512; ++i) {
    InternLabel("growth_filler_" + std::to_string(i));
  }
  EXPECT_EQ(&LabelText(InternLabel("growth_anchor")), before);
  EXPECT_EQ(anchor, "growth_anchor");  // deque storage: no reallocation
}

// --- Process-wide mutable state: documented reset hooks ---

TEST(ProcessWideStateTest, InternerResetReseedsWellKnownIds) {
  const LabelId custom = InternLabel("reset_me");
  LabelInterner::Global().ResetForTesting();
  // The deterministic seed ids survive a reset bit-for-bit...
  const WellKnownLabels& wk = WellKnownLabels::Get();
  EXPECT_EQ(InternLabel(""), LabelId{0});
  EXPECT_EQ(InternLabel("sc"), wk.sc);
  EXPECT_EQ(InternLabel("peer"), wk.peer);
  // ...and the custom label re-interns past the reserved seed range.
  const LabelId again = InternLabel("reset_me");
  EXPECT_GE(again, LabelId{6});
  EXPECT_LE(again, custom);  // reset discarded the old dictionary
  EXPECT_EQ(LabelText(again), "reset_me");
}

TEST(ProcessWideStateTest, LogLevelResetRestoresTheEnvDefault) {
  const LogLevel before = GetLogLevel();
  SetLogLevel(LogLevel::kDebug);
  ASSERT_EQ(GetLogLevel(), LogLevel::kDebug);
  ResetLogLevelForTesting();  // re-parses AXML_LOG_LEVEL (or default)
  EXPECT_EQ(GetLogLevel(), before);
}

}  // namespace
}  // namespace axml
