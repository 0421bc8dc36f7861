// The machine-checked concurrency contracts, exercised from both sides:
// the legal patterns must run clean, and every contract violation must
// abort (death tests) — proof the SequenceChecker / ReentrancyGuard /
// per-key mutation-cycle machinery is load-bearing, not decorative.
// docs/architecture.md ("Threading & determinism contract") is the
// canonical statement of what is enforced here.

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "common/logging.h"
#include "common/mutex.h"
#include "common/reentrancy_guard.h"
#include "common/sequence_checker.h"
#include "peer/system.h"
#include "replica/transfer_cache.h"
#include "test_util.h"
#include "xml/digest.h"
#include "xml/label_interner.h"
#include "xml/wire.h"

namespace axml {
namespace {

// Death tests below spawn threads; the default "fast" style forks from
// a potentially multi-threaded process, which gtest warns about.
class ThreadedDeathTest : public ::testing::Test {
 protected:
  ThreadedDeathTest() {
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  }
};

using SequenceCheckerDeathTest = ThreadedDeathTest;
using TransferCacheDeathTest = ThreadedDeathTest;
using ReplicaManagerDeathTest = ThreadedDeathTest;

// --- SequenceChecker ---

TEST(SequenceCheckerTest, BindsOnFirstUseAndAcceptsItsOwnThread) {
  SequenceChecker checker;
  checker.Check();
  checker.Check();  // same thread: fine, forever
}

TEST(SequenceCheckerTest, DetachAllowsDeliberateHandOff) {
  SequenceChecker checker;
  checker.Check();  // bind to the main thread
  checker.DetachFromSequence();
  std::thread other([&checker] {
    checker.Check();  // re-binds to the new owner
    checker.Check();
  });
  other.join();
}

TEST_F(SequenceCheckerDeathTest, CrossThreadUseAborts) {
  EXPECT_DEATH(
      {
        SequenceChecker checker;
        checker.Check();  // bound to this (child-process main) thread
        std::thread trespasser([&checker] { checker.Check(); });
        trespasser.join();
      },
      "sequence affinity violated");
}

// --- ReentrancyGuard ---

TEST(ReentrancyGuardTest, SequentialScopesAreFine) {
  ReentrancyGuard guard;
  for (int i = 0; i < 3; ++i) {
    AXML_REENTRANCY_GUARD(guard, "ReentrancyGuardTest::sequential");
  }
}

TEST_F(ThreadedDeathTest, NestedReentrancyAborts) {
  EXPECT_DEATH(
      {
        ReentrancyGuard guard;
        ScopedReentrancyCheck outer(guard, "outer region");
        ScopedReentrancyCheck inner(guard, "inner region");
      },
      "reentrancy: inner region entered while outer region");
}

// --- TransferCache: sequence affinity + evict-listener reentrancy ---

TEST_F(TransferCacheDeathTest, CrossThreadUseAborts) {
  EXPECT_DEATH(
      {
        TransferCache cache;
        NodeIdGen gen;
        TreePtr t = MakeTextElement("r", "x", &gen);
        cache.Put(ReplicaKey{PeerId(0), "d"},
                  wire::EncodeTree(*t), DigestOf(*t), 1);
        std::thread trespasser(
            [&cache] { cache.Get(ReplicaKey{PeerId(0), "d"}, 1); });
        trespasser.join();
      },
      "sequence affinity violated");
}

TEST_F(TransferCacheDeathTest, EvictListenerCallingBackAborts) {
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

TEST_F(ReplicaManagerDeathTest, SameKeyMutationCycleAborts) {
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

// --- LabelInterner: genuinely shared process-wide state ---

TEST(LabelInternerConcurrencyTest, ConcurrentInterningIsConsistent) {
  constexpr int kThreads = 4;
  constexpr int kLabels = 64;
  std::vector<std::vector<LabelId>> ids(kThreads,
                                        std::vector<LabelId>(kLabels));
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int w = 0; w < kThreads; ++w) {
    workers.emplace_back([w, &ids] {
      for (int i = 0; i < kLabels; ++i) {
        ids[w][i] = InternLabel("concurrent_label_" + std::to_string(i));
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  for (int w = 1; w < kThreads; ++w) {
    EXPECT_EQ(ids[w], ids[0]);  // same text -> same id, every thread
  }
  for (int i = 0; i < kLabels; ++i) {
    EXPECT_EQ(LabelText(ids[0][i]), "concurrent_label_" + std::to_string(i));
  }
}

TEST(LabelInternerConcurrencyTest, TextReferencesSurviveConcurrentGrowth) {
  const std::string& anchor = LabelText(InternLabel("growth_anchor"));
  std::thread grower([] {
    for (int i = 0; i < 512; ++i) {
      InternLabel("growth_filler_" + std::to_string(i));
    }
  });
  grower.join();
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

// --- Mutex smoke: the annotated lock actually excludes ---

TEST(MutexTest, ExcludesConcurrentIncrements) {
  Mutex mu;
  int counter = 0;
  constexpr int kThreads = 4;
  constexpr int kIncrements = 10000;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int w = 0; w < kThreads; ++w) {
    workers.emplace_back([&mu, &counter] {
      for (int i = 0; i < kIncrements; ++i) {
        MutexLock lock(mu);
        ++counter;
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  EXPECT_EQ(counter, kThreads * kIncrements);
}

}  // namespace
}  // namespace axml
