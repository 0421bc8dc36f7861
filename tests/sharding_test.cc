// Tests for document sharding (xml/sharding.h) and sharded replication
// (the shard-granular paths of src/replica/ and the evaluator).
//
// The splitter's contract is a *round trip*: split → reassemble is
// unordered-equal to the original, across seeded-random trees (the
// AXML_TEST_SEED pattern of tests/test_util.h), with stable
// content-derived shard ids — a same-size mutation of one subtree
// dirties exactly one shard. The system-level tests then check what the
// ids buy: a mutation re-ships a small delta instead of the document,
// and a byte budget smaller than the document still produces cache hits
// through partial copies.

#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "algebra/evaluator.h"
#include "common/rng.h"
#include "net/catalog.h"
#include "opt/cost_model.h"
#include "replica/replica_manager.h"
#include "replica/shard_delta.h"
#include "replica/transfer_cache.h"
#include "test_util.h"
#include "xml/sharding.h"
#include "xml/tree_equal.h"
#include "xml/wire.h"
#include "xml/xml_serializer.h"

namespace axml {
namespace {

using testing::MakeCatalog;
using testing::MakeRandomTree;
using testing::ResultsEqual;
using testing::TestSeed;

/// The tree a shard or manifest blob encodes (a fresh decode per call).
TreePtr Decode(const std::string& blob) {
  static NodeIdGen gen;
  Result<TreePtr> tree = wire::DecodeTree(blob, &gen);
  EXPECT_TRUE(tree.ok());
  return tree.ok() ? std::move(tree).value() : TreeNode::Text("");
}

/// Reassembles a ShardedDocument from its own shards (the in-memory
/// identity lookup every round-trip test uses).
TreePtr Reassemble(const ShardedDocument& sd, NodeIdGen* gen) {
  return AssembleDocument(
      *Decode(sd.manifest),
      [&sd](const std::string& id) -> TreePtr {
        for (const DocumentShard& s : sd.shards) {
          if (s.id.ToString() == id) return Decode(s.encoded);
        }
        return nullptr;
      },
      gen);
}

// --- Splitter unit tests ---

TEST(ShardingTest, ShouldShardGates) {
  NodeIdGen gen;
  Rng rng(7);
  ShardingConfig cfg;
  cfg.max_shard_bytes = 512;
  // Too small: ships whole.
  EXPECT_FALSE(ShouldShard(*MakeCatalog(2, &gen, &rng), cfg));
  // Big enough and >= 2 children: shards.
  EXPECT_TRUE(ShouldShard(*MakeCatalog(32, &gen, &rng), cfg));
  // A single huge child cannot be split at the top level.
  TreePtr lone = TreeNode::Element("r", &gen);
  lone->AddChild(MakeTextElement("x", std::string(4096, 'a'), &gen));
  EXPECT_FALSE(ShouldShard(*lone, cfg));
  // Text roots never shard.
  EXPECT_FALSE(ShouldShard(*TreeNode::Text("just text"), cfg));
}

TEST(ShardingTest, SplitRoundTripsCatalog) {
  NodeIdGen gen;
  Rng rng(TestSeed(41));
  TreePtr doc = MakeCatalog(120, &gen, &rng);
  ShardingConfig cfg;
  cfg.max_shard_bytes = 2048;
  ASSERT_TRUE(ShouldShard(*doc, cfg));

  ShardedDocument sd = SplitDocument(*doc, cfg);
  EXPECT_TRUE(IsShardManifest(*Decode(sd.manifest)));
  EXPECT_GT(sd.shards.size(), 4u);
  EXPECT_EQ(ManifestShardIds(*Decode(sd.manifest)).size(), sd.shards.size());

  TreePtr back = Reassemble(sd, &gen);
  ASSERT_NE(back, nullptr);
  EXPECT_TRUE(TreesEqualUnordered(*doc, *back));
  // The original was never aliased: the assembly is decoded from bytes.
  EXPECT_EQ(doc->SerializedSize(), back->SerializedSize());
}

TEST(ShardingTest, SplitRoundTripsSeededRandomTrees) {
  Rng rng(TestSeed(0x5EED));
  for (int i = 0; i < 25; ++i) {
    NodeIdGen gen;
    const size_t nodes = 20 + rng.Index(400);
    TreePtr doc = MakeRandomTree(nodes, &gen, &rng);
    ShardingConfig cfg;
    cfg.max_shard_bytes = 64 + rng.Uniform(512);
    if (!ShouldShard(*doc, cfg)) continue;
    ShardedDocument sd = SplitDocument(*doc, cfg);
    TreePtr back = Reassemble(sd, &gen);
    ASSERT_NE(back, nullptr) << "iteration " << i;
    EXPECT_TRUE(TreesEqualUnordered(*doc, *back))
        << "round trip broke at iteration " << i
        << "; rerun with AXML_TEST_SEED pinned";
  }
}

TEST(ShardingTest, ShardSizesRespectTheCap) {
  NodeIdGen gen;
  Rng rng(TestSeed(43));
  TreePtr doc = MakeCatalog(200, &gen, &rng);
  ShardingConfig cfg;
  cfg.max_shard_bytes = 4096;
  ShardedDocument sd = SplitDocument(*doc, cfg);
  uint64_t largest_child = 0;
  for (const TreePtr& c : doc->children()) {
    largest_child = std::max(largest_child, c->SerializedSize());
  }
  for (const DocumentShard& s : sd.shards) {
    // Grouping clamps are enforced on the XML serialization (so shard
    // boundaries are stable), and a shard holds whole subtrees: the
    // wrapper can exceed the cap only when a single child does.
    TreePtr content = Decode(s.encoded);
    EXPECT_LE(content->SerializedSize(),
              std::max(cfg.max_shard_bytes, largest_child) +
                  uint64_t{32} /* wrapper tags */);
    // The stored bytes are the shard tree's canonical encoding, and the
    // shard is named by that tree's digest.
    EXPECT_EQ(s.encoded, wire::EncodeTree(*content));
    EXPECT_EQ(s.id, DigestOf(*content));
  }
  // The manifest is a sliver of the document.
  EXPECT_LT(sd.manifest_bytes(), doc->SerializedSize() / 10);
}

TEST(ShardingTest, ShardIdsAreStableAcrossSplits) {
  NodeIdGen gen;
  Rng rng(TestSeed(44));
  TreePtr doc = MakeCatalog(100, &gen, &rng);
  ShardingConfig cfg;
  cfg.max_shard_bytes = 2048;
  ShardedDocument a = SplitDocument(*doc, cfg);
  ShardedDocument b = SplitDocument(*doc, cfg);
  ASSERT_EQ(a.shards.size(), b.shards.size());
  for (size_t i = 0; i < a.shards.size(); ++i) {
    EXPECT_EQ(a.shards[i].id, b.shards[i].id);
  }
  // Fresh node ids on every split do not leak into the identity.
  EXPECT_EQ(ManifestShardIds(*Decode(a.manifest)),
            ManifestShardIds(*Decode(b.manifest)));
}

// --- Recursive sharding ---

TEST(ShardingTest, SingleHugeChildShardsRecursively) {
  // Regression for the ShouldShard gate: a document whose entire size
  // lives in one huge child used to never shard at all. The recursive
  // splitter descends into it instead.
  NodeIdGen gen;
  Rng rng(TestSeed(47));
  TreePtr root = TreeNode::Element("wrapper", &gen);
  root->AddChild(MakeCatalog(120, &gen, &rng));
  ShardingConfig cfg;
  cfg.max_shard_bytes = 2048;
  ASSERT_GT(root->SerializedSize(), cfg.max_shard_bytes);
  EXPECT_TRUE(ShouldShard(*root, cfg));

  ShardedDocument sd = SplitDocument(*root, cfg);
  // The byte-budget guarantee holds below the root too: many capped
  // shards, not one oversized blob.
  EXPECT_GT(sd.shards.size(), 4u);
  EXPECT_EQ(sd.oversized_leaves, 0u);
  for (const DocumentShard& s : sd.shards) {
    EXPECT_LE(s.bytes(), cfg.max_shard_bytes + uint64_t{32});
  }
  EXPECT_EQ(ManifestShardIds(*Decode(sd.manifest)).size(), sd.shards.size());
  TreePtr back = Reassemble(sd, &gen);
  ASSERT_NE(back, nullptr);
  EXPECT_TRUE(TreesEqualUnordered(*root, *back));
}

TEST(ShardingTest, NestedManifestsRoundTripAcrossDepths) {
  // Three levels of oversized children (with siblings at every level):
  // sub-manifests nest, and assembly walks them back exactly.
  NodeIdGen gen;
  Rng rng(TestSeed(48));
  ShardingConfig cfg;
  cfg.max_shard_bytes = 1024;
  TreePtr level2 = TreeNode::Element("inner", &gen);
  for (int i = 0; i < 40; ++i) {
    level2->AddChild(
        MakeTextElement("leaf", rng.Identifier(48), &gen));
  }
  TreePtr level1 = TreeNode::Element("middle", &gen);
  level1->AddChild(std::move(level2));
  for (int i = 0; i < 30; ++i) {
    level1->AddChild(MakeTextElement("m", rng.Identifier(40), &gen));
  }
  TreePtr root = TreeNode::Element("outer", &gen);
  root->AddChild(std::move(level1));
  for (int i = 0; i < 30; ++i) {
    root->AddChild(MakeTextElement("o", rng.Identifier(40), &gen));
  }
  ASSERT_TRUE(ShouldShard(*root, cfg));

  ShardedDocument sd = SplitDocument(*root, cfg);
  EXPECT_EQ(sd.oversized_leaves, 0u);
  for (const DocumentShard& s : sd.shards) {
    EXPECT_LE(s.bytes(), cfg.max_shard_bytes + uint64_t{32});
  }
  EXPECT_EQ(ManifestShardIds(*Decode(sd.manifest)).size(), sd.shards.size());
  TreePtr back = Reassemble(sd, &gen);
  ASSERT_NE(back, nullptr);
  EXPECT_TRUE(TreesEqualUnordered(*root, *back));

  // Stability survives nesting: an identical re-split yields the same
  // ids in the same order.
  ShardedDocument again = SplitDocument(*root, cfg);
  EXPECT_EQ(ManifestShardIds(*Decode(sd.manifest)),
            ManifestShardIds(*Decode(again.manifest)));
}

TEST(ShardingTest, IndivisibleOversizedNodeTravelsAloneAndIsCounted) {
  NodeIdGen gen;
  Rng rng(TestSeed(49));
  TreePtr root = MakeCatalog(40, &gen, &rng);
  // One child is a single huge text element: nothing below it to split.
  root->AddChild(MakeTextElement("blob", std::string(8192, 'x'), &gen));
  ShardingConfig cfg;
  cfg.max_shard_bytes = 1024;
  ShardedDocument sd = SplitDocument(*root, cfg);
  EXPECT_EQ(sd.oversized_leaves, 1u);
  size_t oversized = 0;
  for (const DocumentShard& s : sd.shards) {
    if (s.bytes() > cfg.max_shard_bytes + 32) {
      ++oversized;
      // The only over-cap shard is the indivisible node, alone.
      EXPECT_EQ(Decode(s.encoded)->child_count(), 1u);
    }
  }
  EXPECT_EQ(oversized, 1u);
  TreePtr back = Reassemble(sd, &gen);
  ASSERT_NE(back, nullptr);
  EXPECT_TRUE(TreesEqualUnordered(*root, *back));
}

// --- Content-defined boundaries ---

TEST(ShardingTest, ContentDefinedInsertionDirtiesNeighborsOnly) {
  // The adversarial mutation-shift case: a middle-child insertion. Under
  // a pure size cut every downstream boundary would move (an id
  // avalanche); content-defined boundaries re-synchronize at the next
  // surviving boundary child, so only the insertion's neighborhood
  // dirties.
  // Deliberately a fixed seed, not TestSeed: the exact dirtied count is
  // a property of this document's content (the min-clamp can delay
  // re-sync by a group or two on other content); the seed-robust bound
  // is covered below and swept by bench_sharding.
  NodeIdGen gen;
  Rng rng(50);
  TreePtr doc = MakeCatalog(200, &gen, &rng);
  TreePtr extra = TreeNode::Element("product", &gen);
  extra->AddChild(MakeTextElement("name", "wedge", &gen));
  extra->AddChild(MakeTextElement("price", "1", &gen));
  extra->AddChild(MakeTextElement("category", "c0", &gen));
  extra->AddChild(MakeTextElement("desc", rng.Identifier(32), &gen));
  TreePtr grown = doc->CloneSameIds();
  grown->InsertChild(100, extra);
  TreePtr shrunk = doc->CloneSameIds();
  shrunk->RemoveChild(100);

  ShardingConfig cfg;
  cfg.max_shard_bytes = 2048;
  const ShardedDocument before = SplitDocument(*doc, cfg);
  ASSERT_GT(before.shards.size(), 6u);

  // Insertion and deletion each dirty O(1) ids.
  EXPECT_LE(DirtiedShardIds(before, SplitDocument(*grown, cfg)).size(),
            3u);
  EXPECT_LE(
      DirtiedShardIds(before, SplitDocument(*shrunk, cfg)).size(), 3u);

  // The split still round-trips the grown document exactly.
  ShardedDocument sd = SplitDocument(*grown, cfg);
  TreePtr back = Reassemble(sd, &gen);
  ASSERT_NE(back, nullptr);
  EXPECT_TRUE(TreesEqualUnordered(*grown, *back));
}

TEST(ShardingTest, ContentDefinedStaysLocalAcrossSeeds) {
  // The seed-robust form of the property: whatever the content, a
  // middle-child insertion dirties a small constant neighborhood
  // (re-sync can cost a couple of groups to the min-clamp).
  NodeIdGen gen;
  Rng rng(TestSeed(52));
  TreePtr doc = MakeCatalog(200, &gen, &rng);
  TreePtr extra = TreeNode::Element("product", &gen);
  extra->AddChild(MakeTextElement("name", "wedge", &gen));
  extra->AddChild(MakeTextElement("desc", rng.Identifier(32), &gen));
  TreePtr grown = doc->CloneSameIds();
  grown->InsertChild(100, extra);

  ShardingConfig cfg;
  cfg.max_shard_bytes = 2048;
  EXPECT_LE(DirtiedShardIds(SplitDocument(*doc, cfg),
                            SplitDocument(*grown, cfg))
                .size(),
            6u);
}

TEST(ShardingTest, ContentDefinedGroupsRespectMinAndMaxClamps) {
  NodeIdGen gen;
  Rng rng(TestSeed(51));
  TreePtr doc = MakeCatalog(300, &gen, &rng);
  ShardingConfig cfg;
  cfg.max_shard_bytes = 2048;
  cfg.min_shard_bytes = 512;
  ShardedDocument sd = SplitDocument(*doc, cfg);
  ASSERT_GT(sd.shards.size(), 4u);
  for (size_t i = 0; i < sd.shards.size(); ++i) {
    // The clamps act on the XML serialization (the grouping metric),
    // not the encoded wire size shards are priced at.
    const uint64_t group_bytes =
        Decode(sd.shards[i].encoded)->SerializedSize();
    EXPECT_LE(group_bytes, cfg.max_shard_bytes + uint64_t{32});
    // Every group but the trailing remainder reaches the min clamp
    // (wrapper bytes included, so the raw content bound is loose).
    if (i + 1 < sd.shards.size()) {
      EXPECT_GE(group_bytes, cfg.min_shard_bytes);
    }
  }
}

TEST(ShardingTest, AssemblyFailsClosedOnMissingShard) {
  NodeIdGen gen;
  Rng rng(46);
  TreePtr doc = MakeCatalog(64, &gen, &rng);
  ShardingConfig cfg;
  cfg.max_shard_bytes = 1024;
  ShardedDocument sd = SplitDocument(*doc, cfg);
  // Lookup that "loses" the last shard.
  const std::string lost = sd.shards.back().id.ToString();
  TreePtr back = AssembleDocument(
      *Decode(sd.manifest),
      [&sd, &lost](const std::string& id) -> TreePtr {
        if (id == lost) return nullptr;
        for (const DocumentShard& s : sd.shards) {
          if (s.id.ToString() == id) return Decode(s.encoded);
        }
        return nullptr;
      },
      &gen);
  EXPECT_EQ(back, nullptr);
  // Non-manifests are rejected outright.
  EXPECT_EQ(AssembleDocument(*doc, [](const std::string&) { return nullptr; },
                             &gen),
            nullptr);
}

// --- The shared delta plan and assembler, without a system ---

/// 64 byte-identical products: split at a 1 KiB cap, shard ids repeat.
TreePtr RepetitiveCatalog(NodeIdGen* gen) {
  TreePtr doc = TreeNode::Element("catalog", gen);
  for (int i = 0; i < 64; ++i) {
    TreePtr p = TreeNode::Element("product", gen);
    p->AddChild(MakeTextElement("name", "same", gen));
    p->AddChild(MakeTextElement("price", "100", gen));
    p->AddChild(MakeTextElement("desc", std::string(64, 'x'), gen));
    doc->AddChild(std::move(p));
  }
  return doc;
}

/// A holder cache with the manifest of (origin, "d") at `version` and
/// every shard of `sd`.
void SeedHolder(const ShardedDocument& sd, PeerId origin, uint64_t version,
                TransferCache* cache) {
  ASSERT_TRUE(cache->Put(ManifestKey(origin, "d"), sd.manifest,
                         DigestOf(*Decode(sd.manifest)), version));
  for (const DocumentShard& s : sd.shards) {
    ASSERT_TRUE(cache->Put(ShardDataKey(origin, "d", s.id.ToString()),
                           s.encoded, s.id, kImmutableShardVersion));
  }
}

TEST(ShardDeltaTest, PlanShipsEachMissingIdOnceAndAStaleManifest) {
  NodeIdGen gen;
  ShardingConfig cfg;
  cfg.max_shard_bytes = 1024;
  const ShardedDocument sd =
      SplitDocument(*RepetitiveCatalog(&gen), cfg);
  std::set<std::string> ids;
  uint64_t distinct_bytes = 0;
  for (const DocumentShard& s : sd.shards) {
    if (ids.insert(s.id.ToString()).second) distinct_bytes += s.bytes();
  }
  ASSERT_GT(sd.shards.size(), ids.size());
  const PeerId origin(0);

  // A holder with nothing: the manifest, and each distinct id once.
  const ShardDelta cold = PlanShardDelta(sd, nullptr, origin, "d", 2);
  EXPECT_TRUE(cold.ships_manifest());
  EXPECT_EQ(cold.distinct.size(), ids.size());
  EXPECT_EQ(cold.missing.size(), ids.size());
  EXPECT_EQ(cold.bytes(), sd.manifest_bytes() + distinct_bytes);

  // A complete holder at the planned version ships nothing.
  TransferCache cache;
  SeedHolder(sd, origin, /*version=*/2, &cache);
  const ShardDelta warm = PlanShardDelta(sd, &cache, origin, "d", 2);
  EXPECT_FALSE(warm.ships_manifest());
  EXPECT_TRUE(warm.missing.empty());
  EXPECT_EQ(warm.reused(), ids.size());
  EXPECT_EQ(warm.reused_bytes, distinct_bytes);
  EXPECT_EQ(warm.bytes(), 0u);

  // One version later its manifest is stale: only the manifest ships.
  const ShardDelta stale = PlanShardDelta(sd, &cache, origin, "d", 3);
  EXPECT_TRUE(stale.ships_manifest());
  EXPECT_TRUE(stale.missing.empty());
  EXPECT_EQ(stale.bytes(), sd.manifest_bytes());
}

TEST(ShardDeltaTest, AMissingShardLeavesTheCopyIncomplete) {
  NodeIdGen gen;
  Rng rng(46);
  TreePtr doc = MakeCatalog(64, &gen, &rng);
  ShardingConfig cfg;
  cfg.max_shard_bytes = 1024;
  const ShardedDocument sd = SplitDocument(*doc, cfg);
  const PeerId origin(0);
  TransferCache cache;
  SeedHolder(sd, origin, /*version=*/2, &cache);

  TreePtr manifest = Decode(sd.manifest);
  TreePtr copy =
      AssembleResident(cache, origin, "d", *manifest, &gen, nullptr);
  ASSERT_NE(copy, nullptr);
  EXPECT_TRUE(TreesEqualUnordered(*copy, *doc));
  EXPECT_GT(ResidentShardBytes(cache, origin, "d", *manifest), 0u);

  const DocumentShard& lost = sd.shards.back();
  ASSERT_TRUE(cache.Erase(ShardDataKey(origin, "d", lost.id.ToString())));
  const uint64_t minted = gen.minted();
  EXPECT_EQ(AssembleResident(cache, origin, "d", *manifest, &gen, nullptr),
            nullptr);
  EXPECT_EQ(gen.minted(), minted);  // gave up before building anything
  EXPECT_EQ(ResidentShardBytes(cache, origin, "d", *manifest), 0u);
  // The next delta is exactly the lost shard.
  const ShardDelta gap = PlanShardDelta(sd, &cache, origin, "d", 2);
  EXPECT_FALSE(gap.ships_manifest());
  ASSERT_EQ(gap.missing.size(), 1u);
  EXPECT_EQ(gap.missing[0]->id.ToString(), lost.id.ToString());
  EXPECT_EQ(gap.bytes(), lost.bytes());
}

TEST(ShardDeltaTest, ALandedShardMustDigestToTheIdItWasShippedUnder) {
  NodeIdGen gen;
  Rng rng(47);
  ShardingConfig cfg;
  cfg.max_shard_bytes = 1024;
  const ShardedDocument sd = SplitDocument(*MakeCatalog(64, &gen, &rng), cfg);
  const PeerId origin(0);
  const ShardDelta cold = PlanShardDelta(sd, nullptr, origin, "d", 2);
  ASSERT_GE(cold.missing.size(), 2u);
  const wire::Payload honest =
      EncodeCopyShipment(origin, "d", 2, &cold, nullptr, nullptr);

  // Untampered, every shard lands under the id it was shipped under,
  // carrying the bytes the origin stored.
  std::optional<ShipmentPayload> landed =
      DecodeCopyShipment(honest, nullptr, &gen, nullptr);
  ASSERT_TRUE(landed.has_value());
  ASSERT_EQ(landed->shards.size(), cold.missing.size());
  for (size_t i = 0; i < cold.missing.size(); ++i) {
    EXPECT_EQ(landed->shards[i].id, cold.missing[i]->id);
    EXPECT_EQ(landed->shards[i].encoded, cold.missing[i]->encoded);
  }
  EXPECT_EQ(landed->manifest, sd.manifest);

  // One shard re-labelled with another shard's id: its bytes no longer
  // digest to the name it would be cached under.
  Result<wire::Shipment> ship = wire::DecodeShipment(honest);
  ASSERT_TRUE(ship.ok());
  ship->shards[0].id = ship->shards[1].id;
  const wire::Payload forged = wire::EncodeShipment(ship.value());
#if defined(GTEST_HAS_DEATH_TEST) && !defined(AXML_DISABLE_DCHECKS)
  EXPECT_DEATH((void)DecodeCopyShipment(forged, nullptr, &gen, nullptr),
               "digests to");
#else
  EXPECT_FALSE(DecodeCopyShipment(forged, nullptr, &gen, nullptr));
#endif
}

TEST(ShardDeltaTest, AssemblyTakesEachShippedShardFromTheCheckedDecode) {
  NodeIdGen gen;
  ShardingConfig cfg;
  cfg.max_shard_bytes = 1024;
  TreePtr doc = RepetitiveCatalog(&gen);
  const ShardedDocument sd = SplitDocument(*doc, cfg);
  const PeerId origin(0);
  const ShardDelta cold = PlanShardDelta(sd, nullptr, origin, "d", 2);
  const wire::Payload p =
      EncodeCopyShipment(origin, "d", 2, &cold, nullptr, nullptr);

  // The landing decodes the shipment, then each shipped shard once to
  // check its digest.
  wire::WireStats stats;
  std::optional<ShipmentPayload> landed =
      DecodeCopyShipment(p, nullptr, &gen, &stats);
  ASSERT_TRUE(landed.has_value());
  EXPECT_EQ(stats.decode_calls, 1 + cold.missing.size());
  EXPECT_EQ(landed->decoded.size(), cold.missing.size());

  // The assembly reuses those trees; only a repeated id decodes again,
  // since one tree cannot sit in the document twice.
  std::map<std::string, const std::string*> blobs;
  for (const DocumentShard& s : landed->shards) {
    blobs[s.id.ToString()] = &s.encoded;
  }
  TreePtr manifest = Decode(landed->manifest);
  const size_t refs = ManifestShardIds(*manifest).size();
  ASSERT_GT(refs, cold.missing.size());
  wire::WireStats assembly;
  TreePtr copy = AssembleCopy(
      *manifest,
      [&blobs](const std::string& id) -> const std::string* {
        auto it = blobs.find(id);
        return it == blobs.end() ? nullptr : it->second;
      },
      &gen, &assembly, &landed->decoded);
  ASSERT_NE(copy, nullptr);
  EXPECT_TRUE(TreesEqualUnordered(*copy, *doc));
  EXPECT_EQ(assembly.decode_calls, refs - cold.missing.size());
  EXPECT_TRUE(landed->decoded.empty());
}

// --- Sharded replication through the system ---

struct ShardedPeers {
  AxmlSystem sys{Topology(LinkParams{0.050, 1.0e6})};
  PeerId origin, client;
  Query q;
  uint64_t doc_bytes = 0;

  explicit ShardedPeers(size_t n_products = 200,
                        uint64_t max_shard_bytes = 2048) {
    origin = sys.AddPeer("origin");
    client = sys.AddPeer("client");
    Rng rng(13);
    TreePtr t = MakeCatalog(n_products, sys.peer(origin)->gen(), &rng);
    doc_bytes = t->SerializedSize();
    EXPECT_TRUE(sys.InstallDocument(origin, "d", t).ok());
    ShardingConfig cfg;
    cfg.max_shard_bytes = max_shard_bytes;
    sys.replicas().set_sharding_config(cfg);
    sys.replicas().set_sharding_enabled(true);
    q = Query::Parse(
            "for $p in input(0)/catalog/product "
            "where $p/price < 900 return <r>{ $p/name }</r>")
            .value();
  }

  ExprPtr Read() const {
    return Expr::Apply(q, client, {Expr::Doc("d", origin)});
  }

  /// Replaces product `i`'s description through the mutation listener
  /// (PutDocument), preserving every other subtree's content.
  void MutateOneProduct(size_t i) {
    Peer* host = sys.peer(origin);
    TreePtr next = host->GetDocument("d")->CloneSameIds();
    TreeNode* product = next->child(i).get();
    TreeNode* desc = nullptr;
    for (const TreePtr& c : product->children()) {
      if (c->label_text() == "desc") desc = c.get();
    }
    ASSERT_NE(desc, nullptr);
    const size_t len = desc->child(0)->text().size();
    desc->child(0)->set_text(std::string(len, '~'));
    host->PutDocument("d", next);
  }
};

EvalOptions CachingOptions() {
  EvalOptions opts;
  opts.use_replica_cache = true;
  return opts;
}

TEST(ShardedReplicaTest, ReadRoundTripsAndSecondReadIsLocal) {
  ShardedPeers f;
  // Baseline result set from the non-caching semantics.
  Evaluator plain(&f.sys);
  auto base = plain.Eval(f.client, f.Read());
  ASSERT_TRUE(base.ok());

  Evaluator ev(&f.sys, CachingOptions());
  f.sys.network().mutable_stats()->Reset();
  auto first = ev.Eval(f.client, f.Read());
  ASSERT_TRUE(first.ok());
  EXPECT_TRUE(ResultsEqual(base->results, first->results));
  EXPECT_GT(f.sys.network().stats().remote_bytes(), 0u);

  // The landed delta installed + advertised a complete copy.
  EXPECT_TRUE(f.sys.replicas().HasFresh(f.client, f.origin, "d"));
  EXPECT_TRUE(f.sys.replicas().IsCachedCopy(f.client, "d"));
  EXPECT_TRUE(f.sys.catalog()->IsAdvertised(ResourceKind::kDocument, "d",
                                            f.client));

  // Second read: assembled from resident shards, zero wire bytes.
  f.sys.network().mutable_stats()->Reset();
  auto second = ev.Eval(f.client, f.Read());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(f.sys.network().stats().remote_bytes(), 0u);
  EXPECT_TRUE(ResultsEqual(base->results, second->results));
  EXPECT_GE(f.sys.replicas().shard_stats().full_hits, 1u);
}

TEST(ShardedReplicaTest, MutationShipsOnlyTheDirtyShard) {
  ShardedPeers f;
  f.sys.replicas().set_refresh_policy(RefreshPolicy::kEagerRefresh);
  Evaluator ev(&f.sys, CachingOptions());
  ASSERT_TRUE(ev.Eval(f.client, f.Read()).ok());  // warm copy
  ASSERT_TRUE(f.sys.replicas().HasFresh(f.client, f.origin, "d"));

  f.sys.network().mutable_stats()->Reset();
  f.MutateOneProduct(120);
  f.sys.RunToQuiescence();  // eager refresh lands the delta

  const uint64_t delta = f.sys.network().stats().remote_bytes();
  EXPECT_GT(delta, 0u);
  // The acceptance bar: a single-subtree mutation moves < 25% of what a
  // full-document refresh would.
  EXPECT_LT(delta, f.doc_bytes / 4);
  EXPECT_TRUE(f.sys.replicas().HasFresh(f.client, f.origin, "d"));
  EXPECT_GE(f.sys.replicas().shard_stats().shards_reused, 1u);

  // The refreshed copy serves the post-mutation content locally.
  Evaluator plain(&f.sys);
  auto base = plain.Eval(f.client, f.Read());
  ASSERT_TRUE(base.ok());
  f.sys.network().mutable_stats()->Reset();
  auto read = ev.Eval(f.client, f.Read());
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(f.sys.network().stats().remote_bytes(), 0u);
  EXPECT_TRUE(ResultsEqual(base->results, read->results));
}

TEST(ShardedReplicaTest, EagerRefreshLeavesAPartialCopyAlone) {
  ShardedPeers f;
  f.sys.replicas().set_refresh_policy(RefreshPolicy::kEagerRefresh);
  // The budget holds most of the document's shards, not all of them.
  const ShardedDocument* split = f.sys.replicas().OriginShards(f.origin, "d");
  ASSERT_NE(split, nullptr);
  f.sys.replicas().set_default_byte_budget(split->TotalBytes() * 3 / 4);
  Evaluator ev(&f.sys, CachingOptions());
  ASSERT_TRUE(ev.Eval(f.client, f.Read()).ok());
  ASSERT_FALSE(f.sys.replicas().HasFresh(f.client, f.origin, "d"));
  const TransferCache* cache = f.sys.replicas().FindCache(f.client);
  ASSERT_NE(cache, nullptr);
  const std::vector<ReplicaKey> before = cache->KeysForDoc(f.origin, "d");
  std::set<std::string> resident;
  for (const ReplicaKey& k : before) {
    if (k.is_shard_data()) resident.insert(k.shard);
  }
  ASSERT_FALSE(resident.empty());

  f.sys.network().mutable_stats()->Reset();
  f.sys.replicas().ResetStats();
  f.MutateOneProduct(190);  // its shard is resident (see `dead` below)
  f.sys.RunToQuiescence();

  // No notify, no shipment: the write sends nothing at all.
  const SubscriptionStats& subs = f.sys.replicas().subscription_stats();
  EXPECT_EQ(subs.notifies, 0u);
  EXPECT_EQ(subs.clean_skips, 1u);
  EXPECT_EQ(subs.refreshes, 0u);
  EXPECT_EQ(f.sys.network().stats().total_messages(), 0u);

  // Every entry stays, the dead shard included: it is named by its
  // content, so it is never stale, and it ages out under eviction.
  EXPECT_EQ(cache->KeysForDoc(f.origin, "d"), before);
  std::set<std::string> live;
  for (const DocumentShard& s :
       f.sys.replicas().OriginShards(f.origin, "d")->shards) {
    live.insert(s.id.ToString());
  }
  size_t dead = 0;
  for (const std::string& id : resident) dead += live.count(id) == 0;
  EXPECT_EQ(dead, 1u);
  EXPECT_FALSE(f.sys.replicas().ExpectedFresh(f.client, f.origin, "d"));

  // The next read ships the new manifest and only the shards the holder
  // lacks — the dirty shard's new content and those that never fit —
  // and returns the current content.
  size_t lacking = 0;
  for (const std::string& id : live) lacking += resident.count(id) == 0;
  Evaluator plain(&f.sys);
  auto truth = plain.Eval(f.client, f.Read());
  ASSERT_TRUE(truth.ok());
  f.sys.replicas().ResetStats();
  auto read = ev.Eval(f.client, f.Read());
  ASSERT_TRUE(read.ok());
  EXPECT_TRUE(ResultsEqual(truth->results, read->results));
  const ShardStats& ss = f.sys.replicas().shard_stats();
  EXPECT_EQ(ss.manifests_shipped, 1u);
  EXPECT_EQ(ss.shards_shipped, lacking);
  EXPECT_EQ(ss.shards_reused, resident.size() - dead);
}

TEST(ShardedReplicaTest, BudgetSmallerThanDocumentStillHits) {
  ShardedPeers f;
  // The cache can hold roughly a third of the document's shards.
  f.sys.replicas().set_default_byte_budget(f.doc_bytes / 3);
  Evaluator ev(&f.sys, CachingOptions());

  auto first = ev.Eval(f.client, f.Read());
  ASSERT_TRUE(first.ok());
  const TransferCache* cache = f.sys.replicas().FindCache(f.client);
  ASSERT_NE(cache, nullptr);
  // Partial copy: some shards resident, the whole document not fresh.
  EXPECT_GT(cache->resident_bytes(), 0u);
  EXPECT_FALSE(f.sys.replicas().HasFresh(f.client, f.origin, "d"));

  // The second read reuses the resident shards: non-zero cache hits and
  // measurably fewer wire bytes than a cold full transfer.
  f.sys.network().mutable_stats()->Reset();
  f.sys.replicas().ResetStats();
  auto second = ev.Eval(f.client, f.Read());
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(ResultsEqual(first->results, second->results));
  const TransferCacheStats total = f.sys.replicas().TotalStats();
  EXPECT_GT(total.hits, 0u);
  EXPECT_GE(f.sys.replicas().shard_stats().partial_hits, 1u);
  EXPECT_LT(f.sys.network().stats().remote_bytes(), f.doc_bytes);

  // Sanity: with sharding off the same budget can never cache the
  // document at all — every read pays the full transfer.
  f.sys.replicas().set_sharding_enabled(false);
  f.sys.replicas().DropAllCopies();
  f.sys.replicas().ResetStats();
  Evaluator unsharded(&f.sys, CachingOptions());
  ASSERT_TRUE(unsharded.Eval(f.client, f.Read()).ok());
  ASSERT_TRUE(unsharded.Eval(f.client, f.Read()).ok());
  EXPECT_EQ(f.sys.replicas().TotalStats().hits, 0u);
}

TEST(ShardedReplicaTest, CostModelPricesPartialCopies) {
  ShardedPeers f;
  Evaluator ev(&f.sys, CachingOptions());
  ASSERT_TRUE(ev.Eval(f.client, f.Read()).ok());  // complete copy

  CostModel cached(&f.sys, /*assume_replica_cache=*/true);
  CostModel plain(&f.sys, /*assume_replica_cache=*/false);
  ExprPtr doc = Expr::Doc("d", f.origin);
  // Complete copy: free under the cache assumption.
  EXPECT_EQ(cached.Estimate(f.client, doc).remote_bytes, 0.0);
  EXPECT_GT(plain.Estimate(f.client, doc).remote_bytes, 0.0);

  // Mutate: the manifest goes stale but the data shards survive, so the
  // partial copy prices between free and the full transfer.
  f.MutateOneProduct(10);
  const double partial = cached.Estimate(f.client, doc).remote_bytes;
  const double full = plain.Estimate(f.client, doc).remote_bytes;
  EXPECT_GT(partial, 0.0);
  EXPECT_LT(partial, full / 4);
}

TEST(ShardedReplicaTest, FreshWholeCopyIsPreferredOverReSharding) {
  ShardedPeers f;
  // Cache a whole-document copy first, with sharding off.
  f.sys.replicas().set_sharding_enabled(false);
  Evaluator ev(&f.sys, CachingOptions());
  ASSERT_TRUE(ev.Eval(f.client, f.Read()).ok());
  ASSERT_TRUE(f.sys.replicas().HasFresh(f.client, f.origin, "d"));

  // Turning sharding on must not strand that copy: the cost model still
  // prices the read at zero, so the read must serve it instead of
  // re-fetching the document as shards.
  f.sys.replicas().set_sharding_enabled(true);
  ASSERT_NE(f.sys.replicas().OriginShards(f.origin, "d"), nullptr);
  bool sharded = true;
  EXPECT_NE(f.sys.replicas().ReadFreshCopy(f.client, f.origin, "d", &sharded),
            nullptr);
  EXPECT_FALSE(sharded);
  CostModel cached(&f.sys, /*assume_replica_cache=*/true);
  EXPECT_EQ(cached.Estimate(f.client, Expr::Doc("d", f.origin)).remote_bytes,
            0.0);
  f.sys.network().mutable_stats()->Reset();
  ASSERT_TRUE(ev.Eval(f.client, f.Read()).ok());
  EXPECT_EQ(f.sys.network().stats().remote_bytes(), 0u);
}

TEST(ShardedReplicaTest, DuplicateShardIdsCrossTheWireOnce) {
  AxmlSystem sys{Topology(LinkParams{0.050, 1.0e6})};
  const PeerId origin = sys.AddPeer("origin");
  const PeerId client = sys.AddPeer("client");
  // 64 byte-identical products: groups repeat, so shard ids collide —
  // the content-addressed win is shipping the repeated content once.
  NodeIdGen* gen = sys.peer(origin)->gen();
  TreePtr doc = TreeNode::Element("catalog", gen);
  for (int i = 0; i < 64; ++i) {
    TreePtr p = TreeNode::Element("product", gen);
    p->AddChild(MakeTextElement("name", "same", gen));
    p->AddChild(MakeTextElement("price", "100", gen));
    p->AddChild(MakeTextElement("desc", std::string(64, 'x'), gen));
    doc->AddChild(std::move(p));
  }
  const uint64_t doc_bytes = doc->SerializedSize();
  ASSERT_TRUE(sys.InstallDocument(origin, "d", doc).ok());
  ShardingConfig cfg;
  cfg.max_shard_bytes = 1024;
  sys.replicas().set_sharding_config(cfg);
  sys.replicas().set_sharding_enabled(true);

  // The split itself: few distinct ids, exact reassembly.
  const ShardedDocument* sd = sys.replicas().OriginShards(origin, "d");
  ASSERT_NE(sd, nullptr);
  std::set<std::string> distinct;
  for (const DocumentShard& s : sd->shards) distinct.insert(s.id.ToString());
  ASSERT_GT(sd->shards.size(), distinct.size());

  Evaluator ev(&sys, CachingOptions());
  Query q = Query::Parse(
                "for $p in input(0)/catalog/product return <r>{ $p/name }</r>")
                .value();
  sys.network().mutable_stats()->Reset();
  auto out = ev.Eval(client, Expr::Apply(q, client, {Expr::Doc("d", origin)}));
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->results.size(), 64u);
  // Wire bytes: the duplicated content shipped once, not once per
  // manifest reference.
  EXPECT_LT(sys.network().stats().remote_bytes(), doc_bytes / 4);
  // And the copy is complete: the next read assembles locally.
  sys.network().mutable_stats()->Reset();
  ASSERT_TRUE(
      ev.Eval(client, Expr::Apply(q, client, {Expr::Doc("d", origin)})).ok());
  EXPECT_EQ(sys.network().stats().remote_bytes(), 0u);
}

// --- Shard-level subscriptions ---

/// Installs partial sharded copies at two readers — `a` gets the first
/// half of the shards, `b` the second half — via the landing path the
/// wire uses (InsertShardedCopy), so both subscribe shard-granularly.
struct PartialHolders {
  AxmlSystem sys{Topology(LinkParams{0.050, 1.0e6})};
  PeerId origin, a, b;
  std::vector<std::string> a_ids, b_ids;

  PartialHolders() {
    origin = sys.AddPeer("origin");
    a = sys.AddPeer("a");
    b = sys.AddPeer("b");
    Rng rng(13);
    TreePtr t = MakeCatalog(200, sys.peer(origin)->gen(), &rng);
    EXPECT_TRUE(sys.InstallDocument(origin, "d", t).ok());
    ShardingConfig cfg;
    cfg.max_shard_bytes = 2048;
    sys.replicas().set_sharding_config(cfg);
    sys.replicas().set_sharding_enabled(true);

    const ShardedDocument* sd = sys.replicas().OriginShards(origin, "d");
    if (sd == nullptr || sd->shards.size() < 4) {
      ADD_FAILURE() << "fixture document did not shard as expected";
      return;
    }
    const uint64_t version = sys.replicas().Version(origin, "d");
    const size_t half = sd->shards.size() / 2;
    auto seed = [&](PeerId reader, size_t from, size_t to,
                    std::vector<std::string>* ids) {
      std::vector<DocumentShard> subset;
      for (size_t i = from; i < to; ++i) {
        ids->push_back(sd->shards[i].id.ToString());
        subset.push_back(sd->shards[i]);
      }
      ASSERT_TRUE(sys.replicas().InsertShardedCopy(
          reader, origin, "d", sd->manifest, subset, version));
    };
    seed(a, 0, half, &a_ids);
    seed(b, half, sd->shards.size(), &b_ids);
  }

  /// Same-size overwrite of product `i`'s description.
  void MutateProduct(size_t i) {
    Peer* host = sys.peer(origin);
    TreePtr next = host->GetDocument("d")->CloneSameIds();
    TreeNode* product = next->child(i).get();
    for (const TreePtr& c : product->children()) {
      if (c->label_text() == "desc") {
        TreeNode* text = c->child(0).get();
        text->set_text(std::string(text->text().size(), '~'));
        break;
      }
    }
    host->PutDocument("d", next);
  }
};

TEST(ShardSubscriptionTest, SubscriptionsMirrorResidentShards) {
  PartialHolders f;
  const SubscriptionTable& subs = f.sys.replicas().subscriptions();
  // Each holder is subscribed to exactly what it has resident: its
  // manifest plus its own half of the data shards — no document-level
  // subscription for a partial copy.
  for (PeerId reader : {f.a, f.b}) {
    const TransferCache* cache = f.sys.replicas().FindCache(reader);
    ASSERT_NE(cache, nullptr);
    for (const ReplicaKey& key : cache->Keys()) {
      EXPECT_TRUE(subs.IsSubscribed(key, reader)) << key.ToString();
    }
  }
  EXPECT_FALSE(subs.IsSubscribed(ReplicaKey{f.origin, "d"}, f.a));
  for (const std::string& id : f.b_ids) {
    EXPECT_TRUE(subs.IsSubscribed(ReplicaKey{f.origin, "d", id}, f.b));
    EXPECT_FALSE(subs.IsSubscribed(ReplicaKey{f.origin, "d", id}, f.a));
  }
}

TEST(ShardSubscriptionTest, MutationNotifiesNoPartialHolder) {
  // A data shard is named by its content digest, so it never goes stale:
  // a one-shard mutation notifies neither the partial holder of the
  // dirty shard nor the one caching only other shards. Both keep every
  // entry, and neither is advertised, so no stale read can route to
  // them.
  PartialHolders f;
  f.sys.network().mutable_stats()->Reset();
  f.sys.replicas().ResetStats();
  f.MutateProduct(0);  // lives in the first shard: a's half
  f.sys.RunToQuiescence();

  const SubscriptionStats& ss = f.sys.replicas().subscription_stats();
  EXPECT_EQ(ss.notifies, 0u);
  EXPECT_EQ(ss.drops, 0u);
  EXPECT_EQ(ss.clean_skips, 2u);
  EXPECT_EQ(f.sys.network().stats().notify_messages(), 0u);

  // Each holder keeps its manifest (stale, version-checked on its next
  // read) and every data shard — a's dead one too — resident and
  // subscribed.
  for (const auto& [reader, ids] :
       {std::pair{f.a, f.a_ids}, std::pair{f.b, f.b_ids}}) {
    const TransferCache* cache = f.sys.replicas().FindCache(reader);
    ASSERT_NE(cache, nullptr);
    EXPECT_NE(cache->Peek(ReplicaKey{f.origin, "d", kManifestShardId}),
              nullptr);
    for (const std::string& id : ids) {
      EXPECT_NE(cache->Peek(ReplicaKey{f.origin, "d", id}), nullptr);
      EXPECT_TRUE(f.sys.replicas().subscriptions().IsSubscribed(
          ReplicaKey{f.origin, "d", id}, reader));
    }
  }

  // a's next read ships the new manifest and only the shards it lacks:
  // the dirty shard's new content and b's half. It reuses the rest of
  // its own half and returns the current content.
  std::set<std::string> live;
  for (const DocumentShard& s :
       f.sys.replicas().OriginShards(f.origin, "d")->shards) {
    live.insert(s.id.ToString());
  }
  ASSERT_EQ(live.count(f.a_ids[0]), 0u);
  const std::set<std::string> held(f.a_ids.begin(), f.a_ids.end());
  size_t lacking = 0;
  for (const std::string& id : live) lacking += held.count(id) == 0;
  Evaluator plain(&f.sys);
  Evaluator ev(&f.sys, CachingOptions());
  Query q = Query::Parse(
                "for $p in input(0)/catalog/product return <r>{ $p/name }</r>")
                .value();
  auto base = plain.Eval(f.a, Expr::Apply(q, f.a, {Expr::Doc("d", f.origin)}));
  ASSERT_TRUE(base.ok());
  f.sys.replicas().ResetStats();
  auto read = ev.Eval(f.a, Expr::Apply(q, f.a, {Expr::Doc("d", f.origin)}));
  ASSERT_TRUE(read.ok());
  EXPECT_TRUE(ResultsEqual(base->results, read->results));
  const ShardStats& shards = f.sys.replicas().shard_stats();
  EXPECT_EQ(shards.manifests_shipped, 1u);
  EXPECT_EQ(shards.shards_shipped, lacking);
  EXPECT_EQ(shards.shards_reused, f.a_ids.size() - 1);
}

TEST(ShardSubscriptionTest, AWriteWithOnlyPartialHoldersSendsNothing) {
  for (const RefreshPolicy policy :
       {RefreshPolicy::kDrop, RefreshPolicy::kEagerRefresh}) {
    SCOPED_TRACE(RefreshPolicyName(policy));
    PartialHolders f;
    f.sys.replicas().set_refresh_policy(policy);
    f.sys.network().mutable_stats()->Reset();
    const SimTime start = f.sys.loop().now();
    f.MutateProduct(0);
    f.sys.RunToQuiescence();
    EXPECT_EQ(f.sys.network().stats().total_messages(), 0u);
    EXPECT_EQ(f.sys.network().stats().remote_bytes(), 0u);
    // Nothing was sent, so the write took no simulated time.
    EXPECT_EQ(f.sys.loop().now() - start, 0.0);
  }
}

TEST(ShardSubscriptionTest, ReconciliationNeverReShipsAPartialCopy) {
  // Anti-entropy and rejoin apply the fan-out's rule: a stale manifest
  // re-ships under kEagerRefresh only when every shard it lists is
  // resident. A partial copy's stale manifest is dropped, its shards
  // stay, and its next read fetches the delta.
  for (const bool rejoin : {true, false}) {
    SCOPED_TRACE(rejoin ? "durable-cache rejoin" : "anti-entropy sweep");
    PartialHolders f;
    f.sys.replicas().set_refresh_policy(RefreshPolicy::kEagerRefresh);
    f.sys.tracer().set_enabled(true);
    if (rejoin) f.sys.CrashPeer(f.b, CrashMode::kDurableCache);
    f.MutateProduct(0);  // a's half; b holds only untouched shards
    if (rejoin) {
      f.sys.RejoinPeer(f.b);
    } else {
      f.sys.replicas().RunAntiEntropySweep();
    }
    f.sys.RunToQuiescence();

    for (const TraceSpan& s : f.sys.tracer().Events()) {
      EXPECT_FALSE(s.category == "replica" && s.name == "shipment")
          << s.ToString();
    }
    EXPECT_EQ(f.sys.replicas().subscription_stats().refreshes, 0u);
    const TransferCache* cache_b = f.sys.replicas().FindCache(f.b);
    ASSERT_NE(cache_b, nullptr);
    EXPECT_EQ(cache_b->Peek(ReplicaKey{f.origin, "d", kManifestShardId}),
              nullptr);
    for (const std::string& id : f.b_ids) {
      EXPECT_NE(cache_b->Peek(ReplicaKey{f.origin, "d", id}), nullptr);
    }

    Evaluator plain(&f.sys);
    Evaluator ev(&f.sys, CachingOptions());
    Query q =
        Query::Parse(
            "for $p in input(0)/catalog/product return <r>{ $p/name }</r>")
            .value();
    auto base =
        plain.Eval(f.b, Expr::Apply(q, f.b, {Expr::Doc("d", f.origin)}));
    ASSERT_TRUE(base.ok());
    auto read = ev.Eval(f.b, Expr::Apply(q, f.b, {Expr::Doc("d", f.origin)}));
    ASSERT_TRUE(read.ok());
    EXPECT_TRUE(ResultsEqual(base->results, read->results));
  }
}

TEST(ShardSubscriptionTest, InstalledCompleteCopyIsAlwaysNotified) {
  // A complete, installed copy is advertised and readable by name, so
  // any mutation — even one whose dirty shard the test never seeded
  // elsewhere — must notify it doc-wide and retract it synchronously.
  ShardedPeers f;
  Evaluator ev(&f.sys, CachingOptions());
  ASSERT_TRUE(ev.Eval(f.client, f.Read()).ok());
  ASSERT_TRUE(f.sys.replicas().IsCachedCopy(f.client, "d"));

  f.sys.replicas().ResetStats();
  f.MutateOneProduct(10);
  const SubscriptionStats& ss = f.sys.replicas().subscription_stats();
  EXPECT_EQ(ss.notifies, 1u);
  EXPECT_EQ(ss.doc_notifies, 1u);
  // Synchronous coherence, exactly as before shard-granular fan-out.
  EXPECT_FALSE(f.sys.replicas().IsCachedCopy(f.client, "d"));
  EXPECT_FALSE(f.sys.catalog()->IsAdvertised(ResourceKind::kDocument, "d",
                                             f.client));
}

// --- Cost-model pricing (oversized shards, nested manifests) ---

TEST(ShardedReplicaTest, ColdDeltaNeverPricesAboveWholeTransfer) {
  // Shard wrappers and the manifest carry overhead, so a cold reader's
  // delta (manifest + every shard) physically exceeds the raw document
  // size — but a *price* above the whole-document transfer would make
  // the optimizer prefer cold peers over partial holders. The model
  // clamps.
  ShardedPeers f;
  uint64_t delta = 0;
  ASSERT_TRUE(f.sys.replicas().ShardedDeltaBytes(f.client, f.origin, "d",
                                                 &delta));
  // The raw delta really is bigger than the encoded whole-document
  // transfer it competes with (per-shard envelopes + the manifest).
  const uint64_t whole_encoded =
      wire::EncodedTreeSize(*f.sys.peer(f.origin)->GetDocument("d"));
  ASSERT_GT(delta, whole_encoded);
  CostModel cached(&f.sys, /*assume_replica_cache=*/true);
  CostModel plain(&f.sys, /*assume_replica_cache=*/false);
  ExprPtr doc = Expr::Doc("d", f.origin);
  EXPECT_LE(cached.Estimate(f.client, doc).remote_bytes,
            plain.Estimate(f.client, doc).remote_bytes);
}

TEST(ShardedReplicaTest, DeltaPriceIsWhatTheNextReadShips) {
  ShardedPeers f;
  ReplicaManager& replicas = f.sys.replicas();
  // Tree bytes one read-path fetch ships: the manifest when stale plus
  // every shard the reader lacks. The shipment FetchForRead sends (at
  // launch, synchronously) must be exactly the one its plan encodes,
  // and the tree blobs inside that shipment are what it ships.
  auto fetch = [&] {
    const uint64_t version = replicas.Version(f.origin, "d");
    const ShardDelta plan =
        PlanShardDelta(*replicas.OriginShards(f.origin, "d"),
                       replicas.FindCache(f.client), f.origin, "d", version);
    const wire::Payload planned = EncodeCopyShipment(
        f.origin, "d", version, &plan, nullptr, /*stats=*/nullptr);
    Result<wire::Shipment> carried = wire::DecodeShipment(planned);
    EXPECT_TRUE(carried.ok());
    uint64_t shipped = carried.ok() ? carried->manifest.size() : 0;
    if (carried.ok()) {
      for (const wire::Shipment::Shard& s : carried->shards) {
        shipped += s.tree.size();
      }
    }
    const NetStats& net = f.sys.network().stats();
    const uint64_t before = net.class_bytes(wire::MessageClass::kShipment);
    bool delivered = false;
    EXPECT_TRUE(replicas.FetchForRead(
        f.client, f.origin, "d",
        [&delivered](TreePtr t) { delivered = t != nullptr; }));
    EXPECT_EQ(net.class_bytes(wire::MessageClass::kShipment) - before,
              planned.size());
    f.sys.RunToQuiescence();
    EXPECT_TRUE(delivered);
    return shipped;
  };
  uint64_t priced = 0;
  // Cold reader: the manifest and every distinct shard.
  ASSERT_TRUE(replicas.ShardedDeltaBytes(f.client, f.origin, "d", &priced));
  EXPECT_EQ(fetch(), priced);
  // After a one-product mutation: the stale manifest and the dirty shard.
  f.MutateOneProduct(120);
  ASSERT_TRUE(replicas.ShardedDeltaBytes(f.client, f.origin, "d", &priced));
  EXPECT_GT(priced, 0u);
  EXPECT_EQ(fetch(), priced);
  // A complete fresh copy: nothing.
  ASSERT_TRUE(replicas.ShardedDeltaBytes(f.client, f.origin, "d", &priced));
  EXPECT_EQ(priced, 0u);
  EXPECT_EQ(fetch(), 0u);
}

TEST(ShardedReplicaTest, DurableRejoinReinstallsOnlyACompleteCopy) {
  for (const bool evict_one : {false, true}) {
    SCOPED_TRACE(evict_one ? "one shard evicted while down" : "complete");
    ShardedPeers f;
    Evaluator ev(&f.sys, CachingOptions());
    ASSERT_TRUE(ev.Eval(f.client, f.Read()).ok());
    ASSERT_TRUE(f.sys.replicas().IsCachedCopy(f.client, "d"));

    f.sys.CrashPeer(f.client, CrashMode::kDurableCache);
    EXPECT_FALSE(f.sys.replicas().IsCachedCopy(f.client, "d"));
    EXPECT_FALSE(f.sys.catalog()->IsAdvertised(ResourceKind::kDocument, "d",
                                               f.client));
    if (evict_one) {
      const ShardedDocument* sd = f.sys.replicas().OriginShards(f.origin, "d");
      ASSERT_NE(sd, nullptr);
      ASSERT_TRUE(f.sys.replicas().CacheFor(f.client)->Erase(ShardDataKey(
          f.origin, "d", sd->shards.front().id.ToString())));
    }
    f.sys.RejoinPeer(f.client);
    f.sys.RunToQuiescence();

    EXPECT_EQ(f.sys.replicas().HasFresh(f.client, f.origin, "d"), !evict_one);
    EXPECT_EQ(f.sys.replicas().IsCachedCopy(f.client, "d"), !evict_one);
    EXPECT_EQ(f.sys.catalog()->IsAdvertised(ResourceKind::kDocument, "d",
                                            f.client),
              !evict_one);
  }
}

TEST(ShardedReplicaTest, DurableRejoinReShipsAStaleCompleteCopy) {
  // The other side of the rejoin rule: a copy that was complete when
  // its holder crashed could serve reads by name, so under eager refresh
  // its stale manifest re-ships at rejoin, as a delta of the dirty shard.
  ShardedPeers f;
  f.sys.replicas().set_refresh_policy(RefreshPolicy::kEagerRefresh);
  Evaluator ev(&f.sys, CachingOptions());
  ASSERT_TRUE(ev.Eval(f.client, f.Read()).ok());
  ASSERT_TRUE(f.sys.replicas().IsCachedCopy(f.client, "d"));

  f.sys.CrashPeer(f.client, CrashMode::kDurableCache);
  f.MutateOneProduct(120);
  f.sys.replicas().ResetStats();
  f.sys.RejoinPeer(f.client);
  f.sys.RunToQuiescence();

  EXPECT_EQ(f.sys.replicas().subscription_stats().refreshes, 1u);
  EXPECT_EQ(f.sys.replicas().shard_stats().shards_shipped, 1u);
  EXPECT_TRUE(f.sys.replicas().HasFresh(f.client, f.origin, "d"));
  EXPECT_TRUE(f.sys.replicas().IsCachedCopy(f.client, "d"));
}

TEST(ShardedReplicaTest, NestedManifestDocumentReplicatesEndToEnd) {
  // A document whose size lives in one huge child replicates through
  // the full sharded path: recursive manifest on the wire, capped
  // shards in the cache, exact reads, delta refresh after mutation.
  AxmlSystem sys{Topology(LinkParams{0.050, 1.0e6})};
  const PeerId origin = sys.AddPeer("origin");
  const PeerId client = sys.AddPeer("client");
  NodeIdGen* gen = sys.peer(origin)->gen();
  Rng rng(23);
  TreePtr root = TreeNode::Element("wrapper", gen);
  root->AddChild(MakeCatalog(150, gen, &rng));
  const uint64_t doc_bytes = root->SerializedSize();
  ASSERT_TRUE(sys.InstallDocument(origin, "d", root).ok());
  ShardingConfig cfg;
  cfg.max_shard_bytes = 2048;
  sys.replicas().set_sharding_config(cfg);
  sys.replicas().set_sharding_enabled(true);
  ASSERT_NE(sys.replicas().OriginShards(origin, "d"), nullptr);

  Evaluator plain(&sys);
  Evaluator ev(&sys, CachingOptions());
  Query q = Query::Parse(
                "for $p in input(0)/wrapper/catalog/product "
                "where $p/price < 900 return <r>{ $p/name }</r>")
                .value();
  ExprPtr read = Expr::Apply(q, client, {Expr::Doc("d", origin)});
  auto base = plain.Eval(client, read);
  ASSERT_TRUE(base.ok());
  auto first = ev.Eval(client, read);
  ASSERT_TRUE(first.ok());
  EXPECT_TRUE(ResultsEqual(base->results, first->results));
  EXPECT_TRUE(sys.replicas().HasFresh(client, origin, "d"));

  // Second read: fully local.
  sys.network().mutable_stats()->Reset();
  ASSERT_TRUE(ev.Eval(client, read).ok());
  EXPECT_EQ(sys.network().stats().remote_bytes(), 0u);

  // Mutation under eager refresh ships a small delta, not the document.
  sys.replicas().set_refresh_policy(RefreshPolicy::kEagerRefresh);
  sys.network().mutable_stats()->Reset();
  Peer* host = sys.peer(origin);
  TreePtr next = host->GetDocument("d")->CloneSameIds();
  TreeNode* catalog = next->child(0).get();
  TreeNode* desc = nullptr;
  for (const TreePtr& c : catalog->child(75)->children()) {
    if (c->label_text() == "desc") desc = c.get();
  }
  ASSERT_NE(desc, nullptr);
  desc->child(0)->set_text(std::string(desc->child(0)->text().size(), '!'));
  host->PutDocument("d", next);
  sys.RunToQuiescence();
  EXPECT_GT(sys.network().stats().remote_bytes(), 0u);
  EXPECT_LT(sys.network().stats().remote_bytes(), doc_bytes / 4);
  EXPECT_TRUE(sys.replicas().HasFresh(client, origin, "d"));
  auto after = ev.Eval(client, read);
  ASSERT_TRUE(after.ok());
  auto truth = plain.Eval(client, read);
  ASSERT_TRUE(truth.ok());
  EXPECT_TRUE(ResultsEqual(truth->results, after->results));
}

}  // namespace
}  // namespace axml
