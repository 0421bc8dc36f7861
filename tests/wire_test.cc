// Model tests for the binary wire format (src/xml/wire.h).
//
// Three contracts, each seeded from AXML_TEST_SEED so CI's 5-seed
// matrix turns any failure into a pinned one-line repro:
//
//   1. Round trip: random trees, shipments, notify batches, lease
//      renewals and digest exchanges decode back to the identical
//      canonical form (trees) / field-identical struct (messages).
//   2. Canonical stability: unordered-equal trees encode
//      byte-identically — the property the content-addressed blob
//      store and shard ids price against.
//   3. Robustness: truncations and random byte corruptions of valid
//      buffers are rejected with a Status — never a crash — pinned by
//      a fuzz-ish mutation loop.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/rng.h"
#include "common/str_util.h"
#include "test_util.h"
#include "xml/digest.h"
#include "xml/tree_equal.h"
#include "xml/wire.h"

namespace axml {
namespace {

using testing::MakeCatalog;
using testing::MakeRandomTree;
using testing::TestSeed;

TEST(WireModelTest, HeaderCarriesVersionAndClass) {
  NodeIdGen gen;
  TreePtr t = MakeTextElement("a", "x", &gen);
  const std::string blob = wire::EncodeTree(*t);
  ASSERT_GE(blob.size(), 2u);
  EXPECT_EQ(static_cast<uint8_t>(blob[0]), wire::kWireVersion);
  EXPECT_EQ(static_cast<uint8_t>(blob[1]),
            static_cast<uint8_t>(wire::MessageClass::kTree));
  const wire::Payload p(blob);
  EXPECT_EQ(p.message_class(), wire::MessageClass::kTree);
  EXPECT_EQ(p.size(), blob.size());
}

TEST(WireModelTest, TreeRoundTripPreservesCanonicalForm) {
  Rng rng(TestSeed(0x717E));
  NodeIdGen gen;
  NodeIdGen dest_gen(PeerId(7));
  for (int i = 0; i < 200; ++i) {
    TreePtr t = rng.Bernoulli(0.5)
                    ? MakeRandomTree(1 + rng.Index(40), &gen, &rng)
                    : MakeCatalog(1 + rng.Index(12), &gen, &rng);
    const std::string blob = wire::EncodeTree(*t);
    auto decoded = wire::DecodeTree(blob, &dest_gen);
    ASSERT_TRUE(decoded.ok()) << decoded.status();
    EXPECT_EQ(CanonicalForm(*decoded.value()), CanonicalForm(*t));
    EXPECT_TRUE(TreesEqualUnordered(*decoded.value(), *t));
    // Copy semantics (§3.2): the decoded tree owns fresh ids minted at
    // the destination, never the sender's.
    EXPECT_EQ(decoded.value()->id().minted_by(), PeerId(7));
  }
}

TEST(WireModelTest, ReencodingADecodedBlobReproducesIt) {
  // Replica content is stored and forwarded as the bytes it arrived in;
  // that matches re-encoding the holder's decoded copy only because
  // EncodeTree(DecodeTree(b)) == b for every blob the encoder emits.
  Rng rng(TestSeed(0xB10B));
  NodeIdGen gen;
  NodeIdGen dest_gen(PeerId(3));
  for (int i = 0; i < 200; ++i) {
    TreePtr t = rng.Bernoulli(0.5)
                    ? MakeRandomTree(1 + rng.Index(60), &gen, &rng)
                    : MakeCatalog(1 + rng.Index(16), &gen, &rng);
    const std::string blob = wire::EncodeTree(*t);
    auto decoded = wire::DecodeTree(blob, &dest_gen);
    ASSERT_TRUE(decoded.ok()) << decoded.status();
    EXPECT_EQ(wire::EncodeTree(*decoded.value()), blob) << "iteration " << i;
  }
}

TEST(WireModelTest, UnorderedEqualTreesEncodeByteIdentically) {
  Rng rng(TestSeed(0xCA1));
  NodeIdGen gen;
  for (int i = 0; i < 50; ++i) {
    TreePtr t = MakeCatalog(2 + rng.Index(8), &gen, &rng);
    // A sibling-permuted clone: same unordered tree, different
    // insertion order.
    TreePtr shuffled = t->CloneSameIds();
    for (size_t round = 0; round < 3; ++round) {
      const size_t n = shuffled->child_count();
      if (n < 2) break;
      const size_t a = rng.Index(n);
      TreePtr moved = shuffled->child(a);
      shuffled->RemoveChild(a);
      shuffled->InsertChild(rng.Index(shuffled->child_count() + 1), moved);
    }
    ASSERT_TRUE(TreesEqualUnordered(*t, *shuffled));
    EXPECT_EQ(wire::EncodeTree(*t), wire::EncodeTree(*shuffled));
    EXPECT_EQ(wire::EncodedTreeSize(*t), wire::EncodeTree(*t).size());
  }
}

TEST(WireModelTest, ProtocolMessagesRoundTrip) {
  Rng rng(TestSeed(0x3E55));
  NodeIdGen gen;
  for (int i = 0; i < 100; ++i) {
    // Notify batch.
    wire::NotifyBatch batch;
    batch.origin = static_cast<uint32_t>(rng.Index(64));
    const size_t keys = rng.Index(6);
    for (size_t k = 0; k < keys; ++k) {
      batch.keys.push_back(
          {StrCat("d", rng.Index(9)),
           rng.Bernoulli(0.5) ? std::string() : rng.Identifier(8)});
    }
    auto nb = wire::DecodeNotifyBatch(wire::EncodeNotifyBatch(batch));
    ASSERT_TRUE(nb.ok()) << nb.status();
    EXPECT_EQ(nb->origin, batch.origin);
    ASSERT_EQ(nb->keys.size(), batch.keys.size());
    for (size_t k = 0; k < keys; ++k) {
      EXPECT_EQ(nb->keys[k].name, batch.keys[k].name);
      EXPECT_EQ(nb->keys[k].shard, batch.keys[k].shard);
    }

    // Lease renewal.
    wire::LeaseRenewal lease{static_cast<uint32_t>(rng.Index(64)),
                             static_cast<uint32_t>(rng.Index(64)),
                             rng.Uniform(1000)};
    auto lr = wire::DecodeLeaseRenewal(wire::EncodeLeaseRenewal(lease));
    ASSERT_TRUE(lr.ok()) << lr.status();
    EXPECT_EQ(lr->holder, lease.holder);
    EXPECT_EQ(lr->origin, lease.origin);
    EXPECT_EQ(lr->subscribed_keys, lease.subscribed_keys);

    // Shipment, whole and sharded.
    wire::Shipment ship;
    ship.origin = static_cast<uint32_t>(rng.Index(64));
    ship.name = StrCat("doc", rng.Index(9));
    ship.snapshot_version = 1 + rng.Uniform(100);
    ship.sharded = rng.Bernoulli(0.5);
    TreePtr content = MakeRandomTree(1 + rng.Index(10), &gen, &rng);
    if (ship.sharded) {
      ship.manifest =
          rng.Bernoulli(0.8) ? wire::EncodeTree(*content) : std::string();
      const size_t shards = rng.Index(4);
      for (size_t s = 0; s < shards; ++s) {
        TreePtr shard_tree = MakeRandomTree(1 + rng.Index(6), &gen, &rng);
        ship.shards.push_back({DigestOf(*shard_tree).ToString(),
                               wire::EncodeTree(*shard_tree)});
      }
    } else {
      ship.whole = wire::EncodeTree(*content);
    }
    auto sp = wire::DecodeShipment(wire::EncodeShipment(ship));
    ASSERT_TRUE(sp.ok()) << sp.status();
    EXPECT_EQ(sp->origin, ship.origin);
    EXPECT_EQ(sp->name, ship.name);
    EXPECT_EQ(sp->snapshot_version, ship.snapshot_version);
    EXPECT_EQ(sp->sharded, ship.sharded);
    EXPECT_EQ(sp->whole, ship.whole);
    EXPECT_EQ(sp->manifest, ship.manifest);
    ASSERT_EQ(sp->shards.size(), ship.shards.size());
    for (size_t s = 0; s < ship.shards.size(); ++s) {
      EXPECT_EQ(sp->shards[s].id, ship.shards[s].id);
      EXPECT_EQ(sp->shards[s].tree, ship.shards[s].tree);
    }

    // Digest exchange.
    wire::DigestExchange dig;
    dig.holder = static_cast<uint32_t>(rng.Index(64));
    dig.origin = static_cast<uint32_t>(rng.Index(64));
    const size_t docs = rng.Index(4);
    for (size_t d = 0; d < docs; ++d) {
      wire::DigestExchange::Doc doc;
      doc.name = StrCat("d", d);
      doc.version = rng.Uniform(50);
      doc.manifest = {rng.Uniform(UINT64_MAX), rng.Uniform(UINT64_MAX)};
      const size_t shards = rng.Index(5);
      for (size_t s = 0; s < shards; ++s) {
        doc.shards.push_back(
            {rng.Uniform(UINT64_MAX), rng.Uniform(UINT64_MAX)});
      }
      dig.docs.push_back(std::move(doc));
    }
    auto dx = wire::DecodeDigestExchange(wire::EncodeDigestExchange(dig));
    ASSERT_TRUE(dx.ok()) << dx.status();
    EXPECT_EQ(dx->holder, dig.holder);
    EXPECT_EQ(dx->origin, dig.origin);
    ASSERT_EQ(dx->docs.size(), dig.docs.size());
    for (size_t d = 0; d < dig.docs.size(); ++d) {
      EXPECT_EQ(dx->docs[d].name, dig.docs[d].name);
      EXPECT_EQ(dx->docs[d].version, dig.docs[d].version);
      EXPECT_EQ(dx->docs[d].manifest, dig.docs[d].manifest);
      EXPECT_EQ(dx->docs[d].shards, dig.docs[d].shards);
    }

    // Text envelope.
    const std::string text = rng.Identifier(1 + rng.Index(40));
    const wire::Payload tp =
        wire::EncodeText(wire::MessageClass::kQuery, text);
    EXPECT_EQ(tp.size(), wire::EncodedTextSize(text));
    auto tt = wire::DecodeText(tp);
    ASSERT_TRUE(tt.ok()) << tt.status();
    EXPECT_EQ(*tt, text);
  }
}

// Every truncation and 300 random single/multi-byte corruptions of a
// valid buffer either decode to *something* (a corruption can land on
// ignorable bytes, e.g. inside a text run) or fail with a Status —
// never crash, never hang. Decoded trees must still be well-formed
// enough to canonicalize.
TEST(WireModelTest, TruncatedAndCorruptedBuffersRejectedWithStatus) {
  Rng rng(TestSeed(0xF077));
  NodeIdGen gen;
  NodeIdGen dest(PeerId(3));
  TreePtr t = MakeCatalog(6, &gen, &rng);
  const std::string blob = wire::EncodeTree(*t);

  for (size_t cut = 0; cut < blob.size(); ++cut) {
    auto r = wire::DecodeTree(std::string_view(blob).substr(0, cut), &dest);
    EXPECT_FALSE(r.ok()) << "truncation at " << cut << " decoded";
    EXPECT_FALSE(r.status().message().empty());
  }

  wire::WireStats stats;
  for (int i = 0; i < 300; ++i) {
    std::string mutated = blob;
    const size_t flips = 1 + rng.Index(4);
    for (size_t f = 0; f < flips; ++f) {
      mutated[rng.Index(mutated.size())] =
          static_cast<char>(rng.Uniform(256));
    }
    auto r = wire::DecodeTree(mutated, &dest, &stats);
    if (r.ok()) {
      CanonicalForm(*r.value());  // must be traversable, not garbage
    } else {
      EXPECT_NE(r.status().code(), StatusCode::kOk);
    }
  }
  EXPECT_EQ(stats.decode_calls, 300u);
  EXPECT_GT(stats.decode_errors, 0u) << "mutation loop never hit a "
                                        "malformed buffer — not fuzzing";

  // Protocol messages: truncations of each class reject cleanly too.
  wire::NotifyBatch batch;
  batch.origin = 4;
  batch.keys.push_back({"doc", ""});
  const std::string nb = wire::EncodeNotifyBatch(batch).bytes();
  for (size_t cut = 0; cut < nb.size(); ++cut) {
    EXPECT_FALSE(
        wire::DecodeNotifyBatch(wire::Payload(nb.substr(0, cut))).ok());
  }
  wire::Shipment ship;
  ship.origin = 1;
  ship.name = "d";
  ship.snapshot_version = 2;
  ship.whole = blob;
  const std::string sb = wire::EncodeShipment(ship).bytes();
  for (size_t cut = 0; cut < sb.size(); ++cut) {
    EXPECT_FALSE(
        wire::DecodeShipment(wire::Payload(sb.substr(0, cut))).ok());
  }
}

TEST(WireModelTest, VersionAndClassMismatchesRejected) {
  NodeIdGen gen;
  NodeIdGen dest;
  TreePtr t = MakeTextElement("a", "x", &gen);
  std::string blob = wire::EncodeTree(*t);

  std::string wrong_version = blob;
  wrong_version[0] = static_cast<char>(wire::kWireVersion + 1);
  EXPECT_FALSE(wire::DecodeTree(wrong_version, &dest).ok());

  std::string wrong_class = blob;
  wrong_class[1] = static_cast<char>(wire::MessageClass::kLease);
  EXPECT_FALSE(wire::DecodeTree(wrong_class, &dest).ok());
  EXPECT_FALSE(
      wire::DecodeLeaseRenewal(wire::Payload(std::move(wrong_class))).ok());
}

TEST(WireModelTest, StatsCountPerClass) {
  wire::WireStats stats;
  NodeIdGen gen;
  TreePtr t = MakeTextElement("a", "x", &gen);
  const std::string blob = wire::EncodeTree(*t, &stats);
  wire::EncodeNotifyBatch({}, &stats);
  wire::EncodeLeaseRenewal({}, &stats);
  EXPECT_EQ(stats.encode_calls, 3u);
  EXPECT_EQ(
      stats.class_messages[static_cast<size_t>(wire::MessageClass::kTree)],
      1u);
  EXPECT_EQ(
      stats
          .class_bytes[static_cast<size_t>(wire::MessageClass::kNotify)] +
          stats.class_bytes[static_cast<size_t>(
              wire::MessageClass::kLease)] +
          blob.size(),
      stats.encode_bytes);
  // Latency histograms stay empty unless timing is opted into — the
  // determinism contract for twin-simulation comparisons.
  EXPECT_EQ(stats.encode_ns.count(), 0u);
}

}  // namespace
}  // namespace axml
