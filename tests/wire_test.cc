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
//   4. Size: EncodedTreeSize, which counts without encoding, equals the
//      size of the blob EncodeTree emits.

#include <gtest/gtest.h>

#include <string>
#include <string_view>
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

/// A random tree mixing every v2 record kind: empty elements, leaf
/// elements, mixed content, elements whose one child is an element,
/// now and then a text-only root, and — with over 32 labels in
/// `label_pool` — two-byte element headers. Texts run from empty to
/// past 32 bytes, where a text header takes two bytes.
TreePtr MakeMixedTree(size_t n, size_t label_pool, NodeIdGen* gen,
                      Rng* rng) {
  auto text = [rng] {
    return TreeNode::Text(rng->Identifier(
        rng->Bernoulli(0.2) ? 33 + rng->Index(100) : rng->Index(6)));
  };
  if (rng->Bernoulli(0.05)) return text();
  std::vector<TreePtr> elements{
      TreeNode::Element(StrCat("l", rng->Index(label_pool)), gen)};
  for (size_t i = 1; i < n; ++i) {
    TreeNode* parent = elements[rng->Index(elements.size())].get();
    if (rng->Bernoulli(0.3)) {
      // A leaf while alone; mixed content beside element siblings.
      parent->AddChild(text());
    } else {
      // Empty until it gets children of its own.
      elements.push_back(parent->AddChild(
          TreeNode::Element(StrCat("l", rng->Index(label_pool)), gen)));
    }
  }
  return elements[0];
}

/// Reorders the children of every element of `n`, in place.
void ShuffleChildren(TreeNode* n, Rng* rng) {
  if (!n->is_element()) return;
  std::vector<TreePtr> kids = n->children();
  rng->Shuffle(&kids);
  while (n->child_count() > 0) n->RemoveChild(0);
  for (TreePtr& k : kids) {
    ShuffleChildren(k.get(), rng);
    n->AddChild(std::move(k));
  }
}

/// A kTree blob of the current version: `labels` as the table, then
/// `records` as they are.
std::string TreeBlob(const std::vector<std::string>& labels,
                     std::string_view records) {
  std::string out{static_cast<char>(wire::kWireVersion),
                  static_cast<char>(wire::MessageClass::kTree)};
  wire::AppendVarint(labels.size(), &out);
  for (const std::string& l : labels) wire::AppendLengthPrefixed(l, &out);
  out.append(records);
  return out;
}

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
  for (int i = 0; i < 300; ++i) {
    TreePtr t;
    switch (rng.Index(3)) {
      case 0:
        t = MakeRandomTree(1 + rng.Index(60), &gen, &rng);
        break;
      case 1:
        t = MakeCatalog(1 + rng.Index(16), &gen, &rng);
        break;
      default:
        t = MakeMixedTree(1 + rng.Index(120), 4 + rng.Index(60), &gen, &rng);
    }
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
  // Every record kind, and label tables past 32 entries.
  size_t wide_tables = 0;
  for (int i = 0; i < 300; ++i) {
    TreePtr t =
        MakeMixedTree(1 + rng.Index(120), 4 + rng.Index(60), &gen, &rng);
    const std::string blob = wire::EncodeTree(*t);
    EXPECT_EQ(wire::EncodedTreeSize(*t), blob.size()) << "iteration " << i;
    // The table's count is one varint byte below 128 labels.
    if (static_cast<uint8_t>(blob[2]) > 32) ++wide_tables;
    TreePtr shuffled = t->CloneSameIds();
    ShuffleChildren(shuffled.get(), &rng);
    EXPECT_EQ(wire::EncodeTree(*shuffled), blob) << "iteration " << i;
  }
  EXPECT_GT(wide_tables, 0u) << "no tree needed two-byte element headers";
}

TEST(WireModelTest, V2RecordLayoutIsPinned) {
  // <r><b/><b/><a>x</a></r>: b is used twice, so it heads the table;
  // a and r tie on one use and sort by text. Each record is one varint
  // header, (value << 2) | kind, in canonical child order (a before b).
  NodeIdGen gen;
  TreePtr t = MakeElement("r",
                          {TreeNode::Element("b", &gen),
                           TreeNode::Element("b", &gen),
                           MakeTextElement("a", "x", &gen)},
                          &gen);
  const std::string records{
      (2 << 2) | 1, 3,  // r: element, label 2, 3 children
      (1 << 2) | 2, 1, 'x',  // a: leaf, label 1, text "x"
      (0 << 2) | 3,  // b: empty, label 0
      (0 << 2) | 3};
  const std::string expected = TreeBlob({"b", "a", "r"}, records);
  EXPECT_EQ(wire::EncodeTree(*t), expected);
  EXPECT_EQ(wire::EncodedTreeSize(*t), expected.size());

  // A text-only root: no labels, one text record.
  TreePtr text = TreeNode::Text("hi");
  EXPECT_EQ(wire::EncodeTree(*text),
            TreeBlob({}, std::string{(2 << 2) | 0, 'h', 'i'}));
  EXPECT_EQ(wire::EncodedTreeSize(*text), 6u);
}

TEST(WireModelTest, MalformedV2RecordsAreTypedParseErrors) {
  NodeIdGen dest;
  auto expect_error = [&dest](const std::string& blob, std::string_view what) {
    auto r = wire::DecodeTree(blob, &dest);
    ASSERT_FALSE(r.ok()) << what;
    EXPECT_EQ(r.status().code(), StatusCode::kParseError) << what;
    EXPECT_NE(r.status().message().find(what), std::string::npos)
        << r.status().message();
  };
  // A leaf promising 5 bytes of text that carries 2.
  expect_error(TreeBlob({"a"}, std::string{(0 << 2) | 2, 5, 'a', 'b'}),
               "truncated leaf text");
  // Label index 1 in a one-label table, in a leaf and in an empty record.
  expect_error(TreeBlob({"a"}, std::string{(1 << 2) | 2, 1, 'x'}),
               "label index");
  expect_error(TreeBlob({"a"}, std::string{(1 << 2) | 3}), "label index");
  // A text record whose length runs past the buffer.
  expect_error(TreeBlob({}, std::string{(10 << 2) | 0, 'a', 'b', 'c'}),
               "truncated text");
  // An element record claiming more children than bytes remain.
  expect_error(TreeBlob({"a"}, std::string{(0 << 2) | 1, 9, (0 << 2) | 3}),
               "child count");
  // Nested records whose counts each fit the bytes after them but
  // together claim more records than the blob holds: the decoder
  // reserves children by count, so it refuses the second claim.
  expect_error(TreeBlob({"a"}, std::string{(0 << 2) | 1, 6, (0 << 2) | 1, 4,
                                           (0 << 2) | 3, (0 << 2) | 3,
                                           (0 << 2) | 3, (0 << 2) | 3}),
               "child count");
  // Element records the encoder never writes: <a/> as kind 1 with no
  // children (it writes kind 3), and <a>x</a> as kind 1 with one text
  // child (it writes kind 2).
  expect_error(TreeBlob({"a"}, std::string{(0 << 2) | 1, 0}),
               "empty element record");
  expect_error(TreeBlob({"a"}, std::string{(0 << 2) | 1, 1, (1 << 2) | 0, 'x'}),
               "text-only element record");

  // A v1 blob of <a>x</a>: tag byte, label, child count, tag, length.
  const std::string v1{1, 0, 1, 1, 'a', 1, 0, 1, 0, 1, 'x'};
  expect_error(v1, "version 1, expected 2");
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
  // The catalog's records are leaves under elements; mixed trees add
  // empty, text and two-byte-header records.
  std::vector<std::string> blobs{blob};
  for (int i = 0; i < 4; ++i) {
    blobs.push_back(wire::EncodeTree(*MakeMixedTree(40, 48, &gen, &rng)));
  }

  wire::WireStats stats;
  for (const std::string& b : blobs) {
    for (size_t cut = 0; cut < b.size(); ++cut) {
      auto r = wire::DecodeTree(std::string_view(b).substr(0, cut), &dest);
      EXPECT_FALSE(r.ok()) << "truncation at " << cut << " decoded";
      EXPECT_EQ(r.status().code(), StatusCode::kParseError);
    }
    for (int i = 0; i < 300; ++i) {
      std::string mutated = b;
      const size_t flips = 1 + rng.Index(4);
      for (size_t f = 0; f < flips; ++f) {
        mutated[rng.Index(mutated.size())] =
            static_cast<char>(rng.Uniform(256));
      }
      auto r = wire::DecodeTree(mutated, &dest, &stats);
      if (r.ok()) {
        CanonicalForm(*r.value());  // must be traversable, not garbage
      } else {
        EXPECT_EQ(r.status().code(), StatusCode::kParseError);
      }
    }
  }
  EXPECT_EQ(stats.decode_calls, 300u * blobs.size());
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
