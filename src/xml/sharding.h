// Subtree sharding: splitting one large document into content-addressed
// shards so partial copies become possible.
//
// The replica layer materializes transferred trees as local copies (the
// paper's rule (13)), but a whole-tree copy is all-or-nothing: a document
// bigger than a holder's byte budget can never be cached, refreshed or
// proactively placed, no matter how hot its subtrees are. The splitter
// here partitions an unranked tree into subtree shards:
//
//  - the root's children are grouped, in insertion order, into shards
//    whose serialized size stays under ShardingConfig::max_shard_bytes.
//    Group boundaries are *content-defined* (see below);
//  - a child bigger than the cap is split *recursively*: its own children
//    shard the same way, and the manifest records a nested sub-manifest
//    node in its place — so no data shard exceeds the cap except a single
//    indivisible node (a text leaf or a childless/one-leaf element),
//    which travels as its own oversized shard and bumps
//    ShardedDocument::oversized_leaves;
//  - each shard's id is the ContentDigest of its canonical form, so an
//    unchanged group of subtrees keeps its id across document versions —
//    a mutation of one subtree dirties exactly the shard holding it, and
//    only that shard must cross the wire again;
//  - a small root *manifest* shard records the document's root element
//    and the ordered tree of child-shard ids (nested sub-manifests
//    included). The manifest is itself a tree, so it ships, caches and
//    dedups through the same machinery as any other content;
//  - every shard and the manifest are encoded once, at split, and kept
//    only as those wire bytes (xml/wire.h): a shipment splices them and
//    a holder's cache stores them unchanged. The `#shard-data` tree of a
//    group lives only long enough to be digested and encoded.
//
// Reassembly (AssembleDocument) is exact up to node identifiers: the
// assembled tree is unordered-equal to the original (tree_equal.h), which
// is the only equality the system observes.
//
// Shard-id stability: a group closes after a child whose content digest
// satisfies `digest mod 8 == 0` (clamped to [min, max] group bytes). The
// boundary is a property of the child's *content*, not of accumulated
// size, so an insertion or deletion re-synchronizes at the next
// surviving boundary child: O(1) neighboring shard ids dirty instead of
// every downstream one, as a pure size cut would.

#ifndef AXML_XML_SHARDING_H_
#define AXML_XML_SHARDING_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "xml/digest.h"
#include "xml/tree.h"

namespace axml {

/// Knobs for the splitter.
struct ShardingConfig {
  /// Target cap on one shard's serialized bytes. Also the sharding
  /// threshold: a document at or below this size ships whole. A single
  /// indivisible node bigger than the cap still becomes one (oversized)
  /// shard; splittable oversized children are descended into instead.
  uint64_t max_shard_bytes = 64 * 1024;
  /// Content-defined boundaries may not fire before a group holds this
  /// many bytes (keeps pathological all-boundary content from emitting
  /// one shard per child). 0 means max_shard_bytes / 4.
  uint64_t min_shard_bytes = 0;
};

/// One data shard: a group of sibling subtrees, wrapped for shipping.
struct DocumentShard {
  /// Digest of the shard tree's canonical form — its stable identity.
  ContentDigest id;
  /// Wire encoding (wire::EncodeTree) of a synthetic `#shard-data`
  /// element whose children are the group's subtrees.
  std::string encoded;

  /// What shipping this shard costs.
  uint64_t bytes() const { return encoded.size(); }
};

/// A split document: the manifest plus its data shards, in manifest
/// (depth-first) order.
struct ShardedDocument {
  /// Wire encoding of the `#manifest` element: one childless `#doc`
  /// clone of the original root, then — in document order — `#shard`
  /// text children (text = id hex) and `#submanifest` elements for
  /// recursively split children. A `#submanifest` has the same shape
  /// (its `#doc` holds the childless clone of the split child) and may
  /// nest further.
  std::string manifest;
  /// Every data shard at every nesting depth, in manifest order.
  std::vector<DocumentShard> shards;
  /// Indivisible nodes bigger than the cap that had to travel as their
  /// own oversized shard (also logged at Info by the splitter).
  uint64_t oversized_leaves = 0;

  uint64_t manifest_bytes() const { return manifest.size(); }
  /// Manifest + data bytes: what shipping everything would cost.
  uint64_t TotalBytes() const;
};

/// True when `root` is worth splitting under `cfg`: an element whose
/// serialized size exceeds the shard cap and whose structure is
/// splittable — at least two children at some depth reachable through
/// single-child element chains (the recursive splitter descends such
/// chains, so a document whose size lives in one huge child still
/// shards). Everything else ships whole.
bool ShouldShard(const TreeNode& root, const ShardingConfig& cfg);

/// Splits `root` into a manifest and size-capped data shards, each
/// encoded once. `root` is not modified, and no node id outlives the
/// call. Precondition: ShouldShard(root, cfg).
ShardedDocument SplitDocument(const TreeNode& root,
                              const ShardingConfig& cfg);

/// True when `node` looks like a manifest produced by SplitDocument.
bool IsShardManifest(const TreeNode& node);

/// The data-shard id hex strings a manifest references, nested
/// sub-manifests included, in depth-first manifest order (empty when
/// `manifest` is not a manifest). May contain duplicates when
/// byte-identical groups repeat.
std::vector<std::string> ManifestShardIds(const TreeNode& manifest);

/// The distinct shard ids `after` references that `before` did not —
/// what a delta against a copy of `before` must ship. The boundary
/// rule's quality metric: content-defined boundaries keep this O(1)
/// around an insertion or deletion where greedy cuts cascade.
std::vector<std::string> DirtiedShardIds(const ShardedDocument& before,
                                         const ShardedDocument& after);

/// Rebuilds the document a manifest describes, recursing into nested
/// sub-manifests. `shard_lookup` maps a shard-id hex string to that
/// shard's `#shard-data` tree, decoded for this call: the assembly
/// adopts its children, so each call must return a tree nobody else
/// holds (a repeated id is looked up once per reference). Returning
/// nullptr aborts the assembly. The root is a clone of the manifest's
/// `#doc` element minted from `gen`. Returns nullptr when `manifest` is
/// malformed or any shard is missing.
TreePtr AssembleDocument(
    const TreeNode& manifest,
    const std::function<TreePtr(const std::string& id_hex)>& shard_lookup,
    NodeIdGen* gen);

}  // namespace axml

#endif  // AXML_XML_SHARDING_H_
