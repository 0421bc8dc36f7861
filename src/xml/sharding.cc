#include "xml/sharding.h"

#include <algorithm>
#include <set>
#include <utility>

#include "common/logging.h"
#include "xml/wire.h"

namespace axml {

namespace {

constexpr const char kManifestLabel[] = "#manifest";
constexpr const char kSubManifestLabel[] = "#submanifest";
constexpr const char kDocLabel[] = "#doc";
constexpr const char kShardRefLabel[] = "#shard";
constexpr const char kShardDataLabel[] = "#shard-data";
/// A child closes its group when `DigestOf(child).lo % kBoundaryModulus
/// == 0`: past the min clamp, a group holds this many children on
/// average.
constexpr uint64_t kBoundaryModulus = 8;

/// True when the recursive splitter can descend into `node`: an element
/// with >= 2 children, or a single-child element chain that reaches one.
bool Splittable(const TreeNode& node) {
  const TreeNode* cur = &node;
  while (cur->is_element()) {
    if (cur->child_count() >= 2) return true;
    if (cur->child_count() == 0) return false;
    cur = cur->child(0).get();
  }
  return false;  // the chain bottomed out in a text leaf
}

/// Shared state of one SplitDocument run.
struct Splitter {
  const ShardingConfig& cfg;
  /// Mints the ids of the transient shard and manifest trees; none
  /// survives the split, since only their encodings are kept.
  NodeIdGen* gen;
  ShardedDocument* out;
  uint64_t min_bytes;  // resolved min clamp for content-defined cuts

  /// Digests and encodes `group` as a `#shard-data` shard, records it,
  /// and appends its `#shard` reference under `manifest_node`.
  void EmitGroup(std::vector<TreePtr>& group, TreePtr& manifest_node) {
    if (group.empty()) return;
    // The wrapper shares the members instead of cloning them: it is
    // read twice and dropped here, so the source tree is never exposed.
    TreePtr content = TreeNode::Element(kShardDataLabel, gen);
    for (TreePtr& member : group) content->AddChild(std::move(member));
    DocumentShard shard;
    shard.id = DigestOf(*content);
    shard.encoded = wire::EncodeTree(*content);
    manifest_node->AddChild(
        MakeTextElement(kShardRefLabel, shard.id.ToString(), gen));
    out->shards.push_back(std::move(shard));
    group.clear();
  }

  /// Groups `node`'s children into shards and sub-manifests, appending
  /// manifest entries (in document order) under `manifest_node`.
  void SplitChildren(const TreeNode& node, TreePtr& manifest_node) {
    std::vector<TreePtr> current;
    uint64_t current_bytes = 0;
    auto close = [&] {
      EmitGroup(current, manifest_node);
      current_bytes = 0;
    };
    for (const TreePtr& child : node.children()) {
      const uint64_t child_bytes = child->SerializedSize();
      if (child_bytes > cfg.max_shard_bytes) {
        close();
        if (Splittable(*child)) {
          // Recursive split: a nested sub-manifest stands in for the
          // oversized child; its own children group below.
          TreePtr sub = TreeNode::Element(kSubManifestLabel, gen);
          TreePtr holder = TreeNode::Element(kDocLabel, gen);
          holder->AddChild(TreeNode::Element(child->label_text(), gen));
          sub->AddChild(std::move(holder));
          SplitChildren(*child, sub);
          manifest_node->AddChild(std::move(sub));
        } else {
          // Indivisible (text leaf or a chain ending in one): it travels
          // alone, over the cap — the one shape the byte budget cannot
          // cut finer.
          ++out->oversized_leaves;
          AXML_LOG(Info) << "sharding: indivisible node of " << child_bytes
                         << " B exceeds the " << cfg.max_shard_bytes
                         << " B cap; shipping as an oversized shard";
          current.push_back(child);
          current_bytes = child_bytes;
          close();
        }
        continue;
      }
      // Max clamp: never let a group overflow the cap.
      if (!current.empty() &&
          current_bytes + child_bytes > cfg.max_shard_bytes) {
        close();
      }
      current.push_back(child);
      current_bytes += child_bytes;
      // Content-defined cut: the boundary is a property of the child's
      // content, so an insertion or deletion upstream re-synchronizes at
      // the next surviving boundary child instead of shifting every
      // later group.
      if (current_bytes >= min_bytes &&
          DigestOf(*child).lo % kBoundaryModulus == 0) {
        close();
      }
    }
    close();
  }
};

}  // namespace

uint64_t ShardedDocument::TotalBytes() const {
  uint64_t total = manifest_bytes();
  for (const DocumentShard& s : shards) total += s.bytes();
  return total;
}

bool ShouldShard(const TreeNode& root, const ShardingConfig& cfg) {
  return root.is_element() && Splittable(root) &&
         root.SerializedSize() > cfg.max_shard_bytes;
}

ShardedDocument SplitDocument(const TreeNode& root,
                              const ShardingConfig& cfg) {
  AXML_CHECK(ShouldShard(root, cfg));
  ShardedDocument out;
  NodeIdGen scratch;
  NodeIdGen* gen = &scratch;
  Splitter splitter{
      cfg, gen, &out,
      /*min_bytes=*/
      std::min(cfg.min_shard_bytes != 0 ? cfg.min_shard_bytes
                                        : cfg.max_shard_bytes / 4,
               cfg.max_shard_bytes)};

  TreePtr manifest = TreeNode::Element(kManifestLabel, gen);
  // `#doc` wraps a childless clone of the root element, preserving its
  // label for assembly (the wrapper keeps a root labeled `#shard` from
  // masquerading as a reference).
  TreePtr doc_holder = TreeNode::Element(kDocLabel, gen);
  doc_holder->AddChild(TreeNode::Element(root.label_text(), gen));
  manifest->AddChild(std::move(doc_holder));
  splitter.SplitChildren(root, manifest);
  out.manifest = wire::EncodeTree(*manifest);
  return out;
}

bool IsShardManifest(const TreeNode& node) {
  return node.is_element() && node.label_text() == kManifestLabel;
}

namespace {

void CollectShardIds(const TreeNode& manifest_node,
                     std::vector<std::string>* ids) {
  for (const TreePtr& child : manifest_node.children()) {
    if (!child->is_element()) continue;
    if (child->label_text() == kShardRefLabel) {
      ids->push_back(child->StringValue());
    } else if (child->label_text() == kSubManifestLabel) {
      CollectShardIds(*child, ids);
    }
  }
}

/// Rebuilds the element a (sub-)manifest node describes. Shared by the
/// top-level assembly and the nested recursion.
TreePtr AssembleNode(
    const TreeNode& manifest_node,
    const std::function<TreePtr(const std::string& id_hex)>& shard_lookup,
    NodeIdGen* gen) {
  // Validate the shape first: exactly one #doc holding one childless
  // element; every other child a #shard reference or a nested
  // #submanifest.
  const TreeNode* doc = nullptr;
  for (const TreePtr& child : manifest_node.children()) {
    if (!child->is_element()) return nullptr;
    const std::string& label = child->label_text();
    if (label == kDocLabel) {
      if (doc != nullptr) return nullptr;  // two #doc children
      doc = child.get();
    } else if (label != kShardRefLabel && label != kSubManifestLabel) {
      return nullptr;
    }
  }
  if (doc == nullptr || doc->child_count() != 1) return nullptr;
  TreePtr root = doc->child(0)->Clone(gen);
  for (const TreePtr& child : manifest_node.children()) {
    if (child.get() == doc) continue;
    if (child->label_text() == kSubManifestLabel) {
      TreePtr sub = AssembleNode(*child, shard_lookup, gen);
      if (sub == nullptr) return nullptr;
      root->AddChild(std::move(sub));
      continue;
    }
    TreePtr content = shard_lookup(child->StringValue());
    if (content == nullptr || !content->is_element() ||
        content->label_text() != kShardDataLabel) {
      return nullptr;
    }
    for (const TreePtr& member : content->children()) {
      root->AddChild(member);
    }
  }
  return root;
}

}  // namespace

std::vector<std::string> ManifestShardIds(const TreeNode& manifest) {
  std::vector<std::string> ids;
  if (!IsShardManifest(manifest)) return ids;
  CollectShardIds(manifest, &ids);
  return ids;
}

std::vector<std::string> DirtiedShardIds(const ShardedDocument& before,
                                         const ShardedDocument& after) {
  std::set<std::string> old_ids;
  for (const DocumentShard& s : before.shards) {
    old_ids.insert(s.id.ToString());
  }
  std::set<std::string> seen;
  std::vector<std::string> dirty;
  for (const DocumentShard& s : after.shards) {
    std::string id = s.id.ToString();
    if (old_ids.count(id) == 0 && seen.insert(id).second) {
      dirty.push_back(std::move(id));
    }
  }
  return dirty;
}

TreePtr AssembleDocument(
    const TreeNode& manifest,
    const std::function<TreePtr(const std::string& id_hex)>& shard_lookup,
    NodeIdGen* gen) {
  if (!IsShardManifest(manifest)) return nullptr;
  return AssembleNode(manifest, shard_lookup, gen);
}

}  // namespace axml
