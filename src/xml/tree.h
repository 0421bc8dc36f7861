// The XML data model of §2.1: unranked, unordered, labeled trees.
//
// A node is either an *element* (interned label + node identifier +
// children) or a *text* leaf (character data). Node identifiers come from
// a NodeIdGen owned by the minting peer; copies made for shipping get
// fresh identifiers on the receiving peer (§3.2: "all evaluations of send
// expression trees are implicitly understood to copy the data model
// instances they send").
//
// Trees are held through TreePtr (shared_ptr<TreeNode>). Sharing is used
// for cheap intra-peer plumbing; any cross-peer transfer clones. The model
// is *unordered*: equality (tree_equal.h) ignores sibling order, though
// the implementation preserves insertion order for readable serialization.

#ifndef AXML_XML_TREE_H_
#define AXML_XML_TREE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/ids.h"
#include "xml/label_interner.h"

namespace axml {

class TreeNode;
using TreePtr = std::shared_ptr<TreeNode>;

/// Deepest nesting the decoders accept: the XML and AQL text parsers and
/// the wire decoder. Real documents and queries stay far below it; a
/// hostile input that nests deeper is rejected with a ParseError long
/// before recursive descent exhausts the stack.
constexpr size_t kMaxNestingDepth = 4096;

/// Mints fresh NodeIds on behalf of one peer (§2: each tree resides on
/// exactly one peer; its nodes are identified within that peer).
class NodeIdGen {
 public:
  /// `peer` may be PeerId::Invalid() for free-standing trees in tests.
  explicit NodeIdGen(PeerId peer = PeerId::Invalid()) : peer_(peer) {}

  NodeId Next() { return NodeId(peer_, counter_++); }
  PeerId peer() const { return peer_; }
  uint64_t minted() const { return counter_; }

 private:
  PeerId peer_;
  uint64_t counter_ = 0;
};

/// One XML node. See file comment for the element/text distinction.
class TreeNode {
  /// Passkey: only TreeNode's factories can name it, so the public
  /// constructor below is unreachable from outside while make_shared
  /// (one allocation for the node and its control block) can call it.
  struct Key {
    explicit Key() = default;
  };

 public:
  explicit TreeNode(Key) {}

  /// Creates an element node.
  static TreePtr Element(LabelId label, NodeId id);
  static TreePtr Element(std::string_view label, NodeIdGen* gen);
  /// Creates a text leaf.
  static TreePtr Text(std::string text);

  bool is_element() const { return is_element_; }
  bool is_text() const { return !is_element_; }

  /// Element label (0 for text nodes).
  LabelId label() const { return label_; }
  const std::string& label_text() const { return LabelText(label_); }
  /// Node identifier (invalid for text nodes).
  NodeId id() const { return id_; }
  /// Character data (empty for element nodes).
  const std::string& text() const { return text_; }
  void set_text(std::string t) { text_ = std::move(t); }

  const std::vector<TreePtr>& children() const { return children_; }
  size_t child_count() const { return children_.size(); }
  const TreePtr& child(size_t i) const { return children_[i]; }

  /// Appends `child`; returns it for chaining.
  const TreePtr& AddChild(TreePtr child);
  /// Reserves room for `n` children, for builders that know the count.
  void ReserveChildren(size_t n) { children_.reserve(n); }
  /// Inserts `child` before position `i` (`i == child_count()` appends).
  void InsertChild(size_t i, TreePtr child);
  /// Removes the child at index `i`.
  void RemoveChild(size_t i);
  /// Removes the first child identified by `id` anywhere below this node
  /// (including direct children). Returns true if found.
  bool RemoveDescendant(NodeId id);

  /// Deep copy with fresh identifiers minted from `gen`.
  TreePtr Clone(NodeIdGen* gen) const;
  /// Deep copy preserving identifiers (intra-peer structural copy).
  TreePtr CloneSameIds() const;

  /// Finds the node with identifier `id` in this subtree (including this
  /// node). Returns nullptr when absent.
  TreeNode* FindNode(NodeId id);
  const TreeNode* FindNode(NodeId id) const;

  /// Number of nodes in this subtree (elements + text leaves).
  size_t CountNodes() const;
  /// Height: a leaf has depth 1.
  size_t Depth() const;

  /// True if some node in the subtree is an element labeled `sc`
  /// (a service call, §2.2).
  bool ContainsServiceCall() const;

  /// Concatenation of all text leaves in document order (the "string
  /// value" used by query predicates).
  std::string StringValue() const;

  /// First direct child element with label `label`, or nullptr.
  TreeNode* FirstChildLabeled(LabelId label) const;

  /// Serialized byte size (same as xml_serializer's compact output),
  /// counted without serializing.
  size_t SerializedSize() const;

 private:
  bool is_element_ = false;
  LabelId label_ = 0;
  NodeId id_;
  std::string text_;
  std::vector<TreePtr> children_;
};

/// An XML document (§2.1): a named tree residing on one peer. The pair
/// (name, peer) is unique; the peer is implicit in the hosting Peer
/// object.
struct Document {
  DocName name;
  TreePtr root;
};

/// Convenience constructors used pervasively by tests and examples.

/// `<label>text</label>`
TreePtr MakeTextElement(std::string_view label, std::string text,
                        NodeIdGen* gen);
/// `<label>child1 child2 ...</label>`
TreePtr MakeElement(std::string_view label, std::vector<TreePtr> children,
                    NodeIdGen* gen);

}  // namespace axml

#endif  // AXML_XML_TREE_H_
