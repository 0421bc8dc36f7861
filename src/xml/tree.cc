#include "xml/tree.h"

#include <algorithm>

#include "common/logging.h"
#include "xml/xml_serializer.h"

namespace axml {

TreePtr TreeNode::Element(LabelId label, NodeId id) {
  auto n = std::make_shared<TreeNode>(Key{});
  n->is_element_ = true;
  n->label_ = label;
  n->id_ = id;
  return n;
}

TreePtr TreeNode::Element(std::string_view label, NodeIdGen* gen) {
  AXML_CHECK(gen != nullptr);
  return Element(InternLabel(label), gen->Next());
}

TreePtr TreeNode::Text(std::string text) {
  auto n = std::make_shared<TreeNode>(Key{});
  n->is_element_ = false;
  n->text_ = std::move(text);
  return n;
}

const TreePtr& TreeNode::AddChild(TreePtr child) {
  AXML_CHECK(is_element_) << "text nodes cannot have children";
  AXML_CHECK(child != nullptr);
  children_.push_back(std::move(child));
  return children_.back();
}

void TreeNode::InsertChild(size_t i, TreePtr child) {
  AXML_CHECK(is_element_) << "text nodes cannot have children";
  AXML_CHECK(child != nullptr);
  AXML_CHECK_LE(i, children_.size());
  children_.insert(children_.begin() + static_cast<ptrdiff_t>(i),
                   std::move(child));
}

void TreeNode::RemoveChild(size_t i) {
  AXML_CHECK_LT(i, children_.size());
  children_.erase(children_.begin() + static_cast<ptrdiff_t>(i));
}

bool TreeNode::RemoveDescendant(NodeId id) {
  for (size_t i = 0; i < children_.size(); ++i) {
    if (children_[i]->is_element() && children_[i]->id() == id) {
      RemoveChild(i);
      return true;
    }
  }
  for (auto& c : children_) {
    if (c->is_element() && c->RemoveDescendant(id)) return true;
  }
  return false;
}

TreePtr TreeNode::Clone(NodeIdGen* gen) const {
  if (is_text()) return Text(text_);
  TreePtr copy = Element(label_, gen->Next());
  copy->ReserveChildren(children_.size());
  for (const auto& c : children_) copy->AddChild(c->Clone(gen));
  return copy;
}

TreePtr TreeNode::CloneSameIds() const {
  if (is_text()) return Text(text_);
  TreePtr copy = Element(label_, id_);
  copy->ReserveChildren(children_.size());
  for (const auto& c : children_) copy->AddChild(c->CloneSameIds());
  return copy;
}

TreeNode* TreeNode::FindNode(NodeId id) {
  if (is_element() && id_ == id) return this;
  for (auto& c : children_) {
    if (TreeNode* found = c->FindNode(id)) return found;
  }
  return nullptr;
}

const TreeNode* TreeNode::FindNode(NodeId id) const {
  return const_cast<TreeNode*>(this)->FindNode(id);
}

size_t TreeNode::CountNodes() const {
  size_t n = 1;
  for (const auto& c : children_) n += c->CountNodes();
  return n;
}

size_t TreeNode::Depth() const {
  size_t d = 0;
  for (const auto& c : children_) d = std::max(d, c->Depth());
  return d + 1;
}

bool TreeNode::ContainsServiceCall() const {
  if (is_element() && label_ == WellKnownLabels::Get().sc) return true;
  for (const auto& c : children_) {
    if (c->ContainsServiceCall()) return true;
  }
  return false;
}

std::string TreeNode::StringValue() const {
  if (is_text()) return text_;
  std::string out;
  for (const auto& c : children_) out += c->StringValue();
  return out;
}

TreeNode* TreeNode::FirstChildLabeled(LabelId label) const {
  for (const auto& c : children_) {
    if (c->is_element() && c->label() == label) return c.get();
  }
  return nullptr;
}

size_t TreeNode::SerializedSize() const {
  return SerializedCompactSize(*this);
}

TreePtr MakeTextElement(std::string_view label, std::string text,
                        NodeIdGen* gen) {
  TreePtr e = TreeNode::Element(label, gen);
  e->AddChild(TreeNode::Text(std::move(text)));
  return e;
}

TreePtr MakeElement(std::string_view label, std::vector<TreePtr> children,
                    NodeIdGen* gen) {
  TreePtr e = TreeNode::Element(label, gen);
  for (auto& c : children) e->AddChild(std::move(c));
  return e;
}

}  // namespace axml
