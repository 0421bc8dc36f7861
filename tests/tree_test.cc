// Unit tests for the tree data model (src/xml/tree.*).

#include <gtest/gtest.h>

#include "common/rng.h"
#include "test_util.h"
#include "xml/tree.h"
#include "xml/xml_serializer.h"

namespace axml {
namespace {

TEST(TreeTest, ElementBasics) {
  NodeIdGen gen(PeerId(0));
  TreePtr e = TreeNode::Element("book", &gen);
  EXPECT_TRUE(e->is_element());
  EXPECT_FALSE(e->is_text());
  EXPECT_EQ(e->label_text(), "book");
  EXPECT_TRUE(e->id().valid());
  EXPECT_EQ(e->child_count(), 0u);
}

TEST(TreeTest, TextBasics) {
  TreePtr t = TreeNode::Text("hello");
  EXPECT_TRUE(t->is_text());
  EXPECT_EQ(t->text(), "hello");
  EXPECT_FALSE(t->id().valid());
}

TEST(TreeTest, AddRemoveChildren) {
  NodeIdGen gen;
  TreePtr root = TreeNode::Element("r", &gen);
  root->AddChild(MakeTextElement("a", "1", &gen));
  root->AddChild(MakeTextElement("b", "2", &gen));
  EXPECT_EQ(root->child_count(), 2u);
  root->RemoveChild(0);
  ASSERT_EQ(root->child_count(), 1u);
  EXPECT_EQ(root->child(0)->label_text(), "b");
}

TEST(TreeTest, RemoveDescendant) {
  NodeIdGen gen;
  TreePtr root = TreeNode::Element("r", &gen);
  TreePtr mid = TreeNode::Element("m", &gen);
  TreePtr leaf = TreeNode::Element("l", &gen);
  NodeId leaf_id = leaf->id();
  mid->AddChild(leaf);
  root->AddChild(mid);
  EXPECT_TRUE(root->RemoveDescendant(leaf_id));
  EXPECT_EQ(mid->child_count(), 0u);
  EXPECT_FALSE(root->RemoveDescendant(leaf_id));
}

TEST(TreeTest, CloneMintsFreshIds) {
  NodeIdGen gen0(PeerId(0)), gen1(PeerId(1));
  TreePtr root = TreeNode::Element("r", &gen0);
  root->AddChild(MakeTextElement("a", "x", &gen0));
  TreePtr copy = root->Clone(&gen1);
  EXPECT_NE(copy->id(), root->id());
  EXPECT_EQ(copy->id().minted_by(), PeerId(1));
  EXPECT_EQ(copy->label_text(), "r");
  ASSERT_EQ(copy->child_count(), 1u);
  EXPECT_EQ(copy->child(0)->StringValue(), "x");
  // Structure is preserved.
  EXPECT_TRUE(testing::ResultsEqual({root}, {copy}));
}

TEST(TreeTest, CloneSameIdsPreservesIds) {
  NodeIdGen gen;
  TreePtr root = TreeNode::Element("r", &gen);
  TreePtr child = root->AddChild(TreeNode::Element("c", &gen));
  TreePtr copy = root->CloneSameIds();
  EXPECT_EQ(copy->id(), root->id());
  EXPECT_EQ(copy->child(0)->id(), child->id());
  // But mutation of the copy does not affect the original.
  copy->AddChild(TreeNode::Text("new"));
  EXPECT_EQ(root->child_count(), 1u);
}

TEST(TreeTest, FindNode) {
  NodeIdGen gen;
  TreePtr root = TreeNode::Element("r", &gen);
  TreePtr a = root->AddChild(TreeNode::Element("a", &gen));
  TreePtr b = a->AddChild(TreeNode::Element("b", &gen));
  EXPECT_EQ(root->FindNode(b->id()), b.get());
  EXPECT_EQ(root->FindNode(root->id()), root.get());
  NodeIdGen other(PeerId(9));
  EXPECT_EQ(root->FindNode(other.Next()), nullptr);
}

TEST(TreeTest, CountAndDepth) {
  NodeIdGen gen;
  TreePtr root = TreeNode::Element("r", &gen);
  root->AddChild(MakeTextElement("a", "t", &gen));  // element + text
  EXPECT_EQ(root->CountNodes(), 3u);
  EXPECT_EQ(root->Depth(), 3u);
}

TEST(TreeTest, ContainsServiceCall) {
  NodeIdGen gen;
  TreePtr root = TreeNode::Element("r", &gen);
  EXPECT_FALSE(root->ContainsServiceCall());
  TreePtr nested = TreeNode::Element("wrap", &gen);
  nested->AddChild(TreeNode::Element("sc", &gen));
  root->AddChild(nested);
  EXPECT_TRUE(root->ContainsServiceCall());
}

TEST(TreeTest, StringValueConcatenatesLeaves) {
  NodeIdGen gen;
  TreePtr root = TreeNode::Element("r", &gen);
  root->AddChild(TreeNode::Text("a"));
  TreePtr mid = root->AddChild(TreeNode::Element("m", &gen));
  mid->AddChild(TreeNode::Text("b"));
  EXPECT_EQ(root->StringValue(), "ab");
}

TEST(TreeTest, FirstChildLabeled) {
  NodeIdGen gen;
  TreePtr root = TreeNode::Element("r", &gen);
  root->AddChild(MakeTextElement("a", "1", &gen));
  root->AddChild(MakeTextElement("b", "2", &gen));
  TreeNode* b = root->FirstChildLabeled(InternLabel("b"));
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(b->StringValue(), "2");
  EXPECT_EQ(root->FirstChildLabeled(InternLabel("zz")), nullptr);
}

/// A random tree whose text and attribute values mix in the escaped
/// characters, with `@name` attribute children, empty elements and
/// empty text.
TreePtr MakeEscapeHeavyTree(size_t n, NodeIdGen* gen, Rng* rng) {
  static const char* kLabels[] = {"a", "item", "@id", "@k", "x"};
  static const char kChars[] = "&<>\"'ab z";
  auto text = [rng] {
    std::string t;
    for (size_t i = rng->Index(6); i > 0; --i) {
      t.push_back(kChars[rng->Index(sizeof(kChars) - 1)]);
    }
    return t;
  };
  std::vector<TreePtr> pool{TreeNode::Element("root", gen)};
  for (size_t i = 1; i < n; ++i) {
    TreePtr parent = pool[rng->Index(pool.size())];
    TreePtr child = TreeNode::Element(kLabels[rng->Index(5)], gen);
    // An `@` child with exactly one text leaf serializes as an
    // attribute; other shapes stay elements.
    if (rng->Bernoulli(0.5)) child->AddChild(TreeNode::Text(text()));
    parent->AddChild(child);
    pool.push_back(child);
    if (rng->Bernoulli(0.2)) parent->AddChild(TreeNode::Text(text()));
  }
  return pool[0];
}

TEST(TreeTest, SerializedSizeMatchesSerializer) {
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    NodeIdGen gen;
    Rng rng(seed);
    TreePtr plain = testing::MakeRandomTree(50, &gen, &rng);
    EXPECT_EQ(plain->SerializedSize(), SerializeCompact(*plain).size())
        << "seed " << seed;
    TreePtr escaped = MakeEscapeHeavyTree(1 + rng.Index(60), &gen, &rng);
    EXPECT_EQ(escaped->SerializedSize(), SerializeCompact(*escaped).size())
        << "seed " << seed << ": " << SerializeCompact(*escaped);
  }
}

TEST(LabelInternerTest, InternIsIdempotent) {
  LabelId a = InternLabel("some-label");
  LabelId b = InternLabel("some-label");
  EXPECT_EQ(a, b);
  EXPECT_EQ(LabelText(a), "some-label");
}

TEST(LabelInternerTest, WellKnownLabels) {
  const WellKnownLabels& wk = WellKnownLabels::Get();
  EXPECT_EQ(LabelText(wk.sc), "sc");
  EXPECT_EQ(LabelText(wk.peer), "peer");
  EXPECT_EQ(LabelText(wk.service), "service");
  EXPECT_EQ(LabelText(wk.forw), "forw");
}

}  // namespace
}  // namespace axml
