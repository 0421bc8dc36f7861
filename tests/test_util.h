// Shared helpers for the axml test suite.

#ifndef AXML_TESTS_TEST_UTIL_H_
#define AXML_TESTS_TEST_UTIL_H_

#include <cstdlib>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.h"
#include "common/str_util.h"
#include "xml/tree.h"
#include "xml/tree_equal.h"

namespace axml {
namespace testing {

/// Seed for randomized tests: the AXML_TEST_SEED environment variable
/// when set (CI pins it across a seed matrix so a flake reproduces as
/// `AXML_TEST_SEED=<n> ctest -R <test>`), otherwise `fallback`.
inline uint64_t TestSeed(uint64_t fallback) {
  const char* s = std::getenv("AXML_TEST_SEED");
  if (s == nullptr || *s == '\0') return fallback;
  char* end = nullptr;
  const unsigned long long parsed = std::strtoull(s, &end, 10);
  return end == s ? fallback : static_cast<uint64_t>(parsed);
}

/// Builds a product-catalog document:
///   <catalog> <product><name>item<i></name><price>P</price>
///             <category>C</category><desc>...</desc></product>* </catalog>
/// Prices are uniform in [0, 1000); categories cycle c0..c9. The shape
/// mirrors the data-intensive workloads the paper's applications imply.
inline TreePtr MakeCatalog(size_t n_products, NodeIdGen* gen, Rng* rng,
                           size_t desc_bytes = 32) {
  TreePtr catalog = TreeNode::Element("catalog", gen);
  for (size_t i = 0; i < n_products; ++i) {
    TreePtr prod = TreeNode::Element("product", gen);
    prod->AddChild(MakeTextElement("name", StrCat("item", i), gen));
    prod->AddChild(MakeTextElement(
        "price", std::to_string(rng->Uniform(1000)), gen));
    prod->AddChild(
        MakeTextElement("category", StrCat("c", i % 10), gen));
    if (desc_bytes > 0) {
      prod->AddChild(
          MakeTextElement("desc", rng->Identifier(desc_bytes), gen));
    }
    catalog->AddChild(std::move(prod));
  }
  return catalog;
}

/// A random labeled tree with `n` elements, for fuzz-ish round trips.
inline TreePtr MakeRandomTree(size_t n, NodeIdGen* gen, Rng* rng) {
  static const char* kLabels[] = {"a", "b", "c", "item", "node", "x"};
  std::vector<TreePtr> pool;
  pool.push_back(TreeNode::Element("root", gen));
  for (size_t i = 1; i < n; ++i) {
    TreePtr parent = pool[rng->Index(pool.size())];
    TreePtr child = TreeNode::Element(kLabels[rng->Index(6)], gen);
    if (rng->Bernoulli(0.4)) {
      child->AddChild(TreeNode::Text(rng->Identifier(6)));
    }
    parent->AddChild(child);
    pool.push_back(child);
  }
  return pool[0];
}

/// Multiset equality of two result streams under unordered tree
/// equality.
inline bool ResultsEqual(const std::vector<TreePtr>& a,
                         const std::vector<TreePtr>& b) {
  if (a.size() != b.size()) return false;
  std::vector<std::string> ca, cb;
  for (const auto& t : a) ca.push_back(CanonicalForm(*t));
  for (const auto& t : b) cb.push_back(CanonicalForm(*t));
  std::sort(ca.begin(), ca.end());
  std::sort(cb.begin(), cb.end());
  return ca == cb;
}

/// One seeded fuzz input: `text` with 1-4 random byte inserts, deletes
/// or overwrites. Half the written bytes come from `syntax`, the bytes
/// the parser under test branches on, so edits reach past the lexer.
inline std::string MutateText(std::string text, std::string_view syntax,
                              Rng* rng) {
  for (size_t e = 1 + rng->Index(4); e > 0; --e) {
    const size_t at = rng->Index(text.size() + 1);
    const char c = rng->Bernoulli(0.5)
                       ? syntax[rng->Index(syntax.size())]
                       : static_cast<char>(rng->Uniform(256));
    switch (rng->Index(3)) {
      case 0:
        text.insert(text.begin() + at, c);
        break;
      case 1:
        if (at < text.size()) text.erase(at, 1);
        break;
      default:
        if (at < text.size()) text[at] = c;
        break;
    }
  }
  return text;
}

}  // namespace testing
}  // namespace axml

#endif  // AXML_TESTS_TEST_UTIL_H_
