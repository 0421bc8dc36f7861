#include "workload.h"

#include <algorithm>

#include "xml/tree_equal.h"

namespace axml::perfbench {

std::vector<std::string> CanonicalMultiset(const std::vector<TreePtr>& trees) {
  std::vector<std::string> out;
  out.reserve(trees.size());
  for (const TreePtr& t : trees) out.push_back(CanonicalForm(*t));
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<Product> MakeProducts(size_t n, size_t desc_bytes, Rng* rng) {
  std::vector<Product> out(n);
  for (size_t i = 0; i < n; ++i) {
    out[i].name = "item" + std::to_string(i);
    out[i].price = std::to_string(rng->Uniform(1000));
    out[i].category = "c" + std::to_string(i % 10);
    out[i].desc = rng->Identifier(desc_bytes);
  }
  return out;
}

TreePtr CatalogTree(const std::vector<Product>& products, NodeIdGen* gen) {
  TreePtr catalog = TreeNode::Element("catalog", gen);
  for (const Product& p : products) {
    TreePtr prod = TreeNode::Element("product", gen);
    prod->AddChild(MakeTextElement("name", p.name, gen));
    prod->AddChild(MakeTextElement("price", p.price, gen));
    prod->AddChild(MakeTextElement("category", p.category, gen));
    prod->AddChild(MakeTextElement("desc", p.desc, gen));
    catalog->AddChild(std::move(prod));
  }
  return catalog;
}

std::string CatalogXml(const std::vector<Product>& products) {
  // Names, prices, categories and descriptions are plain alphanumerics:
  // nothing needs escaping.
  std::string out = "<catalog>";
  for (const Product& p : products) {
    out += "<product><name>" + p.name + "</name><price>" + p.price +
           "</price><category>" + p.category + "</category><desc>" +
           p.desc + "</desc></product>";
  }
  out += "</catalog>";
  return out;
}

}  // namespace axml::perfbench
