// The optimizer's plans must not depend on allocator state. CostModel
// memoizes cost walks per expression node during one search; beam
// candidates are freed mid-search, so a memo keyed by a node's address
// alone lets a new candidate born at a recycled address inherit a dead
// one's cost. This binary replaces the global operator new/delete so a
// test can run the same search under two heap histories: the
// allocator's own (freed blocks are reused at once) and one where every
// block freed during the search stays held until it ends.

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "common/str_util.h"
#include "opt/optimizer.h"
#include "query/query.h"
#include "test_util.h"

namespace {

// Blocks freed while a HoldFrees scope is live; managed with malloc so
// the bookkeeping never re-enters operator new.
bool g_holding = false;
void** g_held = nullptr;
size_t g_held_count = 0;
size_t g_held_capacity = 0;

void* Allocate(std::size_t n) {
  void* p = std::malloc(n == 0 ? 1 : n);
  if (p == nullptr) std::abort();
  return p;
}

void Release(void* p) noexcept {
  if (g_holding && p != nullptr) {
    if (g_held_count == g_held_capacity) {
      const size_t cap = g_held_capacity == 0 ? 4096 : 2 * g_held_capacity;
      void* grown = std::realloc(g_held, cap * sizeof(void*));
      if (grown != nullptr) {
        g_held = static_cast<void**>(grown);
        g_held_capacity = cap;
      }
    }
    if (g_held_count < g_held_capacity) {
      g_held[g_held_count++] = p;
      return;
    }
  }
  std::free(p);
}

/// While alive, no freed block is handed out again.
class HoldFrees {
 public:
  HoldFrees() { g_holding = true; }
  ~HoldFrees() {
    g_holding = false;
    for (size_t i = 0; i < g_held_count; ++i) std::free(g_held[i]);
    g_held_count = 0;
  }
  HoldFrees(const HoldFrees&) = delete;
  HoldFrees& operator=(const HoldFrees&) = delete;
};

}  // namespace

// Replacement allocation functions, not ownership: every form is
// replaced so none falls through to a runtime (ASan's) that would pair
// it with a different allocator.
void* operator new(std::size_t n) { return Allocate(n); }
void* operator new[](std::size_t n) {  // lint: allow-raw-new-delete
  return Allocate(n);
}
void operator delete(void* p) noexcept {  // lint: allow-raw-new-delete
  Release(p);
}
void operator delete[](void* p) noexcept {  // lint: allow-raw-new-delete
  Release(p);
}
void operator delete(void* p,  // lint: allow-raw-new-delete
                     std::size_t) noexcept {
  Release(p);
}
void operator delete[](void* p,  // lint: allow-raw-new-delete
                       std::size_t) noexcept {
  Release(p);
}

namespace axml {
namespace {

/// A catalog of `n` products with seeded prices.
TreePtr Catalog(size_t n, Rng* rng, NodeIdGen* gen) {
  TreePtr catalog = TreeNode::Element("catalog", gen);
  for (size_t i = 0; i < n; ++i) {
    TreePtr product = TreeNode::Element("product", gen);
    product->AddChild(MakeTextElement("name", StrCat("item", i), gen));
    product->AddChild(
        MakeTextElement("price", StrCat(rng->Uniform(1000)), gen));
    product->AddChild(MakeTextElement("desc", rng->Identifier(24), gen));
    catalog->AddChild(std::move(product));
  }
  return catalog;
}

TEST(OptimizerHeapTest, PlanDoesNotDependOnHeapHistory) {
  Topology::HierarchySpec spec;
  spec.regions = 2;
  spec.racks_per_region = 2;
  spec.peers_per_rack = 2;
  AxmlSystem sys(Topology::Hierarchical(spec));
  Rng rng(testing::TestSeed(7));
  for (uint32_t p = 0; p < spec.peer_count(); ++p) {
    const PeerId id = sys.AddPeer(StrCat("n", p));
    ASSERT_TRUE(sys.InstallDocument(id, StrCat("cat", p),
                                    Catalog(200, &rng, sys.peer(id)->gen()))
                    .ok());
  }
  sys.RunToQuiescence();
  Optimizer opt(&sys);
  const PeerId client(0);
  // Selections and joins over remote catalogs at seeded thresholds.
  for (int i = 0; i < 24; ++i) {
    const uint32_t a = 1 + static_cast<uint32_t>(rng.Index(7));
    const uint32_t b = 1 + (a % 7);
    const int64_t threshold = rng.UniformInt(10, 500);
    const bool join = i % 2 == 1;
    const std::string text =
        join ? StrCat("for $a in input(0)/catalog/product "
                      "for $b in input(1)/catalog/product "
                      "where $a/name = $b/name and $a/price < ",
                      threshold, " return <pair>{ $a/name, $b/price }</pair>")
             : StrCat("for $p in input(0)/catalog/product where $p/price < ",
                      threshold, " return $p");
    Result<Query> q = Query::Parse(text);
    ASSERT_TRUE(q.ok()) << q.status().ToString();
    std::vector<ExprPtr> args = {Expr::Doc(StrCat("cat", a), PeerId(a))};
    if (join) args.push_back(Expr::Doc(StrCat("cat", b), PeerId(b)));
    const ExprPtr direct = Expr::Apply(*q, client, std::move(args));

    const std::string reused = opt.Optimize(client, direct).ToString();
    std::string held;
    {
      HoldFrees hold;
      held = opt.Optimize(client, direct).ToString();
    }
    EXPECT_EQ(reused, held) << text;
  }
}

}  // namespace
}  // namespace axml
