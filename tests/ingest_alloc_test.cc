// Allocation pins for tree ingest: ParseXml, wire::DecodeTree and
// TreeNode::Clone of a fixed 256-product catalog (the shape of
// perfbench's doc_churn documents) must stay at or under 1.7 heap
// allocations per tree node. A second pin holds a reused Evaluator to
// the live allocations of a single Eval.
//
// Host time is too noisy to gate, but an allocation count repeats
// exactly in a separate process, so this binary replaces the global
// operator new with a counting one. Each node costs one allocation (the
// node and its shared_ptr control block come from one make_shared), an
// element one more for its exactly sized children vector, and a text
// leaf one more when it is longer than the small-string buffer. Under
// AddressSanitizer, which owns operator new, the pins are skipped.

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>
#include <utility>

#include "algebra/evaluator.h"
#include "common/rng.h"
#include "common/str_util.h"
#include "peer/system.h"
#include "xml/tree_equal.h"
#include "xml/wire.h"
#include "xml/xml_parser.h"

#if defined(__SANITIZE_ADDRESS__)
#define AXML_COUNTING_NEW 0
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define AXML_COUNTING_NEW 0
#endif
#endif
#ifndef AXML_COUNTING_NEW
#define AXML_COUNTING_NEW 1
#endif

namespace {

// Allocations and frees counted by the replaced operator new and delete
// while `counting`.
bool counting = false;
uint64_t allocations = 0;
uint64_t frees = 0;

}  // namespace

#if AXML_COUNTING_NEW
// GCC pairs the replaced operator new's malloc with the free below
// through inlining and warns about a mismatch that is not one.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
void* operator new(std::size_t size) {
  if (counting) ++allocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept {
  if (counting && p != nullptr) ++frees;
  std::free(p);
}
void operator delete[](void* p) noexcept { ::operator delete(p); }
void operator delete(void* p, std::size_t) noexcept { ::operator delete(p); }
void operator delete[](void* p, std::size_t) noexcept {
  ::operator delete(p);
}
#endif

namespace axml {
namespace {

constexpr size_t kProducts = 256;
constexpr size_t kDescBytes = 64;
/// catalog + 256 × (product + 4 fields × (element + text leaf)).
constexpr size_t kCatalogNodes = 1 + kProducts * 9;
/// The pinned ceiling. ParseXml makes 3,855 allocations (1.67 per node)
/// and DecodeTree 3,843 with libstdc++; before nodes came from
/// make_shared and children vectors were sized once, they made 7,694
/// (3.3 per node) and 6,668 (2.9).
constexpr double kMaxAllocsPerNode = 1.7;

std::string CatalogXml() {
  Rng rng(7);
  std::string out = "<catalog>";
  for (size_t i = 0; i < kProducts; ++i) {
    out += StrCat("<product><name>item", i, "</name><price>",
                  rng.Uniform(1000), "</price><category>c", i % 10,
                  "</category><desc>", rng.Identifier(kDescBytes),
                  "</desc></product>");
  }
  out += "</catalog>";
  return out;
}

/// Heap allocations `fn` makes.
template <typename Fn>
uint64_t Count(Fn&& fn) {
  allocations = 0;
  frees = 0;
  counting = true;
  fn();
  counting = false;
  return allocations;
}

/// Allocations `fn` leaves live: those it makes less those it frees.
template <typename Fn>
int64_t Live(Fn&& fn) {
  const uint64_t made = Count(std::forward<Fn>(fn));
  return static_cast<int64_t>(made) - static_cast<int64_t>(frees);
}

class IngestAllocTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!AXML_COUNTING_NEW) {
      GTEST_SKIP() << "AddressSanitizer owns operator new";
    }
    text_ = CatalogXml();
    NodeIdGen gen;
    auto tree = ParseXml(text_, &gen);
    ASSERT_TRUE(tree.ok()) << tree.status();
    tree_ = std::move(tree).value();
    ASSERT_EQ(tree_->CountNodes(), kCatalogNodes);
    blob_ = wire::EncodeTree(*tree_);
  }

  std::string text_;
  TreePtr tree_;
  std::string blob_;
};

TEST_F(IngestAllocTest, ParseXmlStaysUnderThePin) {
  NodeIdGen gen;
  Result<TreePtr> parsed = Status::Internal("not run");
  const uint64_t allocs = Count([&] { parsed = ParseXml(text_, &gen); });
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_TRUE(TreesEqualUnordered(*parsed.value(), *tree_));
  const double per_node = static_cast<double>(allocs) / kCatalogNodes;
  RecordProperty("allocations", static_cast<int>(allocs));
  EXPECT_LE(per_node, kMaxAllocsPerNode)
      << allocs << " allocations for " << kCatalogNodes << " nodes";
}

TEST_F(IngestAllocTest, DecodeTreeStaysUnderThePin) {
  NodeIdGen gen;
  Result<TreePtr> decoded = Status::Internal("not run");
  const uint64_t allocs =
      Count([&] { decoded = wire::DecodeTree(blob_, &gen); });
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_TRUE(TreesEqualUnordered(*decoded.value(), *tree_));
  const double per_node = static_cast<double>(allocs) / kCatalogNodes;
  RecordProperty("allocations", static_cast<int>(allocs));
  EXPECT_LE(per_node, kMaxAllocsPerNode)
      << allocs << " allocations for " << kCatalogNodes << " nodes";
}

TEST_F(IngestAllocTest, CloneStaysUnderThePin) {
  NodeIdGen gen;
  TreePtr clone;
  const uint64_t allocs = Count([&] { clone = tree_->Clone(&gen); });
  EXPECT_TRUE(TreesEqualUnordered(*clone, *tree_));
  RecordProperty("allocations", static_cast<int>(allocs));
  EXPECT_LE(static_cast<double>(allocs) / kCatalogNodes, kMaxAllocsPerNode)
      << allocs << " allocations for " << kCatalogNodes << " nodes";

  const uint64_t same_ids = Count([&] { clone = tree_->CloneSameIds(); });
  EXPECT_EQ(clone->id(), tree_->id());
  EXPECT_LE(static_cast<double>(same_ids) / kCatalogNodes, kMaxAllocsPerNode)
      << same_ids << " allocations for " << kCatalogNodes << " nodes";
}

TEST(EvaluatorAllocTest, AReusedEvaluatorRetainsNoQuery) {
  if (!AXML_COUNTING_NEW) {
    GTEST_SKIP() << "AddressSanitizer owns operator new";
  }
  AxmlSystem sys;
  const PeerId p0 = sys.AddPeer("p0");
  const PeerId p1 = sys.AddPeer("p1");
  ASSERT_TRUE(sys.InstallDocumentXml(p1, "d", "<r><i>1</i><i>2</i></r>").ok());
  Query q = Query::Parse("for $x in input(0)//i return $x").value();
  const ExprPtr read = Expr::Apply(q, p0, {Expr::Doc("d", p1)});
  Evaluator ev(&sys);
  bool ok = true;
  auto eval = [&] { ok = ok && ev.Eval(p0, read).ok(); };
  // The first run sizes the system's own tables (links, event queue).
  eval();
  const int64_t one = Live(eval);
  const int64_t hundred = Live([&] {
    for (int i = 0; i < 100; ++i) eval();
  });
  ASSERT_TRUE(ok);
  RecordProperty("live_after_one", static_cast<int>(one));
  RecordProperty("live_after_hundred", static_cast<int>(hundred));
  EXPECT_LE(hundred, one) << "one Eval leaves " << one
                          << " allocations live, a hundred leave "
                          << hundred;
}

}  // namespace
}  // namespace axml
