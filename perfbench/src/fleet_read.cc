// fleet_read: the FleetHarness shape, driven op by op.
//
// 1024 peers (2 regions x 4 racks x 128) on the routed Chord DHT
// catalog; 8 origins x 4 small documents; Zipf(1.0) document choice,
// uniform readers, 45% d@any reads resolved through the catalog with the
// cache-aware pick; replica cache on with a 4000 B budget per peer;
// every 16th op mutates a Zipf-chosen document at its origin under kDrop
// push invalidation. Catalog routing, the replica hit path and event
// dispatch do the work; the parsers, the optimizer and sharding idle.

#include <memory>
#include <string>
#include <vector>

#include "common/str_util.h"
#include "net/catalog.h"
#include "net/topology.h"
#include "workload.h"
#include "xml/tree_equal.h"

namespace axml::perfbench {
namespace {

constexpr uint32_t kOrigins = 8;
constexpr uint32_t kDocsPerOrigin = 4;
constexpr size_t kFiller = 4;
constexpr double kZipf = 1.0;
// 45%, not FleetHarness's 30%: at 30% almost exactly half the ops finish
// within one region, so the median simulated latency sat on the gap
// between the region and WAN clusters and jumped between them by seed.
constexpr double kGenericFraction = 0.45;
constexpr uint64_t kWriteEvery = 16;
constexpr uint64_t kCacheBudget = 4000;
constexpr size_t kDefaultOps = 8192;

Topology::HierarchySpec Spec() {
  Topology::HierarchySpec spec;
  spec.regions = 2;
  spec.racks_per_region = 4;
  spec.peers_per_rack = 128;
  return spec;
}

class FleetRead : public Workload {
 public:
  FleetRead(uint64_t seed, size_t ops) : peers_(Spec().peer_count()) {
    const uint32_t stride = peers_ / kOrigins;
    for (uint32_t o = 0; o < kOrigins; ++o) {
      for (uint32_t d = 0; d < kDocsPerOrigin; ++d) {
        Doc doc;
        doc.name = StrCat("d", o, "_", d);
        doc.origin = PeerId(o * stride);
        doc.class_name = StrCat("cls_", doc.name);
        docs_.push_back(doc);
      }
    }
    Rng rng(seed);
    ZipfSampler zipf(docs_.size(), kZipf);
    ops_.resize(ops == 0 ? kDefaultOps : ops);
    for (size_t i = 0; i < ops_.size(); ++i) {
      Op& op = ops_[i];
      op.write = i % kWriteEvery == kWriteEvery - 1;
      op.doc = static_cast<uint32_t>(zipf.Sample(&rng));
      if (!op.write) {
        op.reader = PeerId(static_cast<uint32_t>(rng.Index(peers_)));
        op.generic = rng.Bernoulli(kGenericFraction);
      }
    }
  }

  size_t ops() const override { return ops_.size(); }
  AxmlSystem& system() override { return *sys_; }

  void Teardown() override {
    ev_.reset();
    sys_.reset();
  }

  void Build() override {
    sys_ = std::make_unique<AxmlSystem>(Topology::Hierarchical(Spec()));
    for (uint32_t i = 0; i < peers_; ++i) sys_->AddPeer(StrCat("peer", i));
    sys_->SetCatalog(std::make_unique<ChordDhtCatalog>());
    sys_->replicas().set_refresh_policy(RefreshPolicy::kDrop);
    sys_->replicas().set_default_byte_budget(kCacheBudget);
    CatalogBackend* catalog = sys_->catalog();
    catalog->BeginAdvertiseBatch();
    for (Doc& doc : docs_) {
      doc.revision = 1;
      doc.truth.clear();
      Status st = sys_->InstallDocument(
          doc.origin, doc.name, MakeDoc(doc, sys_->peer(doc.origin)->gen()));
      AXML_CHECK(st.ok()) << st.ToString();
      sys_->generics().AddDocumentMember(doc.class_name,
                                         ClassMember{doc.name, doc.origin});
    }
    catalog->EndAdvertiseBatch();
    sys_->RunToQuiescence();
    EvalOptions opts;
    opts.use_replica_cache = true;
    opts.pick_policy = PickPolicy::kCacheAware;
    ev_ = std::make_unique<Evaluator>(sys_.get(), opts);
    writes_ = 0;
  }

  void Prepare(size_t i) override {
    const Op& op = ops_[i];
    if (!op.write) return;
    Doc& doc = docs_[op.doc];
    ++doc.revision;
    pending_ = MakeDoc(doc, sys_->peer(doc.origin)->gen());
    version_before_ = sys_->replicas().Version(doc.origin, doc.name);
  }

  OpOutcome Run(size_t i, SpanRecorder* rec) override {
    const Op& op = ops_[i];
    const Doc& doc = docs_[op.doc];
    OpOutcome out;
    if (op.write) {
      const SimTime t0 = sys_->loop().now();
      {
        SpanScope span(rec, i, Layer::kPeer, "Peer::PutDocument");
        sys_->peer(doc.origin)->PutDocument(doc.name, pending_);
      }
      {
        SpanScope span(rec, i, Layer::kNet, "AxmlSystem::RunToQuiescence");
        sys_->RunToQuiescence();
      }
      out.sim_ms = (sys_->loop().now() - t0) * 1e3;
      return out;
    }
    ExprPtr read = op.generic ? Expr::GenericDoc(doc.class_name)
                              : Expr::Doc(doc.name, doc.origin);
    SpanScope span(rec, i, Layer::kAlgebra, "Evaluator::Eval");
    Result<EvalOutcome> r = ev_->Eval(op.reader, read);
    if (!r.ok()) {
      out.status = r.status();
      return out;
    }
    out.results = std::move(r->results);
    out.sim_ms = r->Duration() * 1e3;
    return out;
  }

  bool Verify(size_t i, const OpOutcome& out) override {
    const Op& op = ops_[i];
    Doc& doc = docs_[op.doc];
    TreePtr current = sys_->peer(doc.origin)->GetDocument(doc.name);
    if (op.write) {
      doc.truth.clear();
      ++writes_;
      return current == pending_ &&
             sys_->replicas().Version(doc.origin, doc.name) ==
                 version_before_ + 1;
    }
    if (current == nullptr || out.results.size() != 1) return false;
    if (doc.truth.empty()) doc.truth = CanonicalForm(*current);
    return CanonicalForm(*out.results[0]) == doc.truth;
  }

  WorkloadCounts counts() const override {
    WorkloadCounts c;
    c.eval = ev_->counters();
    c.writes = writes_;
    return c;
  }

 private:
  struct Doc {
    DocName name;
    PeerId origin;
    std::string class_name;
    uint64_t revision = 1;
    std::string truth;  ///< canonical form of the current version
  };
  struct Op {
    bool write = false;
    uint32_t doc = 0;
    PeerId reader;
    bool generic = false;
  };

  static TreePtr MakeDoc(const Doc& doc, NodeIdGen* gen) {
    TreePtr root = TreeNode::Element("doc", gen);
    root->AddChild(
        MakeTextElement("id", StrCat(doc.name, "#", doc.revision), gen));
    for (size_t i = 0; i < kFiller; ++i) {
      root->AddChild(MakeTextElement(
          "x", StrCat(doc.name, "-", doc.revision, "-", i), gen));
    }
    return root;
  }

  const uint32_t peers_;
  std::vector<Doc> docs_;
  std::vector<Op> ops_;
  std::unique_ptr<AxmlSystem> sys_;
  std::unique_ptr<Evaluator> ev_;
  TreePtr pending_;
  uint64_t version_before_ = 0;
  uint64_t writes_ = 0;
};

}  // namespace

std::unique_ptr<Workload> MakeFleetRead(uint64_t seed, size_t ops) {
  return std::make_unique<FleetRead>(seed, ops);
}

}  // namespace axml::perfbench
