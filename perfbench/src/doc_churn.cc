// doc_churn: writes beside reads on the same replica layer.
//
// 4 origins each host a 256-product catalog (~25 KB encoded); 8 readers
// whose cache budget is one document's encoded size, so the working set
// is 4x the cache. Sharding is on (4 KiB shards) under kEagerRefresh.
// Documents are chosen by Zipf(1.5), readers uniformly. Two reads
// (doc@origin) to one write; a write changes one product's
// description, arrives as the whole catalog's XML text and runs
// ParseXml -> Peer::PutDocument -> drain. Re-sharding, digests, wire
// encode/decode, shipments, notify fan-out and eviction do the work;
// the catalog and the optimizer idle.

#include <memory>
#include <string>
#include <vector>

#include "common/str_util.h"
#include "net/topology.h"
#include "workload.h"
#include "xml/sharding.h"
#include "xml/tree_equal.h"
#include "xml/wire.h"
#include "xml/xml_parser.h"

namespace axml::perfbench {
namespace {

constexpr uint32_t kOrigins = 4;
constexpr uint32_t kReaders = 8;
constexpr size_t kProducts = 256;
constexpr size_t kDescBytes = 64;
constexpr uint64_t kShardBytes = 4 * 1024;
constexpr size_t kDefaultOps = 1026;  // 342 writes, 684 reads
// Skew keeps the median read on the partial-copy cluster: under uniform
// choice about half the reads were whole-document fetches, and the
// median simulated latency flipped between the two clusters by seed.
constexpr double kZipf = 1.5;

class DocChurn : public Workload {
 public:
  DocChurn(uint64_t seed, size_t ops) {
    Rng rng(seed);
    for (uint32_t o = 0; o < kOrigins; ++o) {
      initial_.push_back(MakeProducts(kProducts, kDescBytes, &rng));
      initial_xml_.push_back(CatalogXml(initial_.back()));
    }
    ops_.resize(ops == 0 ? kDefaultOps : ops);
    ZipfSampler zipf(kOrigins, kZipf);
    for (size_t i = 0; i < ops_.size(); ++i) {
      Op& op = ops_[i];
      op.write = i % 3 == 2;
      op.doc = static_cast<uint32_t>(zipf.Sample(&rng));
      if (op.write) {
        op.product = static_cast<uint32_t>(rng.Index(kProducts));
        // Same length as before: exactly one shard's content changes.
        op.desc = rng.Identifier(kDescBytes);
      } else {
        op.reader = static_cast<uint32_t>(rng.Index(kReaders));
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
    model_ = initial_;
    truth_.assign(kOrigins, std::string());
    sys_ = std::make_unique<AxmlSystem>(Topology(LinkParams{0.040, 2.0e6}));
    for (uint32_t o = 0; o < kOrigins; ++o) sys_->AddPeer(StrCat("origin", o));
    for (uint32_t r = 0; r < kReaders; ++r) sys_->AddPeer(StrCat("reader", r));
    ShardingConfig cfg;
    cfg.max_shard_bytes = kShardBytes;
    sys_->replicas().set_sharding_config(cfg);
    sys_->replicas().set_sharding_enabled(true);
    sys_->replicas().set_refresh_policy(RefreshPolicy::kEagerRefresh);
    uint64_t doc_bytes = 0;
    for (uint32_t o = 0; o < kOrigins; ++o) {
      Result<TreePtr> tree =
          ParseXml(initial_xml_[o], sys_->peer(Origin(o))->gen());
      AXML_CHECK(tree.ok()) << tree.status().ToString();
      if (o == 0) doc_bytes = wire::EncodedTreeSize(**tree);
      Status st = sys_->InstallDocument(Origin(o), DocNameOf(o), *tree);
      AXML_CHECK(st.ok()) << st.ToString();
    }
    sys_->replicas().set_default_byte_budget(doc_bytes);
    sys_->RunToQuiescence();
    EvalOptions opts;
    opts.use_replica_cache = true;
    ev_ = std::make_unique<Evaluator>(sys_.get(), opts);
    writes_ = 0;
  }

  void Prepare(size_t i) override {
    const Op& op = ops_[i];
    if (!op.write) return;
    model_[op.doc][op.product].desc = op.desc;
    text_ = CatalogXml(model_[op.doc]);
    version_before_ =
        sys_->replicas().Version(Origin(op.doc), DocNameOf(op.doc));
  }

  OpOutcome Run(size_t i, SpanRecorder* rec) override {
    const Op& op = ops_[i];
    const PeerId origin = Origin(op.doc);
    OpOutcome out;
    if (op.write) {
      Result<TreePtr> tree = TreePtr();
      {
        SpanScope span(rec, i, Layer::kXml, "ParseXml");
        tree = ParseXml(text_, sys_->peer(origin)->gen());
      }
      if (!tree.ok()) {
        out.status = tree.status();
        return out;
      }
      const SimTime t0 = sys_->loop().now();
      {
        SpanScope span(rec, i, Layer::kPeer, "Peer::PutDocument");
        sys_->peer(origin)->PutDocument(DocNameOf(op.doc), *tree);
      }
      {
        SpanScope span(rec, i, Layer::kNet, "AxmlSystem::RunToQuiescence");
        sys_->RunToQuiescence();
      }
      out.sim_ms = (sys_->loop().now() - t0) * 1e3;
      return out;
    }
    SpanScope span(rec, i, Layer::kAlgebra, "Evaluator::Eval");
    Result<EvalOutcome> r =
        ev_->Eval(Reader(op.reader), Expr::Doc(DocNameOf(op.doc), origin));
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
    const PeerId origin = Origin(op.doc);
    std::string& truth = truth_[op.doc];
    if (op.write) {
      ++writes_;
      truth.clear();
      if (sys_->replicas().Version(origin, DocNameOf(op.doc)) !=
          version_before_ + 1) {
        return false;
      }
    }
    // Ground truth is the benchmark's own model, never the program.
    if (truth.empty()) {
      truth = CanonicalForm(*CatalogTree(model_[op.doc], &gen_));
    }
    if (op.write) {
      TreePtr current = sys_->peer(origin)->GetDocument(DocNameOf(op.doc));
      return current != nullptr && CanonicalForm(*current) == truth;
    }
    return out.results.size() == 1 &&
           CanonicalForm(*out.results[0]) == truth;
  }

  WorkloadCounts counts() const override {
    WorkloadCounts c;
    c.eval = ev_->counters();
    c.writes = writes_;
    return c;
  }

 private:
  struct Op {
    bool write = false;
    uint32_t doc = 0;
    uint32_t reader = 0;
    uint32_t product = 0;
    std::string desc;
  };

  static PeerId Origin(uint32_t o) { return PeerId(o); }
  static PeerId Reader(uint32_t r) { return PeerId(kOrigins + r); }
  static DocName DocNameOf(uint32_t o) { return StrCat("catalog", o); }

  std::vector<std::vector<Product>> initial_;
  std::vector<std::string> initial_xml_;
  std::vector<Op> ops_;
  std::vector<std::vector<Product>> model_;
  std::vector<std::string> truth_;  ///< canonical form per document
  NodeIdGen gen_;
  std::unique_ptr<AxmlSystem> sys_;
  std::unique_ptr<Evaluator> ev_;
  std::string text_;
  uint64_t version_before_ = 0;
  uint64_t writes_ = 0;
};

}  // namespace

std::unique_ptr<Workload> MakeDocChurn(uint64_t seed, size_t ops) {
  return std::make_unique<DocChurn>(seed, ops);
}

}  // namespace axml::perfbench
