// aql_query: the paper's core path — parse AQL, optimize eval@p(e),
// evaluate.
//
// 8 peers on a hierarchical topology (2 regions x 2 racks x 2), each
// hosting a 200-product catalog. Each op parses one AQL text drawn from
// seeded templates — a selection (seeded threshold, 1-50% selectivity),
// a 2-way join on name across two peers, or a projection — optimizes
// it at a fixed client peer with the default beam, and evaluates the
// chosen plan with the replica cache off (the paper's baseline
// semantics). query, opt and the algebra ship path do the work; the
// replica layer, the catalog and sharding are bypassed.

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/str_util.h"
#include "heap_quarantine.h"
#include "net/topology.h"
#include "opt/optimizer.h"
#include "query/query.h"
#include "workload.h"

namespace axml::perfbench {
namespace {

constexpr size_t kProducts = 200;
constexpr size_t kDescBytes = 24;
constexpr size_t kDefaultOps = 1020;
const PeerId kClient(0);

Topology::HierarchySpec Spec() {
  Topology::HierarchySpec spec;
  spec.regions = 2;
  spec.racks_per_region = 2;
  spec.peers_per_rack = 2;
  return spec;
}

void AddCounters(EvalCounters* into, const EvalCounters& c) {
  into->replica_hits += c.replica_hits;
  into->sharded_hits += c.sharded_hits;
  into->remote_fetches += c.remote_fetches;
  into->sharded_fetches += c.sharded_fetches;
  into->coalesced_joins += c.coalesced_joins;
  into->refresh_waits += c.refresh_waits;
}

class AqlQuery : public Workload {
 public:
  AqlQuery(uint64_t seed, size_t ops) : peers_(Spec().peer_count()) {
    Rng rng(seed);
    for (uint32_t p = 0; p < peers_; ++p) {
      products_.push_back(MakeProducts(kProducts, kDescBytes, &rng));
    }
    static const char* kFields[] = {"price", "category", "desc"};
    ops_.resize(ops == 0 ? kDefaultOps : ops);
    for (Op& op : ops_) {
      // Sources are remote to the client: peers 1..7.
      const auto source = [&] {
        return static_cast<uint32_t>(1 + rng.Index(peers_ - 1));
      };
      const int64_t threshold = rng.UniformInt(10, 500);
      switch (rng.Index(3)) {
        case 0:
          op.sources = {source()};
          op.text = StrCat(
              "for $p in input(0)/catalog/product where $p/price < ",
              threshold, " return $p");
          break;
        case 1: {
          const uint32_t a = source();
          uint32_t b = source();
          while (b == a) b = source();
          op.sources = {a, b};
          op.text = StrCat(
              "for $a in input(0)/catalog/product "
              "for $b in input(1)/catalog/product "
              "where $a/name = $b/name and $a/price < ",
              threshold, " return <pair>{ $a/name, $b/price }</pair>");
          break;
        }
        default:
          op.sources = {source()};
          op.text = StrCat(
              "for $p in input(0)/catalog/product "
              "return <r>{ $p/name, $p/",
              kFields[rng.Index(3)], " }</r>");
          break;
      }
    }
    // Reference results, computed once here rather than in the first
    // pass: the unoptimized query run by the executor alone over the
    // benchmark's own copy of the documents (Σ-equivalence of whatever
    // plan the optimizer picks).
    NodeIdGen gen;
    std::vector<TreePtr> docs;
    for (const std::vector<Product>& p : products_) {
      docs.push_back(CatalogTree(p, &gen));
    }
    for (Op& op : ops_) {
      Result<Query> q = Query::Parse(op.text);
      if (!q.ok()) continue;
      std::vector<std::vector<TreePtr>> inputs;
      for (uint32_t s : op.sources) inputs.push_back({docs[s]});
      // The templates read no doc(): nothing to resolve.
      Result<std::vector<TreePtr>> ref =
          q->Eval(inputs, [](const DocName&) { return TreePtr(); }, &gen);
      if (!ref.ok()) continue;
      op.expected = Digest(CanonicalMultiset(*ref));
      op.has_reference = true;
    }
  }

  size_t ops() const override { return ops_.size(); }
  AxmlSystem& system() override { return *sys_; }

  void Teardown() override {
    opt_.reset();
    sys_.reset();
  }

  void Build() override {
    sys_ = std::make_unique<AxmlSystem>(Topology::Hierarchical(Spec()));
    for (uint32_t p = 0; p < peers_; ++p) {
      const PeerId id = sys_->AddPeer(StrCat("n", p));
      Status st = sys_->InstallDocument(
          id, DocNameOf(p), CatalogTree(products_[p], sys_->peer(id)->gen()));
      AXML_CHECK(st.ok()) << st.ToString();
    }
    sys_->RunToQuiescence();
    opt_ = std::make_unique<Optimizer>(sys_.get());
    counts_ = WorkloadCounts();
  }

  void Prepare(size_t) override {}

  OpOutcome Run(size_t i, SpanRecorder* rec) override {
    const Op& op = ops_[i];
    OpOutcome out;
    Result<Query> q = Query();
    {
      SpanScope span(rec, i, Layer::kQuery, "Query::Parse");
      q = Query::Parse(op.text);
    }
    if (!q.ok()) {
      out.status = q.status();
      return out;
    }
    std::vector<ExprPtr> args;
    for (uint32_t s : op.sources) {
      args.push_back(Expr::Doc(DocNameOf(s), PeerId(s)));
    }
    direct_ = Expr::Apply(*q, kClient, std::move(args));
    {
      SpanScope span(rec, i, Layer::kOpt, "Optimizer::Optimize");
      HeapQuarantine no_reuse;  // see heap_quarantine.h
      plan_ = opt_->Optimize(kClient, direct_);
    }
    Evaluator ev(sys_.get());
    Result<EvalOutcome> r = Status::Internal("not evaluated");
    {
      SpanScope span(rec, i, Layer::kAlgebra, "Evaluator::Eval");
      r = ev.Eval(kClient, plan_.expr);
    }
    AddCounters(&counts_.eval, ev.counters());
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
    ++counts_.queries;
    counts_.results += out.results.size();
    counts_.candidates += opt_->candidates_explored();
    const CostWeights& w = OptimizerOptions().weights;
    const double chosen = plan_.cost.Scalar(w);
    if (chosen > 0) {
      counts_.cost_reduction.push_back(
          opt_->cost_model().Estimate(kClient, direct_).Scalar(w) / chosen);
    }
    return op.has_reference &&
           Digest(CanonicalMultiset(out.results)) == op.expected;
  }

  WorkloadCounts counts() const override { return counts_; }

 private:
  struct Op {
    std::string text;
    std::vector<uint32_t> sources;  ///< peer index per input(i)
    bool has_reference = false;
    uint64_t expected = 0;  ///< Digest of the reference result multiset
  };

  static DocName DocNameOf(uint32_t p) { return StrCat("cat", p); }

  /// 64-bit digest of a sorted canonical multiset (keeps the reference
  /// results of every op in memory without keeping every tree).
  static uint64_t Digest(const std::vector<std::string>& multiset) {
    uint64_t h = std::hash<size_t>{}(multiset.size());
    for (const std::string& s : multiset) {
      h = h * 1099511628211ull ^ std::hash<std::string>{}(s);
    }
    return h;
  }

  const uint32_t peers_;
  std::vector<std::vector<Product>> products_;
  std::vector<Op> ops_;
  std::unique_ptr<AxmlSystem> sys_;
  std::unique_ptr<Optimizer> opt_;
  ExprPtr direct_;
  OptimizedPlan plan_;
  WorkloadCounts counts_;
};

}  // namespace

std::unique_ptr<Workload> MakeAqlQuery(uint64_t seed, size_t ops) {
  return std::make_unique<AqlQuery>(seed, ops);
}

}  // namespace axml::perfbench
