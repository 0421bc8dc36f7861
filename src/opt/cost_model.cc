#include "opt/cost_model.h"

#include <algorithm>

#include "algebra/expr_xml.h"
#include "common/str_util.h"
#include "xml/wire.h"

namespace axml {

namespace {

/// Average serialized bytes per tree node, used to convert volume
/// estimates into compute-node counts.
constexpr double kBytesPerNode = 32.0;

/// Default selectivities per predicate kind (System-R style).
constexpr double kSelEq = 0.10;
constexpr double kSelRange = 0.33;
constexpr double kSelContains = 0.25;
constexpr double kSelExists = 0.90;

/// Wire bytes of a shipped query: its canonical text in a kQuery
/// envelope — exactly what the evaluator's SendReliable prices.
double EncodedQueryBytes(const Query& q) {
  return static_cast<double>(wire::EncodedTextSize(q.text()));
}

/// Wire bytes of a delegated expression (eval@p): the compact
/// serialization in a kQuery envelope, matching DeployEvalAt.
double EncodedExprBytes(const Expr& e) {
  NodeIdGen gen;
  return static_cast<double>(
      wire::EncodedTextSize(SerializeCompactExpr(e, &gen)));
}

double CondSelectivity(const aql::Cond& c, const TreeStats* stats) {
  using K = aql::Cond::Kind;
  switch (c.kind) {
    case K::kAnd: {
      double s = 1.0;
      for (const auto& ch : c.children) {
        s *= CondSelectivity(*ch, stats);
      }
      return s;
    }
    case K::kOr: {
      double s = 1.0;
      for (const auto& ch : c.children) {
        s *= 1.0 - CondSelectivity(*ch, stats);
      }
      return 1.0 - s;
    }
    case K::kNot:
      return 1.0 - CondSelectivity(*c.children[0], stats);
    case K::kCompare: {
      // Stats-based estimate for `path <op> literal` when the last step
      // of the path names a label we have numeric stats for.
      if (stats != nullptr &&
          c.rhs.kind == aql::Operand::Kind::kLiteral &&
          c.lhs.kind != aql::Operand::Kind::kLiteral &&
          !c.lhs.path.empty() &&
          c.lhs.path.back().test == aql::Step::Test::kLabel) {
        double bound;
        if (ParseDouble(c.rhs.literal, &bound)) {
          LabelId label = c.lhs.path.back().label;
          double frac_less =
              stats->EstimateSelectivityLess(label, bound);
          switch (c.op) {
            case CmpOp::kLt:
            case CmpOp::kLe:
              return std::clamp(frac_less, 0.001, 1.0);
            case CmpOp::kGt:
            case CmpOp::kGe:
              return std::clamp(1.0 - frac_less, 0.001, 1.0);
            case CmpOp::kEq:
              return kSelEq;
            case CmpOp::kNe:
              return 1.0 - kSelEq;
          }
        }
      }
      return c.op == CmpOp::kEq ? kSelEq : kSelRange;
    }
    case K::kExists:
      return kSelExists;
    case K::kContains:
      return kSelContains;
  }
  return 0.5;
}

}  // namespace

std::string CostEstimate::ToString() const {
  return StrCat("time=", FormatDouble(time_s),
                "s remote_bytes=", FormatDouble(remote_bytes),
                " remote_msgs=", FormatDouble(remote_messages));
}

double CostModel::EstimateQuerySelectivity(
    const Query& q, const TreeStats* input_stats) const {
  if (!q.valid()) return 1.0;
  double sel = 1.0;
  if (q.ast().where != nullptr) {
    sel = CondSelectivity(*q.ast().where, input_stats);
  }
  // Navigation in for-clauses narrows to subtrees; approximate each
  // path step as keeping 60% of the volume (fan-out vs. subtree size).
  for (const auto& fc : q.ast().clauses) {
    for (size_t i = 0; i < fc.path.size(); ++i) sel *= 0.6;
  }
  return std::clamp(sel, 1e-4, 1.0);
}

const TreeStats* CostModel::DocStats(PeerId p, const DocName& name) const {
  std::string key = StrCat(p.index(), "/", name);
  auto it = stats_cache_.find(key);
  if (it != stats_cache_.end()) return &it->second;
  const Peer* peer = sys_->peer(p);
  if (peer == nullptr) return nullptr;
  TreePtr root = peer->GetDocument(name);
  if (root == nullptr) return nullptr;
  auto [pos, inserted] = stats_cache_.emplace(key, ComputeStats(*root));
  return &pos->second;
}

double CostModel::DocSourceBytes(const Query& q, PeerId eval_peer) const {
  if (!q.valid()) return 0;
  double bytes = 0;
  for (const auto& fc : q.ast().clauses) {
    if (fc.source.kind != aql::Source::Kind::kDoc) continue;
    if (const TreeStats* st = DocStats(eval_peer, fc.source.doc_name)) {
      bytes += static_cast<double>(st->serialized_bytes);
    }
  }
  return bytes;
}

CostEstimate CostModel::TransferCost(PeerId from, PeerId to,
                                     double bytes) const {
  CostEstimate c;
  if (from == to || !from.is_concrete() || !to.is_concrete()) return c;
  LinkParams link = sys_->network().topology().Get(from, to);
  c.time_s = link.TransferTime(static_cast<uint64_t>(bytes));
  c.remote_bytes = bytes;
  c.remote_messages = 1;
  return c;
}

double CostModel::RefetchCost(PeerId reader, PeerId owner,
                              uint64_t bytes) const {
  return TransferCost(owner, reader, static_cast<double>(bytes)).time_s;
}

CostEstimate CostModel::DocTransferCost(PeerId reader, PeerId owner,
                                        const DocName& name,
                                        double bytes) const {
  // ExpectedFresh, not HasFresh: under RefreshPolicy::kEagerRefresh a
  // mutation drops a whole or installed copy but its replacement is
  // already on the wire — the fresh-copy assumption plans are priced on
  // does not decay at mutation time. A partial sharded copy is not
  // re-shipped, so it stays priced at its delta below. (Under
  // kDrop/kLazy the two probes agree.)
  if (assume_replica_cache_) {
    if (sys_->replicas().ExpectedFresh(reader, owner, name)) {
      return CostEstimate{};  // a cache hit costs 0 bytes on the wire
    }
    // Partial sharded copies pay only for what is missing: the stale
    // manifest plus the non-resident data shards. A peer holding most
    // of a document's shards reads it almost for free, so the optimizer
    // prefers routing the read there over a cold peer. The delta is
    // clamped to the plain transfer: shard wrappers and nested
    // sub-manifests carry overhead, so a *cold* delta can exceed the
    // raw document size — but a partial copy must never be priced above
    // the whole-document transfer it replaces.
    uint64_t delta = 0;
    if (sys_->replicas().ShardedDeltaBytes(reader, owner, name, &delta)) {
      return TransferCost(owner, reader,
                          std::min(static_cast<double>(delta), bytes));
    }
  }
  return TransferCost(owner, reader, bytes);
}

CostEstimate CostModel::Estimate(PeerId at, const ExprPtr& e) const {
  return Walk(at, e).cost;
}

Flow CostModel::EstimateFlow(PeerId at, const ExprPtr& e) const {
  return Walk(at, e).flow;
}

CostModel::Visit CostModel::Walk(PeerId at, const ExprPtr& e) const {
  if (memo_depth_ == 0) return WalkUncached(at, e);
  auto key = std::make_pair(at, e.get());
  auto it = walk_memo_.find(key);
  if (it != walk_memo_.end()) return it->second.visit;
  Visit v = WalkUncached(at, e);
  walk_memo_.emplace(key, MemoEntry{e, v});
  return v;
}

CostModel::Visit CostModel::WalkUncached(PeerId at, const ExprPtr& e) const {
  Visit v;
  switch (e->kind()) {
    case Expr::Kind::kTree: {
      v.flow.bytes = static_cast<double>(wire::EncodedTreeSize(*e->tree()));
      v.flow.trees = 1;
      v.cost += TransferCost(e->tree_owner(), at, v.flow.bytes);
      return v;
    }
    case Expr::Kind::kDoc: {
      PeerId owner = e->doc_peer();
      double bytes = 1024;  // default guess for unknown documents
      DocName name = e->doc_name();
      if (e->is_generic_doc()) {
        // Assume the pick policy finds the cheapest member. Cached
        // replicas are advertised as class members, so a fresh local
        // copy enters this scan as a zero-cost candidate.
        const auto* members =
            sys_->generics().DocumentMembers(e->doc_name());
        if (members != nullptr && !members->empty()) {
          double best_time = -1;
          for (const auto& m : *members) {
            const TreeStats* st = DocStats(m.peer, m.name);
            double b = st != nullptr
                           ? static_cast<double>(st->serialized_bytes)
                           : bytes;
            double t = DocTransferCost(at, m.peer, m.name, b).time_s;
            if (best_time < 0 || t < best_time) {
              best_time = t;
              owner = m.peer;
              name = m.name;
              bytes = b;
            }
          }
        }
      } else if (const TreeStats* st = DocStats(owner, e->doc_name())) {
        bytes = static_cast<double>(st->serialized_bytes);
      } else if (uint64_t cached =
                     sys_->replicas().FreshCopyBytes(at, owner, name)) {
        // Origin unknown to the stats cache but a fresh copy is at hand;
        // size the flow from the copy.
        bytes = static_cast<double>(cached);
      }
      v.flow.bytes = bytes;
      v.flow.trees = 1;
      v.cost += DocTransferCost(at, owner, name, bytes);
      return v;
    }
    case Expr::Kind::kApply: {
      const TreeStats* stats = nullptr;
      double in_bytes = 0, in_trees = 0;
      for (const auto& arg : e->args()) {
        Visit av = Walk(at, arg);
        v.cost += av.cost;
        in_bytes += av.flow.bytes;
        in_trees += av.flow.trees;
        if (arg->kind() == Expr::Kind::kDoc && !arg->is_generic_doc()) {
          stats = DocStats(arg->doc_peer(), arg->doc_name());
        }
      }
      // Query shipping (def. (7)).
      if (e->query_peer().is_concrete() && e->query_peer() != at) {
        v.cost += TransferCost(e->query_peer(), at,
                               EncodedQueryBytes(e->query()));
      }
      // Volume also flows out of doc(...) clauses read at `at`.
      in_bytes += DocSourceBytes(e->query(), at);
      // Compute time at the evaluating peer.
      const Peer* host = sys_->peer(at);
      double speed = host != nullptr ? host->compute_speed() : 1e6;
      v.cost.time_s += (in_bytes / kBytesPerNode) / speed;
      double sel = EstimateQuerySelectivity(e->query(), stats);
      v.flow.bytes = in_bytes * sel;
      v.flow.trees = std::max(1.0, in_trees * sel);
      return v;
    }
    case Expr::Kind::kCall: {
      PeerId provider = e->provider();
      const Service* svc = nullptr;
      if (provider.is_any()) {
        const auto* members = sys_->generics().ServiceMembers(e->service());
        if (members != nullptr && !members->empty()) {
          provider = members->front().peer;
        }
      }
      if (const Peer* p = sys_->peer(provider)) {
        svc = p->GetService(e->service());
      }
      double in_bytes = 0;
      for (const auto& param : e->params()) {
        Visit pv = Walk(at, param);
        v.cost += pv.cost;
        // Parameters ship caller -> provider (def. (6)).
        v.cost += TransferCost(at, provider, pv.flow.bytes);
        in_bytes += pv.flow.bytes;
      }
      const Peer* phost = sys_->peer(provider);
      double speed = phost != nullptr ? phost->compute_speed() : 1e6;
      double sel = 1.0;
      if (svc != nullptr && svc->is_declarative()) {
        // The service body may also read documents on the provider.
        in_bytes += DocSourceBytes(svc->query(), provider);
        sel = EstimateQuerySelectivity(svc->query(), nullptr);
      }
      v.cost.time_s += (in_bytes / kBytesPerNode) / speed;
      double out_bytes = std::max(in_bytes * sel, 64.0);
      v.flow.bytes = out_bytes;
      // Results ship to the forward list, or back to the caller.
      if (e->forwards().empty()) {
        v.cost += TransferCost(provider, at, out_bytes);
      } else {
        for (const auto& loc : e->forwards()) {
          v.cost += TransferCost(provider, loc.peer, out_bytes);
        }
        v.flow.bytes = 0;  // ∅ at the consumer
        v.flow.trees = 0;
      }
      return v;
    }
    case Expr::Kind::kSend: {
      Visit pv = Walk(at, e->payload());
      v.cost += pv.cost;
      const Expr::SendDest& d = e->dest();
      switch (d.kind) {
        case Expr::SendDest::Kind::kPeer:
        case Expr::SendDest::Kind::kNewDoc:
          v.cost += TransferCost(at, d.peer, pv.flow.bytes);
          break;
        case Expr::SendDest::Kind::kNodes:
          for (const auto& loc : d.nodes) {
            v.cost += TransferCost(at, loc.peer, pv.flow.bytes);
          }
          break;
      }
      v.flow.bytes = 0;  // a send returns ∅ locally (def. (3))
      v.flow.trees = 0;
      return v;
    }
    case Expr::Kind::kShipQuery: {
      v.cost += TransferCost(at, e->ship_dest(),
                             EncodedQueryBytes(e->query()));
      v.flow.bytes = 0;
      v.flow.trees = 0;
      return v;
    }
    case Expr::Kind::kEvalAt: {
      PeerId where = e->eval_where();
      // Shipping the expression itself.
      v.cost += TransferCost(at, where, EncodedExprBytes(*e->body()));
      Visit bv = Walk(where, e->body());
      v.cost += bv.cost;
      // Results return to the consumer.
      v.cost += TransferCost(where, at, bv.flow.bytes);
      v.flow = bv.flow;
      return v;
    }
    case Expr::Kind::kSeq: {
      Visit fv = Walk(at, e->first());
      Visit tv = Walk(at, e->then());
      v.cost += fv.cost;
      v.cost += tv.cost;  // sequential: times add
      v.flow = tv.flow;
      return v;
    }
  }
  return v;
}

}  // namespace axml
