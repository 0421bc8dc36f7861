// Cost model for algebra expressions.
//
// §3.3 motivates every rule with a cost argument ("only ships to p the
// resulting data set, typically smaller", "may be worth it if t is
// large"). To choose among rewrites the optimizer needs estimates of
// (a) how many bytes each subexpression produces, (b) how much of that
// crosses peer boundaries, and (c) how long transfers and computation
// take on the configured topology. This model walks an expression
// bottom-up, propagating a Flow (estimated output volume and its
// location) and accumulating a CostEstimate.
//
// Selectivity estimation uses per-document statistics (xml_stats.h) when
// the input is a concrete document, and textbook default factors
// otherwise (equality 0.1, range 0.33, contains 0.25, exists 0.9 —
// the classic System-R style constants).

#ifndef AXML_OPT_COST_MODEL_H_
#define AXML_OPT_COST_MODEL_H_

#include <map>
#include <string>
#include <utility>

#include "algebra/expr.h"
#include "peer/system.h"
#include "query/query.h"
#include "xml/xml_stats.h"

namespace axml {

/// Scalarization weights: cost = wt * time + wb * remote_bytes.
struct CostWeights {
  double time_weight = 1.0;
  /// Seconds charged per remote byte on top of the modeled link time
  /// (captures monetary / congestion concerns beyond raw latency).
  double byte_weight = 0.0;
};

/// Accumulated cost of one evaluation strategy.
struct CostEstimate {
  /// Estimated virtual seconds until the result stream completes.
  double time_s = 0;
  /// Estimated bytes crossing between distinct peers.
  double remote_bytes = 0;
  /// Estimated messages between distinct peers.
  double remote_messages = 0;

  double Scalar(const CostWeights& w) const {
    return w.time_weight * time_s + w.byte_weight * remote_bytes;
  }
  CostEstimate& operator+=(const CostEstimate& o) {
    time_s += o.time_s;
    remote_bytes += o.remote_bytes;
    remote_messages += o.remote_messages;
    return *this;
  }
  std::string ToString() const;
};

/// Estimated output of a subexpression.
struct Flow {
  double bytes = 0;   ///< total serialized bytes of the result stream
  double trees = 1;   ///< number of trees in the stream
};

/// Estimates evaluation cost against the system's topology, documents
/// and statistics.
///
/// `assume_replica_cache` declares how plans will be *executed*: when
/// true, the evaluator runs with EvalOptions::use_replica_cache and a
/// remote document the reader holds fresh is priced at 0 wire bytes;
/// when false (default), remote reads always pay the transfer — a plan
/// wanting the copy must say so explicitly (the rule-13 rewrite), which
/// keeps the model honest for the default evaluator.
class CostModel {
 public:
  explicit CostModel(AxmlSystem* sys, bool assume_replica_cache = false)
      : sys_(sys), assume_replica_cache_(assume_replica_cache) {}

  /// Cost of eval@at(e).
  CostEstimate Estimate(PeerId at, const ExprPtr& e) const;

  /// Estimated output flow of eval@at(e) (at the consumer).
  Flow EstimateFlow(PeerId at, const ExprPtr& e) const;

  /// Fraction of input volume surviving `q`'s where clause and
  /// projection; `input_stats` may be null.
  double EstimateQuerySelectivity(const Query& q,
                                  const TreeStats* input_stats) const;

  /// Cached statistics of a concrete document (computed on first use).
  const TreeStats* DocStats(PeerId p, const DocName& name) const;

  /// Total serialized bytes of the doc(...) sources `q` reads on
  /// `eval_peer` (0 for unknown documents). Queries draw volume from
  /// their doc() clauses as well as from their inputs; both must be
  /// charged.
  double DocSourceBytes(const Query& q, PeerId eval_peer) const;

  /// Transfer estimate for `bytes` on from->to (0 when from==to).
  CostEstimate TransferCost(PeerId from, PeerId to, double bytes) const;

  /// Modeled seconds to re-pull `bytes` of owner's content to `reader` —
  /// what evicting that copy would cost to undo. The cost-aware eviction
  /// policy scores victims with this (the ReplicaManager wires it into
  /// each TransferCache as its RefetchCostFn); 0 when reader == owner.
  double RefetchCost(PeerId reader, PeerId owner, uint64_t bytes) const;

  /// Cache-state-aware transfer estimate for reading document
  /// `name`@owner from `reader`: under assume_replica_cache, a fresh
  /// cached copy at the reader makes the read local — 0 bytes on the
  /// wire (the replica subsystem's whole point; rule (13) becomes a
  /// cost-based decision through this). An eager-refresh shipment in
  /// flight counts as fresh too: the mutation that displaced the copy
  /// already paid for its replacement.
  CostEstimate DocTransferCost(PeerId reader, PeerId owner,
                               const DocName& name, double bytes) const;

  bool assume_replica_cache() const { return assume_replica_cache_; }

  /// Opens a memoization scope: while at least one scope is live, Walk
  /// results are cached by (evaluation peer, expression node) and
  /// reused. Valid only while system state (documents, replica caches,
  /// topology) is unchanged — which holds for the duration of one
  /// optimizer search, where beam candidates share subexpression nodes
  /// and would otherwise re-walk each shared subtree once per
  /// candidate. Scopes nest; the cache drops when the last one closes.
  class MemoScope {
   public:
    explicit MemoScope(const CostModel* model) : model_(model) {
      ++model_->memo_depth_;
    }
    ~MemoScope() {
      if (--model_->memo_depth_ == 0) model_->walk_memo_.clear();
    }
    MemoScope(const MemoScope&) = delete;
    MemoScope& operator=(const MemoScope&) = delete;

   private:
    const CostModel* model_;
  };

 private:
  struct Visit {
    Flow flow;
    CostEstimate cost;
  };
  Visit Walk(PeerId at, const ExprPtr& e) const;
  Visit WalkUncached(PeerId at, const ExprPtr& e) const;

  AxmlSystem* sys_;
  bool assume_replica_cache_;
  mutable std::map<std::string, TreeStats> stats_cache_;
  /// Live only inside a MemoScope; keyed by the shared expression node —
  /// candidates produced by WithChildren alias unchanged subtrees, so a
  /// hit is exact, not structural. Each entry owns its node: a freed
  /// candidate's address could otherwise be reused by a new node that
  /// would then hit the stale entry.
  struct MemoEntry {
    ExprPtr node;
    Visit visit;
  };
  mutable std::map<std::pair<PeerId, const Expr*>, MemoEntry> walk_memo_;
  mutable int memo_depth_ = 0;
};

}  // namespace axml

#endif  // AXML_OPT_COST_MODEL_H_
