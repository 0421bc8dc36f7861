// Operational semantics of the algebra: eval@p(e) as a distributed
// dataflow over the simulated network (§3.2, definitions (1)-(9)).
//
// Mapping of the definitions to the implementation:
//  (1) tree evaluation — a local tree is emitted once its embedded
//      service calls (if any) have delivered their responses; responses
//      accumulate as siblings of the sc node, as in §2.2.
//  (2) local query application — a standing QueryInstance at the
//      evaluating peer; arrivals are charged compute time.
//  (3)/(4) send — results of the payload, evaluated at the current peer,
//      are copied (fresh node ids at the destination) and shipped with
//      latency/bandwidth charging; multi-destination sends fan out one
//      copy per target node. A send returns ∅ locally.
//  (5) remote data — a tree/document owned by another peer is evaluated
//      at its owner and the results shipped to the evaluating peer.
//  (6) service call — parameters are evaluated at the caller, shipped to
//      the provider, run through the service's query (or native body),
//      and the responses are shipped to the forward list — or back to
//      the caller when the forward list is empty (the pre-extension
//      default).
//  (7) remote query — the query text is shipped from its defining peer
//      to the evaluating peer before the instance starts.
//  (8) query shipping — installs the query as a new service at the
//      destination; ∅ locally.
//  (9) generic references — resolved via the system catalog (charged
//      discovery traffic) + GenericCatalog pick policy, then evaluated
//      as the chosen concrete resource.
//
// Undefined cases are honored: sending a tree the current peer does not
// own fails with StatusCode::kUndefined ("p2 cannot send something it
// doesn't have", §3.2).
//
// The evaluator also hosts the AXML document runtime (§2.2): activating
// sc nodes embedded in installed documents, with immediate / lazy /
// after-call modes.
//
// While the system's Tracer is enabled, the evaluator records its events
// there as `eval/*` spans (evaluation start, d@any picks, service
// invocations and installs, delegations, sc activations, replica reads);
// ships appear as the Network's `net/*` spans. It keeps no trace of its
// own, and builds no span text while the Tracer is off.

#ifndef AXML_ALGEBRA_EVALUATOR_H_
#define AXML_ALGEBRA_EVALUATOR_H_

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <tuple>
#include <unordered_set>
#include <vector>

#include "algebra/expr.h"
#include "peer/system.h"

namespace axml {

/// Knobs for one evaluation.
struct EvalOptions {
  /// How def. (9) picks among generic-class members.
  PickPolicy pick_policy = PickPolicy::kNearest;
  /// Route remote document reads through the replica subsystem
  /// (src/replica/), which owns every copy decision: a fresh copy is
  /// read locally for 0 wire bytes (ReplicaManager::ReadFreshCopy), a
  /// document that replicates as shards is fetched as a delta of the
  /// pieces the reader lacks (FetchForRead), and any other transferred
  /// document is offered to the reader's cache (InsertReadCopy).
  /// Off by default — the paper's baseline semantics always transfer.
  bool use_replica_cache = false;
};

/// Name of EvalCounters::picks cell i in row-major order:
/// {origin,copy}_{self,rack,region,wan}.
const char* PickName(size_t i);

/// Counters for the evaluator's replica read path. Each Evaluator mounts
/// its own into the system's MetricRegistry at "eval/..." for its
/// lifetime (several evaluators on one system sum there).
struct EvalCounters {
  uint64_t replica_hits = 0;    ///< reads served from a fresh whole copy
  uint64_t sharded_hits = 0;    ///< reads assembled from resident shards
  uint64_t remote_fetches = 0;  ///< whole-document wire transfers issued
  uint64_t sharded_fetches = 0;  ///< shard delta fetches launched
  uint64_t coalesced_joins = 0;  ///< reads that joined an in-flight copy
  uint64_t refresh_waits = 0;  ///< reads parked behind an eager refresh
  /// d@any picks by what was picked, [durable member (origin), cached
  /// copy], and where it sits relative to the reader, [the reader itself,
  /// its rack, its region, across the WAN] (Topology::RackOf/RegionOf;
  /// peers outside a Hierarchical topology share one rack).
  uint64_t picks[2][4] = {};

  static constexpr auto kCounters = std::make_tuple(
      Counter{"replica_hits", &EvalCounters::replica_hits},
      Counter{"sharded_hits", &EvalCounters::sharded_hits},
      Counter{"remote_fetches", &EvalCounters::remote_fetches},
      Counter{"sharded_fetches", &EvalCounters::sharded_fetches},
      Counter{"coalesced_joins", &EvalCounters::coalesced_joins},
      Counter{"refresh_waits", &EvalCounters::refresh_waits},
      Counter{"pick/", &EvalCounters::picks, PickName});
};
static_assert(CountersCover<EvalCounters>());

/// What an evaluation produced and what it cost.
struct EvalOutcome {
  /// Result stream collected at the evaluating peer.
  std::vector<TreePtr> results;
  /// Virtual time when the evaluation started / fully quiesced.
  SimTime start_time = 0;
  SimTime completion_time = 0;
  /// Wall-clock of the evaluation in virtual seconds.
  double Duration() const { return completion_time - start_time; }
};

/// Evaluates algebra expressions against an AxmlSystem.
///
/// One Evaluator may run many evaluations; network statistics accumulate
/// in the system (reset them between measurements).
class Evaluator {
 public:
  explicit Evaluator(AxmlSystem* system, EvalOptions options = {});
  /// Unmounts this evaluator's counters from the system's registry (the
  /// system must still be alive).
  ~Evaluator();

  Evaluator(const Evaluator&) = delete;
  Evaluator& operator=(const Evaluator&) = delete;

  /// eval@p(e): deploys the expression, runs the system to quiescence,
  /// returns the collected results. Errors raised asynchronously (type
  /// mismatches, unknown services, undefined sends) surface here.
  Result<EvalOutcome> Eval(PeerId p, const ExprPtr& e);

  /// Asynchronous deployment: results stream into `emit` at peer `p` as
  /// the loop runs. Callers drive the loop themselves (or call
  /// RunToQuiescence).
  Status Deploy(PeerId p, const ExprPtr& e, EmitFn emit);

  /// Runs the event loop and deferred continuations until nothing is
  /// left. Returns events executed.
  uint64_t RunToQuiescence();

  /// Registers `fn` to run after the loop next drains (used for
  /// stream-completion semantics: "all responses have arrived").
  void AtQuiescence(std::function<void()> fn);

  // --- AXML document runtime (§2.2) ---

  /// Installs an AXML document and activates its immediate-mode calls
  /// (and, transitively, after-call chains).
  Status InstallAxmlDocument(PeerId host, DocName name, TreePtr root);

  /// Activates the service call at node `sc_node` of a document hosted
  /// by `host`. Responses accumulate as siblings of the sc node (or at
  /// the call's forward list).
  Status ActivateCall(PeerId host, NodeId sc_node);

  /// Activates every lazy-mode call of `doc` (the "query needs the
  /// result" trigger of §2.2); used by doc() evaluation.
  Status ActivateLazyCalls(PeerId host, const DocName& doc);

  /// First error raised asynchronously since the last Eval, if any.
  const Status& async_status() const { return async_status_; }

  AxmlSystem* system() { return sys_; }
  const EvalOptions& options() const { return options_; }

  /// Replica read-path counters (cumulative over this evaluator's
  /// lifetime; the registry reads these very fields at "eval/...").
  const EvalCounters& counters() const { return counters_; }

 private:
  struct DeployCtx;

  /// Core recursion: evaluate `e` in the context of peer `ctx`,
  /// delivering each result tree at `ctx` through `emit`.
  void DeployExpr(PeerId ctx, const ExprPtr& e, EmitFn emit);

  void DeployTreeLocal(PeerId owner, const TreePtr& tree, EmitFn emit);
  void DeployDoc(PeerId ctx, const ExprPtr& e, EmitFn emit);
  void DeployApply(PeerId ctx, const ExprPtr& e, EmitFn emit);
  void DeployCall(PeerId ctx, const ExprPtr& e, EmitFn emit);
  void DeploySend(PeerId ctx, const ExprPtr& e, EmitFn emit);
  void DeployShipQuery(PeerId ctx, const ExprPtr& e, EmitFn emit);
  void DeployEvalAt(PeerId ctx, const ExprPtr& e, EmitFn emit);
  void DeploySeq(PeerId ctx, const ExprPtr& e, EmitFn emit);

  /// Copies `tree` to `to` (fresh ids minted there), charging the link,
  /// and invokes `deliver` with the landed copy at arrival time.
  void Ship(PeerId from, PeerId to, const TreePtr& tree,
            std::function<void(TreePtr)> deliver);
  /// Ship across a link (`from != to`): `deliver` also gets the tree
  /// blob that crossed the wire, which the landed copy was decoded from.
  void ShipEncoded(PeerId from, PeerId to, const TreePtr& tree,
                   std::function<void(TreePtr, const std::string&)> deliver);

  /// Counts a d@any pick of `member` by `reader` in counters_.picks.
  void CountPick(PeerId reader, const ClassMember& member);

  /// Records an asynchronous failure (first one wins).
  void Fail(Status s);

  /// Starts the provider-side engine of a service call; returns a sink
  /// accepting (param_index, tree) at the provider, or null on error.
  using ParamSink = std::function<void(int, TreePtr)>;
  ParamSink StartServiceInstance(PeerId provider, const Service& svc,
                                 std::function<void(TreePtr)> on_result);

  AxmlSystem* sys_;
  EvalOptions options_;
  EvalCounters counters_;
  MetricRegistry::SourceId metrics_source_ = 0;
  Status async_status_;
  std::deque<std::function<void()>> finalizers_;
  /// Keeps the running query's operator instances alive until the next
  /// Eval reaches quiescence.
  std::vector<std::shared_ptr<void>> retained_;
  /// sc nodes already activated (activation is idempotent, and after-call
  /// chains must not loop).
  std::unordered_set<NodeId> activated_;
  /// In-flight transfer coalescing (replica cache only): readers of a
  /// (reader, owner, doc) whose transfer is already underway wait for
  /// that copy instead of issuing their own.
  std::map<std::tuple<PeerId, PeerId, DocName>, std::vector<EmitFn>>
      inflight_;
};

}  // namespace axml

#endif  // AXML_ALGEBRA_EVALUATOR_H_
