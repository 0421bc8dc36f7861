#include "algebra/evaluator.h"

#include <optional>
#include <unordered_set>

#include "algebra/expr_xml.h"
#include "common/logging.h"
#include "common/str_util.h"
#include "xml/wire.h"

namespace axml {

namespace {

/// Name of the per-peer document where orphan sends accumulate (results
/// shipped to a peer with no consuming expression there; §3.2 calls this
/// "the message ... has left p0, and moved to p1").
constexpr char kInboxDoc[] = "axml:inbox";

EmitFn Swallow() {
  return [](TreePtr) {};
}

}  // namespace

const char* PickName(size_t i) {
  static constexpr const char* kNames[] = {
      "origin_self", "origin_rack", "origin_region", "origin_wan",
      "copy_self",   "copy_rack",   "copy_region",   "copy_wan"};
  return kNames[i];
}

Evaluator::Evaluator(AxmlSystem* system, EvalOptions options)
    : sys_(system), options_(options) {
  AXML_CHECK(system != nullptr);
  metrics_source_ = sys_->metrics().RegisterSource(
      "eval", [this](MetricSink& sink) { ExportCounters(counters_, sink); });
}

Evaluator::~Evaluator() { sys_->metrics().UnregisterSource(metrics_source_); }

void Evaluator::Fail(Status s) {
  AXML_CHECK(!s.ok());
  if (async_status_.ok()) {
    async_status_ = std::move(s);
  }
}

void Evaluator::CountPick(PeerId reader, const ClassMember& member) {
  const Topology& topo = sys_->network().topology();
  const PeerId at = member.peer;
  const size_t zone = at == reader                               ? 0
                      : topo.RackOf(at) == topo.RackOf(reader)     ? 1
                      : topo.RegionOf(at) == topo.RegionOf(reader) ? 2
                                                                   : 3;
  ++counters_.picks[sys_->replicas().IsCachedCopy(at, member.name)][zone];
}

void Evaluator::AtQuiescence(std::function<void()> fn) {
  finalizers_.push_back(std::move(fn));
}

uint64_t Evaluator::RunToQuiescence() {
  uint64_t n = 0;
  for (;;) {
    n += sys_->loop().Run();
    if (finalizers_.empty()) break;
    auto fn = std::move(finalizers_.front());
    finalizers_.pop_front();
    fn();
  }
  // Any in-flight transfer registration still present is dead — no
  // scheduled event remains to land it (a failure path bailed before
  // the Send). Drop them so a later Deploy cannot coalesce onto one.
  inflight_.clear();
  return n;
}

Result<EvalOutcome> Evaluator::Eval(PeerId p, const ExprPtr& e) {
  async_status_ = Status::OK();
  // A failed prior evaluation may have stranded in-flight transfer
  // registrations; a fresh Eval must not coalesce onto them.
  inflight_.clear();
  if (Tracer& tr = sys_->tracer(); tr.enabled()) {
    tr.Record("eval", "eval", p, 0, 0,
              e == nullptr ? "<null>" : e->ToString());
  }
  EvalOutcome out;
  out.start_time = sys_->loop().now();
  auto results = std::make_shared<std::vector<TreePtr>>();
  AXML_RETURN_NOT_OK(Deploy(p, e, [results](TreePtr t) {
    results->push_back(std::move(t));
  }));
  RunToQuiescence();
  // At quiescence nothing is left to deliver to this query's operators.
  retained_.clear();
  out.completion_time = sys_->loop().now();
  if (!async_status_.ok()) return async_status_;
  out.results = std::move(*results);
  return out;
}

Status Evaluator::Deploy(PeerId p, const ExprPtr& e, EmitFn emit) {
  if (sys_->peer(p) == nullptr) {
    return Status::NotFound(StrCat("no peer ", p.ToString()));
  }
  if (e == nullptr) return Status::InvalidArgument("null expression");
  DeployExpr(p, e, std::move(emit));
  return Status::OK();
}

void Evaluator::Ship(PeerId from, PeerId to, const TreePtr& tree,
                     std::function<void(TreePtr)> deliver) {
  Peer* dest = sys_->peer(to);
  if (dest == nullptr) {
    Fail(Status::NotFound(StrCat("ship to unknown peer ", to.ToString())));
    return;
  }
  if (from == to) {
    // A same-peer send moves nothing and must deliver the very instance
    // (local grafts rely on node identity), priced at what its encoding
    // would have cost on a real wire.
    sys_->network().SendReliable(
        from, to, wire::EncodedTreeSize(*tree),
        [tree, deliver = std::move(deliver)] { deliver(tree); });
    return;
  }
  ShipEncoded(from, to, tree,
              [deliver = std::move(deliver)](TreePtr landed,
                                             const std::string& /*blob*/) {
                deliver(std::move(landed));
              });
}

void Evaluator::ShipEncoded(
    PeerId from, PeerId to, const TreePtr& tree,
    std::function<void(TreePtr, const std::string&)> deliver) {
  // §3.2: "all evaluations of send expression trees are implicitly
  // understood to copy the data model instances they send" — the encoded
  // payload *is* that copy: the destination decodes it into fresh
  // identifiers minted by its own generator, and the priced size is the
  // payload's actual byte count.
  wire::Payload payload(wire::EncodeTree(*tree, &sys_->wire_stats()));
  // Reliable: a query in flight must survive injected faults — Eval runs
  // the loop to quiescence, and a silently lost shipment would hang it.
  sys_->network().SendReliable(
      from, to, std::move(payload),
      [this, to, deliver = std::move(deliver)](const wire::Payload& p) {
        Peer* arrived_at = sys_->peer(to);
        if (arrived_at == nullptr) return;
        Result<TreePtr> landed =
            wire::DecodeTree(p.bytes(), arrived_at->gen(),
                             &sys_->wire_stats());
        AXML_DCHECK(landed.ok());
        if (!landed.ok()) return;
        deliver(std::move(landed).value(), p.bytes());
      });
}

void Evaluator::DeployExpr(PeerId ctx, const ExprPtr& e, EmitFn emit) {
  switch (e->kind()) {
    case Expr::Kind::kTree: {
      PeerId owner = e->tree_owner();
      if (owner == ctx) {
        DeployTreeLocal(ctx, e->tree(), std::move(emit));
      } else {
        // Definition (5): evaluate at the owner, ship results here.
        DeployTreeLocal(owner, e->tree(),
                        [this, owner, ctx, emit](TreePtr t) {
                          Ship(owner, ctx, t, emit);
                        });
      }
      return;
    }
    case Expr::Kind::kDoc:
      DeployDoc(ctx, e, std::move(emit));
      return;
    case Expr::Kind::kApply:
      DeployApply(ctx, e, std::move(emit));
      return;
    case Expr::Kind::kCall:
      DeployCall(ctx, e, std::move(emit));
      return;
    case Expr::Kind::kSend:
      DeploySend(ctx, e, std::move(emit));
      return;
    case Expr::Kind::kShipQuery:
      DeployShipQuery(ctx, e, std::move(emit));
      return;
    case Expr::Kind::kEvalAt:
      DeployEvalAt(ctx, e, std::move(emit));
      return;
    case Expr::Kind::kSeq:
      DeploySeq(ctx, e, std::move(emit));
      return;
  }
}

void Evaluator::DeployTreeLocal(PeerId owner, const TreePtr& tree,
                                EmitFn emit) {
  Peer* host = sys_->peer(owner);
  if (host == nullptr) {
    Fail(Status::NotFound(
        StrCat("tree owner ", owner.ToString(), " unknown")));
    return;
  }
  if (!tree->ContainsServiceCall()) {
    // Definition (1) degenerate case: no sc below, the tree is the value.
    sys_->loop().Post([tree, emit = std::move(emit)] { emit(tree); });
    return;
  }
  // Definition (1) + (6): activate embedded calls; their responses
  // accumulate as siblings of the sc nodes; the tree is emitted once the
  // call streams quiesce.
  TreePtr working = tree->CloneSameIds();
  std::vector<TreePtr> calls;
  FindServiceCalls(working, &calls);
  for (const TreePtr& sc : calls) {
    Result<ServiceCallSpec> spec = ParseServiceCall(*sc);
    if (!spec.ok()) {
      Fail(spec.status());
      continue;
    }
    PeerId provider = spec->provider == "any"
                          ? PeerId::Any()
                          : sys_->FindPeerId(spec->provider);
    if (!provider.valid()) {
      Fail(Status::NotFound(
          StrCat("provider peer \"", spec->provider, "\" unknown")));
      continue;
    }
    std::vector<ExprPtr> params;
    for (const TreePtr& p : spec->params) {
      params.push_back(Expr::Tree(p, owner));
    }
    ExprPtr call =
        Expr::Call(provider, spec->service, std::move(params),
                   spec->forwards);
    NodeId sc_id = sc->id();
    EmitFn insert = [working, sc_id](TreePtr response) {
      // Insert as a sibling of the sc node (§2.2 step 3).
      if (TreeNode* parent = FindParent(working, sc_id)) {
        parent->AddChild(std::move(response));
      }
    };
    // Responses come back to the owner unless the call carries explicit
    // forwards (in which case they land elsewhere and the local tree is
    // left as is).
    DeployExpr(owner, call, spec->forwards.empty() ? insert : Swallow());
  }
  AtQuiescence([working, emit = std::move(emit)] { emit(working); });
}

void Evaluator::DeployDoc(PeerId ctx, const ExprPtr& e, EmitFn emit) {
  if (e->is_generic_doc()) {
    // Definition (9): pickDoc over the equivalence class, discovery
    // charged through the system catalog.
    const std::string class_name = e->doc_name();
    auto proceed = [this, ctx, class_name, emit](void) {
      // Pick demand is read only by placement.
      Result<ClassMember> member = sys_->generics().PickDocument(
          class_name, ctx, options_.pick_policy, sys_->network(),
          /*nominal_bytes=*/4096,
          sys_->replicas().placement().config().enabled);
      if (!member.ok()) {
        Fail(member.status());
        return;
      }
      CountPick(ctx, *member);
      if (Tracer& tr = sys_->tracer(); tr.enabled()) {
        tr.Record("eval", "pick_doc", ctx, 0, 0,
                  StrCat(class_name, "@any -> ", member->name, "@",
                         member->peer.ToString()));
      }
      DeployExpr(ctx, Expr::Doc(member->name, member->peer), emit);
    };
    if (sys_->catalog() != nullptr) {
      sys_->catalog()->Lookup(ResourceKind::kDocument, class_name, ctx,
                              &sys_->network(),
                              [proceed](const LookupResult&) { proceed(); });
    } else {
      sys_->loop().Post(proceed);
    }
    return;
  }
  PeerId owner = e->doc_peer();
  Peer* host = sys_->peer(owner);
  if (host == nullptr) {
    Fail(Status::NotFound(
        StrCat("document peer ", owner.ToString(), " unknown")));
    return;
  }
  const DocName doc_name = e->doc_name();
  if (owner != ctx && options_.use_replica_cache) {
    // Replica fast path: a fresh copy of the remote document — whole, or
    // assembled from resident shards; the replica layer picks — is read
    // locally, a transfer the cache's hit stats account for. A stale
    // copy is dropped by this very read (versioned invalidation) and the
    // read falls through to the wire. The copy is a private instance
    // decoded from the cached wire bytes, as the ship this hit replaces
    // would have delivered (§3.2: sends copy their data-model instances).
    bool sharded = false;
    if (TreePtr fresh = sys_->replicas().ReadFreshCopy(ctx, owner, doc_name,
                                                       &sharded)) {
      ++(sharded ? counters_.sharded_hits : counters_.replica_hits);
      if (Tracer& tr = sys_->tracer(); tr.enabled()) {
        tr.Record("eval", sharded ? "shard_hit" : "replica_hit", ctx, 0, 0,
                  StrCat(doc_name, "@", owner.ToString()));
      }
      sys_->loop().Post(
          [fresh = std::move(fresh), emit = std::move(emit)] {
            emit(fresh);
          });
      return;
    }
    // Coalesce with a transfer of the same copy already in flight (two
    // subexpressions reading the same remote source — the very shape of
    // rule (13)): the second reader waits for the first's copy.
    auto flight = inflight_.find({ctx, owner, doc_name});
    if (flight != inflight_.end()) {
      ++counters_.coalesced_joins;
      if (Tracer& tr = sys_->tracer(); tr.enabled()) {
        tr.Record("eval", "coalesce", ctx, 0, 0,
                  StrCat(doc_name, "@", owner.ToString()));
      }
      flight->second.push_back(std::move(emit));
      return;
    }
    // An eager-refresh shipment of this very document is already on the
    // wire (the origin pushed after a mutation): starting our own
    // transfer would ship the same bytes twice. Wait for the push to
    // land, then retry the read — it hits the re-materialized copy, or
    // falls through to the wire if the shipment was canceled.
    if (sys_->replicas().IsRefreshInFlight(ctx, owner, doc_name)) {
      ++counters_.refresh_waits;
      if (Tracer& tr = sys_->tracer(); tr.enabled()) {
        tr.Record("eval", "refresh_wait", ctx, 0, 0,
                  StrCat(doc_name, "@", owner.ToString()));
      }
      AtQuiescence([this, ctx, e, emit = std::move(emit)]() mutable {
        DeployExpr(ctx, e, std::move(emit));
      });
      return;
    }
    inflight_.emplace(std::make_tuple(ctx, owner, doc_name),
                      std::vector<EmitFn>{});
    // A document that replicates as shards is fetched as a delta: only
    // the stale manifest and the shards this reader lacks cross the
    // wire; resident shards serve locally. The landing caches + installs
    // the copy (unless a rack-mate served it) and hands back the
    // assembled document, which stands in for the whole-document
    // `landed` below. For any other document nothing is sent, and the
    // whole-document path below ships it under the same in-flight entry.
    if (sys_->replicas().FetchForRead(
            ctx, owner, doc_name,
            [this, ctx, owner, doc_name, emit](TreePtr assembled) {
              std::vector<EmitFn> waiters;
              auto joined = inflight_.find({ctx, owner, doc_name});
              if (joined != inflight_.end()) {
                waiters = std::move(joined->second);
                inflight_.erase(joined);
              }
              if (assembled == nullptr) {
                Fail(Status::NotFound(StrCat("sharded read of \"", doc_name,
                                             "\" failed to assemble")));
                return;
              }
              NodeIdGen* gen = sys_->peer(ctx)->gen();
              const uint64_t bytes = wire::EncodedTreeSize(*assembled);
              emit(assembled);
              for (EmitFn& w : waiters) {
                sys_->replicas().RecordCoalescedHit(ctx, bytes);
                w(assembled->Clone(gen));
              }
            })) {
      ++counters_.sharded_fetches;
      return;
    }
  }
  TreePtr root = host->GetDocument(doc_name);
  if (root == nullptr) {
    inflight_.erase({ctx, owner, doc_name});
    Fail(Status::NotFound(StrCat("document \"", doc_name,
                                 "\" not found on ", host->name())));
    return;
  }
  EmitFn deliver =
      owner == ctx
          ? std::move(emit)
          : EmitFn([this, owner, ctx, doc_name, emit](TreePtr t) {
              ++counters_.remote_fetches;
              // A top-level remote read roots its own causal chain
              // (unless already inside one); the Ship's network Send
              // carries the id to the landing — cache insert and
              // install included.
              Tracer& tr = sys_->tracer();
              Tracer::Scope trace_scope(&tr, tr.CurrentOrNew());
              if (tr.enabled()) {
                tr.Record("eval", "fetch", ctx, wire::EncodedTreeSize(*t),
                          0, StrCat(doc_name, "@", owner.ToString()));
              }
              // Ship clones the content now; remember which origin
              // version that snapshot corresponds to (a mutation during
              // the wire delay must not brand it fresh).
              const uint64_t snap_version =
                  sys_->replicas().Version(owner, doc_name);
              ShipEncoded(owner, ctx, t, [this, owner, ctx, doc_name,
                                          snap_version, emit](
                                             TreePtr landed,
                                             const std::string& blob) {
                // Materialize the transferred tree as a replica: later
                // reads (here or via d@any) hit the copy, unless the
                // replica layer declines it. The cache stores the bytes
                // that crossed the wire and the landed tree becomes the
                // installed local copy; every consumer — the reader that
                // triggered the transfer and any coalesced waiters — gets
                // its own clone of it, mirroring what a per-reader ship
                // would have delivered.
                const bool cached =
                    options_.use_replica_cache &&
                    sys_->replicas().InsertReadCopy(ctx, owner, doc_name,
                                                    landed, snap_version,
                                                    blob);
                NodeIdGen* gen = sys_->peer(ctx)->gen();
                emit(cached ? landed->Clone(gen) : landed);
                // Wake the readers that coalesced onto this transfer.
                auto flight = inflight_.find({ctx, owner, doc_name});
                if (flight != inflight_.end()) {
                  std::vector<EmitFn> waiters =
                      std::move(flight->second);
                  inflight_.erase(flight);
                  for (EmitFn& w : waiters) {
                    sys_->replicas().RecordCoalescedHit(ctx, blob.size());
                    w(landed->Clone(gen));
                  }
                }
              });
            });
  if (root->ContainsServiceCall()) {
    // Lazy activation (§2.2): the query needs the document's value, so
    // its lazy calls fire now; the document itself accumulates the
    // responses, and its root is emitted at quiescence.
    Status s = ActivateLazyCalls(owner, e->doc_name());
    if (!s.ok()) {
      inflight_.erase({ctx, owner, doc_name});
      Fail(s);
      return;
    }
    AtQuiescence([root, deliver] { deliver(root); });
  } else {
    sys_->loop().Post([root, deliver] { deliver(root); });
  }
}

void Evaluator::DeployApply(PeerId ctx, const ExprPtr& e, EmitFn emit) {
  Peer* host = sys_->peer(ctx);
  AXML_CHECK(host != nullptr);
  const Query& q = e->query();
  if (static_cast<int>(e->args().size()) < q.arity()) {
    Fail(Status::InvalidArgument(
        StrCat("query arity ", q.arity(), " but ", e->args().size(),
               " arguments")));
    return;
  }

  struct ApplyState {
    std::unique_ptr<QueryInstance> instance;
    std::vector<std::pair<int, TreePtr>> buffered;
    bool started = false;
  };
  auto state = std::make_shared<ApplyState>();
  retained_.push_back(state);

  auto deliver_input = [this, state, host](int i, TreePtr t) {
    // Definition (2) with compute charging: the arrival is processed
    // after the peer's per-tree evaluation time.
    double delay = host->ComputeTime(t->CountNodes());
    sys_->loop().ScheduleAfter(delay, [this, state, i, t] {
      if (!state->started) {
        state->buffered.emplace_back(i, t);
        return;
      }
      Status s = state->instance->PushInput(i, t);
      if (!s.ok()) Fail(std::move(s));
    });
  };

  auto start = [this, state, host, q, emit] {
    state->instance = std::make_unique<QueryInstance>(
        q.ast(), host->AsDocResolver(), emit, host->gen());
    Status s = state->instance->Start();
    if (!s.ok()) {
      Fail(std::move(s));
      return;
    }
    state->started = true;
    for (auto& [i, t] : state->buffered) {
      Status ps = state->instance->PushInput(i, t);
      if (!ps.ok()) Fail(std::move(ps));
    }
    state->buffered.clear();
  };

  PeerId qp = e->query_peer();
  if (qp.is_concrete() && qp != ctx) {
    // Definition (7): the defining peer ships the query text first — an
    // encoded kQuery payload priced at its actual byte count.
    sys_->network().SendReliable(
        qp, ctx,
        wire::EncodeText(wire::MessageClass::kQuery, q.text(),
                         &sys_->wire_stats()),
        [this, start](const wire::Payload& p) {
          Result<std::string> text =
              wire::DecodeText(p, &sys_->wire_stats());
          AXML_DCHECK(text.ok());
          start();
        });
  } else {
    sys_->loop().Post(start);
  }

  for (size_t i = 0; i < e->args().size(); ++i) {
    DeployExpr(ctx, e->args()[i],
               [deliver_input, i](TreePtr t) {
                 deliver_input(static_cast<int>(i), std::move(t));
               });
  }
}

Evaluator::ParamSink Evaluator::StartServiceInstance(
    PeerId provider, const Service& svc,
    std::function<void(TreePtr)> on_result) {
  Peer* host = sys_->peer(provider);
  AXML_CHECK(host != nullptr);

  std::function<void(TreePtr)> typed_result = on_result;
  if (svc.has_signature()) {
    Signature sig = svc.signature();
    typed_result = [this, sig, on_result](TreePtr t) {
      Status s = sig.CheckOutput(*t);
      if (!s.ok()) {
        Fail(std::move(s));
        return;
      }
      on_result(std::move(t));
    };
  }

  if (svc.is_declarative()) {
    auto instance = std::make_shared<std::unique_ptr<QueryInstance>>();
    *instance = std::make_unique<QueryInstance>(
        svc.query().ast(), host->AsDocResolver(), typed_result,
        host->gen());
    retained_.push_back(instance);
    Status s = (*instance)->Start();
    if (!s.ok()) {
      Fail(std::move(s));
      return nullptr;
    }
    return [this, instance, host](int i, TreePtr t) {
      double delay = host->ComputeTime(t->CountNodes());
      sys_->loop().ScheduleAfter(delay, [this, instance, i, t] {
        Status pushed = (*instance)->PushInput(i, t);
        if (!pushed.ok()) Fail(std::move(pushed));
      });
    };
  }

  // Native service: invoke once when every parameter slot has received
  // its first tree (arity-0 natives run immediately).
  struct NativeState {
    std::vector<TreePtr> slots;
    size_t received = 0;
    bool invoked = false;
  };
  auto state = std::make_shared<NativeState>();
  state->slots.resize(static_cast<size_t>(svc.arity()));
  Service svc_copy = svc;
  auto try_invoke = [this, state, svc_copy, host, typed_result] {
    if (state->invoked || state->received < state->slots.size()) return;
    state->invoked = true;
    uint64_t nodes = 0;
    for (const auto& t : state->slots) nodes += t->CountNodes();
    double delay = host->ComputeTime(nodes + 1);
    sys_->loop().ScheduleAfter(delay, [this, state, svc_copy, host,
                                       typed_result] {
      Result<std::vector<TreePtr>> out =
          svc_copy.InvokeNative(state->slots, host);
      if (!out.ok()) {
        Fail(out.status());
        return;
      }
      for (auto& t : *out) typed_result(t);
    });
  };
  if (svc.arity() == 0) {
    sys_->loop().Post(try_invoke);
  }
  return [state, try_invoke](int i, TreePtr t) {
    auto idx = static_cast<size_t>(i);
    if (idx >= state->slots.size() || state->slots[idx] != nullptr) return;
    state->slots[idx] = std::move(t);
    ++state->received;
    try_invoke();
  };
}

void Evaluator::DeployCall(PeerId ctx, const ExprPtr& e, EmitFn emit) {
  if (e->is_generic_service()) {
    // Generic service (§2.3): pickService, discovery charged.
    const std::string class_name = e->service();
    ExprPtr expr = e;
    auto proceed = [this, ctx, class_name, expr, emit] {
      Result<ClassMember> member = sys_->generics().PickService(
          class_name, ctx, options_.pick_policy, sys_->network());
      if (!member.ok()) {
        Fail(member.status());
        return;
      }
      DeployExpr(ctx,
                 Expr::Call(member->peer, member->name, expr->params(),
                            expr->forwards()),
                 emit);
    };
    if (sys_->catalog() != nullptr) {
      sys_->catalog()->Lookup(ResourceKind::kService, class_name, ctx,
                              &sys_->network(),
                              [proceed](const LookupResult&) { proceed(); });
    } else {
      sys_->loop().Post(proceed);
    }
    return;
  }

  PeerId pv = e->provider();
  Peer* provider = sys_->peer(pv);
  if (provider == nullptr) {
    Fail(Status::NotFound(
        StrCat("provider peer ", pv.ToString(), " unknown")));
    return;
  }
  const Service* svc = provider->GetService(e->service());
  if (svc == nullptr) {
    Fail(Status::NotFound(StrCat("service \"", e->service(),
                                 "\" not found on ", provider->name())));
    return;
  }
  if (static_cast<int>(e->params().size()) != svc->arity()) {
    Fail(Status::InvalidArgument(
        StrCat("service \"", e->service(), "\" expects ", svc->arity(),
               " parameters, got ", e->params().size())));
    return;
  }

  // Where do responses go? Definition (6): send_{p1->fwList}(...); with
  // an empty forward list the response returns to the caller (the
  // original AXML behaviour, §2.3: "If no forw child is specified, a
  // default one is used containing the ID of the sc's parent" — in
  // expression context, the enclosing consumer).
  std::vector<NodeLocation> forwards = e->forwards();
  std::function<void(TreePtr)> on_result;
  if (forwards.empty()) {
    on_result = [this, pv, ctx, emit](TreePtr r) {
      Ship(pv, ctx, r, emit);
    };
  } else {
    on_result = [this, pv, forwards](TreePtr r) {
      for (const NodeLocation& loc : forwards) {
        Ship(pv, loc.peer, r, [this, loc](TreePtr landed) {
          Peer* target = sys_->peer(loc.peer);
          if (target == nullptr) {
            Fail(Status::NotFound(
                StrCat("forward peer ", loc.peer.ToString(), " unknown")));
            return;
          }
          Status s = target->AppendUnderNode(loc.node, std::move(landed));
          if (!s.ok()) Fail(std::move(s));
        });
      }
    };
  }

  if (Tracer& tr = sys_->tracer(); tr.enabled()) {
    tr.Record("eval", "invoke", pv, 0, 0,
              StrCat(e->service(), "@", provider->name(),
                     forwards.empty() ? "" : " with forward list"));
  }
  ParamSink sink = StartServiceInstance(pv, *svc, std::move(on_result));
  if (sink == nullptr) return;

  // Definition (6), innermost-out: eval params at the caller, ship each
  // result to the provider.
  // An unsigned service's empty `in` checks nothing.
  Signature sig = svc->has_signature() ? svc->signature() : Signature{};
  for (size_t i = 0; i < e->params().size(); ++i) {
    DeployExpr(ctx, e->params()[i],
               [this, ctx, pv, sink, i, sig](TreePtr t) {
                 Ship(ctx, pv, t, [this, sink, i, sig](TreePtr l) {
                   if (i < sig.in.size() && !sig.in[i]->Matches(*l)) {
                     Fail(Status::TypeError(StrCat(
                         "parameter ", i + 1, " does not match type ",
                         sig.in[i]->ToString())));
                     return;
                   }
                   sink(static_cast<int>(i), std::move(l));
                 });
               });
  }
}

void Evaluator::DeploySend(PeerId ctx, const ExprPtr& e, EmitFn emit) {
  const ExprPtr& payload = e->payload();
  // §3.2: "p2 cannot send something it doesn't have": a send whose
  // payload is data owned elsewhere is undefined.
  if (payload->kind() == Expr::Kind::kTree &&
      payload->tree_owner() != ctx) {
    Fail(Status::Undefined(
        StrCat("send at ", ctx.ToString(), " of a tree owned by ",
               payload->tree_owner().ToString())));
    return;
  }
  if (payload->kind() == Expr::Kind::kDoc && !payload->is_generic_doc() &&
      payload->doc_peer() != ctx) {
    Fail(Status::Undefined(
        StrCat("send at ", ctx.ToString(), " of document \"",
               payload->doc_name(), "\" owned by ",
               payload->doc_peer().ToString())));
    return;
  }

  const Expr::SendDest& dest = e->dest();
  switch (dest.kind) {
    case Expr::SendDest::Kind::kPeer: {
      if (dest.peer == ctx) {
        // Degenerate send-to-self: the value stays here.
        DeployExpr(ctx, payload, std::move(emit));
        return;
      }
      // Definition (3): ∅ locally; the copy lands at the destination.
      // With no consuming expression there, it accumulates in the
      // destination's inbox document.
      DeployExpr(ctx, payload, [this, ctx, dest](TreePtr t) {
        Ship(ctx, dest.peer, t, [this, dest](TreePtr landed) {
          Peer* target = sys_->peer(dest.peer);
          if (target == nullptr) return;
          TreePtr inbox = target->GetDocument(kInboxDoc);
          if (inbox == nullptr) {
            inbox = TreeNode::Element("inbox", target->gen());
            target->PutDocument(kInboxDoc, inbox);
          }
          inbox->AddChild(std::move(landed));
        });
      });
      return;
    }
    case Expr::SendDest::Kind::kNodes: {
      // Definition (4): one copy lands under each listed node.
      std::vector<NodeLocation> locs = dest.nodes;
      DeployExpr(ctx, payload, [this, ctx, locs](TreePtr t) {
        for (const NodeLocation& loc : locs) {
          Ship(ctx, loc.peer, t, [this, loc](TreePtr landed) {
            Peer* target = sys_->peer(loc.peer);
            if (target == nullptr) {
              Fail(Status::NotFound(StrCat("send-to-node peer ",
                                           loc.peer.ToString(),
                                           " unknown")));
              return;
            }
            Status s =
                target->AppendUnderNode(loc.node, std::move(landed));
            if (!s.ok()) Fail(std::move(s));
          });
        }
      });
      return;
    }
    case Expr::SendDest::Kind::kNewDoc: {
      // §3.1: "t is installed under the name d as a new document at p2".
      // Later trees of the stream accumulate under the first tree's
      // root (§3.2 (i): streams accumulate under a given node).
      DocName name = dest.doc_name;
      PeerId to = dest.peer;
      DeployExpr(ctx, payload, [this, ctx, to, name](TreePtr t) {
        Ship(ctx, to, t, [this, to, name](TreePtr landed) {
          Peer* target = sys_->peer(to);
          if (target == nullptr) return;
          TreePtr existing = target->GetDocument(name);
          if (existing == nullptr) {
            target->PutDocument(name, landed);
            if (sys_->catalog() != nullptr) {
              sys_->catalog()->Register(ResourceKind::kDocument, name, to);
            }
          } else {
            existing->AddChild(std::move(landed));
          }
        });
      });
      return;
    }
  }
}

void Evaluator::DeployShipQuery(PeerId ctx, const ExprPtr& e, EmitFn) {
  // Definition (8): eval@p1(send(p2, q@p1)). Shipping a query someone
  // else owns is as undefined as shipping their trees.
  if (e->query_peer().is_concrete() && e->query_peer() != ctx) {
    Fail(Status::Undefined(
        StrCat("ship at ", ctx.ToString(), " of a query defined at ",
               e->query_peer().ToString())));
    return;
  }
  PeerId to = e->ship_dest();
  Peer* target = sys_->peer(to);
  if (target == nullptr) {
    Fail(Status::NotFound(
        StrCat("shipQuery destination ", to.ToString(), " unknown")));
    return;
  }
  Query q = e->query();
  sys_->network().SendReliable(
      ctx, to,
      wire::EncodeText(wire::MessageClass::kQuery, q.text(),
                       &sys_->wire_stats()),
      [this, to, name = e->install_as()](const wire::Payload& p) mutable {
        Peer* dest = sys_->peer(to);
        if (dest == nullptr) return;
        // "Rather than giving it an explicit name ... we may refer to this
        // service as send_{p1→p2}(q@p1)": an anonymous ship installs as
        // the first shipped_q<n> the destination does not define yet, so
        // the name depends on the system's state alone.
        for (uint64_t n = 0; name.empty(); ++n) {
          if (!dest->HasService(StrCat("shipped_q", n))) {
            name = StrCat("shipped_q", n);
          }
        }
        // The service re-materializes from the wire text: the canonical
        // form Parse()s back to an equal query, so the shipped bytes are
        // the installed definition — no in-process alias survives.
        Result<std::string> text = wire::DecodeText(p, &sys_->wire_stats());
        AXML_DCHECK(text.ok());
        if (!text.ok()) return;
        Result<Query> parsed = Query::Parse(*text);
        AXML_DCHECK(parsed.ok());
        if (!parsed.ok()) return;
        dest->PutService(
            Service::Declarative(name, std::move(parsed).value()));
        if (sys_->catalog() != nullptr) {
          sys_->catalog()->Register(ResourceKind::kService, name, to);
        }
        if (Tracer& tr = sys_->tracer(); tr.enabled()) {
          tr.Record("eval", "install_service", to, 0, 0,
                    StrCat(name, "@", dest->name()));
        }
      });
}

void Evaluator::DeployEvalAt(PeerId ctx, const ExprPtr& e, EmitFn emit) {
  PeerId where = e->eval_where();
  if (where == ctx) {
    DeployExpr(ctx, e->body(), std::move(emit));
    return;
  }
  Peer* target = sys_->peer(where);
  if (target == nullptr) {
    Fail(Status::NotFound(
        StrCat("evalAt peer ", where.ToString(), " unknown")));
    return;
  }
  // Rules (14)/(15): the expression itself travels as an XML tree — its
  // compact serialization rides a kQuery envelope, and the payload's
  // byte count is the shipping cost. Results come back to the consumer.
  ExprPtr body = e->body();
  NodeIdGen tmp;
  wire::Payload payload =
      wire::EncodeText(wire::MessageClass::kQuery,
                       SerializeCompactExpr(*body, &tmp),
                       &sys_->wire_stats());
  if (Tracer& tr = sys_->tracer(); tr.enabled()) {
    tr.Record("eval", "delegate", ctx, payload.size(), 0,
              StrCat("-> ", where.ToString()));
  }
  sys_->network().SendReliable(
      ctx, where, std::move(payload),
      [this, where, ctx, body, emit](const wire::Payload& p) {
        Result<std::string> text = wire::DecodeText(p, &sys_->wire_stats());
        AXML_DCHECK(text.ok());
        DeployExpr(where, body, [this, where, ctx, emit](TreePtr t) {
          Ship(where, ctx, t, emit);
        });
      });
}

void Evaluator::DeploySeq(PeerId ctx, const ExprPtr& e, EmitFn emit) {
  // Rule (13) support: `then` starts only when `first` has quiesced
  // ("the evaluation of e3 is only enabled when d is available at p").
  DeployExpr(ctx, e->first(), Swallow());
  ExprPtr then = e->then();
  AtQuiescence([this, ctx, then, emit = std::move(emit)] {
    DeployExpr(ctx, then, emit);
  });
}

// --- AXML document runtime ---

Status Evaluator::InstallAxmlDocument(PeerId host, DocName name,
                                      TreePtr root) {
  AXML_RETURN_NOT_OK(sys_->InstallDocument(host, name, root));
  std::vector<TreePtr> calls;
  FindServiceCalls(root, &calls);
  for (const TreePtr& sc : calls) {
    Result<ServiceCallSpec> spec = ParseServiceCall(*sc);
    if (!spec.ok()) return spec.status();
    if (spec->mode == ActivationMode::kImmediate) {
      AXML_RETURN_NOT_OK(ActivateCall(host, sc->id()));
    }
  }
  return Status::OK();
}

Status Evaluator::ActivateLazyCalls(PeerId host, const DocName& doc) {
  Peer* peer = sys_->peer(host);
  if (peer == nullptr) {
    return Status::NotFound(StrCat("no peer ", host.ToString()));
  }
  TreePtr root = peer->GetDocument(doc);
  if (root == nullptr) {
    return Status::NotFound(StrCat("document \"", doc, "\" not found"));
  }
  std::vector<TreePtr> calls;
  FindServiceCalls(root, &calls);
  for (const TreePtr& sc : calls) {
    Result<ServiceCallSpec> spec = ParseServiceCall(*sc);
    if (!spec.ok()) return spec.status();
    if (spec->mode == ActivationMode::kLazy) {
      AXML_RETURN_NOT_OK(ActivateCall(host, sc->id()));
    }
  }
  return Status::OK();
}

Status Evaluator::ActivateCall(PeerId host, NodeId sc_node) {
  Peer* peer = sys_->peer(host);
  if (peer == nullptr) {
    return Status::NotFound(StrCat("no peer ", host.ToString()));
  }
  if (!activated_.insert(sc_node).second) {
    return Status::OK();  // idempotent: a call activates at most once
  }
  TreeNode* sc = peer->FindNode(sc_node);
  if (sc == nullptr) {
    return Status::NotFound(
        StrCat("sc node ", sc_node.ToString(), " not found"));
  }
  AXML_ASSIGN_OR_RETURN(ServiceCallSpec spec, ParseServiceCall(*sc));

  PeerId provider = spec.provider == "any"
                        ? PeerId::Any()
                        : sys_->FindPeerId(spec.provider);
  if (!provider.valid()) {
    return Status::NotFound(
        StrCat("provider peer \"", spec.provider, "\" unknown"));
  }

  // Default forward: the parent of the sc node (§2.3).
  std::vector<NodeLocation> forwards = spec.forwards;
  if (forwards.empty()) {
    DocName doc = peer->FindDocumentOfNode(sc_node);
    TreePtr root = peer->GetDocument(doc);
    TreeNode* parent = root == nullptr ? nullptr
                                       : FindParent(root, sc_node);
    if (parent == nullptr) {
      return Status::InvalidArgument(
          "sc node has no parent to receive responses");
    }
    forwards.push_back(NodeLocation{parent->id(), host});
  }

  std::vector<ExprPtr> params;
  for (const TreePtr& p : spec.params) {
    params.push_back(Expr::Tree(p, host));
  }
  if (Tracer& tr = sys_->tracer(); tr.enabled()) {
    tr.Record("eval", "activate", host, 0, 0,
              StrCat("sc ", sc_node.ToString(), " -> ", spec.service, "@",
                     spec.provider));
  }
  ExprPtr call = Expr::Call(provider, spec.service, std::move(params),
                            std::move(forwards));
  DeployExpr(host, call, Swallow());

  // After-call chaining (§2.2): calls declared to follow this one fire
  // once its response stream has been handled (quiescence).
  DocName doc = peer->FindDocumentOfNode(sc_node);
  TreePtr root = peer->GetDocument(doc);
  if (root != nullptr) {
    std::vector<TreePtr> calls;
    FindServiceCalls(root, &calls);
    for (const TreePtr& other : calls) {
      Result<ServiceCallSpec> ospec = ParseServiceCall(*other);
      if (!ospec.ok()) continue;
      if (ospec->mode == ActivationMode::kAfterCall &&
          ospec->after == sc_node) {
        NodeId next = other->id();
        AtQuiescence([this, host, next] {
          Status s = ActivateCall(host, next);
          if (!s.ok()) Fail(std::move(s));
        });
      }
    }
  }
  return Status::OK();
}

}  // namespace axml
