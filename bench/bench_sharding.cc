// Subtree sharding: partial replicas of documents bigger than any
// single cache budget.
//
// Claims under test:
//  1. Write-path delta: once a large document replicates as shards, a
//     single-subtree mutation re-ships only the dirty shard (plus the
//     small manifest) — a fraction of what full-document eager refresh
//     moves. Target: < 25% of the unsharded wire bytes.
//  2. Partial copies: a holder whose byte budget is *smaller than the
//     document* still gets non-zero cache hits — the resident shards
//     serve locally and only the gap crosses the wire — where the
//     unsharded cache can never admit the document at all.
//
// Workload A (WriteDelta): one origin, several readers holding copies,
// kEagerRefresh; each round mutates one product's description (same
// size, so exactly one shard dirties) and every reader re-reads.
// Sweep: document size × {unsharded, sharded}.
//
// Workload B (TightBudget): reader budget = 1/4 of the document; the
// reader re-reads a hot document repeatedly. Sweep: {unsharded,
// sharded}. Reported cache_hits stay 0 unsharded (the whole-tree Put is
// refused) and go positive sharded, with falling per-read wire bytes.
//
// Workload C (BoundaryShift): pure splitter measure of the
// content-defined group boundary rule. Split, insert one product in the
// middle, re-split, count the shard ids the insertion dirtied (ids a
// delta against the old copy must ship). Sweep: document size. The
// rule re-synchronizes within ~3 ids.
//
// Workload D (NotifyFanout): shard-level subscriptions. Eight partial
// holders each cache a disjoint 1/8 slice of a sharded document; each
// round mutates one product. Document-level subscriptions would notify
// all eight; shard-granular fan-out notifies none, because a partial
// copy serves no read by name and its content-addressed shards never go
// stale (counters: notifies vs clean_skips per round).

#include "bench_common.h"

#include "replica/replica_manager.h"
#include "replica/transfer_cache.h"
#include "xml/sharding.h"
#include "xml/wire.h"

namespace axml {
namespace {

constexpr int kReaders = 2;
constexpr int kWriteRounds = 8;
constexpr uint64_t kMaxShardBytes = 4 * 1024;

struct Setup {
  std::unique_ptr<AxmlSystem> sys;
  PeerId origin;
  std::vector<PeerId> readers;
  Query q;
  uint64_t doc_bytes = 0;
};

Setup Build(int64_t n_products, bool sharded) {
  Setup s;
  s.sys = std::make_unique<AxmlSystem>(Topology(LinkParams{0.040, 2.0e6}));
  s.origin = s.sys->AddPeer("origin");
  for (int i = 0; i < kReaders; ++i) {
    s.readers.push_back(s.sys->AddPeer(StrCat("r", i)));
  }
  Rng rng(13);
  TreePtr t = bench::MakeCatalog(static_cast<size_t>(n_products),
                                 s.sys->peer(s.origin)->gen(), &rng,
                                 /*desc_bytes=*/64);
  s.doc_bytes = wire::EncodedTreeSize(*t);
  (void)s.sys->InstallDocument(s.origin, "d", t);
  if (sharded) {
    ShardingConfig cfg;
    cfg.max_shard_bytes = kMaxShardBytes;
    s.sys->replicas().set_sharding_config(cfg);
    s.sys->replicas().set_sharding_enabled(true);
  }
  s.q = Query::Parse(
            "for $p in input(0)/catalog/product "
            "where $p/price < 900 return <r>{ $p/name }</r>")
            .value();
  return s;
}

/// Same-size mutation of one product's description: the shard holding
/// it dirties, every other shard keeps its content-derived id.
void MutateOneProduct(AxmlSystem* sys, PeerId origin, Rng* rng) {
  Peer* host = sys->peer(origin);
  TreePtr next = host->GetDocument("d")->CloneSameIds();
  TreeNode* product =
      next->child(rng->Index(next->child_count())).get();
  for (const TreePtr& c : product->children()) {
    if (c->label_text() == "desc") {
      TreeNode* text = c->child(0).get();
      text->set_text(rng->Identifier(text->text().size()));
      break;
    }
  }
  host->PutDocument("d", next);
}

void RecordShardCounters(benchmark::State& state, AxmlSystem* sys) {
  const TransferCacheStats cs = sys->replicas().TotalStats();
  const ShardStats& sh = sys->replicas().shard_stats();
  state.counters["cache_hits"] = static_cast<double>(cs.hits);
  state.counters["shards_shipped"] = static_cast<double>(sh.shards_shipped);
  state.counters["shards_reused"] = static_cast<double>(sh.shards_reused);
  state.counters["shard_saved_KB"] =
      static_cast<double>(sh.shard_bytes_saved) / 1024.0;
  state.counters["partial_hits"] = static_cast<double>(sh.partial_hits);
}

// --- Workload A: write-path delta under eager refresh ---

void RunWriteDelta(benchmark::State& state, bool sharded) {
  Setup s = Build(state.range(0), sharded);
  s.sys->replicas().set_refresh_policy(RefreshPolicy::kEagerRefresh);
  EvalOptions opts;
  opts.use_replica_cache = true;
  Evaluator ev(s.sys.get(), opts);
  Rng mut_rng(99);

  for (auto _ : state) {
    s.sys->replicas().DropAllCopies();
    s.sys->replicas().ResetStats();

    auto read_all = [&] {
      size_t results = 0;
      for (PeerId r : s.readers) {
        auto out =
            ev.Eval(r, Expr::Apply(s.q, r, {Expr::Doc("d", s.origin)}));
        if (!out.ok()) {
          state.SkipWithError(out.status().ToString().c_str());
          return size_t{0};
        }
        results += out->results.size();
      }
      return results;
    };

    if (read_all() == 0) return;  // warm: every reader holds a copy
    // Measure only the write path: the wire bytes refresh moves per
    // mutation round. Reads afterward stay local under both variants —
    // the *cost of staying fresh* is what sharding changes.
    s.sys->network().mutable_stats()->Reset();
    const SimTime t0 = s.sys->loop().now();
    size_t results = 0;
    for (int round = 0; round < kWriteRounds; ++round) {
      MutateOneProduct(s.sys.get(), s.origin, &mut_rng);
      s.sys->RunToQuiescence();  // refresh shipments land
      results += read_all();
    }
    bench::RecordStandardCounters(state, s.sys.get(), t0, results);
    RecordShardCounters(state, s.sys.get());
    state.counters["refresh_KB_per_round"] =
        static_cast<double>(
            s.sys->replicas().subscription_stats().refresh_bytes) /
        1024.0 / kWriteRounds;
    state.counters["doc_KB"] = static_cast<double>(s.doc_bytes) / 1024.0;
  }
}

void BM_Sharding_WriteDelta_Unsharded(benchmark::State& state) {
  RunWriteDelta(state, /*sharded=*/false);
}

void BM_Sharding_WriteDelta_Sharded(benchmark::State& state) {
  RunWriteDelta(state, /*sharded=*/true);
}

// --- Workload B: budget smaller than the document ---

void RunTightBudget(benchmark::State& state, bool sharded) {
  Setup s = Build(state.range(0), sharded);
  // The cache can hold at most a quarter of the document.
  s.sys->replicas().set_default_byte_budget(s.doc_bytes / 4);
  EvalOptions opts;
  opts.use_replica_cache = true;
  Evaluator ev(s.sys.get(), opts);
  constexpr int kReads = 8;

  for (auto _ : state) {
    s.sys->replicas().DropAllCopies();
    s.sys->replicas().ResetStats();
    s.sys->network().mutable_stats()->Reset();
    const SimTime t0 = s.sys->loop().now();
    size_t results = 0;
    for (int i = 0; i < kReads; ++i) {
      for (PeerId r : s.readers) {
        auto out =
            ev.Eval(r, Expr::Apply(s.q, r, {Expr::Doc("d", s.origin)}));
        if (!out.ok()) {
          state.SkipWithError(out.status().ToString().c_str());
          return;
        }
        results += out->results.size();
      }
    }
    bench::RecordStandardCounters(state, s.sys.get(), t0, results);
    RecordShardCounters(state, s.sys.get());
    state.counters["doc_KB"] = static_cast<double>(s.doc_bytes) / 1024.0;
  }
}

void BM_Sharding_TightBudget_Unsharded(benchmark::State& state) {
  RunTightBudget(state, /*sharded=*/false);
}

void BM_Sharding_TightBudget_Sharded(benchmark::State& state) {
  RunTightBudget(state, /*sharded=*/true);
}

// --- Workload C: dirtied shard ids after an insertion ---

void BM_Sharding_BoundaryShift_ContentDefined(benchmark::State& state) {
  NodeIdGen gen;
  Rng rng(13);
  TreePtr doc = bench::MakeCatalog(static_cast<size_t>(state.range(0)),
                                   &gen, &rng, /*desc_bytes=*/64);
  ShardingConfig cfg;
  cfg.max_shard_bytes = kMaxShardBytes;
  TreePtr wedge = TreeNode::Element("product", &gen);
  wedge->AddChild(MakeTextElement("name", "wedge", &gen));
  wedge->AddChild(MakeTextElement("price", "1", &gen));
  wedge->AddChild(MakeTextElement("desc", rng.Identifier(64), &gen));
  TreePtr grown = doc->CloneSameIds();
  grown->InsertChild(grown->child_count() / 2, wedge);
  for (auto _ : state) {
    const ShardedDocument before = SplitDocument(*doc, cfg);
    const ShardedDocument after = SplitDocument(*grown, cfg);
    state.counters["shards"] = static_cast<double>(before.shards.size());
    state.counters["dirtied_ids"] =
        static_cast<double>(DirtiedShardIds(before, after).size());
  }
}

// --- Workload D: shard-level subscription notify fan-out ---

void BM_Sharding_NotifyFanout(benchmark::State& state) {
  constexpr int kHolders = 8;
  auto sys =
      std::make_unique<AxmlSystem>(Topology(LinkParams{0.040, 2.0e6}));
  const PeerId origin = sys->AddPeer("origin");
  std::vector<PeerId> holders;
  for (int i = 0; i < kHolders; ++i) {
    holders.push_back(sys->AddPeer(StrCat("h", i)));
  }
  Rng rng(13);
  TreePtr t = bench::MakeCatalog(static_cast<size_t>(state.range(0)),
                                 sys->peer(origin)->gen(), &rng,
                                 /*desc_bytes=*/64);
  (void)sys->InstallDocument(origin, "d", t);
  // A finer cut than the transfer workloads: the fan-out story needs
  // clearly more shards than holders even at the smoke size.
  ShardingConfig cfg;
  cfg.max_shard_bytes = 512;
  cfg.min_shard_bytes = 128;
  sys->replicas().set_sharding_config(cfg);
  sys->replicas().set_sharding_enabled(true);

  // Each holder caches a disjoint slice of the shards (plus the
  // manifest), subscribing shard-granularly, as a budget-bound partial
  // replica would.
  const ShardedDocument* sd = sys->replicas().OriginShards(origin, "d");
  if (sd == nullptr || sd->shards.size() < kHolders) {
    state.SkipWithError("document did not shard into enough pieces");
    return;
  }
  const uint64_t version = sys->replicas().Version(origin, "d");
  const size_t per_holder = sd->shards.size() / kHolders;
  for (int h = 0; h < kHolders; ++h) {
    const size_t from = h * per_holder;
    const size_t to =
        h + 1 == kHolders ? sd->shards.size() : from + per_holder;
    const std::vector<DocumentShard> slice(sd->shards.begin() + from,
                                           sd->shards.begin() + to);
    if (!sys->replicas().InsertShardedCopy(holders[h], origin, "d",
                                           sd->manifest, slice, version)) {
      state.SkipWithError("partial seed refused");
      return;
    }
  }

  constexpr int kMutations = 16;
  Rng mut_rng(99);
  for (auto _ : state) {
    sys->replicas().ResetStats();
    sys->network().mutable_stats()->Reset();
    for (int round = 0; round < kMutations; ++round) {
      MutateOneProduct(sys.get(), origin, &mut_rng);
      sys->RunToQuiescence();
    }
    const SubscriptionStats& ss = sys->replicas().subscription_stats();
    state.counters["notifies_per_mut"] =
        static_cast<double>(ss.notifies) / kMutations;
    state.counters["clean_skips_per_mut"] =
        static_cast<double>(ss.clean_skips) / kMutations;
    state.counters["doc_level_fanout"] = kHolders;
    state.counters["notify_msgs"] =
        static_cast<double>(sys->network().stats().notify_messages());
  }
}

void Sweep(benchmark::internal::Benchmark* b) {
  for (int64_t n : {64, 256, 1024, 4096}) {
    b->Args({n});
  }
  b->Iterations(1)->Unit(benchmark::kMillisecond);
}

BENCHMARK(BM_Sharding_WriteDelta_Unsharded)->Apply(Sweep);
BENCHMARK(BM_Sharding_WriteDelta_Sharded)->Apply(Sweep);
BENCHMARK(BM_Sharding_TightBudget_Unsharded)->Apply(Sweep);
BENCHMARK(BM_Sharding_TightBudget_Sharded)->Apply(Sweep);
BENCHMARK(BM_Sharding_BoundaryShift_ContentDefined)->Apply(Sweep);
BENCHMARK(BM_Sharding_NotifyFanout)->Apply(Sweep);

}  // namespace
}  // namespace axml

AXML_BENCH_MAIN();
