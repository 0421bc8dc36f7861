// Tests for the observability layer (src/obs/): the metrics registry
// (histograms, sinks, counter tables, snapshots, JSON dump) and the
// causal tracer (ring buffer, scoped id propagation, Chrome-trace
// export) — plus system-level pins: every stats struct the system
// mounts shows up under its documented names, and one mutation's
// invalidation cascade shares one trace id end-to-end.

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <map>
#include <regex>
#include <string>

#include "algebra/evaluator.h"
#include "common/rng.h"
#include "common/str_util.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "peer/system.h"
#include "replica/replica_manager.h"
#include "test_util.h"

namespace axml {
namespace {

using testing::MakeCatalog;

// --- Histogram ---

TEST(HistogramTest, BucketEdges) {
  // Bucket 0 holds exact zeros; bucket i >= 1 holds [2^(i-1), 2^i).
  EXPECT_EQ(Histogram::BucketIndex(0), 0u);
  EXPECT_EQ(Histogram::BucketIndex(1), 1u);
  EXPECT_EQ(Histogram::BucketIndex(2), 2u);
  EXPECT_EQ(Histogram::BucketIndex(3), 2u);
  EXPECT_EQ(Histogram::BucketIndex(4), 3u);
  EXPECT_EQ(Histogram::BucketIndex(7), 3u);
  EXPECT_EQ(Histogram::BucketIndex(8), 4u);
  EXPECT_EQ(Histogram::BucketIndex(1023), 10u);
  EXPECT_EQ(Histogram::BucketIndex(1024), 11u);
  EXPECT_EQ(Histogram::BucketIndex(uint64_t{1} << 63), 64u);
  EXPECT_EQ(Histogram::BucketIndex(std::numeric_limits<uint64_t>::max()),
            64u);

  EXPECT_EQ(Histogram::BucketLowerBound(0), 0u);
  EXPECT_EQ(Histogram::BucketLowerBound(1), 1u);
  EXPECT_EQ(Histogram::BucketLowerBound(2), 2u);
  EXPECT_EQ(Histogram::BucketLowerBound(3), 4u);
  EXPECT_EQ(Histogram::BucketLowerBound(64), uint64_t{1} << 63);

  // Round-trip: every value lands in the bucket whose range covers it.
  for (uint64_t v : {0ull, 1ull, 2ull, 3ull, 5ull, 100ull, 65536ull}) {
    const size_t i = Histogram::BucketIndex(v);
    EXPECT_GE(v, Histogram::BucketLowerBound(i)) << v;
    if (i + 1 < Histogram::kBucketCount) {
      EXPECT_LT(v, Histogram::BucketLowerBound(i + 1)) << v;
    }
  }
}

TEST(HistogramTest, AddCountSumAndReset) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  h.Add(0);
  h.Add(3);
  h.Add(3);
  h.Add(1000);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_EQ(h.sum(), 1006u);
  EXPECT_EQ(h.bucket(0), 1u);
  EXPECT_EQ(h.bucket(2), 2u);
  EXPECT_EQ(h.bucket(10), 1u);
  h.Reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.sum(), 0u);
  EXPECT_EQ(h.bucket(2), 0u);
}

TEST(HistogramTest, ApproxQuantile) {
  Histogram h;
  EXPECT_EQ(h.ApproxQuantile(0.5), 0u);  // empty
  for (int i = 0; i < 90; ++i) h.Add(4);    // bucket 3, lb 4
  for (int i = 0; i < 10; ++i) h.Add(512);  // bucket 10, lb 512
  EXPECT_EQ(h.ApproxQuantile(0.5), 4u);
  EXPECT_EQ(h.ApproxQuantile(0.99), 512u);
}

// --- MetricSink / snapshot / JSON ---

TEST(MetricSinkTest, PrefixAccumulationAndScoped) {
  std::map<std::string, uint64_t> out;
  MetricSink root("", &out);
  root.Value("top", 1);
  MetricSink net("net", &out);
  net.Value("bytes", 10);
  net.Value("bytes", 5);  // re-emitting accumulates
  MetricSink sub = net.Scoped("tcp");
  sub.Value("opens", 2);
  EXPECT_EQ(out.at("top"), 1u);
  EXPECT_EQ(out.at("net/bytes"), 15u);
  EXPECT_EQ(out.at("net/tcp/opens"), 2u);
}

TEST(MetricSinkTest, HistoFlattensNonEmptyBuckets) {
  std::map<std::string, uint64_t> out;
  Histogram h;
  h.Add(0);
  h.Add(3);
  h.Add(3);
  MetricSink sink("net", &out);
  sink.Histo("msg", h);
  EXPECT_EQ(out.at("net/msg/count"), 3u);
  EXPECT_EQ(out.at("net/msg/sum"), 6u);
  EXPECT_EQ(out.at("net/msg/ge_0"), 1u);
  EXPECT_EQ(out.at("net/msg/ge_2"), 2u);
  EXPECT_EQ(out.count("net/msg/ge_1"), 0u);  // empty buckets elided
}

TEST(MetricsSnapshotTest, ValueOrDiffAndJson) {
  MetricsSnapshot older{{{"a", 5}, {"gone", 7}}};
  MetricsSnapshot newer{{{"a", 8}, {"b", 2}}};
  EXPECT_EQ(newer.ValueOr("a"), 8u);
  EXPECT_EQ(newer.ValueOr("nope", 42), 42u);

  MetricsSnapshot diff = newer.DiffSince(older);
  // Same keys as the newer snapshot; names absent in the older count 0.
  EXPECT_EQ(diff.values.size(), 2u);
  EXPECT_EQ(diff.ValueOr("a"), 3u);
  EXPECT_EQ(diff.ValueOr("b"), 2u);

  EXPECT_EQ(newer.ToJson(), "{\"a\": 8, \"b\": 2}");
  EXPECT_EQ(MetricsSnapshot{}.ToJson(), "{}");
}

TEST(JsonEscapeTest, EscapesQuotesBackslashesAndControlChars) {
  EXPECT_EQ(JsonEscape("plain"), "plain");
  EXPECT_EQ(JsonEscape("a\"b"), "a\\\"b");
  EXPECT_EQ(JsonEscape("a\\b"), "a\\\\b");
  EXPECT_EQ(JsonEscape("a\nb"), "a\\nb");
  EXPECT_EQ(JsonEscape(std::string_view("a\x01z", 3)), "a\\u0001z");
}

// --- Counter tables ---

const char* ToyName(size_t i) {
  static constexpr const char* kNames[] = {"a", "b", "c", "d", "e", "f"};
  return kNames[i];
}

struct ToyStats {
  uint64_t hits = 0;
  uint64_t grid[2][3] = {};
  bool tracing = false;

  static constexpr auto kCounters =
      std::make_tuple(Counter{"hits", &ToyStats::hits},
                      Counter{"grid_", &ToyStats::grid, ToyName});
};
static_assert(CountersCover<ToyStats>(sizeof(bool)));

struct MissingFieldStats {
  uint64_t listed = 0;
  uint64_t forgotten = 0;

  static constexpr auto kCounters =
      std::make_tuple(Counter{"listed", &MissingFieldStats::listed});
};
static_assert(!CountersCover<MissingFieldStats>(),
              "a field left out of the table must fail the cover check");

TEST(CounterTableTest, ExportToStringAndAddWalkTheSameTable) {
  ToyStats s;
  s.hits = 2;
  s.grid[1][0] = 5;  // row-major cell 3: "d"

  std::map<std::string, uint64_t> out;
  MetricSink sink("toy", &out);
  ExportCounters(s, sink);
  EXPECT_EQ(out.size(), 1u + 6u);
  EXPECT_EQ(out.at("toy/hits"), 2u);
  EXPECT_EQ(out.at("toy/grid_a"), 0u);  // zero cells are exported too
  EXPECT_EQ(out.at("toy/grid_d"), 5u);

  // The printable line lists the same values, by name.
  EXPECT_EQ(CountersToString(s),
            "grid_a=0 grid_b=0 grid_c=0 grid_d=5 grid_e=0 grid_f=0 hits=2");

  ToyStats total;
  AddCounters(total, s);
  AddCounters(total, s);
  EXPECT_EQ(total.hits, 4u);
  EXPECT_EQ(total.grid[1][0], 10u);
  EXPECT_EQ(total.grid[0][0], 0u);
}

// --- MetricRegistry ---

TEST(MetricRegistryTest, SourcesMountAtTheirPrefix) {
  MetricRegistry reg;
  uint64_t hidden = 7;
  MetricRegistry::SourceId id =
      reg.RegisterSource("sub", [&](MetricSink& sink) {
        sink.Value("x", hidden);
      });
  reg.RegisterSource("", [](MetricSink& sink) { sink.Value("rooted", 1); });
  EXPECT_EQ(reg.source_count(), 2u);

  MetricsSnapshot snap = reg.Snapshot();
  EXPECT_EQ(snap.ValueOr("sub/x"), 7u);
  EXPECT_EQ(snap.ValueOr("rooted"), 1u);

  // Snapshots are live reads, not caches.
  hidden = 9;
  EXPECT_EQ(reg.Snapshot().ValueOr("sub/x"), 9u);

  reg.UnregisterSource(id);
  reg.UnregisterSource(id);  // idempotent
  EXPECT_EQ(reg.source_count(), 1u);
  EXPECT_EQ(reg.Snapshot().ValueOr("sub/x", 123), 123u);
}

TEST(MetricRegistryTest, TwoSourcesSameNameAccumulate) {
  MetricRegistry reg;
  reg.RegisterSource("net", [](MetricSink& sink) { sink.Value("b", 10); });
  reg.RegisterSource("net", [](MetricSink& sink) { sink.Value("b", 32); });
  EXPECT_EQ(reg.Snapshot().ValueOr("net/b"), 42u);
}

// --- Tracer (unit) ---

TEST(TracerTest, DisabledByDefaultAndRecordsWhenEnabled) {
  SimTime now = 1.5;
  Tracer tr([&] { return now; });
  tr.Record("cat", "ev", PeerId(0));
  EXPECT_EQ(tr.size(), 0u);

  tr.set_enabled(true);
  tr.Record("replica", "mutation", PeerId(2), 48, 0.25, "d@p0");
  now = 2.0;
  tr.Record("net", "msg", PeerId(0));
  ASSERT_EQ(tr.size(), 2u);
  std::vector<TraceSpan> events = tr.Events();
  EXPECT_EQ(events[0].category, "replica");
  EXPECT_EQ(events[0].name, "mutation");
  EXPECT_EQ(events[0].peer, PeerId(2));
  EXPECT_EQ(events[0].bytes, 48u);
  EXPECT_DOUBLE_EQ(events[0].time, 1.5);
  EXPECT_DOUBLE_EQ(events[0].duration, 0.25);
  EXPECT_EQ(events[0].detail, "d@p0");
  EXPECT_DOUBLE_EQ(events[1].time, 2.0);
  EXPECT_LT(events[0].seq, events[1].seq);
}

TEST(TracerTest, RingWraparoundDropsOldestAndExposesSeqGaps) {
  Tracer tr(nullptr, /*capacity=*/4);
  tr.set_enabled(true);
  for (int i = 0; i < 6; ++i) {
    tr.Record("t", StrCat("e", i), PeerId(0));
  }
  EXPECT_EQ(tr.size(), 4u);
  EXPECT_EQ(tr.recorded(), 6u);
  EXPECT_EQ(tr.dropped(), 2u);
  std::vector<TraceSpan> events = tr.Events();
  ASSERT_EQ(events.size(), 4u);
  // Oldest two fell off the front; what remains is e2..e5 in order.
  EXPECT_EQ(events.front().name, "e2");
  EXPECT_EQ(events.back().name, "e5");
  for (size_t i = 1; i < events.size(); ++i) {
    EXPECT_EQ(events[i].seq, events[i - 1].seq + 1);
  }

  tr.Clear();
  EXPECT_EQ(tr.size(), 0u);
  tr.set_capacity(2);
  tr.Record("t", "a", PeerId(0));
  tr.Record("t", "b", PeerId(0));
  tr.Record("t", "c", PeerId(0));
  events = tr.Events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events.front().name, "b");
}

TEST(TracerTest, ScopesNestAndRestore) {
  Tracer tr;
  EXPECT_EQ(tr.current(), 0u);
  const TraceId a = tr.NewTrace();
  const TraceId b = tr.NewTrace();
  EXPECT_NE(a, 0u);
  EXPECT_LT(a, b);
  {
    Tracer::Scope outer(&tr, a);
    EXPECT_EQ(tr.current(), a);
    EXPECT_EQ(tr.CurrentOrNew(), a);  // inside a chain: no fresh id
    {
      Tracer::Scope inner(&tr, b);
      EXPECT_EQ(tr.current(), b);
    }
    EXPECT_EQ(tr.current(), a);
  }
  EXPECT_EQ(tr.current(), 0u);
  EXPECT_NE(tr.CurrentOrNew(), 0u);  // outside: mints

  // A null tracer scope is inert (call sites need no null checks).
  Tracer::Scope nothing(nullptr, 17);
}

TEST(TracerTest, BindCarriesTheCurrentIdAcrossDeferredInvocation) {
  Tracer tr;
  tr.set_enabled(true);
  std::function<void()> deferred;
  const TraceId id = tr.NewTrace();
  {
    Tracer::Scope scope(&tr, id);
    deferred = tr.Bind([&] { tr.Record("t", "later", PeerId(1)); });
  }
  EXPECT_EQ(tr.current(), 0u);
  tr.Record("t", "orphan", PeerId(0));
  deferred();  // runs under the id current at Bind time
  std::vector<TraceSpan> events = tr.Events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].trace, 0u);
  EXPECT_EQ(events[1].trace, id);
}

TEST(TracerTest, ChromeJsonExportShape) {
  SimTime now = 0.001;
  Tracer tr([&] { return now; });
  tr.set_enabled(true);
  {
    Tracer::Scope scope(&tr, tr.NewTrace());
    tr.Record("replica", "mutation", PeerId(3), 48, 0.0005, "d\"q");
  }
  const std::string json = tr.ToChromeJson();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(json.find("\"pid\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"tid\": 1"), std::string::npos);
  // Sim seconds -> microseconds.
  EXPECT_NE(json.find("\"ts\": 1000.000"), std::string::npos);
  EXPECT_NE(json.find("\"dur\": 500.000"), std::string::npos);
  // Details are escaped.
  EXPECT_NE(json.find("d\\\"q"), std::string::npos);
}

// --- System-level: documented names + causal cascade ---

struct ObsRig {
  AxmlSystem sys{Topology(LinkParams{0.050, 1.0e6})};
  PeerId origin, client;
  Query q;

  ObsRig() {
    origin = sys.AddPeer("origin");
    client = sys.AddPeer("client");
    Rng rng(13);
    EXPECT_TRUE(
        sys.InstallDocument(origin, "d",
                            MakeCatalog(24, sys.peer(origin)->gen(), &rng))
            .ok());
    q = Query::Parse(
            "for $p in input(0)/catalog/product "
            "where $p/price < 900 return <r>{ $p/name }</r>")
            .value();
  }

  ExprPtr Read() const {
    return Expr::Apply(q, client, {Expr::Doc("d", origin)});
  }
};

EvalOptions CachingOptions() {
  EvalOptions opts;
  opts.use_replica_cache = true;
  return opts;
}

TEST(ObsSystemTest, DumpMetricsShowsADocumentedNameOfEveryStruct) {
  ObsRig f;
  f.sys.replicas().set_refresh_policy(RefreshPolicy::kEagerRefresh);
  Evaluator ev(&f.sys, CachingOptions());
  ASSERT_TRUE(ev.Eval(f.client, f.Read()).ok());  // miss + transfer
  Rng rng(17);
  f.sys.peer(f.origin)->PutDocument(
      "d", MakeCatalog(20, f.sys.peer(f.origin)->gen(), &rng));
  f.sys.RunToQuiescence();  // notify + eager refresh
  ASSERT_TRUE(ev.Eval(f.client, f.Read()).ok());  // hit on the refresh

  // A third peer's pick earns it a placement seed, shipped as shards.
  f.sys.replicas().set_sharding_enabled(true);
  ShardingConfig sharding;
  sharding.max_shard_bytes = 512;
  f.sys.replicas().set_sharding_config(sharding);
  PlacementConfig placement;
  placement.enabled = true;
  placement.min_picks = 1;
  f.sys.replicas().placement().set_config(placement);
  f.sys.generics().AddDocumentMember("cls", ClassMember{"d", f.origin});
  const PeerId picker = f.sys.AddPeer("picker");
  ASSERT_TRUE(f.sys.generics()
                  .PickDocument("cls", picker, PickPolicy::kFirst,
                                f.sys.network())
                  .ok());
  EXPECT_EQ(f.sys.replicas().RunPlacement(), 1u);
  f.sys.RunToQuiescence();
  // A d@any read: one catalog lookup and one counted pick.
  ASSERT_TRUE(ev.Eval(f.client, Expr::Apply(f.q, f.client,
                                            {Expr::GenericDoc("cls")}))
                  .ok());

  std::map<std::string, uint64_t> dump;
  const std::string json = f.sys.DumpMetrics();
  const std::regex entry("\"([^\"]+)\": ([0-9]+)");
  for (auto it = std::sregex_iterator(json.begin(), json.end(), entry);
       it != std::sregex_iterator(); ++it) {
    dump[(*it)[1]] = std::stoull((*it)[2]);
  }
  // One name per stats struct; a trailing '/' accepts any name under it.
  for (const char* documented :
       {"net/total_bytes", "wire/encode_calls", "catalog/lookups",
        "replica/cache/hits", "replica/cache/resident_bytes",
        "replica/subscription/notifies", "replica/shard/",
        "replica/placement/", "eval/pick/"}) {
    const std::string name = documented;
    uint64_t value = 0;
    for (const auto& [key, v] : dump) {
      if (name.back() == '/' ? key.rfind(name, 0) == 0 : key == name) {
        value += v;
      }
    }
    EXPECT_GT(value, 0u) << name << " missing or zero in " << json;
  }
}

TEST(ObsSystemTest, EvaluatorUnmountsItsCountersOnDestruction) {
  ObsRig f;
  const size_t base = f.sys.metrics().source_count();
  {
    Evaluator ev(&f.sys, CachingOptions());
    EXPECT_EQ(f.sys.metrics().source_count(), base + 1);
    ASSERT_TRUE(ev.Eval(f.client, f.Read()).ok());
    EXPECT_GT(f.sys.metrics().Snapshot().ValueOr("eval/remote_fetches"), 0u);
  }
  EXPECT_EQ(f.sys.metrics().source_count(), base);
  EXPECT_EQ(f.sys.metrics().Snapshot().ValueOr("eval/remote_fetches", 99),
            99u);

  // Two live evaluators sum at the same mount.
  Evaluator ev1(&f.sys, CachingOptions());
  Evaluator ev2(&f.sys, CachingOptions());
  ASSERT_TRUE(ev1.Eval(f.client, f.Read()).ok());
  ASSERT_TRUE(ev2.Eval(f.client, f.Read()).ok());
  EXPECT_EQ(f.sys.metrics().Snapshot().ValueOr("eval/replica_hits"),
            ev1.counters().replica_hits + ev2.counters().replica_hits);
}

TEST(ObsSystemTest, NotifySpansCarryTheEncodedNotifyBytes) {
  ObsRig f;
  const PeerId other = f.sys.AddPeer("other");
  Evaluator ev(&f.sys, CachingOptions());
  ASSERT_TRUE(ev.Eval(f.client, f.Read()).ok());
  ASSERT_TRUE(
      ev.Eval(other, Expr::Apply(f.q, other, {Expr::Doc("d", f.origin)}))
          .ok());

  f.sys.tracer().set_enabled(true);
  f.sys.network().mutable_stats()->Reset();
  Rng rng(17);
  f.sys.peer(f.origin)->PutDocument(
      "d", MakeCatalog(20, f.sys.peer(f.origin)->gen(), &rng));
  f.sys.RunToQuiescence();

  // Each notify span records the size its message was charged, so the
  // spans add up to the link's notify tally.
  uint64_t spans = 0, span_bytes = 0;
  for (const TraceSpan& s : f.sys.tracer().Events()) {
    if (s.category == "replica" && s.name == "notify") {
      ++spans;
      EXPECT_GT(s.bytes, 0u);
      span_bytes += s.bytes;
    }
  }
  EXPECT_EQ(spans, 2u);
  EXPECT_EQ(spans, f.sys.network().stats().notify_messages());
  EXPECT_EQ(span_bytes, f.sys.network().stats().notify_bytes());
}

TEST(ObsSystemTest, MutationCascadeSharesOneTraceId) {
  ObsRig f;
  f.sys.replicas().set_refresh_policy(RefreshPolicy::kEagerRefresh);
  Evaluator ev(&f.sys, CachingOptions());
  ASSERT_TRUE(ev.Eval(f.client, f.Read()).ok());  // client now holds a copy

  f.sys.tracer().set_enabled(true);
  Rng rng(17);
  f.sys.peer(f.origin)->PutDocument(
      "d", MakeCatalog(20, f.sys.peer(f.origin)->gen(), &rng));
  f.sys.RunToQuiescence();

  // One causal id carries the whole cascade: the mutation at the origin,
  // the notify to the dirty holder, the eager-refresh shipment, and the
  // install back at the client — across three network hops. (The install
  // re-fires the client's mutation listeners, so later "mutation" spans
  // at the client belong to the same chain; the root is the first one.)
  TraceId cascade = 0;
  for (const TraceSpan& s : f.sys.tracer().Events()) {
    if (s.category == "replica" && s.name == "mutation") {
      if (cascade == 0) {
        cascade = s.trace;
        EXPECT_EQ(s.peer, f.origin);
      } else {
        EXPECT_EQ(s.trace, cascade);
        EXPECT_EQ(s.peer, f.client);
      }
    }
  }
  ASSERT_NE(cascade, 0u);
  bool saw_notify = false, saw_shipment = false, saw_install = false;
  int net_hops = 0;
  for (const TraceSpan& s : f.sys.tracer().Events()) {
    if (s.trace != cascade) continue;
    if (s.category == "replica" && s.name == "notify") saw_notify = true;
    if (s.category == "replica" && s.name == "shipment") {
      saw_shipment = true;
      EXPECT_GT(s.bytes, 0u);
    }
    if (s.category == "replica" && s.name == "install") {
      saw_install = true;
      EXPECT_EQ(s.peer, f.client);
    }
    if (s.category == "net") ++net_hops;
  }
  EXPECT_TRUE(saw_notify);
  EXPECT_TRUE(saw_shipment);
  EXPECT_TRUE(saw_install);
  EXPECT_GE(net_hops, 2);  // notify + shipment at least

  // And a fresh top-level read opens a *different* chain.
  f.sys.replicas().DropAllCopies();
  ASSERT_TRUE(ev.Eval(f.client, f.Read()).ok());
  bool saw_fetch_chain = false;
  for (const TraceSpan& s : f.sys.tracer().Events()) {
    if (s.category == "eval" && s.name == "fetch") {
      EXPECT_NE(s.trace, cascade);
      EXPECT_NE(s.trace, 0u);
      saw_fetch_chain = true;
    }
  }
  EXPECT_TRUE(saw_fetch_chain);
}

}  // namespace
}  // namespace axml
