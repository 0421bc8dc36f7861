// EXP-3: forward lists (§2.3 forw extension; rules (15)/(16)'s "no need
// to ship results back ... results are sent directly to the locations
// in the forward list").
//
// Scenario: m subscriber peers each hold a mailbox; a broker invokes a
// feed service on the publisher.
//   ViaCaller — the pre-extension AXML pattern: results return to the
//               broker, which re-sends each to all m mailboxes.
//   Forwarded — the §2.3 forward list: the publisher ships each result
//               straight to the m mailboxes.
// Sweep: m x result size. Expected shape: Forwarded removes the
// publisher→broker leg entirely and roughly halves completion time;
// the saving grows linearly with result volume.

#include "bench_common.h"

namespace axml {
namespace {

struct Setup {
  std::unique_ptr<AxmlSystem> sys;
  PeerId broker, publisher;
  std::vector<NodeLocation> mailboxes;
  ExprPtr param;
};

Setup Build(int64_t m, int64_t stories) {
  Setup s;
  s.sys = std::make_unique<AxmlSystem>(
      Topology(LinkParams{0.015, 1.0e6}));
  s.broker = s.sys->AddPeer("broker");
  s.publisher = s.sys->AddPeer("publisher");
  // pub_to_broker_KB is summed from the traced message spans.
  s.sys->tracer().set_capacity(1 << 16);
  s.sys->tracer().set_enabled(true);
  Rng rng(9);
  TreePtr cat = bench::MakeCatalog(static_cast<size_t>(stories),
                                   s.sys->peer(s.publisher)->gen(), &rng);
  (void)s.sys->InstallDocument(s.publisher, "stories", cat);
  Query feed = Query::Parse(
                   "for $p in doc(\"stories\")/catalog/product "
                   "for $k in input(0) "
                   "where $p/price < $k/max return $p")
                   .value();
  (void)s.sys->InstallService(s.publisher,
                              Service::Declarative("feed", feed));
  for (int64_t i = 0; i < m; ++i) {
    PeerId sub = s.sys->AddPeer(StrCat("sub", i));
    TreePtr box = TreeNode::Element("inbox", s.sys->peer(sub)->gen());
    NodeId box_id = box->id();
    (void)s.sys->InstallDocument(sub, "inbox", box);
    s.mailboxes.push_back(NodeLocation{box_id, sub});
  }
  TreePtr knob = MakeTextElement("max", "400", s.sys->peer(s.broker)->gen());
  TreePtr k = TreeNode::Element("k", s.sys->peer(s.broker)->gen());
  k->AddChild(knob);
  s.param = Expr::Tree(k, s.broker);
  return s;
}

void BM_Forward_ViaCaller(benchmark::State& state) {
  Setup s = Build(state.range(0), state.range(1));
  // Results return to the broker, which fans them out itself.
  ExprPtr e = Expr::SendToNodes(
      s.mailboxes, Expr::Call(s.publisher, "feed", {s.param}));
  for (auto _ : state) {
    bench::EvalAndRecord(state, s.sys.get(), s.broker, e);
    state.counters["pub_to_broker_KB"] =
        static_cast<double>(
            TracedLinkBytes(s.sys->tracer(), s.publisher, s.broker)) /
        1024.0;
  }
}

void BM_Forward_ForwardList(benchmark::State& state) {
  Setup s = Build(state.range(0), state.range(1));
  ExprPtr e = Expr::Call(s.publisher, "feed", {s.param}, s.mailboxes);
  for (auto _ : state) {
    bench::EvalAndRecord(state, s.sys.get(), s.broker, e);
    state.counters["pub_to_broker_KB"] =
        static_cast<double>(
            TracedLinkBytes(s.sys->tracer(), s.publisher, s.broker)) /
        1024.0;
  }
}

void Sweep(benchmark::internal::Benchmark* b) {
  for (int64_t m : {1, 4, 16}) {
    for (int64_t stories : {100, 400}) {
      b->Args({m, stories});
    }
  }
  b->Iterations(1)->Unit(benchmark::kMillisecond);
}

BENCHMARK(BM_Forward_ViaCaller)->Apply(Sweep);
BENCHMARK(BM_Forward_ForwardList)->Apply(Sweep);

}  // namespace
}  // namespace axml

AXML_BENCH_MAIN();
