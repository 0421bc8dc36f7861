// EXP-8: discovery structures (§2: "We make no assumption about the
// structure of the peer network, e.g. whether a DHT-style index is
// present or not. We will discuss the impact of various network
// structures.")
//
// Sweep: peer count P x structure (central index / routed Chord DHT /
// Gnutella-style flooding over a random 4-regular-ish graph). Each run
// prices 50 lookups from random peers with LookupNow (the DHT's cost is
// its actual finger route, not a formula).
// Expected shape: central stays flat (2 messages) but concentrates load
// on one node; DHT grows with log P; flooding grows with the edge count
// (≈ 2P..4P messages) while keeping low hop latency for near copies.

#include <functional>

#include "bench_common.h"
#include "net/catalog.h"

namespace axml {
namespace {

struct Setup {
  std::unique_ptr<AxmlSystem> sys;
  std::vector<PeerId> peers;
};

Setup Build(int64_t p_count) {
  Setup s;
  Topology topo(LinkParams{0.015, 1.0e6});
  // Random connected graph: ring + 2 chords per node.
  Rng rng(p_count);
  for (int64_t i = 0; i < p_count; ++i) {
    topo.AddNeighborEdge(PeerId(static_cast<uint32_t>(i)),
                         PeerId(static_cast<uint32_t>((i + 1) % p_count)));
  }
  for (int64_t i = 0; i < p_count; ++i) {
    topo.AddNeighborEdge(
        PeerId(static_cast<uint32_t>(i)),
        PeerId(static_cast<uint32_t>(rng.Uniform(
            static_cast<uint64_t>(p_count)))));
  }
  s.sys = std::make_unique<AxmlSystem>(std::move(topo));
  for (int64_t i = 0; i < p_count; ++i) {
    s.peers.push_back(s.sys->AddPeer(StrCat("n", i)));
  }
  return s;
}

void RunCatalog(
    benchmark::State& state,
    std::function<std::unique_ptr<CatalogBackend>(const Setup&)> make) {
  Setup s = Build(state.range(0));
  std::unique_ptr<CatalogBackend> cat = make(s);
  cat->set_peer_count(static_cast<uint32_t>(s.peers.size()));
  // 8 documents scattered over the peers.
  Rng rng(3);
  for (int d = 0; d < 8; ++d) {
    cat->Register(ResourceKind::kDocument, StrCat("d", d),
                  s.peers[rng.Index(s.peers.size())]);
  }
  for (auto _ : state) {
    double delay = 0, messages = 0, bytes = 0;
    int found = 0;
    const int kLookups = 50;
    for (int i = 0; i < kLookups; ++i) {
      PeerId from = s.peers[rng.Index(s.peers.size())];
      LookupResult r = cat->LookupNow(
          ResourceKind::kDocument, StrCat("d", i % 8), from,
          s.sys->network());
      delay += r.delay_s;
      messages += static_cast<double>(r.messages);
      bytes += static_cast<double>(r.bytes);
      if (!r.holders.empty()) ++found;
    }
    state.counters["avg_delay_ms"] = delay / kLookups * 1e3;
    state.counters["avg_msgs"] = messages / kLookups;
    state.counters["avg_bytes"] = bytes / kLookups;
    state.counters["hit_rate"] =
        static_cast<double>(found) / kLookups;
  }
}

void BM_Catalog_Central(benchmark::State& state) {
  RunCatalog(state, [](const Setup& s) {
    return std::make_unique<CentralCatalog>(s.peers[0]);
  });
}
void BM_Catalog_Dht(benchmark::State& state) {
  RunCatalog(state, [](const Setup&) {
    return std::make_unique<ChordDhtCatalog>();
  });
}
void BM_Catalog_Flood(benchmark::State& state) {
  RunCatalog(state, [](const Setup&) {
    return std::make_unique<FloodCatalog>(/*ttl=*/6);
  });
}

void Sweep(benchmark::internal::Benchmark* b) {
  for (int64_t p : {8, 32, 128, 512}) b->Args({p});
  b->Iterations(1)->Unit(benchmark::kMillisecond);
}

BENCHMARK(BM_Catalog_Central)->Apply(Sweep);
BENCHMARK(BM_Catalog_Dht)->Apply(Sweep);
BENCHMARK(BM_Catalog_Flood)->Apply(Sweep);

}  // namespace
}  // namespace axml

AXML_BENCH_MAIN();
