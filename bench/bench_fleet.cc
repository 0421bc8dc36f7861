// Fleet-scale discovery: the central index vs the routed Chord DHT at
// growing peer counts, driven by the real scenario harness
// (src/scenario/fleet.h) rather than the synchronous LookupNow pricing
// bench_catalog sweeps.
//
// Sweep: peer count P x backend, each run the standard fleet workload
// (Zipf reads, 30% d@any through the catalog, periodic mutations,
// replica cache on, per-op freshness check).
// Expected shape: central stays at 2 messages per lookup but its server
// handles ~100% of catalog messages (max_node_share ~= 1); the DHT pays
// ~log2(P) messages per lookup while max_node_share falls with P.
// stale_reads must read 0 everywhere.

#include "bench_common.h"
#include "scenario/fleet.h"

namespace axml {
namespace {

void RunFleet(benchmark::State& state, FleetBackend backend) {
  FleetConfig cfg;
  // 2 regions x 4 racks; peers_per_rack scales the sweep.
  cfg.topo.regions = 2;
  cfg.topo.racks_per_region = 4;
  cfg.topo.peers_per_rack =
      static_cast<uint32_t>(state.range(0)) /
      (cfg.topo.regions * cfg.topo.racks_per_region);
  cfg.backend = backend;
  cfg.ops = 600;
  cfg.seed = 1;
  for (auto _ : state) {
    FleetHarness fleet(cfg);
    const FleetReport r = fleet.Run();
    if (r.stale_reads != 0) {
      state.SkipWithError("stale reads in fleet run");
      return;
    }
    state.counters["msgs_per_lookup"] = r.msgs_per_lookup;
    state.counters["max_node_share"] = r.max_node_share;
    state.counters["lookups"] = static_cast<double>(r.lookups);
    state.counters["advertise_msgs"] =
        static_cast<double>(r.advertise_messages);
    state.counters["wire_KB"] =
        static_cast<double>(r.wire_bytes) / 1024.0;
    bench::RecordStandardCounters(state, &fleet.system(), 0, r.ops);
  }
}

void BM_Fleet_Central(benchmark::State& state) {
  RunFleet(state, FleetBackend::kCentral);
}
void BM_Fleet_ChordDht(benchmark::State& state) {
  RunFleet(state, FleetBackend::kChordDht);
}

void Sweep(benchmark::internal::Benchmark* b) {
  for (int64_t p : {64, 256, 1024}) b->Args({p});
  b->Iterations(1)->Unit(benchmark::kMillisecond);
}

BENCHMARK(BM_Fleet_Central)->Apply(Sweep);
BENCHMARK(BM_Fleet_ChordDht)->Apply(Sweep);

}  // namespace
}  // namespace axml

AXML_BENCH_MAIN();
