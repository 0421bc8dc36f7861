// The benchmark's workloads: seeded op streams driven against the axml
// library by one closed-loop, single-threaded client.
//
// A workload generates every input from its seed up front (op kinds,
// readers, documents, thresholds). Each pass builds a fresh system and
// replays the same stream, so the simulated metrics of a pass are a
// function of the seed alone; only host timings vary between passes.
// Per op the runner calls Prepare (untimed: materialize the op's input
// tree or XML text), Run (timed: the calls into the program) and Verify
// (untimed: the correctness oracle).

#ifndef AXML_PERFBENCH_WORKLOAD_H_
#define AXML_PERFBENCH_WORKLOAD_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "algebra/evaluator.h"
#include "common/rng.h"
#include "common/status.h"
#include "peer/system.h"
#include "spans.h"
#include "xml/tree.h"

namespace axml::perfbench {

/// What one op returned, as the oracle sees it.
struct OpOutcome {
  Status status;  ///< an evaluation error fails the op
  std::vector<TreePtr> results;
  double sim_ms = 0;  ///< simulated latency of the op
};

/// Per-pass counts only the workload can see; everything else comes
/// from the system's public stats.
struct WorkloadCounts {
  EvalCounters eval;
  uint64_t writes = 0;
  uint64_t results = 0;
  uint64_t queries = 0;
  uint64_t candidates = 0;
  /// Per query: estimated cost of the direct plan / the chosen plan.
  std::vector<double> cost_reduction;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Ops in one pass.
  virtual size_t ops() const = 0;
  /// Destroys the current system, if any. Not timed.
  virtual void Teardown() = 0;
  /// Stands up a fresh system from the generated inputs; called after
  /// Teardown. Timed as set-up.
  virtual void Build() = 0;
  virtual AxmlSystem& system() = 0;
  /// Untimed: materializes op `i`'s generated input.
  virtual void Prepare(size_t i) = 0;
  /// Timed: op `i`'s calls into the program, each inside a span when
  /// `rec` is non-null.
  virtual OpOutcome Run(size_t i, SpanRecorder* rec) = 0;
  /// Untimed oracle: true when op `i`'s outcome is correct and fresh.
  virtual bool Verify(size_t i, const OpOutcome& out) = 0;
  /// Counts accumulated since the last Build.
  virtual WorkloadCounts counts() const = 0;
};

/// `ops` = 0 picks the workload's default pass length.
std::unique_ptr<Workload> MakeFleetRead(uint64_t seed, size_t ops);
std::unique_ptr<Workload> MakeDocChurn(uint64_t seed, size_t ops);
std::unique_ptr<Workload> MakeAqlQuery(uint64_t seed, size_t ops);

/// Sorted canonical forms: result streams compare as multisets.
std::vector<std::string> CanonicalMultiset(const std::vector<TreePtr>& trees);

/// One catalog entry, the benchmark's own model of a product.
struct Product {
  std::string name;
  std::string price;
  std::string category;
  std::string desc;
};

/// `n` products named item0..item<n-1>, prices uniform in [0, 1000),
/// categories c0..c9, random descriptions of `desc_bytes` letters.
std::vector<Product> MakeProducts(size_t n, size_t desc_bytes, Rng* rng);
/// <catalog><product><name/><price/><category/><desc/></product>*</catalog>
TreePtr CatalogTree(const std::vector<Product>& products, NodeIdGen* gen);
/// The same catalog as XML text.
std::string CatalogXml(const std::vector<Product>& products);

}  // namespace axml::perfbench

#endif  // AXML_PERFBENCH_WORKLOAD_H_
