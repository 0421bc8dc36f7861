// Unified metrics registry: one namespace for every counter the paper's
// claims are about.
//
// The paper's results are quantitative — wire bytes saved, notifications
// avoided, cache hits gained — but the codebase grew one ad-hoc stat
// struct per subsystem (NetStats, SubscriptionStats, TransferCacheStats,
// ShardStats, PlacementStats, evaluator counters), each with its own
// accessors and reset discipline, and nothing that can say "give me
// every number this system knows, right now" in a machine-readable
// form. This registry is that layer:
//
//  - values carry hierarchical slash-separated names
//    ("replica/cache/hits", "net/notify_bytes");
//  - each stat struct keeps its typed fields and lists them once, in a
//    `kCounters` table of names and member pointers (Counter below)
//    that the export, the ToString line and the cross-peer sum all
//    read; a static_assert (CountersCover) next to each table fails the
//    build when a field is left out of it;
//  - Snapshot() captures everything at one instant; DiffSince() turns
//    two snapshots into a per-interval delta — the shape every bench
//    and soak-test quiescence check wants;
//  - ToJson() dumps a snapshot as a flat JSON object, the data source
//    for the bench_*.json perf-trajectory files (bench_common.h) and
//    AxmlSystem::DumpMetrics().
//
// Export callbacks run synchronously inside Snapshot().

#ifndef AXML_OBS_METRICS_H_
#define AXML_OBS_METRICS_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

namespace axml {

/// Log2-bucketed histogram for size/latency-like quantities. Bucket 0
/// holds exact zeros; bucket i (i >= 1) holds values in
/// [2^(i-1), 2^i). Cheap enough to sit on a hot path: Add is a
/// count-leading-zeros plus two increments.
class Histogram {
 public:
  /// Bucket 0 + one bucket per bit of uint64_t.
  static constexpr size_t kBucketCount = 65;

  void Add(uint64_t value) {
    ++counts_[BucketIndex(value)];
    ++count_;
    sum_ += value;
  }

  uint64_t count() const { return count_; }
  uint64_t sum() const { return sum_; }
  uint64_t bucket(size_t i) const { return counts_[i]; }

  /// Largest bucket lower bound <= the p-quantile sample (0 <= p <= 1);
  /// 0 on an empty histogram. A log-bucket approximation, good to 2x.
  uint64_t ApproxQuantile(double p) const;

  void Reset() { *this = Histogram(); }

  /// 0 -> 0; otherwise 1 + floor(log2(value)).
  static size_t BucketIndex(uint64_t value);
  /// Smallest value landing in bucket `i` (0, 1, 2, 4, 8, ...).
  static uint64_t BucketLowerBound(size_t i);

 private:
  uint64_t counts_[kBucketCount] = {};
  uint64_t count_ = 0;
  uint64_t sum_ = 0;
};

/// Collects (name, value) pairs during one Snapshot(). Export callbacks
/// write through this; the prefix (the source's registered mount point)
/// is prepended to every name.
class MetricSink {
 public:
  MetricSink(std::string prefix, std::map<std::string, uint64_t>* out);

  /// Emits one value at `<prefix>/<name>`. Re-emitting a name within
  /// one snapshot accumulates (per-peer sources sum into totals).
  void Value(const std::string& name, uint64_t v);

  /// Flattens `h` under `<prefix>/<name>`: .../count, .../sum and one
  /// .../ge_<lower bound> entry per non-empty bucket.
  void Histo(const std::string& name, const Histogram& h);

  /// A sink writing into the same snapshot at `<prefix>/<sub>` — how a
  /// composite source (the ReplicaManager) mounts its sub-structs'
  /// counters at their own places in the namespace.
  MetricSink Scoped(const std::string& sub) const;

 private:
  std::string prefix_;
  std::map<std::string, uint64_t>* out_;
};

// --- Counter tables ---
//
// A stats struct lists its counters once, as a member
//   static constexpr auto kCounters = std::make_tuple(
//       Counter{"hits", &FooStats::hits}, ...);
// followed, after the struct, by
//   static_assert(CountersCover<FooStats>());
// ExportCounters, CountersToString and AddCounters run that table.

/// One table entry: a uint64_t counter exported as `name`, a (possibly
/// nested) uint64_t array whose cell i, in row-major order, is exported
/// as `<name><cell_name(E(i))>`, or a Histogram flattened under `name`.
template <class S, class T, class E = size_t>
struct Counter {
  const char* name;
  T S::*member;
  const char* (*cell_name)(E) = nullptr;

  void Export(const S& s, MetricSink& sink) const {
    if constexpr (std::is_same_v<T, Histogram>) {
      sink.Histo(name, s.*member);
    } else {
      for (size_t i = 0; i < sizeof(T) / sizeof(uint64_t); ++i) {
        sink.Value(std::string(name) +
                       (cell_name ? cell_name(static_cast<E>(i)) : ""),
                   Cell(s.*member, i));
      }
    }
  }
  void Add(S& into, const S& from) const {
    for (size_t i = 0; i < sizeof(T) / sizeof(uint64_t); ++i) {
      Cell(into.*member, i) += Cell(from.*member, i);
    }
  }

 private:
  template <class A>
  static auto& Cell(A& a, size_t i) {
    if constexpr (std::rank_v<A> == 0) {
      return a;
    } else {
      constexpr size_t stride = sizeof(a[0]) / sizeof(uint64_t);
      return Cell(a[i / stride], i % stride);
    }
  }
};
template <class S, class T, class E = size_t>
Counter(const char*, T S::*, const char* (*)(E) = nullptr)
    -> Counter<S, T, E>;

/// Emits every counter in S's table into `sink`.
template <class S>
void ExportCounters(const S& s, MetricSink& sink) {
  std::apply([&](const auto&... e) { (e.Export(s, sink), ...); },
             S::kCounters);
}

/// "name=value" for every exported value, space-separated, by name.
std::string FormatValues(const std::map<std::string, uint64_t>& values);

/// The ToString line of a stats struct: its exported values.
template <class S>
std::string CountersToString(const S& s) {
  std::map<std::string, uint64_t> values;
  MetricSink sink("", &values);
  ExportCounters(s, sink);
  return FormatValues(values);
}

/// Adds every counter of `from` into `into` (tables without histograms;
/// TotalStats sums the caches with it).
template <class S>
void AddCounters(S& into, const S& from) {
  std::apply([&](const auto&... e) { (e.Add(into, from), ...); },
             S::kCounters);
}

/// True when S's table accounts for every byte of S, given
/// `other_bytes` of members that are not counters (and tail padding).
template <class S>
constexpr bool CountersCover(size_t other_bytes = 0) {
  const size_t bytes = std::apply(
      [](const auto&... e) {
        return (sizeof(std::declval<S&>().*e.member) + ... + size_t{0});
      },
      S::kCounters) + other_bytes;
  return (bytes + alignof(S) - 1) / alignof(S) * alignof(S) == sizeof(S);
}

/// Everything the registry knew at one instant. Flat, sorted by name.
struct MetricsSnapshot {
  std::map<std::string, uint64_t> values;

  /// Value of `name`, or `fallback` when absent.
  uint64_t ValueOr(const std::string& name, uint64_t fallback = 0) const;

  /// Per-name difference against an older snapshot (names absent there
  /// count as 0). Names whose value did not move are kept — a diff has
  /// the same keys as the newer snapshot.
  MetricsSnapshot DiffSince(const MetricsSnapshot& older) const;

  /// Flat JSON object, keys sorted: {"net/total_bytes": 123, ...}.
  std::string ToJson() const;
};

/// The per-System metric namespace: export callbacks ("sources")
/// mounted at a prefix, reading the stat structs at snapshot time.
class MetricRegistry {
 public:
  MetricRegistry() = default;
  MetricRegistry(const MetricRegistry&) = delete;
  MetricRegistry& operator=(const MetricRegistry&) = delete;

  using ExportFn = std::function<void(MetricSink&)>;
  using SourceId = uint64_t;

  /// Mounts an export callback at `prefix` ("" mounts at the root).
  /// The returned id survives until UnregisterSource.
  SourceId RegisterSource(std::string prefix, ExportFn fn);
  /// Removes a source; unknown ids are ignored (idempotent teardown).
  void UnregisterSource(SourceId id);

  /// Captures every source's exports.
  MetricsSnapshot Snapshot() const;

  size_t source_count() const { return sources_.size(); }

 private:
  struct Source {
    SourceId id;
    std::string prefix;
    ExportFn fn;
  };
  std::vector<Source> sources_;
  SourceId next_source_id_ = 1;
};

/// Minimal JSON string escaping (quotes, backslashes, control chars) —
/// shared by the snapshot dump, the Chrome-trace export and the bench
/// JSON writer.
std::string JsonEscape(std::string_view s);

}  // namespace axml

#endif  // AXML_OBS_METRICS_H_
