// In-memory span recorder for the benchmark's traced run.
//
// Spans are recorded from the benchmark's own files only: one op span
// per operation, and one child span around each call the op makes into
// a layer's public function (ParseXml, Query::Parse,
// Optimizer::Optimize, Evaluator::Eval, Peer::PutDocument,
// AxmlSystem::RunToQuiescence). Wire encode/decode time inside a span
// is read from the system's WireStats latency histograms (switched on
// for traced passes only) and charged to the xml layer, so a layer's
// self time is its span minus its children minus the wire work done
// inside it. Durations and self times aggregate as spans close; the
// spans themselves stay in memory until ClearSpans (the runner keeps
// the last traced pass) and are written out once, when the run ends.

#ifndef AXML_PERFBENCH_SPANS_H_
#define AXML_PERFBENCH_SPANS_H_

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "xml/wire.h"

namespace axml::perfbench {

/// The layers the benchmark times, named after the repo's modules.
/// kBench is the op span itself: client glue outside any layer call.
enum class Layer : uint8_t {
  kBench,
  kXml,
  kQuery,
  kOpt,
  kAlgebra,
  kPeer,
  kNet,
};
inline constexpr size_t kLayerCount = 7;

const char* LayerName(Layer layer);

struct Span {
  uint64_t op = 0;  ///< op index in its pass; shared by the op's spans
  Layer layer = Layer::kBench;
  const char* call = "";  ///< the public function the span wraps
  int32_t parent = -1;    ///< index of the parent span; -1 for op spans
  int64_t start_ns = 0;   ///< relative to the recorder's origin
  int64_t end_ns = 0;
  int64_t wire_ns = 0;  ///< wire encode+decode time inside the span
  int64_t child_ns = 0;       ///< time covered by child spans
  int64_t child_wire_ns = 0;  ///< wire time inside child spans
};

class SpanRecorder {
 public:
  SpanRecorder();

  /// Points wire-time attribution at the current system's stats.
  void set_wire_stats(const wire::WireStats* stats) { wire_ = stats; }

  /// Opens a span under the innermost open one; returns its index.
  int32_t Open(uint64_t op, Layer layer, const char* call);
  void Close(int32_t index);

  /// Drops the stored spans; the aggregates below are kept. Only valid
  /// with no span open.
  void ClearSpans() { spans_.clear(); }

  /// Self time per layer over every span closed so far, in ns.
  const std::array<int64_t, kLayerCount>& self_ns() const { return self_ns_; }

  /// Durations (ms) of every closed span of `layer`, in closing order.
  const std::vector<double>& durations_ms(Layer layer) const {
    return durations_ms_[static_cast<size_t>(layer)];
  }

  /// Chrome trace-event JSON (loadable in Perfetto); `metrics` is a
  /// JSON object appended under "metrics".
  std::string ToChromeJson(const std::string& metrics) const;

 private:
  int64_t NowNs() const;
  int64_t WireNs() const;

  std::chrono::steady_clock::time_point origin_;
  const wire::WireStats* wire_ = nullptr;
  std::vector<Span> spans_;
  std::vector<int32_t> open_;
  std::array<int64_t, kLayerCount> self_ns_{};
  std::array<std::vector<double>, kLayerCount> durations_ms_;
};

/// RAII span: a no-op when `rec` is null (untraced passes).
class SpanScope {
 public:
  SpanScope(SpanRecorder* rec, uint64_t op, Layer layer, const char* call)
      : rec_(rec), index_(rec == nullptr ? -1 : rec->Open(op, layer, call)) {}
  ~SpanScope() {
    if (rec_ != nullptr) rec_->Close(index_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  SpanRecorder* rec_;
  int32_t index_;
};

}  // namespace axml::perfbench

#endif  // AXML_PERFBENCH_SPANS_H_
