#include "spans.h"

#include <cstdio>

#include "obs/metrics.h"

namespace axml::perfbench {

const char* LayerName(Layer layer) {
  switch (layer) {
    case Layer::kBench:
      return "bench";
    case Layer::kXml:
      return "xml";
    case Layer::kQuery:
      return "query";
    case Layer::kOpt:
      return "opt";
    case Layer::kAlgebra:
      return "algebra";
    case Layer::kPeer:
      return "peer";
    case Layer::kNet:
      return "net";
  }
  return "?";
}

SpanRecorder::SpanRecorder() : origin_(std::chrono::steady_clock::now()) {}

int64_t SpanRecorder::NowNs() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - origin_)
      .count();
}

int64_t SpanRecorder::WireNs() const {
  if (wire_ == nullptr) return 0;
  return static_cast<int64_t>(wire_->encode_ns.sum() +
                              wire_->decode_ns.sum());
}

int32_t SpanRecorder::Open(uint64_t op, Layer layer, const char* call) {
  Span s;
  s.op = op;
  s.layer = layer;
  s.call = call;
  s.parent = open_.empty() ? -1 : open_.back();
  s.wire_ns = WireNs();  // start reading; Close turns it into a delta
  s.start_ns = NowNs();
  spans_.push_back(s);
  const auto index = static_cast<int32_t>(spans_.size() - 1);
  open_.push_back(index);
  return index;
}

void SpanRecorder::Close(int32_t index) {
  Span& s = spans_[static_cast<size_t>(index)];
  s.end_ns = NowNs();
  s.wire_ns = WireNs() - s.wire_ns;
  open_.pop_back();
  // Self time = duration - children - wire work not inside a child; that
  // wire work is the xml layer's.
  const int64_t duration = s.end_ns - s.start_ns;
  const int64_t own_wire = s.wire_ns - s.child_wire_ns;
  const auto layer = static_cast<size_t>(s.layer);
  self_ns_[layer] += duration - s.child_ns - own_wire;
  self_ns_[static_cast<size_t>(Layer::kXml)] += own_wire;
  durations_ms_[layer].push_back(static_cast<double>(duration) / 1e6);
  if (s.parent >= 0) {
    Span& parent = spans_[static_cast<size_t>(s.parent)];
    parent.child_ns += duration;
    parent.child_wire_ns += s.wire_ns;
  }
}

std::string SpanRecorder::ToChromeJson(const std::string& metrics) const {
  std::string out = "{\"traceEvents\": [\n";
  char buf[256];
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof(buf),
                  "{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                  "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, \"tid\": 1, "
                  "\"args\": {\"op\": %llu, \"parent\": %d, "
                  "\"wire_us\": %.3f}}%s\n",
                  s.call, LayerName(s.layer),
                  static_cast<double>(s.start_ns) / 1e3,
                  static_cast<double>(s.end_ns - s.start_ns) / 1e3,
                  static_cast<unsigned long long>(s.op), s.parent,
                  static_cast<double>(s.wire_ns) / 1e3,
                  i + 1 < spans_.size() ? "," : "");
    out += buf;
  }
  out += "],\n\"metrics\": ";
  out += metrics.empty() ? "{}" : metrics;
  out += "}\n";
  return out;
}

}  // namespace axml::perfbench
