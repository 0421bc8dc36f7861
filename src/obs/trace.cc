#include "obs/trace.h"

#include <cinttypes>
#include <cstdio>

#include "common/logging.h"
#include "common/str_util.h"
#include "obs/metrics.h"

namespace axml {

std::string TraceSpan::ToString() const {
  char head[64];
  std::snprintf(head, sizeof(head), "[%8.3fs] #%" PRIu64 " ", time, trace);
  std::string out = StrCat(head, category, "/", name, " @",
                           peer.ToString());
  if (bytes > 0) out += StrCat(" ", bytes, "B");
  if (duration > 0) {
    char dur[32];
    std::snprintf(dur, sizeof(dur), " %.3fs", duration);
    out += dur;
  }
  if (!detail.empty()) out += StrCat(" (", detail, ")");
  return out;
}

Tracer::Tracer(std::function<SimTime()> clock, size_t capacity)
    : clock_(std::move(clock)), capacity_(capacity == 0 ? 1 : capacity) {}

void Tracer::set_capacity(size_t capacity) {
  capacity_ = capacity == 0 ? 1 : capacity;
  ring_.clear();
  ring_.shrink_to_fit();
  start_ = 0;
  size_ = 0;
}

std::function<void()> Tracer::Bind(std::function<void()> fn) {
  const TraceId id = current_;
  if (id == 0) return fn;  // nothing to carry
  return [this, id, fn = std::move(fn)] {
    Scope scope(this, id);
    fn();
  };
}

void Tracer::Record(std::string category, std::string name, PeerId peer,
                    uint64_t bytes, SimTime duration, std::string detail) {
  if (!enabled_) return;
  TraceSpan span;
  span.seq = next_seq_++;
  span.trace = current_;
  span.peer = peer;
  span.time = clock_ ? clock_() : 0;
  span.duration = duration;
  span.category = std::move(category);
  span.name = std::move(name);
  span.bytes = bytes;
  span.detail = std::move(detail);
  if (GetLogLevel() <= LogLevel::kDebug) {
    AXML_LOG(Debug) << "trace " << span.ToString();
  }
  ++recorded_;
  if (ring_.size() < capacity_) {
    ring_.push_back(std::move(span));
    ++size_;
    return;
  }
  // Full: overwrite the oldest slot.
  ring_[start_] = std::move(span);
  start_ = (start_ + 1) % capacity_;
}

std::vector<TraceSpan> Tracer::Events() const {
  std::vector<TraceSpan> out;
  out.reserve(size_);
  for (size_t i = 0; i < size_; ++i) {
    out.push_back(ring_[(start_ + i) % capacity_]);
  }
  return out;
}

void Tracer::Clear() {
  ring_.clear();
  start_ = 0;
  size_ = 0;
}

std::string Tracer::ToChromeJson() const {
  // Chrome trace-event format, JSON-object flavor. Sim-time maps to the
  // trace clock at 1 s == 1e6 "microseconds"; peers render as processes
  // and causal chains as threads, so one mutation's cascade reads as a
  // single timeline row per peer it touched.
  std::string out = "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
  bool first = true;
  for (size_t i = 0; i < size_; ++i) {
    const TraceSpan& s = ring_[(start_ + i) % capacity_];
    if (!first) out += ",\n";
    first = false;
    // Fixed-point microseconds: default ostream precision would
    // collapse distinct timestamps into one rounded value.
    char ts[40], dur[40];
    std::snprintf(ts, sizeof(ts), "%.3f", s.time * 1e6);
    std::snprintf(dur, sizeof(dur), "%.3f", s.duration * 1e6);
    out += StrCat("{\"name\": \"", JsonEscape(StrCat(s.category, "/",
                                                     s.name)),
                  "\", \"cat\": \"", JsonEscape(s.category),
                  "\", \"ph\": \"X\", \"ts\": ", ts, ", \"dur\": ", dur,
                  ", \"pid\": ", s.peer.valid() ? s.peer.index() : 0,
                  ", \"tid\": ", s.trace, ", \"args\": {\"bytes\": ",
                  s.bytes, ", \"seq\": ", s.seq, ", \"trace_id\": ",
                  s.trace, ", \"detail\": \"", JsonEscape(s.detail),
                  "\"}}");
  }
  out += "]}";
  return out;
}

}  // namespace axml
