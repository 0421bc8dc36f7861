#include "obs/metrics.h"

#include <bit>
#include <cstdio>

#include "common/str_util.h"

namespace axml {

size_t Histogram::BucketIndex(uint64_t value) {
  if (value == 0) return 0;
  return static_cast<size_t>(64 - std::countl_zero(value));
}

uint64_t Histogram::BucketLowerBound(size_t i) {
  if (i == 0) return 0;
  return uint64_t{1} << (i - 1);
}

uint64_t Histogram::ApproxQuantile(double p) const {
  if (count_ == 0) return 0;
  if (p < 0.0) p = 0.0;
  if (p > 1.0) p = 1.0;
  // Rank of the requested sample, 1-based; walk buckets until the
  // cumulative count reaches it.
  const uint64_t rank =
      static_cast<uint64_t>(p * static_cast<double>(count_ - 1)) + 1;
  uint64_t seen = 0;
  for (size_t i = 0; i < kBucketCount; ++i) {
    seen += counts_[i];
    if (seen >= rank) return BucketLowerBound(i);
  }
  return BucketLowerBound(kBucketCount - 1);
}

MetricSink::MetricSink(std::string prefix,
                       std::map<std::string, uint64_t>* out)
    : prefix_(std::move(prefix)), out_(out) {
  if (!prefix_.empty() && prefix_.back() != '/') prefix_ += '/';
}

void MetricSink::Value(const std::string& name, uint64_t v) {
  (*out_)[prefix_ + name] += v;
}

MetricSink MetricSink::Scoped(const std::string& sub) const {
  // prefix_ already carries its trailing '/' (or is empty); the ctor
  // normalizes the combined prefix again.
  return MetricSink(prefix_ + sub, out_);
}

void MetricSink::Histo(const std::string& name, const Histogram& h) {
  Value(name + "/count", h.count());
  Value(name + "/sum", h.sum());
  for (size_t i = 0; i < Histogram::kBucketCount; ++i) {
    if (h.bucket(i) == 0) continue;  // sparse: zero buckets stay silent
    Value(StrCat(name, "/ge_", Histogram::BucketLowerBound(i)),
          h.bucket(i));
  }
}

std::string FormatValues(const std::map<std::string, uint64_t>& values) {
  std::string out;
  for (const auto& [name, v] : values) {
    if (!out.empty()) out += ' ';
    out += StrCat(name, "=", v);
  }
  return out;
}

uint64_t MetricsSnapshot::ValueOr(const std::string& name,
                                  uint64_t fallback) const {
  auto it = values.find(name);
  return it == values.end() ? fallback : it->second;
}

MetricsSnapshot MetricsSnapshot::DiffSince(
    const MetricsSnapshot& older) const {
  MetricsSnapshot diff;
  for (const auto& [name, v] : values) {
    diff.values[name] = v - older.ValueOr(name);
  }
  return diff;
}

std::string MetricsSnapshot::ToJson() const {
  std::string out = "{";
  bool first = true;
  for (const auto& [name, v] : values) {
    if (!first) out += ", ";
    first = false;
    out += StrCat("\"", JsonEscape(name), "\": ", v);
  }
  out += "}";
  return out;
}

MetricRegistry::SourceId MetricRegistry::RegisterSource(std::string prefix,
                                                        ExportFn fn) {
  AXML_DCHECK_CALLED_ON_SEQUENCE(sequence_checker_);
  const SourceId id = next_source_id_++;
  sources_.push_back(Source{id, std::move(prefix), std::move(fn)});
  return id;
}

void MetricRegistry::UnregisterSource(SourceId id) {
  AXML_DCHECK_CALLED_ON_SEQUENCE(sequence_checker_);
  for (auto it = sources_.begin(); it != sources_.end(); ++it) {
    if (it->id == id) {
      sources_.erase(it);
      return;
    }
  }
}

MetricsSnapshot MetricRegistry::Snapshot() const {
  AXML_DCHECK_CALLED_ON_SEQUENCE(sequence_checker_);
  MetricsSnapshot snap;
  for (const Source& source : sources_) {
    MetricSink sink(source.prefix, &snap.values);
    source.fn(sink);
  }
  return snap;
}

std::string JsonEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(c) & 0xff);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace axml
