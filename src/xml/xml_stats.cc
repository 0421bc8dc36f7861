#include "xml/xml_stats.h"

#include <algorithm>

#include "common/str_util.h"
#include "xml/wire.h"
#include "xml/xml_serializer.h"

namespace axml {
namespace {

void Walk(const TreeNode& n, uint64_t depth, TreeStats* s) {
  ++s->node_count;
  s->depth = std::max(s->depth, depth);
  if (n.is_text()) {
    ++s->text_count;
    return;
  }
  ++s->element_count;
  if (n.label() == WellKnownLabels::Get().sc) ++s->service_call_count;
  LabelStats& ls = s->per_label[n.label()];
  ++ls.count;
  ls.total_bytes += n.SerializedSize();
  double v;
  if (ParseDouble(n.StringValue(), &v)) {
    if (ls.numeric_count == 0) {
      ls.min_value = ls.max_value = v;
    } else {
      ls.min_value = std::min(ls.min_value, v);
      ls.max_value = std::max(ls.max_value, v);
    }
    ++ls.numeric_count;
  }
  for (const auto& c : n.children()) Walk(*c, depth + 1, s);
}

}  // namespace

double TreeStats::EstimateSelectivityLess(LabelId label,
                                          double bound) const {
  auto it = per_label.find(label);
  if (it == per_label.end() || it->second.numeric_count == 0) return 0.5;
  const LabelStats& ls = it->second;
  if (bound <= ls.min_value) return 0.0;
  if (bound > ls.max_value) return 1.0;
  if (ls.max_value == ls.min_value) return 1.0;
  return (bound - ls.min_value) / (ls.max_value - ls.min_value);
}

std::string TreeStats::ToString() const {
  return StrCat("nodes=", node_count, " elements=", element_count,
                " text=", text_count, " depth=", depth,
                " bytes=", serialized_bytes, " sc=", service_call_count);
}

TreeStats ComputeStats(const TreeNode& tree) {
  TreeStats s;
  Walk(tree, 1, &s);
  s.serialized_bytes = wire::EncodedTreeSize(tree);
  return s;
}

}  // namespace axml
