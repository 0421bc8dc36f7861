// Document statistics used by the optimizer's cost model (§3.3 relies on
// "the resulting data set, typically smaller" — the cost model must be
// able to estimate result sizes to decide when a rewrite pays off).

#ifndef AXML_XML_XML_STATS_H_
#define AXML_XML_XML_STATS_H_

#include <cstdint>
#include <string>
#include <unordered_map>

#include "xml/tree.h"

namespace axml {

/// Per-label aggregates collected in one pass over a tree.
struct LabelStats {
  uint64_t count = 0;          ///< elements with this label
  uint64_t total_bytes = 0;    ///< serialized bytes of those subtrees
  uint64_t numeric_count = 0;  ///< how many have numeric string values
  double min_value = 0;        ///< min/max over numeric string values
  double max_value = 0;
};

/// Summary of one tree/document.
struct TreeStats {
  uint64_t node_count = 0;     ///< elements + text leaves
  uint64_t element_count = 0;
  uint64_t text_count = 0;
  uint64_t depth = 0;
  /// Encoded wire size (xml/wire.h) — what shipping the tree costs.
  uint64_t serialized_bytes = 0;
  uint64_t service_call_count = 0;  ///< number of sc elements
  std::unordered_map<LabelId, LabelStats> per_label;

  /// Fraction of `label` elements whose numeric value is < `bound`,
  /// assuming a uniform distribution between observed min and max.
  /// Returns 0.5 when nothing is known (textbook default selectivity).
  double EstimateSelectivityLess(LabelId label, double bound) const;

  std::string ToString() const;
};

/// Collects statistics in one traversal.
TreeStats ComputeStats(const TreeNode& tree);

}  // namespace axml

#endif  // AXML_XML_XML_STATS_H_
