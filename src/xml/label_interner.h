// Interned element labels (the paper's label set L).
//
// Every element node stores a 32-bit LabelId instead of a string; the
// process-wide interner maps both ways. Interning makes label comparison
// O(1) during query evaluation and keeps tree nodes small.

#ifndef AXML_XML_LABEL_INTERNER_H_
#define AXML_XML_LABEL_INTERNER_H_

#include <cstdint>
#include <deque>
#include <string>
#include <string_view>
#include <unordered_map>

namespace axml {

/// Identifier of an interned label. Value 0 is the empty label.
using LabelId = uint32_t;

/// Process-wide label dictionary, shared by every System in the
/// process (which, like the rest of the library, runs on one thread).
/// Text() returns a reference that stays valid for the interner's
/// lifetime: ids are never reused and the text store never relocates an
/// interned string.
class LabelInterner {
 public:
  /// The singleton used by all trees in the process.
  static LabelInterner& Global();

  /// Returns the id for `label`, interning it on first use.
  LabelId Intern(std::string_view label);

  /// Returns the label text for `id`. `id` must have been produced by
  /// Intern().
  const std::string& Text(LabelId id) const;

  /// Returns the id if `label` was interned before, 0 otherwise. Note the
  /// empty label also maps to 0; callers that care should check emptiness.
  LabelId Lookup(std::string_view label) const;

  size_t size() const;

  /// Test-scoped reset hook: drops every interned label and re-interns
  /// the well-known dialect labels at their original ids, so one test
  /// binary's suites cannot leak dictionary growth into each other.
  /// Only valid while no tree, schema or cached LabelId from before the
  /// reset is still alive (their ids would dangle) — call it from test
  /// teardown, never from library code.
  void ResetForTesting();

 private:
  LabelInterner();

  /// Seeds id 0 (the empty label) and the WellKnownLabels ids; shared
  /// by the constructor and ResetForTesting so reset reproduces the
  /// exact startup id assignment.
  void SeedWellKnown();

  std::unordered_map<std::string, LabelId> ids_;
  /// deque, not vector: Text() hands out references that must survive
  /// later Intern() growth.
  std::deque<std::string> texts_;
};

/// Shorthands over the global interner.
inline LabelId InternLabel(std::string_view label) {
  return LabelInterner::Global().Intern(label);
}
inline const std::string& LabelText(LabelId id) {
  return LabelInterner::Global().Text(id);
}

/// Well-known labels of the AXML dialect (§2.2–2.3 of the paper).
/// Their ids are fixed at interner startup (and re-seeded identically
/// by ResetForTesting), so cached copies never dangle.
struct WellKnownLabels {
  LabelId sc;       ///< service-call element
  LabelId peer;     ///< provider peer child of sc
  LabelId service;  ///< service-name child of sc
  LabelId param;    ///< parameter child prefix: param1, param2, ...
  LabelId forw;     ///< forward-list child of sc
  static const WellKnownLabels& Get();
};

}  // namespace axml

#endif  // AXML_XML_LABEL_INTERNER_H_
