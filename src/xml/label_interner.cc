#include "xml/label_interner.h"

#include "common/logging.h"

namespace axml {

LabelInterner& LabelInterner::Global() {
  // Deliberately leaked (raw new allowed here — see
  // scripts/check_source.py): trees may outlive every static
  // destruction order the linker could pick.
  // lint: allow-process-state — labels are interned once per process.
  static LabelInterner* interner = new LabelInterner();
  return *interner;
}

LabelInterner::LabelInterner() { SeedWellKnown(); }

void LabelInterner::SeedWellKnown() {
  // Id 0 is the empty label; the dialect labels take 1..5 in this
  // order. WellKnownLabels::Get caches these ids, so ResetForTesting
  // must reproduce the assignment exactly.
  Intern("");
  Intern("sc");
  Intern("peer");
  Intern("service");
  Intern("param");
  Intern("forw");
}

LabelId LabelInterner::Intern(std::string_view label) {
  auto it = ids_.find(label);
  if (it != ids_.end()) return it->second;
  LabelId id = static_cast<LabelId>(texts_.size());
  texts_.emplace_back(label);
  ids_.emplace(texts_.back(), id);
  return id;
}

const std::string& LabelInterner::Text(LabelId id) const {
  AXML_CHECK_LT(id, texts_.size()) << "unknown LabelId " << id;
  // Safe to return by reference: texts_ is a deque (no relocation on
  // growth) and entries are never erased outside ResetForTesting.
  return texts_[id];
}

LabelId LabelInterner::Lookup(std::string_view label) const {
  auto it = ids_.find(label);
  return it == ids_.end() ? 0 : it->second;
}

size_t LabelInterner::size() const { return texts_.size(); }

void LabelInterner::ResetForTesting() {
  ids_.clear();
  texts_.clear();
  SeedWellKnown();
}

const WellKnownLabels& WellKnownLabels::Get() {
  // Leaked like the interner (allowed raw new, same reason).
  // lint: allow-process-state — fixed ids of the process-wide interner.
  static WellKnownLabels* labels = [] {
    auto* l = new WellKnownLabels();
    l->sc = InternLabel("sc");
    l->peer = InternLabel("peer");
    l->service = InternLabel("service");
    l->param = InternLabel("param");
    l->forw = InternLabel("forw");
    return l;
  }();
  return *labels;
}

}  // namespace axml
