#include "xml/schema.h"

#include "common/str_util.h"

namespace axml {

bool SchemaType::Matches(const TreeNode& tree) const {
  switch (kind_) {
    case Kind::kText:
      return tree.is_text();
    case Kind::kNumber: {
      if (!tree.is_text()) return false;
      double ignored;
      return ParseDouble(tree.text(), &ignored);
    }
    case Kind::kAny:
      return true;
    case Kind::kElement: {
      if (!tree.is_element() || tree.label() != label_) return false;
      // Interleaving match: each child claims the first particle that
      // accepts it; then occurrence counts are range-checked. First-match
      // assignment is exact for deterministic content models (distinct
      // child labels per particle), which is all this library defines.
      std::vector<int> counts(particles_.size(), 0);
      for (const auto& child : tree.children()) {
        bool claimed = false;
        for (size_t i = 0; i < particles_.size(); ++i) {
          if (particles_[i].type->Matches(*child)) {
            ++counts[i];
            claimed = true;
            break;
          }
        }
        if (!claimed) return false;
      }
      for (size_t i = 0; i < particles_.size(); ++i) {
        if (counts[i] < particles_[i].min_occurs ||
            counts[i] > particles_[i].max_occurs) {
          return false;
        }
      }
      return true;
    }
  }
  return false;
}

bool SchemaType::Equals(const SchemaType& other) const {
  if (kind_ != other.kind_) return false;
  if (kind_ != Kind::kElement) return true;
  if (label_ != other.label_) return false;
  if (particles_.size() != other.particles_.size()) return false;
  for (size_t i = 0; i < particles_.size(); ++i) {
    const Particle& a = particles_[i];
    const Particle& b = other.particles_[i];
    if (a.min_occurs != b.min_occurs || a.max_occurs != b.max_occurs ||
        !a.type->Equals(*b.type)) {
      return false;
    }
  }
  return true;
}

std::string SchemaType::ToString() const {
  switch (kind_) {
    case Kind::kText:
      return "text";
    case Kind::kNumber:
      return "number";
    case Kind::kAny:
      return "any";
    case Kind::kElement: {
      std::string out = LabelText(label_);
      out.push_back('{');
      for (size_t i = 0; i < particles_.size(); ++i) {
        if (i > 0) out += ", ";
        const Particle& p = particles_[i];
        out += p.type->ToString();
        out.push_back('[');
        out += std::to_string(p.min_occurs);
        out.push_back(',');
        out += p.max_occurs == Particle::kUnbounded
                   ? "*"
                   : std::to_string(p.max_occurs);
        out.push_back(']');
      }
      out.push_back('}');
      return out;
    }
  }
  return "?";
}

SchemaTypePtr SchemaType::Text() {
  static const SchemaTypePtr t =
      std::make_shared<const SchemaType>(Key{}, Kind::kText, 0,
                                         std::vector<Particle>{});
  return t;
}

SchemaTypePtr SchemaType::Number() {
  static const SchemaTypePtr t =
      std::make_shared<const SchemaType>(Key{}, Kind::kNumber, 0,
                                         std::vector<Particle>{});
  return t;
}

SchemaTypePtr SchemaType::Any() {
  static const SchemaTypePtr t =
      std::make_shared<const SchemaType>(Key{}, Kind::kAny, 0,
                                         std::vector<Particle>{});
  return t;
}

SchemaTypePtr SchemaType::Element(std::string_view label,
                                  std::vector<Particle> particles) {
  return std::make_shared<const SchemaType>(Key{}, Kind::kElement,
                                            InternLabel(label),
                                            std::move(particles));
}

Particle One(SchemaTypePtr t) { return Particle{std::move(t), 1, 1}; }
Particle Opt(SchemaTypePtr t) { return Particle{std::move(t), 0, 1}; }
Particle Star(SchemaTypePtr t) {
  return Particle{std::move(t), 0, Particle::kUnbounded};
}
Particle Plus(SchemaTypePtr t) {
  return Particle{std::move(t), 1, Particle::kUnbounded};
}
Particle Occurs(SchemaTypePtr t, int lo, int hi) {
  return Particle{std::move(t), lo, hi};
}

Status Signature::CheckInput(const std::vector<TreePtr>& args) const {
  if (args.size() != in.size()) {
    return Status::TypeError(StrCat("arity mismatch: expected ", in.size(),
                                    " parameters, got ", args.size()));
  }
  for (size_t i = 0; i < args.size(); ++i) {
    if (!in[i]->Matches(*args[i])) {
      return Status::TypeError(StrCat("parameter ", i + 1,
                                      " does not match type ",
                                      in[i]->ToString()));
    }
  }
  return Status::OK();
}

Status Signature::CheckOutput(const TreeNode& tree) const {
  if (out == nullptr) return Status::OK();
  if (!out->Matches(tree)) {
    return Status::TypeError(
        StrCat("response does not match type ", out->ToString()));
  }
  return Status::OK();
}

bool Signature::Equals(const Signature& other) const {
  if (in.size() != other.in.size()) return false;
  for (size_t i = 0; i < in.size(); ++i) {
    if (!in[i]->Equals(*other.in[i])) return false;
  }
  if ((out == nullptr) != (other.out == nullptr)) return false;
  return out == nullptr || out->Equals(*other.out);
}

std::string Signature::ToString() const {
  std::string s = "(";
  for (size_t i = 0; i < in.size(); ++i) {
    if (i > 0) s += ", ";
    s += in[i]->ToString();
  }
  s += ") -> ";
  s += out == nullptr ? "any" : out->ToString();
  return s;
}

}  // namespace axml
