// The XML type system Θ of §2.1, used for Web-service signatures
// (τin, τout).
//
// A type describes a set of trees. Because the data model is unordered,
// content models are *interleaving*: an element type carries a set of
// particles, each particle being a child type plus an occurrence range;
// a tree matches when every child matches exactly one particle and every
// particle's match count is within its range. This is the unordered
// analogue of XML-Schema's `xs:all` generalized with occurrence bounds,
// and is exactly what signatures need (membership checking + equality).
//
// Type grammar:
//   Text               — any text leaf
//   Number             — a text leaf parsing as a decimal number
//   Any                — any single tree
//   Element(label, {Particle(type, min, max)...})
//
// Service signatures (§2.1): a Signature is (τin ∈ Θ^n, τout ∈ Θ).

#ifndef AXML_XML_SCHEMA_H_
#define AXML_XML_SCHEMA_H_

#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "xml/tree.h"

namespace axml {

class SchemaType;
using SchemaTypePtr = std::shared_ptr<const SchemaType>;

/// Child type + occurrence bounds inside an element content model.
struct Particle {
  SchemaTypePtr type;
  int min_occurs = 1;
  /// kUnbounded for '*' / '+'.
  int max_occurs = 1;

  static constexpr int kUnbounded = std::numeric_limits<int>::max();
};

/// One type of Θ. Immutable; construct via the factory functions below.
class SchemaType {
  /// Passkey: only the factories below can name it, so the public
  /// constructor is unreachable from outside while make_shared can call it.
  struct Key {
    explicit Key() = default;
  };

 public:
  enum class Kind { kText, kNumber, kAny, kElement };

  SchemaType(Key, Kind kind, LabelId label, std::vector<Particle> particles)
      : kind_(kind), label_(label), particles_(std::move(particles)) {}

  Kind kind() const { return kind_; }
  /// Element label (kElement only).
  LabelId label() const { return label_; }
  const std::vector<Particle>& particles() const { return particles_; }

  /// True iff `tree` is a member of this type's language.
  bool Matches(const TreeNode& tree) const;

  /// Structural type equality.
  bool Equals(const SchemaType& other) const;

  /// Human-readable form, e.g. "book{title[1,1], price[0,1]}".
  std::string ToString() const;

  static SchemaTypePtr Text();
  static SchemaTypePtr Number();
  static SchemaTypePtr Any();
  static SchemaTypePtr Element(std::string_view label,
                               std::vector<Particle> particles);

 private:
  Kind kind_;
  LabelId label_ = 0;
  std::vector<Particle> particles_;
};

/// Particle convenience constructors.
Particle One(SchemaTypePtr t);                    ///< [1,1]
Particle Opt(SchemaTypePtr t);                    ///< [0,1]
Particle Star(SchemaTypePtr t);                   ///< [0,unbounded]
Particle Plus(SchemaTypePtr t);                   ///< [1,unbounded]
Particle Occurs(SchemaTypePtr t, int lo, int hi); ///< [lo,hi]

/// A Web-service type signature (§2.1): input arity n with one type per
/// parameter, and one output type. All trees successively sent by a
/// continuous service must conform to `out`.
struct Signature {
  std::vector<SchemaTypePtr> in;
  SchemaTypePtr out;

  /// Checks `args` against `in` (arity + membership).
  Status CheckInput(const std::vector<TreePtr>& args) const;
  /// Checks one response tree against `out`.
  Status CheckOutput(const TreeNode& tree) const;

  bool Equals(const Signature& other) const;
  std::string ToString() const;
};

}  // namespace axml

#endif  // AXML_XML_SCHEMA_H_
