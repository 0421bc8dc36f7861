// Serialization of trees to XML text.
//
// Two forms:
//  - compact: no insignificant whitespace; this is the wire format whose
//    byte length the network simulator charges for transfers.
//  - pretty: indented, for documentation, examples and debugging.
//
// Children whose label begins with '@' and whose content is a single text
// leaf serialize as XML attributes, mirroring how the parser maps
// attributes into the unordered-tree model.

#ifndef AXML_XML_XML_SERIALIZER_H_
#define AXML_XML_XML_SERIALIZER_H_

#include <cstddef>
#include <string>

#include "xml/tree.h"

namespace axml {

/// Compact single-line serialization (wire format).
std::string SerializeCompact(const TreeNode& node);

/// SerializeCompact(node).size(), counted by a walk that builds nothing.
size_t SerializedCompactSize(const TreeNode& node);

/// Indented serialization with 2-space indents and trailing newline.
std::string SerializePretty(const TreeNode& node);

}  // namespace axml

#endif  // AXML_XML_XML_SERIALIZER_H_
