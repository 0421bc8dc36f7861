#include "xml/xml_serializer.h"

#include "common/str_util.h"

namespace axml {
namespace {

bool IsAttributeChild(const TreeNode& n) {
  return n.is_element() && !n.label_text().empty() &&
         n.label_text()[0] == '@' && n.child_count() == 1 &&
         n.child(0)->is_text();
}

void SerializeNode(const TreeNode& node, bool pretty, int indent,
                   std::string* out) {
  if (node.is_text()) {
    if (pretty) out->append(static_cast<size_t>(indent) * 2, ' ');
    out->append(XmlEscape(node.text()));
    if (pretty) out->push_back('\n');
    return;
  }
  if (pretty) out->append(static_cast<size_t>(indent) * 2, ' ');
  out->push_back('<');
  out->append(node.label_text());
  // Attributes first.
  size_t element_children = 0;
  for (const auto& c : node.children()) {
    if (IsAttributeChild(*c)) {
      out->push_back(' ');
      out->append(c->label_text().substr(1));
      out->append("=\"");
      out->append(XmlEscape(c->child(0)->text()));
      out->push_back('"');
    } else {
      ++element_children;
    }
  }
  if (element_children == 0) {
    out->append("/>");
    if (pretty) out->push_back('\n');
    return;
  }
  // Pretty form keeps a single text child inline (<name>value</name>) so
  // indentation never injects whitespace into character data.
  if (pretty && element_children == 1) {
    const TreeNode* only = nullptr;
    for (const auto& c : node.children()) {
      if (!IsAttributeChild(*c)) only = c.get();
    }
    if (only != nullptr && only->is_text()) {
      out->push_back('>');
      out->append(XmlEscape(only->text()));
      out->append("</");
      out->append(node.label_text());
      out->push_back('>');
      out->push_back('\n');
      return;
    }
  }
  out->push_back('>');
  if (pretty) out->push_back('\n');
  for (const auto& c : node.children()) {
    if (!IsAttributeChild(*c)) {
      SerializeNode(*c, pretty, indent + 1, out);
    }
  }
  if (pretty) out->append(static_cast<size_t>(indent) * 2, ' ');
  out->append("</");
  out->append(node.label_text());
  out->push_back('>');
  if (pretty) out->push_back('\n');
}

}  // namespace

size_t SerializedCompactSize(const TreeNode& node) {
  if (node.is_text()) return XmlEscapedSize(node.text());
  const size_t label = node.label_text().size();
  size_t n = 1 + label;  // <label
  bool has_content = false;
  for (const auto& c : node.children()) {
    if (IsAttributeChild(*c)) {
      // ` name="value"`: the label minus its '@', plus space, =, quotes.
      n += c->label_text().size() + 3 + XmlEscapedSize(c->child(0)->text());
    } else {
      has_content = true;
      n += SerializedCompactSize(*c);
    }
  }
  return n + (has_content ? 1 + 3 + label : 2);  // >...</label> or />
}

std::string SerializeCompact(const TreeNode& node) {
  std::string out;
  SerializeNode(node, /*pretty=*/false, 0, &out);
  return out;
}

std::string SerializePretty(const TreeNode& node) {
  std::string out;
  SerializeNode(node, /*pretty=*/true, 0, &out);
  return out;
}

}  // namespace axml
