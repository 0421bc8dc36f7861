#include "xml/xml_parser.h"

#include <cctype>
#include <string>
#include <vector>

#include "common/str_util.h"

namespace axml {
namespace {

/// Single-pass parser over a string_view; nested elements are kept on an
/// explicit stack. Tracks line numbers for error messages.
class Parser {
 public:
  Parser(std::string_view text, NodeIdGen* gen) : text_(text), gen_(gen) {}

  Result<TreePtr> ParseRoot() {
    SkipProlog();
    if (AtEnd()) return Error("no root element");
    AXML_ASSIGN_OR_RETURN(TreePtr root, ParseElement());
    SkipMisc();
    if (!AtEnd()) return Error("trailing content after root element");
    return root;
  }

 private:
  bool AtEnd() const { return pos_ >= text_.size(); }
  char Peek() const { return text_[pos_]; }
  char PeekAt(size_t off) const {
    return pos_ + off < text_.size() ? text_[pos_ + off] : '\0';
  }
  void Advance() {
    if (text_[pos_] == '\n') ++line_;
    ++pos_;
  }
  bool Consume(char c) {
    if (!AtEnd() && Peek() == c) {
      Advance();
      return true;
    }
    return false;
  }
  bool ConsumeSeq(std::string_view s) {
    if (text_.substr(pos_, s.size()) == s) {
      for (size_t i = 0; i < s.size(); ++i) Advance();
      return true;
    }
    return false;
  }
  void SkipWs() {
    while (!AtEnd() && std::isspace(static_cast<unsigned char>(Peek()))) {
      Advance();
    }
  }

  Status Error(std::string msg) const {
    return Status::ParseError(StrCat("line ", line_, ": ", msg));
  }

  static bool IsNameStart(char c) {
    return std::isalpha(static_cast<unsigned char>(c)) || c == '_' ||
           c == ':';
  }
  static bool IsNameChar(char c) {
    return IsNameStart(c) || std::isdigit(static_cast<unsigned char>(c)) ||
           c == '-' || c == '.';
  }

  std::string_view ParseName() {
    size_t start = pos_;
    if (!AtEnd() && IsNameStart(Peek())) {
      Advance();
      while (!AtEnd() && IsNameChar(Peek())) Advance();
    }
    return text_.substr(start, pos_ - start);
  }

  /// Skips the XML declaration, comments, PIs and whitespace before or
  /// after the root element.
  void SkipProlog() { SkipMisc(); }

  void SkipMisc() {
    for (;;) {
      SkipWs();
      if (ConsumeSeq("<?")) {
        while (!AtEnd() && !ConsumeSeq("?>")) Advance();
      } else if (ConsumeSeq("<!--")) {
        while (!AtEnd() && !ConsumeSeq("-->")) Advance();
      } else {
        return;
      }
    }
  }

  /// Parses a start tag at pos_ with its attributes. `*empty` is set for
  /// a self-closing tag, which has no content and no end tag.
  Result<TreePtr> ParseStartTag(bool* empty) {
    if (!Consume('<')) return Error("expected '<'");
    std::string_view name = ParseName();
    if (name.empty()) return Error("expected element name");
    TreePtr elem = TreeNode::Element(name, gen_);
    for (;;) {
      SkipWs();
      if (AtEnd()) return Error("unexpected end inside element tag");
      if (Peek() == '/' || Peek() == '>') break;
      std::string_view attr = ParseName();
      if (attr.empty()) return Error("expected attribute name");
      SkipWs();
      if (!Consume('=')) return Error("expected '=' after attribute name");
      SkipWs();
      char quote = AtEnd() ? '\0' : Peek();
      if (quote != '"' && quote != '\'') {
        return Error("expected quoted attribute value");
      }
      Advance();
      size_t vstart = pos_;
      while (!AtEnd() && Peek() != quote) Advance();
      if (AtEnd()) return Error("unterminated attribute value");
      std::string value = XmlUnescape(text_.substr(vstart, pos_ - vstart));
      Advance();  // closing quote
      TreePtr attr_node =
          TreeNode::Element(StrCat("@", attr), gen_);
      attr_node->AddChild(TreeNode::Text(std::move(value)));
      elem->AddChild(std::move(attr_node));
    }
    *empty = ConsumeSeq("/>");
    if (!*empty && !Consume('>')) return Error("expected '>'");
    return elem;
  }

  /// An element whose end tag has not been read yet, with the character
  /// data collected since its last child.
  struct OpenElement {
    TreePtr elem;
    std::string pending_text;
  };

  /// Adds the collected text of `open` as a text child. Whitespace-only
  /// runs between elements are dropped, and boundary whitespace is
  /// trimmed from mixed-content runs, so indented (pretty) output
  /// reparses to the same tree.
  static void FlushText(OpenElement* open) {
    if (open->pending_text.empty()) return;
    std::string unescaped = XmlUnescape(open->pending_text);
    std::string_view trimmed = StripWhitespace(unescaped);
    if (!trimmed.empty()) {
      open->elem->AddChild(TreeNode::Text(std::string(trimmed)));
    }
    open->pending_text.clear();
  }

  /// Parses the element at pos_ and everything nested in it. Open
  /// elements live on an explicit stack, not the call stack, and
  /// nesting past kMaxNestingDepth is a ParseError.
  Result<TreePtr> ParseElement() {
    bool empty = false;
    AXML_ASSIGN_OR_RETURN(TreePtr root, ParseStartTag(&empty));
    if (empty) return root;
    std::vector<OpenElement> open;
    open.push_back({std::move(root), {}});
    for (;;) {
      OpenElement& top = open.back();
      if (AtEnd()) return Error("unexpected end inside element content");
      if (Peek() != '<') {
        top.pending_text.push_back(Peek());
        Advance();
        continue;
      }
      if (ConsumeSeq("<!--")) {
        while (!AtEnd() && !ConsumeSeq("-->")) Advance();
        continue;
      }
      if (ConsumeSeq("<![CDATA[")) {
        size_t cstart = pos_;
        while (!AtEnd() && text_.substr(pos_, 3) != "]]>") Advance();
        if (AtEnd()) return Error("unterminated CDATA section");
        top.pending_text.append(text_.substr(cstart, pos_ - cstart));
        ConsumeSeq("]]>");
        continue;
      }
      if (ConsumeSeq("<?")) {
        while (!AtEnd() && !ConsumeSeq("?>")) Advance();
        continue;
      }
      FlushText(&top);
      if (PeekAt(1) == '/') {
        Advance();  // '<'
        Advance();  // '/'
        std::string_view close = ParseName();
        if (close != top.elem->label_text()) {
          return Error(StrCat("mismatched closing tag '", close,
                              "', expected '", top.elem->label_text(),
                              "'"));
        }
        SkipWs();
        if (!Consume('>')) return Error("expected '>' in closing tag");
        TreePtr done = std::move(top.elem);
        open.pop_back();
        if (open.empty()) return done;
        open.back().elem->AddChild(std::move(done));
        continue;
      }
      if (open.size() >= kMaxNestingDepth) {
        return Error(StrCat("elements nested deeper than ", kMaxNestingDepth));
      }
      AXML_ASSIGN_OR_RETURN(TreePtr child, ParseStartTag(&empty));
      if (empty) {
        top.elem->AddChild(std::move(child));
      } else {
        open.push_back({std::move(child), {}});
      }
    }
  }

  std::string_view text_;
  NodeIdGen* gen_;
  size_t pos_ = 0;
  int line_ = 1;
};

}  // namespace

Result<TreePtr> ParseXml(std::string_view text, NodeIdGen* gen) {
  Parser p(text, gen);
  return p.ParseRoot();
}

Result<Document> ParseDocument(DocName name, std::string_view text,
                               NodeIdGen* gen) {
  AXML_ASSIGN_OR_RETURN(TreePtr root, ParseXml(text, gen));
  return Document{std::move(name), std::move(root)};
}

}  // namespace axml
