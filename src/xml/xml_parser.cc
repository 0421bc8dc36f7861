#include "xml/xml_parser.h"

#include <algorithm>
#include <string>
#include <vector>

#include "common/str_util.h"

namespace axml {
namespace {

/// Single-pass parser over a string_view; nested elements are kept on an
/// explicit stack. Character data is scanned a run at a time: a run is a
/// view into the input until a comment, PI or CDATA section splits it.
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
  bool Consume(char c) {
    if (!AtEnd() && Peek() == c) {
      ++pos_;
      return true;
    }
    return false;
  }
  bool ConsumeSeq(std::string_view s) {
    if (text_.substr(pos_, s.size()) == s) {
      pos_ += s.size();
      return true;
    }
    return false;
  }
  /// Moves past the next `end`, or to the end of input when there is none.
  void SkipPast(std::string_view end) {
    size_t at = text_.find(end, pos_);
    pos_ = at == std::string_view::npos ? text_.size() : at + end.size();
  }
  /// The bytes std::isspace accepts in the "C" locale.
  static bool IsSpace(char c) {
    return c == ' ' || (c >= '\t' && c <= '\r');
  }
  void SkipWs() {
    while (!AtEnd() && IsSpace(Peek())) ++pos_;
  }

  /// The line is counted here, not while scanning: only an error needs it.
  Status Error(std::string msg) const {
    const size_t line =
        1 + static_cast<size_t>(std::count(
                text_.begin(), text_.begin() + static_cast<ptrdiff_t>(pos_),
                '\n'));
    return Status::ParseError(StrCat("line ", line, ": ", msg));
  }

  /// ASCII letters, '_' and ':'; bytes >= 0x80 are not name characters.
  static bool IsNameStart(char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_' ||
           c == ':';
  }
  static bool IsNameChar(char c) {
    return IsNameStart(c) || (c >= '0' && c <= '9') || c == '-' || c == '.';
  }

  std::string_view ParseName() {
    size_t start = pos_;
    if (!AtEnd() && IsNameStart(Peek())) {
      ++pos_;
      while (!AtEnd() && IsNameChar(Peek())) ++pos_;
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
        SkipPast("?>");
      } else if (ConsumeSeq("<!--")) {
        SkipPast("-->");
      } else {
        return;
      }
    }
  }

  /// Unescapes `raw` when it holds an entity; plain text is copied as is.
  static std::string Unescaped(std::string_view raw) {
    return raw.find('&') == std::string_view::npos ? std::string(raw)
                                                   : XmlUnescape(raw);
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
      ++pos_;
      size_t vstart = pos_;
      pos_ = std::min(text_.find(quote, pos_), text_.size());
      if (AtEnd()) return Error("unterminated attribute value");
      std::string value = Unescaped(text_.substr(vstart, pos_ - vstart));
      ++pos_;  // closing quote
      attr_label_.assign("@").append(attr);
      TreePtr attr_node = TreeNode::Element(attr_label_, gen_);
      attr_node->AddChild(TreeNode::Text(std::move(value)));
      elem->AddChild(std::move(attr_node));
    }
    *empty = ConsumeSeq("/>");
    if (!*empty && !Consume('>')) return Error("expected '>'");
    return elem;
  }

  /// Adds `piece` to the character data collected since the open
  /// element's last child. An escaped piece has its entities resolved
  /// here, so an entity never spans a comment or PI; a CDATA section is
  /// `escaped` = false and appended literally. A run stays a view into
  /// the input until a piece must be copied: an entity to resolve, or a
  /// run split by a comment, PI or CDATA section.
  void AppendRun(std::string_view piece, bool escaped) {
    if (piece.empty()) return;
    const bool resolve = escaped && piece.find('&') != std::string_view::npos;
    if (run_.empty() && !resolve) {
      run_ = piece;
      return;
    }
    if (run_.data() != run_buf_.data()) run_buf_.assign(run_);
    if (resolve) {
      run_buf_ += XmlUnescape(piece);
    } else {
      run_buf_.append(piece);
    }
    run_ = run_buf_;
  }

  /// Adds the collected run as a text child of the open element.
  /// Whitespace-only runs between elements are dropped, and boundary
  /// whitespace is trimmed from mixed-content runs, so indented (pretty)
  /// output reparses to the same tree. Entities were resolved before
  /// trimming, as each piece was appended.
  void FlushText() {
    if (run_.empty()) return;
    std::string_view trimmed = StripWhitespace(run_);
    if (!trimmed.empty()) {
      kids_.push_back(TreeNode::Text(std::string(trimmed)));
    }
    run_ = {};
  }

  /// An element whose end tag has not been read yet. Its content
  /// children wait in kids_ from index `first_kid` on, so that the end
  /// tag can hand them over with one exactly sized allocation.
  struct OpenElement {
    TreePtr elem;
    size_t first_kid;
  };

  /// Moves `open`'s waiting children from kids_ into its element, after
  /// the @attr children its start tag added.
  void AdoptKids(const OpenElement& open) {
    TreeNode* elem = open.elem.get();
    elem->ReserveChildren(elem->child_count() + kids_.size() - open.first_kid);
    for (size_t i = open.first_kid; i < kids_.size(); ++i) {
      elem->AddChild(std::move(kids_[i]));
    }
    kids_.resize(open.first_kid);
  }

  /// Parses the element at pos_ and everything nested in it. Open
  /// elements live on an explicit stack, not the call stack, and
  /// nesting past kMaxNestingDepth is a ParseError.
  Result<TreePtr> ParseElement() {
    bool empty = false;
    AXML_ASSIGN_OR_RETURN(TreePtr root, ParseStartTag(&empty));
    if (empty) return root;
    std::vector<OpenElement> open;
    open.push_back({std::move(root), kids_.size()});
    for (;;) {
      if (AtEnd()) return Error("unexpected end inside element content");
      if (Peek() != '<') {
        size_t start = pos_;
        pos_ = std::min(text_.find('<', pos_), text_.size());
        AppendRun(text_.substr(start, pos_ - start), /*escaped=*/true);
        continue;
      }
      if (ConsumeSeq("<!--")) {
        SkipPast("-->");
        continue;
      }
      if (ConsumeSeq("<![CDATA[")) {
        size_t cstart = pos_;
        size_t cend = text_.find("]]>", pos_);
        if (cend == std::string_view::npos) {
          pos_ = text_.size();
          return Error("unterminated CDATA section");
        }
        AppendRun(text_.substr(cstart, cend - cstart), /*escaped=*/false);
        pos_ = cend + 3;
        continue;
      }
      if (ConsumeSeq("<?")) {
        SkipPast("?>");
        continue;
      }
      FlushText();
      if (PeekAt(1) == '/') {
        pos_ += 2;  // "</"
        std::string_view close = ParseName();
        const std::string& expected = open.back().elem->label_text();
        if (close != expected) {
          return Error(StrCat("mismatched closing tag '", close,
                              "', expected '", expected, "'"));
        }
        SkipWs();
        if (!Consume('>')) return Error("expected '>' in closing tag");
        AdoptKids(open.back());
        TreePtr done = std::move(open.back().elem);
        open.pop_back();
        if (open.empty()) return done;
        kids_.push_back(std::move(done));
        continue;
      }
      if (open.size() >= kMaxNestingDepth) {
        return Error(StrCat("elements nested deeper than ", kMaxNestingDepth));
      }
      AXML_ASSIGN_OR_RETURN(TreePtr child, ParseStartTag(&empty));
      if (empty) {
        kids_.push_back(std::move(child));
      } else {
        open.push_back({std::move(child), kids_.size()});
      }
    }
  }

  std::string_view text_;
  NodeIdGen* gen_;
  size_t pos_ = 0;
  /// Character data since the open element's last child, entities
  /// resolved: a view into text_, or into run_buf_ once a piece had to
  /// be copied.
  std::string_view run_;
  std::string run_buf_;
  /// Finished children of every open element, innermost last.
  std::vector<TreePtr> kids_;
  /// Reused "@name" label of the attribute being parsed.
  std::string attr_label_;
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
