// Small string utilities shared across modules.

#ifndef AXML_COMMON_STR_UTIL_H_
#define AXML_COMMON_STR_UTIL_H_

#include <sstream>
#include <string>
#include <string_view>
#include <vector>

namespace axml {

/// Concatenates streamable arguments into one string.
template <typename... Args>
std::string StrCat(const Args&... args) {
  std::ostringstream os;
  (os << ... << args);
  return os.str();
}

/// Splits `s` on `sep`, keeping empty pieces.
std::vector<std::string> StrSplit(std::string_view s, char sep);

/// Joins `pieces` with `sep`.
std::string StrJoin(const std::vector<std::string>& pieces,
                    std::string_view sep);

/// Removes leading and trailing ASCII whitespace.
std::string_view StripWhitespace(std::string_view s);

/// True if `s` starts with / ends with `prefix` / `suffix`.
bool StartsWith(std::string_view s, std::string_view prefix);
bool EndsWith(std::string_view s, std::string_view suffix);

/// Parses a decimal double; returns false on any trailing garbage.
bool ParseDouble(std::string_view s, double* out);

/// Formats a double the way our serializer does: integers without a
/// fractional part ("42"), otherwise shortest round-trippable form.
std::string FormatDouble(double d);

/// Escapes &, <, >, ", ' for embedding in XML text/attribute content.
std::string XmlEscape(std::string_view s);
/// XmlEscape(s).size(), counted without building the string.
size_t XmlEscapedSize(std::string_view s);

/// Inverse of XmlEscape for the five standard entities plus decimal and
/// hexadecimal character references.
std::string XmlUnescape(std::string_view s);

}  // namespace axml

#endif  // AXML_COMMON_STR_UTIL_H_
