#include "common/str_util.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace axml {

std::vector<std::string> StrSplit(std::string_view s, char sep) {
  std::vector<std::string> out;
  size_t start = 0;
  for (size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == sep) {
      out.emplace_back(s.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

std::string StrJoin(const std::vector<std::string>& pieces,
                    std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < pieces.size(); ++i) {
    if (i > 0) out += sep;
    out += pieces[i];
  }
  return out;
}

std::string_view StripWhitespace(std::string_view s) {
  size_t b = 0, e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

bool EndsWith(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.substr(s.size() - suffix.size()) == suffix;
}

bool ParseDouble(std::string_view s, double* out) {
  s = StripWhitespace(s);
  if (s.empty()) return false;
  // std::from_chars(double) is not available everywhere; use strtod on a
  // NUL-terminated copy.
  std::string buf(s);
  char* end = nullptr;
  double v = std::strtod(buf.c_str(), &end);
  if (end != buf.c_str() + buf.size()) return false;
  *out = v;
  return true;
}

std::string FormatDouble(double d) {
  if (std::isfinite(d) && d == std::floor(d) && std::fabs(d) < 1e15) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.0f", d);
    return buf;
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", d);
  // Try shorter representations that still round-trip.
  for (int prec = 1; prec < 17; ++prec) {
    char shorter[64];
    std::snprintf(shorter, sizeof(shorter), "%.*g", prec, d);
    if (std::strtod(shorter, nullptr) == d) return shorter;
  }
  return buf;
}

std::string XmlEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '&':
        out += "&amp;";
        break;
      case '<':
        out += "&lt;";
        break;
      case '>':
        out += "&gt;";
        break;
      case '"':
        out += "&quot;";
        break;
      case '\'':
        out += "&apos;";
        break;
      default:
        out.push_back(c);
    }
  }
  return out;
}

size_t XmlEscapedSize(std::string_view s) {
  size_t n = s.size();
  for (char c : s) {
    switch (c) {
      case '&':
        n += 4;  // &amp;
        break;
      case '<':
      case '>':
        n += 3;  // &lt; &gt;
        break;
      case '"':
      case '\'':
        n += 5;  // &quot; &apos;
        break;
      default:
        break;
    }
  }
  return n;
}

std::string XmlUnescape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (size_t i = 0; i < s.size();) {
    if (s[i] != '&') {
      out.push_back(s[i++]);
      continue;
    }
    size_t semi = s.find(';', i);
    if (semi == std::string_view::npos) {
      out.push_back(s[i++]);
      continue;
    }
    std::string_view ent = s.substr(i + 1, semi - i - 1);
    if (ent == "amp") {
      out.push_back('&');
    } else if (ent == "lt") {
      out.push_back('<');
    } else if (ent == "gt") {
      out.push_back('>');
    } else if (ent == "quot") {
      out.push_back('"');
    } else if (ent == "apos") {
      out.push_back('\'');
    } else if (!ent.empty() && ent[0] == '#') {
      long code = 0;
      if (ent.size() > 1 && (ent[1] == 'x' || ent[1] == 'X')) {
        code = std::strtol(std::string(ent.substr(2)).c_str(), nullptr, 16);
      } else {
        code = std::strtol(std::string(ent.substr(1)).c_str(), nullptr, 10);
      }
      if (code > 0 && code < 128) {
        out.push_back(static_cast<char>(code));
      }
      // Non-ASCII references are dropped; the library is ASCII-oriented.
    } else {
      // Unknown entity: keep verbatim.
      out.append(s.substr(i, semi - i + 1));
    }
    i = semi + 1;
  }
  return out;
}

}  // namespace axml
