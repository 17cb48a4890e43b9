// Internal escaping helpers shared by the exporters and the telemetry
// JSONL writer. Not part of the public surface (include
// core/export/export.hpp instead).
#pragma once

#include <string>
#include <string_view>

namespace numaprof::core::export_detail {

/// Appends `text` escaped for use inside a JSON string literal (quotes,
/// backslash, and control characters; everything else passes through
/// byte-for-byte). Runs of plain bytes are copied in one append.
inline void append_json_escaped(std::string& out, std::string_view text) {
  static constexpr const char* kHex = "0123456789abcdef";
  std::size_t plain = 0;  // start of the pending run of plain bytes
  for (std::size_t i = 0; i < text.size(); ++i) {
    const auto c = static_cast<unsigned char>(text[i]);
    if (c >= 0x20 && c != '"' && c != '\\') continue;
    out.append(text.data() + plain, i - plain);
    plain = i + 1;
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        out += "\\u00";
        out.push_back(kHex[(c >> 4) & 0xF]);
        out.push_back(kHex[c & 0xF]);
    }
  }
  out.append(text.data() + plain, text.size() - plain);
}

/// `text` escaped for use inside a JSON string literal.
inline std::string json_escape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  append_json_escaped(out, text);
  return out;
}

/// Escapes `text` for HTML text / attribute content.
inline std::string html_escape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (char c : text) {
    switch (c) {
      case '&': out += "&amp;"; break;
      case '<': out += "&lt;"; break;
      case '>': out += "&gt;"; break;
      case '"': out += "&quot;"; break;
      case '\'': out += "&#39;"; break;
      default: out.push_back(c);
    }
  }
  return out;
}

/// Collapsed-stack frames may not contain the separators of the format.
inline std::string collapsed_escape(std::string_view text) {
  std::string out(text);
  for (char& c : out) {
    if (c == ';') c = ':';
    if (c == '\n') c = ' ';
  }
  return out;
}

}  // namespace numaprof::core::export_detail
