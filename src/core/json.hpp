// The one JSON string escaper behind every JSON report and body in the
// repo (serve error and query bodies, `szx_cli query --json`, the salvage
// damage reports), so that any name or message text yields valid JSON.
#pragma once

#include <string>
#include <string_view>

namespace szx {

/// `s` as the contents of a JSON string literal (without the quotes):
/// `"` and `\` are backslash-escaped and every byte below 0x20 becomes a
/// \u00XX escape.  Other bytes pass through unchanged.
[[nodiscard]] inline std::string JsonEscape(std::string_view s) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    const auto u = static_cast<unsigned char>(c);
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (u < 0x20) {
      out += "\\u00";
      out.push_back(kHex[u >> 4]);
      out.push_back(kHex[u & 0xF]);
    } else {
      out.push_back(c);
    }
  }
  return out;
}

}  // namespace szx
