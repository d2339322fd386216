/// \file json.h
/// \brief JSON string escaping for hand-written JSON output.

#ifndef CODLOCK_UTIL_JSON_H_
#define CODLOCK_UTIL_JSON_H_

#include <string>
#include <string_view>

namespace codlock {

/// Escapes \p s for use inside a JSON string literal: quote and backslash
/// get a backslash, newline becomes `\n`, other control characters become
/// `\u00XX`.  Bytes >= 0x20 pass through unchanged.
std::string JsonEscape(std::string_view s);

}  // namespace codlock

#endif  // CODLOCK_UTIL_JSON_H_
