//===- support/StringUtils.h - Small string helpers -------------*- C++ -*-===//
//
// Part of the swa-sched project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// String helpers shared by the USL front-end, the XML layer and report
/// rendering: printf-style formatting into std::string, trimming, splitting,
/// and integer parsing with explicit failure reporting.
///
//===----------------------------------------------------------------------===//

#ifndef SWA_SUPPORT_STRINGUTILS_H
#define SWA_SUPPORT_STRINGUTILS_H

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace swa {

/// printf-style formatting returning a std::string.
std::string formatString(const char *Fmt, ...)
    __attribute__((format(printf, 1, 2)));

/// Removes leading/trailing ASCII whitespace.
std::string_view trim(std::string_view S);

/// Splits \p S on \p Sep; empty pieces are kept.
std::vector<std::string> split(std::string_view S, char Sep);

bool startsWith(std::string_view S, std::string_view Prefix);
bool endsWith(std::string_view S, std::string_view Suffix);

/// Parses a decimal (optionally negative) int64. Returns false on any
/// non-numeric content, empty input or overflow.
bool parseInt64(std::string_view S, int64_t &Out);

/// Parses an unsigned decimal integer (optional leading '+'); rejects
/// anything out of uint64 range. Used for RNG seeds, which routinely
/// exceed the int64 range.
bool parseUInt64(std::string_view S, uint64_t &Out);

/// Parses a non-negative decimal integer and nothing else: no sign, no
/// whitespace, within uint64 range. The strict form the command-line
/// tools accept for seeds and numeric flag values.
bool parseDecimal(std::string_view S, uint64_t &Out);

/// Joins pieces with a separator.
std::string join(const std::vector<std::string> &Pieces,
                 std::string_view Sep);

/// True for [A-Za-z_] and [A-Za-z0-9_] respectively.
bool isIdentStart(char C);
bool isIdentChar(char C);

/// True if \p S is a well-formed identifier.
bool isIdentifier(std::string_view S);

} // namespace swa

#endif // SWA_SUPPORT_STRINGUTILS_H
