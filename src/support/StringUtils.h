//===-- support/StringUtils.h - String helpers ------------------*- C++ -*-===//
//
// Part of the gpuc project: a reproduction of "A GPGPU Compiler for Memory
// Optimization and Parallelism Management" (PLDI 2010).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// printf-style formatting into std::string, JSON string escaping, and
/// small string predicates.
///
//===----------------------------------------------------------------------===//

#ifndef GPUC_SUPPORT_STRINGUTILS_H
#define GPUC_SUPPORT_STRINGUTILS_H

#include <cstdarg>
#include <string>
#include <vector>

namespace gpuc {

/// printf-style formatting returning a std::string.
std::string strFormat(const char *Fmt, ...)
    __attribute__((format(printf, 1, 2)));

/// Splits \p S on \p Sep, keeping empty fields.
std::vector<std::string> splitString(const std::string &S, char Sep);

/// Strips leading and trailing whitespace.
std::string trimString(const std::string &S);

/// \returns true if \p S begins with \p Prefix.
bool startsWith(const std::string &S, const std::string &Prefix);

/// Escapes \p S for use inside a JSON string literal: quotes,
/// backslashes and control characters.
std::string jsonEscape(const std::string &S);

/// The environment variable \p Name, or \p Default when unset or empty.
std::string envOr(const char *Name, const std::string &Default);

/// Counts the non-empty, non-brace-only source lines of a kernel body, the
/// measure the paper's Table 1 uses for naive-kernel complexity.
int countCodeLines(const std::string &Source);

} // namespace gpuc

#endif // GPUC_SUPPORT_STRINGUTILS_H
