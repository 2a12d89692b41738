// Checked number parsing for text that arrives from outside the program
// (DSL files, command-line flags). Every parser consumes the whole token and
// range-checks it: a token is either a valid number or an error, never a
// silently truncated or wrapped value.
#pragma once

#include <cstdint>
#include <string_view>

#include "support/status.hh"

namespace re::support {

/// Unsigned integer: decimal, 0x hex or 0 octal, no sign, no blanks. Errors
/// are kInvalidArgument ("bad number", "trailing characters in number") or
/// kOutOfRange ("number out of range"); the message names the failure, the
/// caller appends the token.
Expected<std::uint64_t> parse_uint64(std::string_view text);

/// Finite floating-point number in strtod syntax. Errors are
/// kInvalidArgument ("bad number", "trailing characters in number") or
/// kOutOfRange ("number not finite": nan, inf or overflow).
Expected<double> parse_finite_double(std::string_view text);

}  // namespace re::support
