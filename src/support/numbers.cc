#include "support/numbers.hh"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <string>

namespace re::support {

namespace {

Status bad(const char* what) { return {StatusCode::kInvalidArgument, what}; }

}  // namespace

Expected<std::uint64_t> parse_uint64(std::string_view text) {
  if (text.empty() || !std::isdigit(static_cast<unsigned char>(text[0]))) {
    return bad("bad number");
  }
  const std::string token(text);
  char* end = nullptr;
  errno = 0;
  const unsigned long long value = std::strtoull(token.c_str(), &end, 0);
  if (errno == ERANGE) {
    return Status(StatusCode::kOutOfRange, "number out of range");
  }
  if (end != token.c_str() + token.size()) {
    return bad("trailing characters in number");
  }
  return static_cast<std::uint64_t>(value);
}

Expected<double> parse_finite_double(std::string_view text) {
  if (text.empty() || std::isspace(static_cast<unsigned char>(text[0]))) {
    return bad("bad number");
  }
  const std::string token(text);
  char* end = nullptr;
  const double value = std::strtod(token.c_str(), &end);
  if (end == token.c_str()) return bad("bad number");
  if (end != token.c_str() + token.size()) {
    return bad("trailing characters in number");
  }
  if (!std::isfinite(value)) {
    return Status(StatusCode::kOutOfRange, "number not finite");
  }
  return value;
}

}  // namespace re::support
