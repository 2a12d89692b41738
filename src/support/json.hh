// Minimal JSON reader for persistence formats (plan-cache snapshots, bench
// reports). No external dependencies are available in the build image, so
// this is a small hand-rolled recursive-descent parser covering the JSON
// subset the repo emits: objects, arrays, strings (with \uXXXX left as-is),
// finite numbers, booleans and null. Writers lay out their documents by
// hand; the shared escape helper and scalar encoder below keep the two sides
// consistent.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "support/status.hh"

namespace re::json {

class Value;

using Array = std::vector<Value>;
/// std::map keeps key order deterministic for round-trip tests.
using Object = std::map<std::string, Value>;

class Value {
 public:
  Value() : data_(nullptr) {}
  Value(std::nullptr_t) : data_(nullptr) {}        // NOLINT(runtime/explicit)
  Value(bool b) : data_(b) {}                      // NOLINT(runtime/explicit)
  Value(double d) : data_(d) {}                    // NOLINT(runtime/explicit)
  Value(std::string s) : data_(std::move(s)) {}    // NOLINT(runtime/explicit)
  Value(Array a) : data_(std::move(a)) {}          // NOLINT(runtime/explicit)
  Value(Object o) : data_(std::move(o)) {}         // NOLINT(runtime/explicit)

  bool is_null() const { return std::holds_alternative<std::nullptr_t>(data_); }
  bool is_bool() const { return std::holds_alternative<bool>(data_); }
  bool is_number() const { return std::holds_alternative<double>(data_); }
  bool is_string() const { return std::holds_alternative<std::string>(data_); }
  bool is_array() const { return std::holds_alternative<Array>(data_); }
  bool is_object() const { return std::holds_alternative<Object>(data_); }

  bool as_bool() const { return std::get<bool>(data_); }
  double as_number() const { return std::get<double>(data_); }
  const std::string& as_string() const { return std::get<std::string>(data_); }
  const Array& as_array() const { return std::get<Array>(data_); }
  const Object& as_object() const { return std::get<Object>(data_); }

  /// Member lookup on an object; nullptr when absent or not an object.
  const Value* find(const std::string& key) const {
    if (!is_object()) return nullptr;
    auto it = as_object().find(key);
    return it == as_object().end() ? nullptr : &it->second;
  }

 private:
  std::variant<std::nullptr_t, bool, double, std::string, Array, Object> data_;
};

/// Parse a complete JSON document (trailing whitespace allowed, trailing
/// garbage is an error). Errors carry the byte offset of the failure.
Expected<Value> parse(std::string_view text);

/// Escape a string for embedding in a JSON document (quotes not included).
std::string escape(std::string_view raw);

/// One scalar as the repo's JSON writers emit it. Integers are held and
/// written exactly (a 64-bit seed does not survive a round trip through
/// double); doubles are written with %.17g so they round-trip.
using Scalar =
    std::variant<double, std::uint64_t, std::int64_t, std::string, bool>;

/// Encode one scalar as a JSON token (strings quoted and escaped).
std::string encode(const Scalar& value);

}  // namespace re::json
