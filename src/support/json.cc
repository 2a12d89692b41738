#include "support/json.hh"

#include <cctype>
#include <charconv>
#include <cinttypes>
#include <cstdio>

// GCC 12 issues spurious -Wmaybe-uninitialized warnings for the recursive
// std::variant's inlined destructor chains in the parser below (the
// moved-from Value temporaries are fully constructed on every path); the
// misdiagnosis survives out-of-lining, so silence it for this file.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif

namespace re::json {

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Expected<Value> run() {
    skip_ws();
    Expected<Value> v = parse_value();
    if (!v) return v;
    skip_ws();
    if (pos_ != text_.size()) return error("trailing characters");
    return v;
  }

 private:
  Status make_error(const std::string& what) const {
    return Status(StatusCode::kDataLoss,
                  "json: " + what + " at offset " + std::to_string(pos_));
  }
  Expected<Value> error(const std::string& what) const {
    return Expected<Value>(make_error(what));
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool consume_word(std::string_view word) {
    if (text_.substr(pos_, word.size()) == word) {
      pos_ += word.size();
      return true;
    }
    return false;
  }

  Expected<Value> parse_value() {
    if (pos_ >= text_.size()) return error("unexpected end of input");
    const char c = text_[pos_];
    if (c == '{') return parse_object();
    if (c == '[') return parse_array();
    if (c == '"') {
      Expected<std::string> s = parse_string();
      if (!s) return Expected<Value>(s.status());
      return Expected<Value>(Value(std::move(*s)));
    }
    if (consume_word("true")) return Expected<Value>(Value(true));
    if (consume_word("false")) return Expected<Value>(Value(false));
    if (consume_word("null")) return Expected<Value>(Value(nullptr));
    return parse_number();
  }

  static Expected<Value> finish_value(Value v) {
    return Expected<Value>(std::move(v));
  }

  Expected<Value> parse_object() {
    ++pos_;  // '{'
    Object out;
    skip_ws();
    if (consume('}')) return finish_value(Value(std::move(out)));
    while (true) {
      skip_ws();
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        return error("expected object key");
      }
      Expected<std::string> key = parse_string();
      if (!key) return Expected<Value>(key.status());
      skip_ws();
      if (!consume(':')) return error("expected ':'");
      skip_ws();
      Expected<Value> value = parse_value();
      if (!value) return value;
      out.insert_or_assign(std::move(*key), std::move(*value));
      skip_ws();
      if (consume(',')) continue;
      if (consume('}')) return finish_value(Value(std::move(out)));
      return error("expected ',' or '}'");
    }
  }

  Expected<Value> parse_array() {
    ++pos_;  // '['
    Array out;
    skip_ws();
    if (consume(']')) return finish_value(Value(std::move(out)));
    while (true) {
      skip_ws();
      Expected<Value> value = parse_value();
      if (!value) return value;
      out.push_back(std::move(*value));
      skip_ws();
      if (consume(',')) continue;
      if (consume(']')) return finish_value(Value(std::move(out)));
      return error("expected ',' or ']'");
    }
  }

  Expected<std::string> parse_string() {
    ++pos_;  // '"'
    std::string out;
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c == '\\') {
        if (pos_ >= text_.size()) break;
        const char esc = text_[pos_++];
        switch (esc) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'n': out += '\n'; break;
          case 'r': out += '\r'; break;
          case 't': out += '\t'; break;
          case 'u':
            // Pass the sequence through verbatim; the repo's writers never
            // emit \u escapes.
            out += "\\u";
            break;
          default:
            return Expected<std::string>(make_error("bad escape"));
        }
        continue;
      }
      out += c;
    }
    return Expected<std::string>(make_error("unterminated string"));
  }

  Expected<Value> parse_number() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+')) {
      ++pos_;
    }
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '-' || text_[pos_] == '+')) {
      ++pos_;
    }
    if (pos_ == start) return error("expected a value");
    double value = 0.0;
    const auto result =
        std::from_chars(text_.data() + start, text_.data() + pos_, value);
    if (result.ec != std::errc{} || result.ptr != text_.data() + pos_) {
      pos_ = start;
      return error("malformed number");
    }
    return Expected<Value>(Value(value));
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

Expected<Value> parse(std::string_view text) { return Parser(text).run(); }

std::string escape(std::string_view raw) {
  std::string out;
  out.reserve(raw.size());
  for (const char c : raw) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string encode(const Scalar& value) {
  char buf[64];
  if (const double* d = std::get_if<double>(&value)) {
    std::snprintf(buf, sizeof buf, "%.17g", *d);
  } else if (const std::uint64_t* u = std::get_if<std::uint64_t>(&value)) {
    std::snprintf(buf, sizeof buf, "%" PRIu64, *u);
  } else if (const std::int64_t* i = std::get_if<std::int64_t>(&value)) {
    std::snprintf(buf, sizeof buf, "%" PRId64, *i);
  } else if (const bool* b = std::get_if<bool>(&value)) {
    return *b ? "true" : "false";
  } else {
    return '"' + escape(std::get<std::string>(value)) + '"';
  }
  return buf;
}

}  // namespace re::json
