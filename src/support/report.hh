// Command reports: one record rendered both as aligned text tables and as a
// JSON document.
//
// A report is an ordered list of items: verbatim text, field groups and row
// tables. Field groups and row tables are built from cells, and each cell
// carries its JSON key, its table label, its typed value and its
// preformatted text. A value is therefore named once, and the two renderings
// are two views of the same cells.
#pragma once

#include <concepts>
#include <string>
#include <type_traits>
#include <vector>

#include "support/json.hh"

namespace re {

/// One value of a report. An empty `label` keeps the cell out of the text
/// tables (JSON-only); an empty `key` keeps it out of the JSON (text-only).
struct Cell {
  std::string key;
  std::string label;
  json::Scalar value;
  std::string text;
};

/// An integer cell shown in decimal; the JSON value stays exact.
template <std::integral T>
  requires(!std::same_as<T, bool>)
Cell cell(std::string key, std::string label, T value) {
  const std::conditional_t<std::is_signed_v<T>, std::int64_t, std::uint64_t>
      exact = value;
  return {std::move(key), std::move(label), exact, std::to_string(exact)};
}

/// A string cell shown verbatim.
Cell cell(std::string key, std::string label, std::string value);

/// A fraction shown as a percentage (format_percent).
Cell percent_cell(std::string key, std::string label, double fraction,
                  int decimals = 1);

/// A number shown with fixed decimals (format_double).
Cell decimal_cell(std::string key, std::string label, double value,
                  int decimals);

class Report {
 public:
  /// `command` is the report's first JSON field.
  explicit Report(std::string command);

  /// Verbatim text; text rendering only.
  void text(std::string text);
  /// printf-style `text`.
  void print(const char* format, ...) __attribute__((format(printf, 2, 3)));

  /// One top-level field.
  void field(Cell cell);
  /// A field group: the cells join the top-level JSON object, or the object
  /// named `key` when it is non-empty. With a two-column `header`, the
  /// labelled cells also render as a label/value table.
  void fields(std::string key, std::vector<std::string> header,
              std::vector<Cell> cells);
  /// A row table. The text table takes its header from the labels of the
  /// first row. In JSON it is the array `key` with one object per row; with
  /// an empty key the keyed cells join the top-level object instead, column
  /// by column, so their keys must be unique.
  void rows(std::string key, std::vector<std::vector<Cell>> rows);

  std::string render_text() const;
  std::string render_json() const;

 private:
  enum class Kind { kText, kFields, kRows };
  struct Item {
    Kind kind;
    std::string key;
    std::vector<std::string> header;
    /// kFields: one row holding the group's cells.
    std::vector<std::vector<Cell>> rows;
    std::string text;
  };

  std::vector<Item> items_;
};

}  // namespace re
