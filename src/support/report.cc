#include "support/report.hh"

#include <algorithm>
#include <cstdarg>
#include <cstdio>

#include "support/text_table.hh"

namespace re {

namespace {

/// The `part` (label or text) of each labelled cell: one text-table row.
std::vector<std::string> table_row(const std::vector<Cell>& cells,
                                   std::string Cell::*part) {
  std::vector<std::string> out;
  for (const Cell& cell : cells) {
    if (!cell.label.empty()) out.push_back(cell.*part);
  }
  return out;
}

std::string member(const std::string& key, const std::string& value) {
  return '"' + json::escape(key) + "\": " + value;
}

/// The JSON members of the keyed cells.
std::vector<std::string> members(const std::vector<Cell>& cells) {
  std::vector<std::string> out;
  for (const Cell& cell : cells) {
    if (!cell.key.empty()) {
      out.push_back(member(cell.key, json::encode(cell.value)));
    }
  }
  return out;
}

std::string join(const std::vector<std::string>& items,
                 const std::string& separator) {
  std::string out;
  for (std::size_t i = 0; i < items.size(); ++i) {
    out += (i ? separator : "") + items[i];
  }
  return out;
}

/// `items` one per line, one level deeper than `indent`.
std::string block(const std::vector<std::string>& items, char open,
                  char close, const std::string& indent) {
  if (items.empty()) return {open, close};
  const std::string inner = "\n" + indent + "  ";
  return open + inner + join(items, "," + inner) + "\n" + indent + close;
}

}  // namespace

Cell cell(std::string key, std::string label, std::string value) {
  std::string text = value;
  return {std::move(key), std::move(label), std::move(value), std::move(text)};
}

Cell percent_cell(std::string key, std::string label, double fraction,
                  int decimals) {
  return {std::move(key), std::move(label), fraction,
          format_percent(fraction, decimals)};
}

Cell decimal_cell(std::string key, std::string label, double value,
                  int decimals) {
  return {std::move(key), std::move(label), value,
          format_double(value, decimals)};
}

Report::Report(std::string command) {
  field(cell("command", "", std::move(command)));
}

void Report::text(std::string text) {
  items_.push_back({Kind::kText, {}, {}, {}, std::move(text)});
}

void Report::print(const char* format, ...) {
  std::va_list args;
  va_start(args, format);
  std::va_list sizing;
  va_copy(sizing, args);
  const int size = std::vsnprintf(nullptr, 0, format, sizing);
  va_end(sizing);
  std::string out(size > 0 ? static_cast<std::size_t>(size) : 0, '\0');
  std::vsnprintf(out.data(), out.size() + 1, format, args);
  va_end(args);
  text(std::move(out));
}

void Report::field(Cell cell) { fields("", {}, {std::move(cell)}); }

void Report::fields(std::string key, std::vector<std::string> header,
                    std::vector<Cell> cells) {
  items_.push_back({Kind::kFields, std::move(key), std::move(header),
                    {std::move(cells)}, {}});
}

void Report::rows(std::string key, std::vector<std::vector<Cell>> rows) {
  items_.push_back({Kind::kRows, std::move(key), {}, std::move(rows), {}});
}

std::string Report::render_text() const {
  std::string out;
  for (const Item& item : items_) {
    if (item.kind == Kind::kText) {
      out += item.text;
    } else if (item.kind == Kind::kFields && !item.header.empty()) {
      TextTable table(item.header);
      for (const Cell& cell : item.rows[0]) {
        if (!cell.label.empty()) table.add_row({cell.label, cell.text});
      }
      out += table.render();
    } else if (item.kind == Kind::kRows && !item.rows.empty()) {
      TextTable table(table_row(item.rows[0], &Cell::label));
      for (const std::vector<Cell>& row : item.rows) {
        table.add_row(table_row(row, &Cell::text));
      }
      out += table.render();
    }
  }
  return out;
}

std::string Report::render_json() const {
  std::vector<std::string> top;
  for (const Item& item : items_) {
    if (item.kind == Kind::kFields) {
      const std::vector<std::string> nested = members(item.rows[0]);
      if (item.key.empty()) {
        top.insert(top.end(), nested.begin(), nested.end());
      } else {
        top.push_back(member(item.key, block(nested, '{', '}', "  ")));
      }
    } else if (item.kind == Kind::kRows && !item.key.empty()) {
      std::vector<std::string> objects;
      for (const std::vector<Cell>& row : item.rows) {
        objects.push_back(
            std::string("{").append(join(members(row), ", ")).append("}"));
      }
      top.push_back(member(item.key, block(objects, '[', ']', "  ")));
    } else if (item.kind == Kind::kRows) {
      // Flattened, column by column.
      std::size_t columns = 0;
      for (const std::vector<Cell>& row : item.rows) {
        columns = std::max(columns, row.size());
      }
      for (std::size_t c = 0; c < columns; ++c) {
        std::vector<Cell> column;
        for (const std::vector<Cell>& row : item.rows) {
          if (c < row.size()) column.push_back(row[c]);
        }
        const std::vector<std::string> keyed = members(column);
        top.insert(top.end(), keyed.begin(), keyed.end());
      }
    }
  }
  return block(top, '{', '}', "") + "\n";
}

}  // namespace re
