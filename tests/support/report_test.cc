// Report tests: the text tables and the JSON document are two renderings of
// the same cells, and the JSON is exact and always well formed.
#include "support/report.hh"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "support/json.hh"
#include "support/text_table.hh"

namespace re {
namespace {

json::Value parsed(const Report& report) {
  const Expected<json::Value> doc = json::parse(report.render_json());
  EXPECT_TRUE(doc.has_value()) << doc.status().to_string() << "\n"
                               << report.render_json();
  return doc.has_value() ? *doc : json::Value();
}

TEST(Report, TextAndJsonComeFromTheSameCells) {
  Report report("run");
  report.fields("", {"metric", "value"},
                {cell("cycles", "cycles", std::uint64_t{42}),
                 {"miss_ratio", "L1 miss ratio", 0.25, format_percent(0.25)}});

  TextTable expected({"metric", "value"});
  expected.add_row({"cycles", "42"});
  expected.add_row({"L1 miss ratio", "25.0%"});
  EXPECT_EQ(report.render_text(), expected.render());

  const json::Value doc = parsed(report);
  EXPECT_EQ(doc.find("command")->as_string(), "run");
  EXPECT_EQ(doc.find("cycles")->as_number(), 42.0);
  EXPECT_EQ(doc.find("miss_ratio")->as_number(), 0.25);
}

TEST(Report, JsonOnlyCellIsAbsentFromTheTable) {
  Report report("serve");
  report.fields("metrics", {"service metric", "value"},
                {cell("submitted", "requests", 7),
                 cell("shard_down", "", 12345)});
  const std::string text = report.render_text();
  EXPECT_NE(text.find("requests"), std::string::npos) << text;
  EXPECT_EQ(text.find("12345"), std::string::npos) << text;

  const json::Value doc = parsed(report);
  const json::Value* metrics = doc.find("metrics");
  ASSERT_NE(metrics, nullptr);
  EXPECT_EQ(metrics->find("submitted")->as_number(), 7.0);
  EXPECT_EQ(metrics->find("shard_down")->as_number(), 12345.0);
}

TEST(Report, TextOnlyCellIsAbsentFromTheJson) {
  Report report("corun");
  report.rows("scenarios", {{cell("", "accesses", 99),
                             cell("scenario", "scenario", "mix")}});
  EXPECT_NE(report.render_text().find("accesses"), std::string::npos);
  const std::string doc = report.render_json();
  EXPECT_EQ(doc.find("99"), std::string::npos) << doc;
  EXPECT_EQ(parsed(report).find("scenarios")->as_array().size(), 1u);
}

TEST(Report, IntegersAboveTwoToThe53RoundTripExactly) {
  constexpr std::uint64_t kBig = (std::uint64_t{1} << 53) + 1;
  constexpr std::int64_t kNegative = -(std::int64_t{1} << 62) - 1;
  Report report("verify");
  report.field(cell("seed", "", kBig));
  report.field(cell("offset", "", kNegative));
  report.field(cell("digest", "", UINT64_MAX));
  const std::string doc = report.render_json();
  EXPECT_NE(doc.find("\"seed\": 9007199254740993,"), std::string::npos)
      << doc;
  EXPECT_NE(doc.find("\"offset\": -4611686018427387905,"), std::string::npos)
      << doc;
  EXPECT_NE(doc.find("\"digest\": 18446744073709551615\n"), std::string::npos)
      << doc;
  parsed(report);
}

TEST(Report, StringsAreEscaped) {
  const std::string hostile = "a \"quoted\"\\path\nnext\tline";
  Report report("run");
  report.field(cell("benchmark", "", hostile));
  report.rows("rows", {{cell("name", "name", hostile + "\x01")}});
  const json::Value doc = parsed(report);
  EXPECT_EQ(doc.find("benchmark")->as_string(), hostile);
  EXPECT_NE(report.render_json().find("line\\u0001\""), std::string::npos)
      << report.render_json();
}

TEST(Report, RowTablesRenderAsArraysOrFlattenColumnByColumn) {
  Report report("adapt");
  report.text("# header line\n");
  const auto row = [](const char* name, std::uint64_t cycles,
                      const char* cycles_key, const char* speedup_key) {
    return std::vector<Cell>{cell("", "configuration", name),
                             cell(cycles_key, "cycles", cycles),
                             {speedup_key, "speedup", 2.0, "2.000"}};
  };
  report.rows("", {row("baseline", 10, "base_cycles", ""),
                   row("static", 5, "static_cycles", "static_speedup")});
  report.rows("list", {{cell("n", "n", 1)}, {cell("n", "n", 2)}});
  report.rows("empty", {});
  report.fields("nested", {}, {});

  TextTable flattened({"configuration", "cycles", "speedup"});
  flattened.add_row({"baseline", "10", "2.000"});
  flattened.add_row({"static", "5", "2.000"});
  TextTable list({"n"});
  list.add_row({"1"});
  list.add_row({"2"});
  EXPECT_EQ(report.render_text(),
            "# header line\n" + flattened.render() + list.render());

  const std::string doc = report.render_json();
  EXPECT_LT(doc.find("base_cycles"), doc.find("static_cycles"));
  EXPECT_LT(doc.find("static_cycles"), doc.find("static_speedup"));
  EXPECT_EQ(doc.find("header line"), std::string::npos);
  const json::Value value = parsed(report);
  EXPECT_EQ(value.find("list")->as_array().size(), 2u);
  EXPECT_TRUE(value.find("empty")->as_array().empty());
  EXPECT_TRUE(value.find("nested")->as_object().empty());
}

TEST(Report, PrintFormatsText) {
  Report report("faultcheck");
  report.print("%d violation(s) (reproduce with --seed %s)\n", 3, "42");
  EXPECT_EQ(report.render_text(),
            "3 violation(s) (reproduce with --seed 42)\n");
  EXPECT_EQ(report.render_json(), "{\n  \"command\": \"faultcheck\"\n}\n");
}

}  // namespace
}  // namespace re
