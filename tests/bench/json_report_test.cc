// Bench-report tests: integer metrics are written exactly, so a 64-bit seed
// read back from BENCH_<name>.json reproduces the run.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench_common.hh"
#include "engine/executor.hh"
#include "support/atomic_file.hh"
#include "support/json.hh"

namespace re::bench {
namespace {

TEST(JsonReport, WritesIntegersExactly) {
  const std::string path = "BENCH_json_report_test.json";
  JsonReport report("json_report_test");
  report.set("seed", engine::kDefaultExecutorSeed);
  report.set("ratio", 0.5);
  ASSERT_TRUE(report.write());
  const Expected<std::string> text = support::read_file(path);
  std::remove(path.c_str());
  ASSERT_TRUE(text.has_value()) << text.status().to_string();

  // Still a valid document.
  const Expected<json::Value> doc = json::parse(*text);
  ASSERT_TRUE(doc.has_value()) << doc.status().to_string();
  ASSERT_NE(doc->find("metrics"), nullptr);

  // The json reader holds numbers as double, so read the seed's digits
  // back from the text itself.
  const std::string key = "\"seed\": ";
  const std::size_t at = text->find(key);
  ASSERT_NE(at, std::string::npos) << *text;
  const std::uint64_t seed =
      std::strtoull(text->c_str() + at + key.size(), nullptr, 10);
  EXPECT_EQ(seed, engine::kDefaultExecutorSeed) << *text;
  EXPECT_NE(text->find("\"seed\": 11400714819323198485,"), std::string::npos)
      << *text;
}

}  // namespace
}  // namespace re::bench
