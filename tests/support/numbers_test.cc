// Checked number parsing: a token is a whole, in-range number or an error.
#include "support/numbers.hh"

#include <gtest/gtest.h>

#include <cstdint>

namespace re::support {
namespace {

TEST(ParseUint64, AcceptsDecimalHexAndOctal) {
  EXPECT_EQ(*parse_uint64("805381"), 805381u);
  EXPECT_EQ(*parse_uint64("0xC4A05"), 805381u);
  EXPECT_EQ(*parse_uint64("010"), 8u);
  EXPECT_EQ(*parse_uint64("18446744073709551615"), UINT64_MAX);
}

TEST(ParseUint64, RejectsPartialSignedAndOversizedTokens) {
  for (const char* bad : {"", "abc", "-1", "+1", " 1", "4abc", "0x"}) {
    const Expected<std::uint64_t> value = parse_uint64(bad);
    ASSERT_FALSE(value.has_value()) << bad;
    EXPECT_EQ(value.status().code(), StatusCode::kInvalidArgument) << bad;
  }
  EXPECT_EQ(parse_uint64("4abc").status().message(),
            "trailing characters in number");
  const Expected<std::uint64_t> big = parse_uint64("18446744073709551616");
  ASSERT_FALSE(big.has_value());
  EXPECT_EQ(big.status().code(), StatusCode::kOutOfRange);
}

TEST(ParseFiniteDouble, AcceptsWholeFiniteTokensOnly) {
  EXPECT_EQ(*parse_finite_double("12.5"), 12.5);
  EXPECT_EQ(*parse_finite_double("-1e-3"), -1e-3);
  for (const char* bad : {"", "abc", " 1", "5%", "1.5x"}) {
    EXPECT_EQ(parse_finite_double(bad).status().code(),
              StatusCode::kInvalidArgument)
        << bad;
  }
  for (const char* bad : {"nan", "inf", "-inf", "1e999"}) {
    EXPECT_EQ(parse_finite_double(bad).status().code(),
              StatusCode::kOutOfRange)
        << bad;
  }
}

}  // namespace
}  // namespace re::support
