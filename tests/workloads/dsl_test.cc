#include "workloads/dsl.hh"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>

#include "workloads/cursor.hh"
#include "workloads/suite.hh"

namespace re::workloads {
namespace {

constexpr const char* kDemo = R"(
# a demo program
program demo seed=42 reps=3
loop 100 {
  pc1: stream base=0x4000000 stride=16 footprint=768K compute=2
  pc2: chase base=0x8000000 footprint=640K node=64 compute=3 serial
  pc3: gather base=0xC000000 footprint=2K element=8 compute=2
}
loop 10 {
  pc4: shortstream base=0x10000000 stride=16 len=24 footprint=1M compute=1
  pc5: hot base=0x14000000 stride=8 footprint=512 compute=2
  pc6: strided base=0x18000000 stride=-32 footprint=64K irregular=1000 compute=0
}
)";

TEST(DslParse, ParsesHeaderAndStructure) {
  const Program p = parse_program(kDemo);
  EXPECT_EQ(p.name, "demo");
  EXPECT_EQ(p.seed, 42u);
  EXPECT_EQ(p.outer_reps, 3u);
  ASSERT_EQ(p.loops.size(), 2u);
  EXPECT_EQ(p.loops[0].iterations, 100u);
  EXPECT_EQ(p.loops[0].body.size(), 3u);
  EXPECT_EQ(p.loops[1].body.size(), 3u);
}

TEST(DslParse, ParsesPatternFields) {
  const Program p = parse_program(kDemo);
  const auto& stream = std::get<StreamPattern>(p.loops[0].body[0].pattern);
  EXPECT_EQ(stream.base, 0x4000000u);
  EXPECT_EQ(stream.stride, 16);
  EXPECT_EQ(stream.footprint, 768u * 1024);
  EXPECT_EQ(p.loops[0].body[0].compute_cycles, 2u);
  EXPECT_FALSE(p.loops[0].body[0].serial_dependent);

  const auto& chase =
      std::get<PointerChasePattern>(p.loops[0].body[1].pattern);
  EXPECT_EQ(chase.node_size, 64u);
  EXPECT_TRUE(p.loops[0].body[1].serial_dependent);

  const auto& strided = std::get<StridedPattern>(p.loops[1].body[2].pattern);
  EXPECT_EQ(strided.stride, -32);
  EXPECT_EQ(strided.irregular_ppm, 1000u);
}

TEST(DslParse, ParsesPrefetchAnnotations) {
  const Program p = parse_program(
      "program x seed=1 reps=1\n"
      "loop 10 {\n"
      "  pc1: stream base=0 stride=64 footprint=1M compute=0 "
      "; prefetchnta +256\n"
      "  pc2: stream base=0x100000000 stride=-64 footprint=1M compute=0 "
      "; prefetcht0 -128\n"
      "}\n");
  ASSERT_TRUE(p.loops[0].body[0].prefetch.has_value());
  EXPECT_EQ(p.loops[0].body[0].prefetch->hint, PrefetchHint::NTA);
  EXPECT_EQ(p.loops[0].body[0].prefetch->distance_bytes, 256);
  EXPECT_EQ(p.loops[0].body[1].prefetch->hint, PrefetchHint::T0);
  EXPECT_EQ(p.loops[0].body[1].prefetch->distance_bytes, -128);
}

TEST(DslParse, ErrorsCarryLineNumbers) {
  try {
    parse_program("program x\nloop 10 {\n  pc1: bogus base=0\n}\n");
    FAIL() << "expected DslParseError";
  } catch (const DslParseError& e) {
    EXPECT_EQ(e.line(), 3);
  }
}

TEST(DslParse, RejectsMalformedInput) {
  EXPECT_THROW(parse_program(""), DslParseError);
  EXPECT_THROW(parse_program("loop 10 {\n}\n"), DslParseError);  // no header
  EXPECT_THROW(parse_program("program x\nloop 10 {\n"), DslParseError);
  EXPECT_THROW(parse_program("program x\npc1: stream base=0\n"),
               DslParseError);  // inst outside loop
  EXPECT_THROW(
      parse_program("program x\nloop 10 {\n  pc1: stream stride=8\n}\n"),
      DslParseError);  // missing footprint
  EXPECT_THROW(
      parse_program("program x\nloop ten {\n}\n"), DslParseError);
  EXPECT_THROW(
      parse_program("program x\nloop 5 {\n  oops: stream stride=8 "
                    "footprint=1K\n}\n"),
      DslParseError);  // bad label
}

/// The line number of the DslParseError `text` throws, or 0 if none.
int error_line(const std::string& text) {
  try {
    parse_program(text);
  } catch (const DslParseError& e) {
    return e.line();
  }
  return 0;
}

/// A one-instruction program whose instruction is on line 3.
std::string one_inst(const std::string& inst) {
  return "program x\nloop 5 {\n  " + inst + "\n}\n";
}

TEST(DslParse, PcLabelsMustBeWholeInRangeNumbers) {
  // Wider than the 32-bit Pc: rejected, not truncated to pc1215752191.
  EXPECT_EQ(error_line(one_inst("pc99999999999: stream stride=8 "
                                "footprint=1K")),
            3);
  // Trailing garbage: rejected, not read as pc12.
  EXPECT_EQ(error_line(one_inst("pc12abc: stream stride=8 footprint=1K")), 3);
  EXPECT_EQ(error_line(one_inst("pc+12: stream stride=8 footprint=1K")), 3);
  EXPECT_EQ(error_line(one_inst("pc-1: stream stride=8 footprint=1K")), 3);
  // The largest Pc still parses.
  const Program p =
      parse_program(one_inst("pc4294967295: stream stride=8 footprint=1K"));
  EXPECT_EQ(p.loops[0].body[0].pc, 4294967295u);
}

TEST(DslParse, SizesThatOverflowAreRejected) {
  // 2^54 K is 2^64: it used to wrap to a zero footprint.
  EXPECT_EQ(error_line(one_inst("pc1: stream stride=8 "
                                "footprint=18014398509481984K")),
            3);
  EXPECT_EQ(error_line(one_inst("pc1: stream stride=8 "
                                "footprint=18446744073709551616")),
            3);
  EXPECT_EQ(error_line(one_inst("pc1: stream stride=8 footprint=-1K")), 3);
  // The largest scaled value that fits still parses.
  const Program p = parse_program(
      one_inst("pc1: stream stride=8 footprint=18014398509481983K"));
  EXPECT_EQ(std::get<StreamPattern>(p.loops[0].body[0].pattern).footprint,
            18014398509481983ull * 1024);
}

TEST(DslParse, SignedMagnitudesBeyondInt64AreRejected) {
  // 2^63 does not fit in int64_t as a positive number; it used to be
  // negated into INT64_MIN.
  EXPECT_EQ(error_line(one_inst("pc1: stream stride=8 footprint=1K "
                                "; prefetchnta +9223372036854775808")),
            3);
  EXPECT_EQ(error_line(one_inst("pc1: stream stride=8 footprint=1K "
                                "; prefetchnta -9223372036854775809")),
            3);
  EXPECT_EQ(error_line(one_inst("pc1: stream stride=18446744073709551615 "
                                "footprint=1K")),
            3);
  // INT64_MIN itself round-trips.
  const Program p =
      parse_program(one_inst("pc1: stream stride=8 footprint=1K "
                             "; prefetchnta -9223372036854775808"));
  EXPECT_EQ(p.loops[0].body[0].prefetch->distance_bytes,
            std::numeric_limits<std::int64_t>::min());
}

TEST(DslParse, ThirtyTwoBitFieldsAreRejectedNotTruncated) {
  // 2^32 + 8 used to be stored as 8 (`element=4294967304` dumped as
  // `element=8`).
  EXPECT_EQ(error_line(one_inst("pc1: gather footprint=1K "
                                "element=4294967304")),
            3);
  EXPECT_EQ(error_line(one_inst("pc1: chase footprint=1K node=4294967360")),
            3);
  EXPECT_EQ(error_line(one_inst("pc1: strided stride=8 footprint=1K "
                                "irregular=4294967296")),
            3);
  EXPECT_EQ(error_line(one_inst("pc1: shortstream stride=8 len=4294967312 "
                                "footprint=1K")),
            3);
  EXPECT_EQ(error_line(one_inst("pc1: blocked stride=64 block=1K "
                                "footprint=1M revisits=4294967297")),
            3);
  EXPECT_EQ(error_line(one_inst("pc1: stream stride=8 footprint=1K "
                                "compute=4294967296")),
            3);
  // The largest 32-bit value still parses.
  const Program p = parse_program(
      one_inst("pc1: gather footprint=1K element=4294967295"));
  EXPECT_EQ(std::get<GatherPattern>(p.loops[0].body[0].pattern).element_size,
            4294967295u);
}

TEST(DslParse, ZeroFootprintIsRejected) {
  for (const char* inst : {"pc1: stream stride=8 footprint=0",
                           "pc1: hot stride=8 footprint=0",
                           "pc1: strided stride=8 footprint=0",
                           "pc1: chase footprint=0",
                           "pc1: gather footprint=0",
                           "pc1: shortstream stride=8 len=4 footprint=0",
                           "pc1: blocked stride=64 block=1K footprint=0"}) {
    EXPECT_EQ(error_line(one_inst(inst)), 3) << inst;
  }
}

TEST(DslParse, ZeroElementIsRejected) {
  EXPECT_EQ(error_line(one_inst("pc1: gather footprint=1K element=0")), 3);
}

TEST(DslParse, ZeroNodeIsRejected) {
  EXPECT_EQ(error_line(one_inst("pc1: chase footprint=1K node=0")), 3);
}

TEST(DslParse, ZeroStreamLengthIsRejected) {
  // The pattern divides by `len`.
  EXPECT_EQ(error_line(one_inst("pc1: shortstream stride=8 len=0 "
                                "footprint=1K")),
            3);
}

TEST(DslParse, ReferenceCountThatOverflowsIsRejected) {
  // 2^61 iterations x 2 instructions x 4 reps = 2^64 references; the
  // error names the instruction that pushes the count past 64 bits.
  EXPECT_EQ(error_line("program x reps=4\n"
                       "loop 2305843009213693952 {\n"
                       "  pc1: stream stride=8 footprint=1K\n"
                       "  pc2: stream stride=8 footprint=1K\n"
                       "}\n"),
            4);
  // Across loops too.
  EXPECT_EQ(error_line("program x\n"
                       "loop 18446744073709551615 {\n"
                       "  pc1: stream stride=8 footprint=1K\n"
                       "}\n"
                       "loop 1 {\n"
                       "  pc2: stream stride=8 footprint=1K\n"
                       "}\n"),
            6);
  // Exactly 2^64 - 1 references still parses.
  const Program p = parse_program(
      "program x reps=3\n"
      "loop 6148914691236517205 {\n"
      "  pc1: stream stride=8 footprint=1K\n"
      "}\n");
  EXPECT_EQ(p.total_references(), std::numeric_limits<std::uint64_t>::max());
}

TEST(DslPrint, RoundTripsStructure) {
  const Program original = parse_program(kDemo);
  const Program reparsed = parse_program(print_program(original));
  EXPECT_EQ(reparsed.name, original.name);
  EXPECT_EQ(reparsed.seed, original.seed);
  EXPECT_EQ(reparsed.outer_reps, original.outer_reps);
  ASSERT_EQ(reparsed.loops.size(), original.loops.size());
  for (std::size_t l = 0; l < original.loops.size(); ++l) {
    EXPECT_EQ(reparsed.loops[l].iterations, original.loops[l].iterations);
    ASSERT_EQ(reparsed.loops[l].body.size(), original.loops[l].body.size());
  }
}

class DslSuiteRoundTripTest : public ::testing::TestWithParam<std::string> {};

TEST_P(DslSuiteRoundTripTest, BuiltinBenchmarksRoundTripExactly) {
  // Strongest property: the reparsed program generates the identical
  // address stream (pattern parameters, seeds and prefetches all survive).
  const Program original = make_benchmark(GetParam());
  const Program reparsed = parse_program(print_program(original));
  ProgramCursor a(original), b(reparsed);
  for (int i = 0; i < 20000; ++i) {
    auto ea = a.next();
    auto eb = b.next();
    ASSERT_EQ(ea.has_value(), eb.has_value());
    if (!ea) break;
    ASSERT_EQ(ea->addr, eb->addr) << GetParam() << " at ref " << i;
    ASSERT_EQ(ea->inst->pc, eb->inst->pc);
  }
}

INSTANTIATE_TEST_SUITE_P(AllBenchmarks, DslSuiteRoundTripTest,
                         ::testing::ValuesIn(suite_names()),
                         [](const auto& info) { return info.param; });

TEST(DslPrint, PrefetchAnnotationsRoundTrip) {
  Program p = parse_program(kDemo);
  p.loops[0].body[0].prefetch = PrefetchOp{192, PrefetchHint::NTA};
  const Program reparsed = parse_program(print_program(p));
  ASSERT_TRUE(reparsed.loops[0].body[0].prefetch.has_value());
  EXPECT_EQ(reparsed.loops[0].body[0].prefetch->distance_bytes, 192);
  EXPECT_EQ(reparsed.loops[0].body[0].prefetch->hint, PrefetchHint::NTA);
}

}  // namespace
}  // namespace re::workloads
