// Differential test of the compiled cursor (workloads::ProgramCursor over
// AddressGenerator records) against verify::ReferenceCursor, which
// evaluates each pattern's closed-form formula from the iteration index.
// Every (pc, addr) event and every end-of-run nullopt must match, for every
// pattern kind and its edge cases, across reset() and the automatic
// rewind, over the suite, the trace fuzzer's families and RE_TEST_SEED
// random patterns.
#include "verify/reference_cursor.hh"

#include <gtest/gtest.h>

#include <limits>
#include <string>

#include "support/rng.hh"
#include "testutil.hh"
#include "verify/trace_fuzzer.hh"
#include "workloads/cursor.hh"
#include "workloads/suite.hh"

namespace re::verify {
namespace {

using namespace re::workloads;

/// Advance both cursors `count` times; events (or nullopts) must agree.
void expect_same_events(ProgramCursor& cursor, ReferenceCursor& reference,
                        std::uint64_t count, const std::string& label) {
  for (std::uint64_t i = 0; i < count; ++i) {
    const auto got = cursor.next();
    const auto want = reference.next();
    ASSERT_EQ(got.has_value(), want.has_value()) << label << " event " << i;
    if (!got) continue;
    ASSERT_EQ(got->inst, want->inst) << label << " event " << i;
    ASSERT_EQ(got->addr, want->addr)
        << label << " event " << i << " pc" << got->inst->pc;
  }
}

/// Two full runs (through the automatic rewind), then a reset mid-run.
void expect_same_program(const Program& program, const std::string& label) {
  const std::uint64_t run = program.total_references() + 1;  // + nullopt
  ProgramCursor cursor(program);
  ReferenceCursor reference(program);
  expect_same_events(cursor, reference, 2 * run + run / 3, label);
  cursor.reset();
  reference.reset();
  expect_same_events(cursor, reference, run, label + " after reset");
}

Program one_loop(std::vector<AccessPattern> patterns,
                 std::uint64_t iterations, std::uint64_t reps = 1) {
  Program program;
  program.name = "patterns";
  program.seed = 0xC0FFEE;
  program.outer_reps = reps;
  Loop loop;
  loop.iterations = iterations;
  Pc pc = 1;
  for (AccessPattern& pattern : patterns) {
    StaticInst inst;
    inst.pc = pc++;
    inst.pattern = std::move(pattern);
    loop.body.push_back(std::move(inst));
  }
  program.loops.push_back(std::move(loop));
  return program;
}

constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();

TEST(CursorDifferential, LinearPatterns) {
  // Negative strides, |stride| >= footprint, a footprint that is not a
  // power of two, INT64_MIN and a zero stride.
  expect_same_program(
      one_loop({StreamPattern{0x1000, 8, 1 << 12},
                StreamPattern{0x1000, -24, 1000},
                StreamPattern{0x1000, 3 * 1000 + 40, 1000},
                StreamPattern{0x1000, -(5 * 1000 + 24), 1000},
                StreamPattern{0x1000, kMin, 999},
                StreamPattern{0x1000, 0, 64},
                HotBufferPattern{0x9000, -40, 3000},
                HotBufferPattern{0x9000, 7000, 3000}},
               700, 2),
      "linear");
}

TEST(CursorDifferential, StridedPatterns) {
  expect_same_program(
      one_loop({StridedPattern{0x2000, 8, 1 << 16, 0},
                StridedPattern{0x2000, -72, 100000, 200000},
                StridedPattern{0x2000, 130000, 100000, 50000},
                StridedPattern{0x2000, 16, 4096, 1000000}},
               1500),
      "strided");
}

TEST(CursorDifferential, ChaseAndGatherPatterns) {
  // Power-of-two and other slot counts, a node or element larger than the
  // footprint (zero slots).
  expect_same_program(
      one_loop({PointerChasePattern{0x3000, 1 << 16, 64},
                PointerChasePattern{0x3000, 100000, 24},
                PointerChasePattern{0x3000, 32, 64},
                GatherPattern{0x4000, 1 << 14, 8},
                GatherPattern{0x4000, 50000, 12},
                GatherPattern{0x4000, 8, 16}},
               1500),
      "chase/gather");
}

TEST(CursorDifferential, ShortStreamPatterns) {
  expect_same_program(
      one_loop({ShortStreamPattern{0x5000, 16, 1, 1 << 20},
                ShortStreamPattern{0x5000, 64, 7, 100000},
                ShortStreamPattern{0x5000, -48, 5, 3000},
                ShortStreamPattern{0x5000, 4000, 9, 3000}},
               1200, 2),
      "shortstream");
}

TEST(CursorDifferential, BlockedPatterns) {
  // revisits 1 and > 1 (and 0, which counts as 1), a block and stride that
  // are not powers of two, a negative stride, a stride wider than the
  // block, a zero stride and a block larger than the footprint.
  expect_same_program(
      one_loop({BlockedPattern{0x6000, 64, 1 << 10, 1 << 14, 1},
                BlockedPattern{0x6000, 48, 1000, 10000, 3},
                BlockedPattern{0x6000, -40, 1000, 7000, 2},
                BlockedPattern{0x6000, 3000, 1000, 7000, 2},
                BlockedPattern{0x6000, 0, 512, 4096, 4},
                BlockedPattern{0x6000, 64, 8192, 5000, 0}},
               1800),
      "blocked");
}

TEST(CursorDifferential, LoopStructure) {
  // Empty bodies and zero-iteration loops are skipped; outer reps repeat;
  // zero reps yield an empty run.
  Program program = one_loop({StreamPattern{0, 64, 1 << 12}}, 5, 3);
  program.loops.insert(program.loops.begin(), Loop{{}, 100});
  Loop zero = program.loops.back();
  zero.iterations = 0;
  program.loops.push_back(zero);
  Loop second = program.loops[1];
  second.iterations = 4;
  second.body.front().pc = 2;
  second.body.front().pattern = GatherPattern{1 << 20, 1 << 14, 8};
  program.loops.push_back(second);
  expect_same_program(program, "loops");

  program.outer_reps = 0;
  ProgramCursor cursor(program);
  ReferenceCursor reference(program);
  expect_same_events(cursor, reference, 3, "zero reps");
  EXPECT_FALSE(ProgramCursor(program).next().has_value());
}

TEST(CursorDifferential, SuiteBenchmarks) {
  for (const std::string& name : suite_names()) {
    const Program program = make_benchmark(name);
    ProgramCursor cursor(program);
    ReferenceCursor reference(program);
    // One full run plus the start of the rewound one.
    expect_same_events(cursor, reference, program.total_references() + 1000,
                       name);
    if (HasFailure()) return;
  }
}

TEST(CursorDifferential, FuzzedFamilies) {
  const std::uint64_t seed = re::testing::test_seed();
  for (const TraceFamily family : all_trace_families()) {
    for (std::uint64_t variant = 0; variant < 2; ++variant) {
      const FuzzedTrace trace = make_trace(family, seed, variant);
      ProgramCursor cursor(trace.program);
      ReferenceCursor reference(trace.program);
      expect_same_events(cursor, reference, 50000, trace_family_name(family));
      if (HasFailure()) return;
    }
  }
}

TEST(CursorDifferential, RandomPatterns) {
  const std::uint64_t seed = re::testing::test_seed();
  Rng rng(seed);
  const auto stride = [&] {
    // Small, footprint-sized and huge magnitudes, either sign.
    const std::uint64_t magnitude =
        rng.chance(0.7) ? rng.range(0, 4096)
                        : rng.next(std::uint64_t{1} << rng.range(1, 62));
    return rng.chance(0.5) ? -static_cast<std::int64_t>(magnitude)
                           : static_cast<std::int64_t>(magnitude);
  };
  const auto size = [&] { return rng.range(1, 1 << 20); };
  for (int round = 0; round < 40; ++round) {
    const Addr base = rng.next(std::uint64_t{1} << 40);
    std::vector<AccessPattern> patterns = {
        StreamPattern{base, stride(), size()},
        StridedPattern{base, stride(), size(),
                       static_cast<std::uint32_t>(rng.range(0, 300000))},
        PointerChasePattern{base, size(),
                            static_cast<std::uint32_t>(rng.range(1, 256))},
        GatherPattern{base, size(),
                      static_cast<std::uint32_t>(rng.range(1, 256))},
        ShortStreamPattern{base, stride(),
                           static_cast<std::uint32_t>(rng.range(1, 40)),
                           size()},
        HotBufferPattern{base, stride(), size()},
        BlockedPattern{base, stride(), size(), size(),
                       static_cast<std::uint32_t>(rng.range(0, 5))}};
    Program program = one_loop(std::move(patterns), rng.range(1, 400),
                               rng.range(1, 3));
    program.seed = rng.next(std::numeric_limits<std::uint64_t>::max());
    expect_same_program(program, "random round " + std::to_string(round));
    if (HasFailure()) return;
  }
}

}  // namespace
}  // namespace re::verify
