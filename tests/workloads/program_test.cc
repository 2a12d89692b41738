#include "workloads/program.hh"

#include "workloads/generator.hh"

#include <gtest/gtest.h>

#include <set>
#include <unordered_set>

namespace re::workloads {
namespace {

TEST(StreamPattern, AdvancesByStrideAndWraps) {
  const AccessPattern p = StreamPattern{1000, 16, 64};
  AddressGenerator gen(p, 1);
  EXPECT_EQ(gen.next(), 1000u);
  EXPECT_EQ(gen.next(), 1016u);
  EXPECT_EQ(gen.next(), 1032u);
  EXPECT_EQ(gen.next(), 1048u);
  EXPECT_EQ(gen.next(), 1000u);  // wrapped
}

TEST(StreamPattern, NegativeStrideWalksBackwards) {
  const AccessPattern p = StreamPattern{1000, -16, 64};
  AddressGenerator gen(p, 1);
  EXPECT_EQ(gen.next(), 1000u);
  EXPECT_EQ(gen.next(), 1048u);  // Euclidean wrap
  EXPECT_EQ(gen.next(), 1032u);
}

TEST(StridedPattern, NoJumpsWithoutIrregularity) {
  const AccessPattern p = StridedPattern{0, 8, 1 << 20, 0};
  AddressGenerator gen(p, 3);
  Addr prev = gen.next();
  for (int i = 1; i < 100; ++i) {
    const Addr cur = gen.next();
    EXPECT_EQ(cur - prev, 8u);
    prev = cur;
  }
}

TEST(StridedPattern, IrregularityCausesJumps) {
  const AccessPattern p = StridedPattern{0, 8, 1 << 20, 200000};  // 20%
  AddressGenerator gen(p, 3);
  Addr prev = gen.next();
  int jumps = 0;
  for (int i = 1; i < 1000; ++i) {
    const Addr cur = gen.next();
    if (cur != prev + 8) ++jumps;
    prev = cur;
  }
  EXPECT_GT(jumps, 100);
  EXPECT_LT(jumps, 350);
}

TEST(PointerChasePattern, StaysNodeAlignedWithinFootprint) {
  const AccessPattern p = PointerChasePattern{4096, 1 << 16, 64};
  AddressGenerator gen(p, 9);
  for (int i = 0; i < 1000; ++i) {
    const Addr a = gen.next();
    EXPECT_GE(a, 4096u);
    EXPECT_LT(a, 4096u + (1 << 16));
    EXPECT_EQ((a - 4096u) % 64, 0u);
  }
}

TEST(PointerChasePattern, WalkVisitsManyDistinctNodes) {
  const AccessPattern p = PointerChasePattern{0, 1 << 20, 64};
  AddressGenerator gen(p, 9);
  std::unordered_set<Addr> seen;
  for (int i = 0; i < 2000; ++i) seen.insert(gen.next());
  EXPECT_GT(seen.size(), 1800u);  // near-uniform walk
}

TEST(GatherPattern, UniformCoverage) {
  const AccessPattern p = GatherPattern{0, 64 * 1024, 8};
  AddressGenerator gen(p, 5);
  std::unordered_set<Addr> lines;
  for (int i = 0; i < 20000; ++i) {
    lines.insert(line_of(gen.next()));
  }
  EXPECT_GT(lines.size(), 900u);  // 1024 lines, near-complete coverage
}

TEST(GatherPattern, DeterministicInIterationIndex) {
  const AccessPattern p = GatherPattern{0, 1 << 16, 8};
  AddressGenerator s1(p, 5);
  AddressGenerator s2(p, 5);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(s1.next(), s2.next());
  }
}

TEST(ShortStreamPattern, RunsAreStrided) {
  const AccessPattern p = ShortStreamPattern{0, 16, 8, 1 << 20};
  AddressGenerator gen(p, 7);
  Addr prev = gen.next();
  int in_run_strides = 0;
  for (int i = 1; i < 8; ++i) {
    const Addr cur = gen.next();
    if (cur == prev + 16) ++in_run_strides;
    prev = cur;
  }
  EXPECT_EQ(in_run_strides, 7);  // whole first run is strided
  // Next access starts a new run at a different origin.
  const Addr new_run = gen.next();
  EXPECT_NE(new_run, prev + 16);
}

TEST(PatternClassification, RegularityFlags) {
  EXPECT_TRUE(pattern_is_regular(StreamPattern{}));
  EXPECT_TRUE(pattern_is_regular(HotBufferPattern{}));
  EXPECT_TRUE(pattern_is_regular(StridedPattern{0, 8, 1 << 20, 1000}));
  EXPECT_FALSE(pattern_is_regular(StridedPattern{0, 8, 1 << 20, 500000}));
  EXPECT_FALSE(pattern_is_regular(PointerChasePattern{}));
  EXPECT_FALSE(pattern_is_regular(GatherPattern{}));
  EXPECT_TRUE(pattern_is_regular(ShortStreamPattern{0, 16, 8, 1 << 20}));
  EXPECT_FALSE(pattern_is_regular(ShortStreamPattern{0, 16, 2, 1 << 20}));
}

TEST(PatternFootprint, ReportsFootprint) {
  EXPECT_EQ(pattern_footprint(StreamPattern{0, 8, 4096}), 4096u);
  EXPECT_EQ(pattern_footprint(GatherPattern{0, 8192, 8}), 8192u);
}

Program two_loop_program() {
  Program p;
  p.name = "t";
  p.outer_reps = 3;
  StaticInst a;
  a.pc = 1;
  a.pattern = StreamPattern{0, 64, 1 << 16};
  StaticInst b;
  b.pc = 2;
  b.pattern = GatherPattern{1 << 20, 1 << 16, 8};
  p.loops.push_back(Loop{{a, b}, 10});
  StaticInst c;
  c.pc = 3;
  c.pattern = StreamPattern{1 << 21, 8, 1 << 12};
  p.loops.push_back(Loop{{c}, 5});
  return p;
}

TEST(Program, TotalReferences) {
  const Program p = two_loop_program();
  EXPECT_EQ(p.total_references(), (10 * 2 + 5 * 1) * 3u);
}

TEST(Program, ExecutionsOfPc) {
  const Program p = two_loop_program();
  EXPECT_EQ(p.executions_of(1), 30u);
  EXPECT_EQ(p.executions_of(3), 15u);
  EXPECT_EQ(p.executions_of(42), 0u);
}

TEST(Program, FindLocatesInstructions) {
  Program p = two_loop_program();
  ASSERT_NE(p.find(3), nullptr);
  EXPECT_EQ(p.find(3)->pc, 3u);
  EXPECT_EQ(p.find(99), nullptr);
  const Program& cp = p;
  EXPECT_NE(cp.find(2), nullptr);
}

TEST(Program, StaticInstructionCount) {
  EXPECT_EQ(two_loop_program().static_instruction_count(), 3u);
}

TEST(Mix64, IsDeterministicAndDispersive) {
  EXPECT_EQ(mix64(42), mix64(42));
  std::set<std::uint64_t> outs;
  for (std::uint64_t i = 0; i < 1000; ++i) outs.insert(mix64(i));
  EXPECT_EQ(outs.size(), 1000u);
}

}  // namespace
}  // namespace re::workloads
