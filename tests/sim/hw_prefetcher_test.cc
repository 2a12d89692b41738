#include "sim/hw_prefetcher.hh"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>

namespace re::sim {
namespace {

HwPrefetcherConfig base_config() {
  HwPrefetcherConfig c;
  c.enabled = true;
  c.pc_stride = true;
  c.stride_confidence_threshold = 2;
  c.stride_degree = 4;
  c.stream = true;
  c.stream_train_misses = 2;
  c.stream_degree = 4;
  c.adjacent_line = false;
  c.throttle_queue_cycles = 400;
  c.throttled_min_degree = 2;
  return c;
}

std::vector<Addr> observe_seq(HwPrefetcher& pf, Pc pc,
                              const std::vector<Addr>& addrs, bool l2_hit,
                              Cycle queue_delay = 0) {
  std::vector<Addr> out;
  for (Addr a : addrs) pf.observe(pc, a, l2_hit, queue_delay, out);
  return out;
}

TEST(HwPrefetcher, DisabledIssuesNothing) {
  HwPrefetcherConfig c = base_config();
  c.enabled = false;
  HwPrefetcher pf(c);
  const auto out = observe_seq(pf, 1, {0, 64, 128, 192, 256}, false);
  EXPECT_TRUE(out.empty());
}

TEST(HwPrefetcher, RejectsTableSizesThatAreNotPowersOfTwo) {
  for (const std::uint32_t entries : {0u, 1u, 2u, 64u, 256u}) {
    HwPrefetcherConfig c = base_config();
    c.stride_table_entries = entries;
    c.stream_table_entries = entries;
    EXPECT_NO_THROW(HwPrefetcher{c}) << entries;
  }
  for (const std::uint32_t entries : {3u, 100u, 255u, 257u}) {
    HwPrefetcherConfig stride = base_config();
    stride.stride_table_entries = entries;
    EXPECT_THROW(HwPrefetcher{stride}, std::invalid_argument) << entries;
    HwPrefetcherConfig stream = base_config();
    stream.stream_table_entries = entries;
    EXPECT_THROW(HwPrefetcher{stream}, std::invalid_argument) << entries;
  }
}

TEST(HwPrefetcher, StrideEngineTrainsAfterConfidenceThreshold) {
  HwPrefetcherConfig c = base_config();
  c.stream = false;
  HwPrefetcher pf(c);
  std::vector<Addr> out;
  // First observation allocates, next two build confidence 2.
  pf.observe(1, 1000, true, 0, out);
  pf.observe(1, 1128, true, 0, out);
  EXPECT_TRUE(out.empty());  // confidence 1 < 2
  pf.observe(1, 1256, true, 0, out);
  ASSERT_FALSE(out.empty());
  // Targets are line addresses of addr + stride*k.
  EXPECT_EQ(out.front(), line_of(1256 + 128));
  EXPECT_EQ(pf.stats().stride_prefetches, out.size());
}

TEST(HwPrefetcher, StrideEngineDedupsSubLineStridesPerTrigger) {
  HwPrefetcherConfig c = base_config();
  c.stream = false;
  c.stride_degree = 8;
  HwPrefetcher pf(c);
  for (Addr a = 0; a < 16 * 16; a += 16) {
    std::vector<Addr> out;
    pf.observe(1, a, true, 0, out);
    // Stride 16: degree 8 covers 128 bytes = at most 3 distinct lines per
    // trigger, never 8, and no duplicates within one trigger.
    EXPECT_LE(out.size(), 3u);
    for (std::size_t i = 1; i < out.size(); ++i) {
      EXPECT_NE(out[i], out[i - 1]);
    }
  }
}

TEST(HwPrefetcher, StrideEngineIgnoresIrregularPcs) {
  HwPrefetcherConfig c = base_config();
  c.stream = false;
  HwPrefetcher pf(c);
  // Pseudo-random addresses: confidence never reaches 2.
  std::vector<Addr> addrs;
  Addr x = 12345;
  for (int i = 0; i < 200; ++i) {
    x = x * 6364136223846793005ULL + 1;
    addrs.push_back(x % (1 << 20));
  }
  const auto out = observe_seq(pf, 1, addrs, true);
  EXPECT_TRUE(out.empty());
}

TEST(HwPrefetcher, NegativeStridesTrainToo) {
  HwPrefetcherConfig c = base_config();
  c.stream = false;
  HwPrefetcher pf(c);
  std::vector<Addr> out;
  for (Addr a = 64 * 100; a >= 64 * 90; a -= 64) {
    pf.observe(1, a, true, 0, out);
  }
  ASSERT_FALSE(out.empty());
  EXPECT_LT(out.front(), line_of(64 * 100));
}

TEST(HwPrefetcher, StreamEngineDetectsSequentialMisses) {
  HwPrefetcherConfig c = base_config();
  c.pc_stride = false;
  HwPrefetcher pf(c);
  std::vector<Addr> out;
  pf.observe(1, 64 * 10, false, 0, out);
  pf.observe(2, 64 * 11, false, 0, out);  // delta +1 line, count 1
  EXPECT_TRUE(out.empty());
  pf.observe(3, 64 * 12, false, 0, out);  // count 2 -> trigger
  ASSERT_EQ(out.size(), 4u);              // degree lines ahead
  EXPECT_EQ(out[0], 13u);
  EXPECT_EQ(out[3], 16u);
}

TEST(HwPrefetcher, StreamEngineTracksDirection) {
  HwPrefetcherConfig c = base_config();
  c.pc_stride = false;
  HwPrefetcher pf(c);
  std::vector<Addr> out;
  pf.observe(1, 64 * 20, false, 0, out);
  pf.observe(1, 64 * 19, false, 0, out);
  pf.observe(1, 64 * 18, false, 0, out);
  ASSERT_FALSE(out.empty());
  EXPECT_EQ(out[0], 17u);  // descending stream
}

TEST(HwPrefetcher, StreamEngineIgnoresL2Hits) {
  HwPrefetcherConfig c = base_config();
  c.pc_stride = false;
  HwPrefetcher pf(c);
  const auto out =
      observe_seq(pf, 1, {64 * 10, 64 * 11, 64 * 12, 64 * 13}, true);
  EXPECT_TRUE(out.empty());
}

TEST(HwPrefetcher, AdjacentLineFetchesBuddy) {
  HwPrefetcherConfig c = base_config();
  c.pc_stride = false;
  c.stream = false;
  c.adjacent_line = true;
  HwPrefetcher pf(c);
  std::vector<Addr> out;
  pf.observe(1, 64 * 10, false, 0, out);  // line 10 -> buddy 11
  pf.observe(1, 64 * 13, false, 0, out);  // line 13 -> buddy 12
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0], 11u);
  EXPECT_EQ(out[1], 12u);
  EXPECT_EQ(pf.stats().adjacent_prefetches, 2u);
}

TEST(HwPrefetcher, AdjacentLineBacksOffUnderContention) {
  HwPrefetcherConfig c = base_config();
  c.pc_stride = false;
  c.stream = false;
  c.adjacent_line = true;
  c.throttle_queue_cycles = 100;
  HwPrefetcher pf(c);
  std::vector<Addr> out;
  pf.observe(1, 64 * 10, false, /*queue=*/500, out);
  EXPECT_TRUE(out.empty());
}

TEST(HwPrefetcher, ThrottleHalvesDegree) {
  HwPrefetcherConfig c = base_config();
  c.pc_stride = false;
  c.stream_degree = 8;
  c.throttle_queue_cycles = 100;
  c.throttled_min_degree = 2;
  HwPrefetcher pf(c);
  std::vector<Addr> out;
  pf.observe(1, 64 * 10, false, 500, out);
  pf.observe(1, 64 * 11, false, 500, out);
  pf.observe(1, 64 * 12, false, 500, out);
  EXPECT_EQ(out.size(), 4u);  // 8/2
  EXPECT_GT(pf.stats().throttled_events, 0u);
}

TEST(HwPrefetcher, ResetClearsTrainingAndStats) {
  HwPrefetcher pf(base_config());
  std::vector<Addr> out;
  for (Addr a = 0; a < 64 * 10; a += 64) pf.observe(1, a, false, 0, out);
  EXPECT_GT(pf.stats().total(), 0u);
  pf.reset();
  EXPECT_EQ(pf.stats().total(), 0u);
  out.clear();
  pf.observe(1, 64 * 100, false, 0, out);
  EXPECT_TRUE(out.empty());  // training lost
}

// Property: short strided runs trigger overfetch beyond the run end — the
// cigar pathology. Quantify that the prefetcher issues targets past the
// last line the run touches.
class ShortStreamOverfetchTest : public ::testing::TestWithParam<int> {};

TEST_P(ShortStreamOverfetchTest, OverrunsStreamEnd) {
  const int run_lines = GetParam();
  HwPrefetcherConfig c = base_config();
  c.pc_stride = false;
  c.stream_train_misses = 1;
  c.stream_degree = 6;
  HwPrefetcher pf(c);
  std::vector<Addr> out;
  const Addr start_line = 1000;
  for (int i = 0; i < run_lines; ++i) {
    pf.observe(1, (start_line + static_cast<Addr>(i)) * 64, false, 0, out);
  }
  const Addr last_line = start_line + static_cast<Addr>(run_lines) - 1;
  const auto past_end =
      std::count_if(out.begin(), out.end(),
                    [&](Addr line) { return line > last_line; });
  EXPECT_GT(past_end, 0) << "run_lines=" << run_lines;
}

INSTANTIATE_TEST_SUITE_P(RunLengths, ShortStreamOverfetchTest,
                         ::testing::Values(3, 4, 6, 8, 16));

}  // namespace
}  // namespace re::sim
