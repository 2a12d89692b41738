// Differential test of core::Sampler against verify::ReferenceSampler, the
// map-based sampler it replaced. Both are driven over the trace fuzzer's
// families and over random streams with adversarial PC values, through
// observe, harvest(timeout), flush_open_watches and finish (the sampler is
// reused after finish). Every reuse and stride sample, dangling count,
// dangling_by_pc and pc_execution_counts entry must match — including the
// maps' iteration order, which downstream analyses walk. Randomized via
// RE_TEST_SEED.
#include "verify/reference_sampler.hh"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/sampler.hh"
#include "support/rng.hh"
#include "testutil.hh"
#include "verify/trace_fuzzer.hh"
#include "workloads/cursor.hh"

namespace re::verify {
namespace {

constexpr std::size_t kRefsPerFamily = 60000;

using Stream = std::vector<std::pair<Pc, Addr>>;

/// The (pc, addr) stream of one fuzzed trace, truncated to kRefsPerFamily.
Stream family_stream(TraceFamily family, std::uint64_t seed) {
  const FuzzedTrace trace = make_trace(family, seed);
  workloads::ProgramCursor cursor(trace.program);
  Stream stream;
  while (stream.size() < kRefsPerFamily) {
    const auto event = cursor.next();
    if (!event) break;
    stream.emplace_back(event->inst->pc, event->addr);
  }
  return stream;
}

/// A map's entries in iteration order.
std::vector<std::pair<Pc, std::uint64_t>> entries(
    const std::unordered_map<Pc, std::uint64_t>& map) {
  return {map.begin(), map.end()};
}

void expect_same_profile(const core::Profile& got, const core::Profile& want,
                         const std::string& where) {
  ASSERT_EQ(got.reuse_samples.size(), want.reuse_samples.size()) << where;
  for (std::size_t i = 0; i < got.reuse_samples.size(); ++i) {
    const core::ReuseSample& g = got.reuse_samples[i];
    const core::ReuseSample& w = want.reuse_samples[i];
    ASSERT_EQ(g.first_pc, w.first_pc) << where << " reuse " << i;
    ASSERT_EQ(g.second_pc, w.second_pc) << where << " reuse " << i;
    ASSERT_EQ(g.distance, w.distance) << where << " reuse " << i;
    ASSERT_EQ(g.at_ref, w.at_ref) << where << " reuse " << i;
  }
  ASSERT_EQ(got.stride_samples.size(), want.stride_samples.size()) << where;
  for (std::size_t i = 0; i < got.stride_samples.size(); ++i) {
    const core::StrideSample& g = got.stride_samples[i];
    const core::StrideSample& w = want.stride_samples[i];
    ASSERT_EQ(g.pc, w.pc) << where << " stride " << i;
    ASSERT_EQ(g.stride, w.stride) << where << " stride " << i;
    ASSERT_EQ(g.recurrence, w.recurrence) << where << " stride " << i;
    ASSERT_EQ(g.at_ref, w.at_ref) << where << " stride " << i;
  }
  EXPECT_EQ(got.dangling_reuse_samples, want.dangling_reuse_samples) << where;
  EXPECT_EQ(entries(got.dangling_by_pc), entries(want.dangling_by_pc))
      << where;
  EXPECT_EQ(entries(got.pc_execution_counts),
            entries(want.pc_execution_counts))
      << where;
  EXPECT_EQ(got.total_references, want.total_references) << where;
  EXPECT_EQ(got.sample_period, want.sample_period) << where;
}

/// Feed `stream` to both samplers, twice (the second pass reuses them
/// after finish), with harvests, watch flushes and finishes at random
/// points; every emitted profile must match.
void replay(const Stream& stream, std::uint64_t period, Rng& rng,
            const std::string& label) {
  core::SamplerConfig config;
  config.sample_period = period;
  config.seed = rng.next(std::numeric_limits<std::uint64_t>::max());
  core::Sampler sampler(config);
  ReferenceSampler reference(config);
  for (int pass = 0; pass < 2; ++pass) {
    for (std::size_t i = 0; i < stream.size(); ++i) {
      sampler.observe(stream[i].first, stream[i].second);
      reference.observe(stream[i].first, stream[i].second);
      const std::string where = label + " period " + std::to_string(period) +
                                " pass " + std::to_string(pass) + " ref " +
                                std::to_string(i);
      const std::uint64_t roll = rng.next(20000);
      if (roll < 3) {
        // A window boundary; the timeout ranges from "every watch" to
        // "none".
        const std::uint64_t timeout = rng.next(4 * period * (roll + 1));
        expect_same_profile(sampler.harvest(timeout),
                            reference.harvest(timeout), where + " harvest");
      } else if (roll < 5) {
        // A phase switch, sometimes keeping the dangling evidence.
        core::Profile got, want;
        const bool keep = roll == 3;
        sampler.flush_open_watches(keep ? &got : nullptr);
        reference.flush_open_watches(keep ? &want : nullptr);
        expect_same_profile(got, want, where + " flush");
      } else if (roll == 5) {
        expect_same_profile(sampler.finish(), reference.finish(),
                            where + " finish");
      }
      if (::testing::Test::HasFailure()) return;
    }
    expect_same_profile(sampler.finish(), reference.finish(),
                        label + " end of pass " + std::to_string(pass));
    if (::testing::Test::HasFailure()) return;
  }
}

TEST(ReferenceSampler, SamplerMatchesOnFuzzedFamilies) {
  const std::uint64_t seed = re::testing::test_seed();
  for (const TraceFamily family : all_trace_families()) {
    const Stream stream = family_stream(family, seed);
    ASSERT_FALSE(stream.empty()) << trace_family_name(family);
    // Sparse (the default) to dense sampling: at period 1 every
    // reference arms a watch.
    for (const std::uint64_t period : {1000u, 97u, 1u}) {
      Rng rng(workloads::mix64(seed ^ stream.size() ^ period));
      replay(stream, period, rng, trace_family_name(family));
      if (HasFailure()) return;
    }
  }
}

TEST(ReferenceSampler, SamplerMatchesOnAdversarialPcs) {
  // PCs at both ends of the range and many PCs that share low bits, so
  // any per-PC table collides and overflows its fast path; lines from a
  // small pool so watches close.
  const std::uint64_t seed = re::testing::test_seed();
  Rng rng(workloads::mix64(seed));
  std::vector<Pc> pcs = {0, 1, std::numeric_limits<Pc>::max(),
                         std::numeric_limits<Pc>::max() - 1};
  for (Pc k = 1; k <= 2000; ++k) pcs.push_back(k << 12);
  Stream stream(kRefsPerFamily);
  for (auto& [pc, addr] : stream) {
    pc = pcs[rng.next(rng.next(2) ? 8 : pcs.size())];
    addr = rng.next(1 << 16) * 8;
  }
  for (const std::uint64_t period : {1000u, 31u, 1u}) {
    replay(stream, period, rng, "adversarial");
    if (HasFailure()) return;
  }
}

}  // namespace
}  // namespace re::verify
