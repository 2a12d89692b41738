// Differential test of sim::SetAssocCache against verify::ReferenceCache, a
// per-set LRU list. Op streams replay the trace fuzzer's families as demand
// loads, stores and prefetch probes (filling on a miss), interleaved with
// random mark_dirty, invalidate, flush and far-line accesses. Every hit,
// miss and Eviction field must match at each machine's L1/L2/LLC geometry
// and at one way. Randomized via RE_TEST_SEED.
#include "verify/reference_cache.hh"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "sim/cache.hh"
#include "sim/config.hh"
#include "support/rng.hh"
#include "testutil.hh"
#include "verify/trace_fuzzer.hh"
#include "workloads/cursor.hh"

namespace re::verify {
namespace {

constexpr std::size_t kRefsPerFamily = 12000;

struct Geometry {
  std::string name;
  sim::CacheGeometry geometry;
};

std::vector<Geometry> geometries() {
  std::vector<Geometry> out;
  for (const sim::MachineConfig& m :
       {sim::amd_phenom_ii(), sim::intel_sandybridge()}) {
    out.push_back({m.name + " L1", m.l1});
    out.push_back({m.name + " L2", m.l2});
    out.push_back({m.name + " LLC", m.llc});
    out.push_back({m.name + " L1 1-way", {m.l1.size_bytes, 1}});
  }
  return out;
}

/// The line stream of one fuzzed trace, truncated to kRefsPerFamily.
std::vector<Addr> family_lines(TraceFamily family, std::uint64_t seed) {
  const FuzzedTrace trace = make_trace(family, seed);
  workloads::ProgramCursor cursor(trace.program);
  std::vector<Addr> lines;
  while (lines.size() < kRefsPerFamily) {
    const auto event = cursor.next();
    if (!event) break;
    lines.push_back(line_of(event->addr));
  }
  return lines;
}

void expect_same_eviction(const std::optional<sim::Eviction>& got,
                          const std::optional<sim::Eviction>& want,
                          const std::string& where) {
  ASSERT_EQ(got.has_value(), want.has_value()) << where;
  if (!got) return;
  EXPECT_EQ(got->line, want->line) << where;
  EXPECT_EQ(got->origin, want->origin) << where;
  EXPECT_EQ(got->demand_touched, want->demand_touched) << where;
  EXPECT_EQ(got->dirty, want->dirty) << where;
}

/// Replay `lines` through both caches with random side operations; stops
/// at the first mismatch.
void replay(const Geometry& g, const std::vector<Addr>& lines, Rng& rng,
            const std::string& label) {
  sim::SetAssocCache cache(g.geometry);
  ReferenceCache reference(g.geometry);
  const std::uint64_t capacity = g.geometry.num_lines();
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const std::string where = label + " @ " + g.name + " op " +
                              std::to_string(i);
    const Addr seen = lines[rng.next(i + 1)];  // an earlier line
    const std::uint64_t roll = rng.next(100);
    if (roll < 3) {
      ASSERT_EQ(cache.mark_dirty(seen), reference.mark_dirty(seen)) << where;
    } else if (roll < 5) {
      cache.invalidate(seen);
      reference.invalidate(seen);
    }
    if (rng.next(4000) == 0) {
      cache.flush();
      reference.flush();
    }
    ASSERT_EQ(cache.contains(seen), reference.contains(seen)) << where;

    // The reference itself, or now and then a far line that forces
    // evictions: a demand load, a store or a prefetch probe, filled on a
    // miss.
    const Addr line = roll < 10 ? rng.next(4 * capacity) : lines[i];
    const bool demand = roll >= 25;
    const bool store = demand && roll % 5 == 0;
    const bool hit = cache.access(line, demand, store);
    ASSERT_EQ(hit, reference.access(line, demand, store)) << where;
    if (hit) continue;
    const sim::FillOrigin origin =
        demand ? sim::FillOrigin::Demand
               : (roll % 2 ? sim::FillOrigin::SwPrefetch
                           : sim::FillOrigin::HwPrefetch);
    expect_same_eviction(cache.fill(line, origin, store),
                         reference.fill(line, origin, store), where);
    if (::testing::Test::HasFailure()) return;
  }
}

TEST(ReferenceCache, SetAssocCacheMatchesOnFuzzedFamilies) {
  const std::uint64_t seed = re::testing::test_seed();
  for (const TraceFamily family : all_trace_families()) {
    const std::vector<Addr> lines = family_lines(family, seed);
    ASSERT_FALSE(lines.empty()) << trace_family_name(family);
    for (const Geometry& g : geometries()) {
      Rng rng(workloads::mix64(seed ^ lines.size() ^ g.geometry.size_bytes ^
                               g.geometry.associativity));
      replay(g, lines, rng, trace_family_name(family));
      if (HasFailure()) return;
    }
  }
}

TEST(ReferenceCache, SetAssocCacheMatchesOnRandomOps) {
  const std::uint64_t seed = re::testing::test_seed();
  for (const Geometry& g : geometries()) {
    Rng rng(seed ^ g.geometry.size_bytes);
    // Lines from a pool twice the capacity: misses, hits and evictions in
    // every set.
    std::vector<Addr> lines(kRefsPerFamily);
    for (Addr& line : lines) line = rng.next(2 * g.geometry.num_lines());
    replay(g, lines, rng, "random");
    if (HasFailure()) return;
  }
}

TEST(ReferenceCache, EvictsLeastRecentlyUsedAfterInvalidate) {
  // 1 set x 2 ways: an invalidated way is refilled before any eviction.
  const sim::CacheGeometry g{2 * kLineSize, 2};
  sim::SetAssocCache cache(g);
  ReferenceCache reference(g);
  for (const Addr line : {Addr{1}, Addr{2}}) {
    EXPECT_FALSE(cache.fill(line, sim::FillOrigin::Demand).has_value());
    EXPECT_FALSE(reference.fill(line, sim::FillOrigin::Demand).has_value());
  }
  cache.invalidate(1);
  reference.invalidate(1);
  EXPECT_FALSE(cache.fill(3, sim::FillOrigin::Demand).has_value());
  EXPECT_FALSE(reference.fill(3, sim::FillOrigin::Demand).has_value());
  const auto got = cache.fill(4, sim::FillOrigin::Demand);
  const auto want = reference.fill(4, sim::FillOrigin::Demand);
  ASSERT_TRUE(got.has_value());
  ASSERT_TRUE(want.has_value());
  EXPECT_EQ(got->line, 2u);
  EXPECT_EQ(want->line, 2u);
}

}  // namespace
}  // namespace re::verify
