#include "sim/memory_system.hh"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "sim/config.hh"
#include "workloads/program.hh"

using re::workloads::PrefetchHint;

namespace re::sim {
namespace {

MachineConfig test_machine() {
  MachineConfig m = amd_phenom_ii();
  m.hw_prefetcher.enabled = false;
  return m;
}

TEST(PendingLines, TracksInFlightFills) {
  PendingLines pending;
  pending.insert(100, 500);
  EXPECT_EQ(pending.remaining(100, 400), 100u);
  EXPECT_TRUE(pending.in_flight(100, 499));
  EXPECT_FALSE(pending.in_flight(100, 500));
  EXPECT_FALSE(pending.in_flight(101, 0));
  EXPECT_EQ(pending.remaining(100, 600), 0u);
}

TEST(PendingLines, CollisionOverwrites) {
  PendingLines pending;
  pending.insert(1, 1000);
  pending.insert(1, 2000);  // same line, refreshed
  EXPECT_EQ(pending.remaining(1, 0), 2000u);
}

TEST(PendingLines, EmptyTableHasNothingInFlight) {
  const PendingLines pending;
  for (const Addr line : {Addr{0}, Addr{100}, ~Addr{0}}) {
    EXPECT_EQ(pending.remaining(line, 0), 0u);
    EXPECT_FALSE(pending.in_flight(line, 0));
  }
}

/// Drive `cores` cores through an interleaved demand-only stream (a
/// strided sweep, a random gather and stores) and return every counter.
std::vector<std::uint64_t> demand_only_stats(MachineConfig machine,
                                             bool hw_prefetch) {
  machine.hw_prefetcher.enabled = hw_prefetch;
  constexpr int kCores = 2;
  MemorySystem mem(machine, kCores);
  Cycle now = 0;
  for (std::uint64_t i = 0; i < 40000; ++i) {
    const int core = static_cast<int>(i % kCores);
    const Addr sweep = (i * 24) % (Addr{1} << 23);
    const Addr gather = (workloads::mix64(i) % (Addr{1} << 24)) & ~Addr{7};
    const bool gathers = i % 5 == 0;
    now += 1 + mem.demand_load(core, gathers ? 2 : 1, gathers ? gather : sweep,
                               now, /*serial_dependent=*/i % 7 == 0,
                               /*is_store=*/i % 3 == 0);
  }
  std::vector<std::uint64_t> out = {now};
  for (int c = 0; c < kCores; ++c) {
    const CoreMemStats& s = mem.core_stats(c);
    out.insert(out.end(),
               {s.loads, s.stores, s.l1_hits, s.l2_hits, s.llc_hits,
                s.dram_loads, s.hw_prefetch_dram_lines, s.late_prefetch_hits,
                s.useless_hw_evictions, s.memory_stall_cycles});
  }
  const DramStats& d = mem.dram_stats();
  out.insert(out.end(), {d.demand_lines, d.hw_prefetch_lines,
                         d.writeback_lines});
  return out;
}

TEST(MemorySystem, DemandOnlyRunsReportPinnedStats) {
  // A run without the HW prefetcher never inserts into its pending-line
  // table; with it, the first HW prefetch does. Both report the counters
  // the simulator gave when every table was allocated up front.
  const std::vector<std::uint64_t> amd = {
      1492036, 20000, 6667, 3026, 20,    4185, 12769, 0, 0,    0,
      803818,  20000, 6667, 3024, 21,    7162, 9793,  0, 0,    0,
      648218,  22562, 0,    6003};
  const std::vector<std::uint64_t> amd_hw = {
      1105929, 20000, 6667, 3026, 6316,  6793, 3865,  9790, 237, 5120,
      533823,  20000, 6667, 3024, 6235,  6886, 3855,  9791, 400, 5221,
      532106,  7720,  19581, 7046};
  const std::vector<std::uint64_t> intel = {
      1320117, 20000, 6667, 3012, 11,    4248, 12729, 0, 0,    0,
      708405,  20000, 6667, 3013, 6,     7218, 9763,  0, 0,    0,
      571712,  22492, 0,    3574};
  const std::vector<std::uint64_t> intel_hw = {
      864574,  20000, 6667, 3012, 6392,  6769, 3827,  9824,  98, 4928,
      429304,  20000, 6667, 3013, 6235,  6919, 3833,  11071, 84, 6485,
      395270,  7660,  20895, 5499};
  EXPECT_EQ(demand_only_stats(amd_phenom_ii(), false), amd);
  EXPECT_EQ(demand_only_stats(amd_phenom_ii(), true), amd_hw);
  EXPECT_EQ(demand_only_stats(intel_sandybridge(), false), intel);
  EXPECT_EQ(demand_only_stats(intel_sandybridge(), true), intel_hw);
}

TEST(MemorySystem, ColdMissGoesToDram) {
  MemorySystem mem(test_machine(), 1);
  mem.demand_load(0, 1, 0x10000, 0);
  EXPECT_EQ(mem.core_stats(0).dram_loads, 1u);
  EXPECT_EQ(mem.dram_stats().demand_lines, 1u);
}

TEST(MemorySystem, SecondAccessHitsL1) {
  MemorySystem mem(test_machine(), 1);
  mem.demand_load(0, 1, 0x10000, 0);
  const Cycle stall = mem.demand_load(0, 1, 0x10000, 1000);
  EXPECT_EQ(mem.core_stats(0).l1_hits, 1u);
  EXPECT_EQ(stall, test_machine().pipelined_l1_cost);
}

TEST(MemorySystem, SerialLoadsPayFullLatency) {
  MachineConfig m = test_machine();
  MemorySystem mem(m, 1);
  const Cycle serial = mem.demand_load(0, 1, 0x10000, 0, true);
  EXPECT_EQ(serial, m.dram_latency);

  MemorySystem mem2(m, 1);
  const Cycle overlapped = mem2.demand_load(0, 1, 0x10000, 0, false);
  EXPECT_EQ(overlapped, m.dram_latency - m.oo_overlap_cycles);
}

TEST(MemorySystem, L1HitForSerialLoadCostsL1Latency) {
  MachineConfig m = test_machine();
  MemorySystem mem(m, 1);
  mem.demand_load(0, 1, 0x10000, 0);
  EXPECT_EQ(mem.demand_load(0, 1, 0x10000, 1000, true), m.l1_latency);
}

TEST(MemorySystem, SoftwarePrefetchHidesDramLatency) {
  MachineConfig m = test_machine();
  MemorySystem mem(m, 1);
  mem.software_prefetch(0, 0x20000, PrefetchHint::T0, 0);
  EXPECT_EQ(mem.core_stats(0).sw_prefetch_dram_lines, 1u);
  // Demand long after arrival: plain L1 hit.
  const Cycle stall = mem.demand_load(0, 1, 0x20000, 10000);
  EXPECT_EQ(stall, m.pipelined_l1_cost);
  EXPECT_EQ(mem.core_stats(0).dram_loads, 0u);
}

TEST(MemorySystem, LatePrefetchChargesRemainingLatency) {
  MachineConfig m = test_machine();
  MemorySystem mem(m, 1);
  mem.software_prefetch(0, 0x20000, PrefetchHint::T0, 0);  // ready at ~dram_latency
  // Demand arrives 50 cycles in: remaining ~latency-50, charged as a
  // serial-dependent load would observe it.
  const Cycle stall = mem.demand_load(0, 1, 0x20000, 50, true);
  EXPECT_EQ(stall, m.dram_latency - 50);
  EXPECT_EQ(mem.core_stats(0).late_prefetch_hits, 1u);
}

TEST(MemorySystem, DuplicatePrefetchesAreDropped) {
  MemorySystem mem(test_machine(), 1);
  mem.software_prefetch(0, 0x20000, PrefetchHint::T0, 0);
  mem.software_prefetch(0, 0x20010, PrefetchHint::T0, 1);  // same line
  EXPECT_EQ(mem.core_stats(0).sw_prefetches_issued, 2u);
  EXPECT_EQ(mem.core_stats(0).sw_prefetches_dropped, 1u);
  EXPECT_EQ(mem.core_stats(0).sw_prefetch_dram_lines, 1u);
}

TEST(MemorySystem, NormalPrefetchFillsSharedLevels) {
  MemorySystem mem(test_machine(), 1);
  mem.software_prefetch(0, 0x20000, PrefetchHint::T0, 0);
  EXPECT_TRUE(mem.l1(0).contains(line_of(0x20000)));
  EXPECT_TRUE(mem.l2(0).contains(line_of(0x20000)));
  EXPECT_TRUE(mem.llc().contains(line_of(0x20000)));
}

TEST(MemorySystem, NonTemporalPrefetchBypassesSharedLevels) {
  MemorySystem mem(test_machine(), 1);
  mem.software_prefetch(0, 0x20000, PrefetchHint::NTA, 0);
  EXPECT_TRUE(mem.l1(0).contains(line_of(0x20000)));
  EXPECT_FALSE(mem.l2(0).contains(line_of(0x20000)));
  EXPECT_FALSE(mem.llc().contains(line_of(0x20000)));
}

TEST(MemorySystem, T1HintFillsL2AndLlcButNotL1) {
  MemorySystem mem(test_machine(), 1);
  mem.software_prefetch(0, 0x20000, PrefetchHint::T1, 0);
  EXPECT_FALSE(mem.l1(0).contains(line_of(0x20000)));
  EXPECT_TRUE(mem.l2(0).contains(line_of(0x20000)));
  EXPECT_TRUE(mem.llc().contains(line_of(0x20000)));
}

TEST(MemorySystem, T2HintFillsLlcOnly) {
  MemorySystem mem(test_machine(), 1);
  mem.software_prefetch(0, 0x20000, PrefetchHint::T2, 0);
  EXPECT_FALSE(mem.l1(0).contains(line_of(0x20000)));
  EXPECT_FALSE(mem.l2(0).contains(line_of(0x20000)));
  EXPECT_TRUE(mem.llc().contains(line_of(0x20000)));
}

TEST(MemorySystem, T1DedupsAgainstL2NotL1) {
  MemorySystem mem(test_machine(), 1);
  mem.software_prefetch(0, 0x20000, PrefetchHint::T1, 0);
  // A second T1 prefetch of the same line is dropped (L2-resident) even
  // though the L1 never saw it.
  mem.software_prefetch(0, 0x20000, PrefetchHint::T1, 100000);
  EXPECT_EQ(mem.core_stats(0).sw_prefetches_dropped, 1u);
  EXPECT_EQ(mem.core_stats(0).sw_prefetch_dram_lines, 1u);
}

TEST(MemorySystem, NtLineVanishesAfterL1Eviction) {
  MachineConfig m = test_machine();
  MemorySystem mem(m, 1);
  const Addr target = 0x20000;
  mem.software_prefetch(0, target, PrefetchHint::NTA, 0);
  // Flush it out of L1 by filling conflicting lines (same set, many ways).
  const std::uint64_t sets = m.l1.num_sets();
  for (std::uint64_t i = 1; i <= m.l1.associativity + 1; ++i) {
    mem.demand_load(0, 2, target + i * sets * kLineSize, 10000 + i * 1000);
  }
  EXPECT_FALSE(mem.l1(0).contains(line_of(target)));
  // The line is nowhere: re-access goes to DRAM.
  const std::uint64_t dram_before = mem.core_stats(0).dram_loads;
  mem.demand_load(0, 1, target, 100000);
  EXPECT_EQ(mem.core_stats(0).dram_loads, dram_before + 1);
}

TEST(MemorySystem, PrefetchFromLlcDoesNotTouchDram) {
  MemorySystem mem(test_machine(), 1);
  // Bring the line into LLC via demand, then evict from L1+L2 is not
  // needed: prefetch probe sees L2 copy. Use a second core's fill to place
  // it only in LLC.
  MemorySystem mem2(test_machine(), 2);
  mem2.demand_load(1, 1, 0x30000, 0);  // core 1 fills LLC (and its L1/L2)
  const std::uint64_t dram_before = mem2.dram_stats().total_lines();
  mem2.software_prefetch(0, 0x30000, PrefetchHint::T0, 1000);  // core 0: LLC hit
  EXPECT_EQ(mem2.dram_stats().total_lines(), dram_before);
}

TEST(MemorySystem, UselessPrefetchEvictionsAreCounted) {
  MachineConfig m = test_machine();
  // Tiny LLC pressure test: use NT fills into L1 and flood.
  MemorySystem mem(m, 1);
  const std::uint64_t sets = m.l1.num_sets();
  // NT-prefetch three lines mapping to set 0, never touch them, then force
  // their eviction with demand fills in the same set.
  for (int i = 0; i < 3; ++i) {
    mem.software_prefetch(0, static_cast<Addr>(i) * sets * kLineSize,
                          PrefetchHint::NTA, static_cast<Cycle>(i));
  }
  for (int i = 3; i < 8; ++i) {
    mem.demand_load(0, 2, static_cast<Addr>(i) * sets * kLineSize,
                    1000 + static_cast<Cycle>(i) * 500);
  }
  EXPECT_GT(mem.core_stats(0).useless_sw_evictions, 0u);
}

TEST(MemorySystem, SharedLlcIsVisibleAcrossCores) {
  MemorySystem mem(test_machine(), 2);
  mem.demand_load(0, 1, 0x40000, 0);
  // Core 1 misses its private L1/L2 but hits the shared LLC.
  mem.demand_load(1, 1, 0x40000, 1000);
  EXPECT_EQ(mem.core_stats(1).llc_hits, 1u);
  EXPECT_EQ(mem.core_stats(1).dram_loads, 0u);
}

TEST(MemorySystem, HwPrefetcherGeneratesTraffic) {
  MachineConfig m = test_machine();
  m.hw_prefetcher.enabled = true;
  MemorySystem mem(m, 1);
  // Stream of L2 misses trains the stream engine.
  for (int i = 0; i < 32; ++i) {
    mem.demand_load(0, 1, 0x100000 + static_cast<Addr>(i) * kLineSize,
                    static_cast<Cycle>(i) * 400);
  }
  EXPECT_GT(mem.core_stats(0).hw_prefetch_dram_lines, 0u);
  EXPECT_GT(mem.dram_stats().hw_prefetch_lines, 0u);
  // Later stream accesses should be covered (L2 hits or better).
  EXPECT_GT(mem.core_stats(0).l2_hits, 0u);
}

TEST(MemorySystem, StatsMissRatioHelpers) {
  CoreMemStats stats;
  stats.loads = 100;
  stats.l1_hits = 80;
  EXPECT_EQ(stats.l1_misses(), 20u);
  EXPECT_DOUBLE_EQ(stats.l1_miss_ratio(), 0.2);
  EXPECT_DOUBLE_EQ(CoreMemStats{}.l1_miss_ratio(), 0.0);
}

}  // namespace
}  // namespace re::sim
