#include "sim/memory_system.hh"

#include <algorithm>

namespace re::sim {

MemorySystem::MemorySystem(const MachineConfig& config, int num_cores)
    : config_(config),
      dram_(config.dram_bytes_per_cycle, config.dram_latency),
      llc_(config.llc) {
  cores_.reserve(static_cast<std::size_t>(num_cores));
  for (int c = 0; c < num_cores; ++c) cores_.emplace_back(config);
}

void MemorySystem::handle_eviction(CoreState& core, Level level,
                                   const std::optional<Eviction>& ev,
                                   Cycle now) {
  if (!ev) return;
  if (!ev->demand_touched) {
    if (ev->origin == FillOrigin::SwPrefetch) {
      ++core.stats.useless_sw_evictions;
    } else if (ev->origin == FillOrigin::HwPrefetch) {
      ++core.stats.useless_hw_evictions;
    }
  }
  if (!ev->dirty) return;
  // Dirty line: push the data into the next level that holds the line, or
  // retire it to DRAM (asynchronously; only bandwidth is consumed).
  if (level == Level::L1 && core.l2.mark_dirty(ev->line)) return;
  if (level != Level::Llc && llc_.mark_dirty(ev->line)) return;
  dram_.writeback_line(now);
}

void MemorySystem::issue_hw_prefetches(int core_idx, Cycle now) {
  CoreState& core = cores_[static_cast<std::size_t>(core_idx)];
  for (Addr line : hw_candidates_) {
    // Dedup against anything already resident or in flight.
    if (core.l2.contains(line) || llc_.contains(line) ||
        core.pending.in_flight(line, now)) {
      continue;
    }
    const Cycle ready = dram_.fetch_line(now, TrafficClass::HwPrefetchRead);
    ++core.stats.hw_prefetch_dram_lines;
    core.pending.insert(line, ready);
    handle_eviction(core, Level::L2,
                    core.l2.fill(line, FillOrigin::HwPrefetch), now);
    handle_eviction(core, Level::Llc,
                    llc_.fill(line, FillOrigin::HwPrefetch), now);
  }
  hw_candidates_.clear();
}

Cycle MemorySystem::demand_load(int core_idx, Pc pc, Addr addr, Cycle now,
                                bool serial_dependent, bool is_store) {
  CoreState& core = cores_[static_cast<std::size_t>(core_idx)];
  const Addr line = line_of(addr);
  ++core.stats.loads;
  if (is_store) ++core.stats.stores;

  // Observed stall for a raw hierarchy latency: serial chains pay the full
  // latency; independent loads overlap all but the tail with other work.
  auto observed = [&](Cycle raw_latency) {
    if (serial_dependent) return raw_latency;
    if (raw_latency <= config_.oo_overlap_cycles) {
      return config_.min_miss_stall;
    }
    return std::max(config_.min_miss_stall,
                    raw_latency - config_.oo_overlap_cycles);
  };

  auto finish = [&](Cycle raw_latency) {
    const Cycle extra = core.pending.remaining(line, now);
    Cycle stall;
    if (extra > raw_latency) {
      ++core.stats.late_prefetch_hits;
      stall = observed(extra);
    } else {
      stall = observed(raw_latency);
    }
    core.stats.memory_stall_cycles += stall;
    return stall;
  };

  if (core.l1.access(line, /*demand=*/true, /*dirty=*/is_store)) {
    ++core.stats.l1_hits;
    const Cycle extra = core.pending.remaining(line, now);
    Cycle stall;
    if (extra > config_.l1_latency) {
      ++core.stats.late_prefetch_hits;
      stall = observed(extra);
    } else {
      stall = serial_dependent ? config_.l1_latency
                               : config_.pipelined_l1_cost;
    }
    core.stats.memory_stall_cycles += stall;
    return stall;
  }

  // L1 miss: the access reaches L2; the HW prefetcher observes it there.
  const bool l2_hit = core.l2.access(line, /*demand=*/true);
  core.hw_prefetcher.observe(pc, addr, l2_hit, dram_.queue_delay(now),
                             hw_candidates_);
  if (!hw_candidates_.empty()) issue_hw_prefetches(core_idx, now);

  auto fill_l1 = [&] {
    handle_eviction(core, Level::L1,
                    core.l1.fill(line, FillOrigin::Demand, is_store), now);
  };

  if (l2_hit) {
    ++core.stats.l2_hits;
    fill_l1();
    return finish(config_.l2_latency);
  }

  if (llc_.access(line, /*demand=*/true)) {
    ++core.stats.llc_hits;
    handle_eviction(core, Level::L2,
                    core.l2.fill(line, FillOrigin::Demand), now);
    fill_l1();
    return finish(config_.llc_latency);
  }

  ++core.stats.dram_loads;
  const Cycle ready = dram_.fetch_line(now, TrafficClass::DemandRead);
  handle_eviction(core, Level::Llc,
                  llc_.fill(line, FillOrigin::Demand), now);
  handle_eviction(core, Level::L2,
                  core.l2.fill(line, FillOrigin::Demand), now);
  fill_l1();
  return finish(ready - now);
}

void MemorySystem::software_prefetch(int core_idx, Addr addr,
                                     workloads::PrefetchHint hint,
                                     Cycle now) {
  using workloads::PrefetchHint;
  CoreState& core = cores_[static_cast<std::size_t>(core_idx)];
  const Addr line = line_of(addr);
  ++core.stats.sw_prefetches_issued;

  const bool fill_l1 =
      hint == PrefetchHint::T0 || hint == PrefetchHint::NTA;
  const bool fill_l2 =
      hint == PrefetchHint::T0 || hint == PrefetchHint::T1;
  const bool fill_llc = hint != PrefetchHint::NTA;

  // Dedup against the shallowest level this hint would fill.
  const bool already_resident =
      fill_l1 ? core.l1.contains(line)
              : (fill_l2 ? core.l2.contains(line) : llc_.contains(line));
  if (already_resident || core.pending.in_flight(line, now)) {
    ++core.stats.sw_prefetches_dropped;
    return;
  }

  // A prefetch hit refreshes recency at the level that holds the line.
  Cycle ready;
  if (core.l2.access(line, /*demand=*/false)) {
    ready = now + config_.l2_latency;
  } else if (llc_.access(line, /*demand=*/false)) {
    ready = now + config_.llc_latency;
    if (fill_l2) {
      handle_eviction(core, Level::L2,
                      core.l2.fill(line, FillOrigin::SwPrefetch), now);
    }
  } else {
    ready = dram_.fetch_line(now, TrafficClass::SwPrefetchRead);
    ++core.stats.sw_prefetch_dram_lines;
    if (fill_llc) {
      handle_eviction(core, Level::Llc,
                      llc_.fill(line, FillOrigin::SwPrefetch), now);
    }
    if (fill_l2) {
      handle_eviction(core, Level::L2,
                      core.l2.fill(line, FillOrigin::SwPrefetch), now);
    }
  }
  if (fill_l1) {
    handle_eviction(core, Level::L1,
                    core.l1.fill(line, FillOrigin::SwPrefetch), now);
  }
  core.pending.insert(line, ready);
}

}  // namespace re::sim
