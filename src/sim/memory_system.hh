// Multicore memory system: per-core L1 + L2, shared LLC, shared DRAM
// channel, per-core hardware prefetchers, and in-flight prefetch tracking.
//
// Prefetch semantics: a prefetched line is installed into the target cache
// level(s) immediately, with a per-core "pending ready" timestamp equal to
// its DRAM (or lower-level) arrival time. A demand access to a line whose
// prefetch is still in flight pays only the remaining latency — i.e. late
// prefetches are partially useful, giving the paper's prefetch-distance
// formula its meaning.
//
// Non-temporal (PREFETCHNTA) semantics: the line is installed into the L1
// only. When it is evicted from L1 it vanishes (clean line, no allocation in
// L2/LLC on the way out), so NT prefetches never pollute shared levels.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "sim/cache.hh"
#include "sim/config.hh"
#include "sim/dram.hh"
#include "sim/hw_prefetcher.hh"
#include "workloads/program.hh"
#include "support/types.hh"

namespace re::sim {

/// Per-core memory statistics.
struct CoreMemStats {
  std::uint64_t loads = 0;   // demand accesses (loads and stores)
  std::uint64_t stores = 0;  // subset of `loads` that were stores
  std::uint64_t l1_hits = 0;
  std::uint64_t l2_hits = 0;
  std::uint64_t llc_hits = 0;
  std::uint64_t dram_loads = 0;

  std::uint64_t sw_prefetches_issued = 0;   // prefetch instructions executed
  std::uint64_t sw_prefetches_dropped = 0;  // target already resident/pending
  std::uint64_t sw_prefetch_dram_lines = 0;
  std::uint64_t hw_prefetch_dram_lines = 0;

  std::uint64_t late_prefetch_hits = 0;  // demand hit an in-flight line
  std::uint64_t useless_sw_evictions = 0;  // SW-prefetched, never touched
  std::uint64_t useless_hw_evictions = 0;  // HW-prefetched, never touched

  std::uint64_t memory_stall_cycles = 0;

  std::uint64_t l1_misses() const { return loads - l1_hits; }
  std::uint64_t dram_lines_total() const {
    return dram_loads + sw_prefetch_dram_lines + hw_prefetch_dram_lines;
  }
  double l1_miss_ratio() const {
    return loads ? static_cast<double>(l1_misses()) / static_cast<double>(loads)
                 : 0.0;
  }
};

/// In-flight (prefetched but not yet arrived) line tracker: a direct-mapped
/// table of (line, ready-cycle). Collisions overwrite — the table is a
/// timing hint, and a dropped entry only makes one late prefetch look
/// punctual. Far cheaper than a hash map on the per-access hot path.
///
/// The table also records the latest ready cycle it holds: once `now` has
/// reached it every fill has arrived, so a probe answers 0 without touching
/// the 256 KB table (exact: no entry can be later than the watermark).
/// The table is allocated by the first insert: a run that never prefetches
/// keeps the watermark at 0 and never reads it.
class PendingLines {
 public:
  void insert(Addr line, Cycle ready) {
    if (entries_.empty()) entries_.resize(kSlots);
    Entry& e = entries_[slot(line)];
    e.line = line;
    e.ready = ready;
    latest_ready_ = std::max(latest_ready_, ready);
  }

  /// Remaining cycles until an in-flight fill of `line` completes (0 if not
  /// pending or already arrived).
  Cycle remaining(Addr line, Cycle now) const {
    if (latest_ready_ <= now) return 0;
    const Entry& e = entries_[slot(line)];
    if (e.line != line || e.ready <= now) return 0;
    return e.ready - now;
  }

  /// True if `line` has a fill still in flight at `now`.
  bool in_flight(Addr line, Cycle now) const { return remaining(line, now) != 0; }

 private:
  struct Entry {
    Addr line = ~Addr{0};
    Cycle ready = 0;
  };
  static constexpr std::size_t kSlots = 1 << 14;
  static std::size_t slot(Addr line) {
    return (line * 0x9e3779b97f4a7c15ULL) >> 50;
  }
  std::vector<Entry> entries_;  // kSlots entries once allocated
  Cycle latest_ready_ = 0;
};

class MemorySystem {
 public:
  MemorySystem(const MachineConfig& config, int num_cores);

  /// Execute a demand load; returns the stall cycles observed by the core.
  /// `serial_dependent` marks loads on a serial dependence chain (pointer
  /// chasing): they pay the full latency, while independent loads have their
  /// stall reduced by the machine's out-of-order overlap window.
  Cycle demand_load(int core, Pc pc, Addr addr, Cycle now,
                    bool serial_dependent = false, bool is_store = false);

  /// Execute a software prefetch for `addr` with the given x86 hint level
  /// (the instruction's 1-cycle issue cost is charged by the core model,
  /// not here). T0 fills L1+L2+LLC, T1 fills L2+LLC, T2 fills LLC only,
  /// NTA fills L1 only.
  void software_prefetch(int core, Addr addr, workloads::PrefetchHint hint,
                         Cycle now);

  const CoreMemStats& core_stats(int core) const { return cores_[core].stats; }
  const DramStats& dram_stats() const { return dram_.stats(); }
  const HwPrefetcherStats& hw_prefetcher_stats(int core) const {
    return cores_[core].hw_prefetcher.stats();
  }
  const MachineConfig& config() const { return config_; }
  int num_cores() const { return static_cast<int>(cores_.size()); }

  /// Direct cache handles for tests.
  SetAssocCache& l1(int core) { return cores_[core].l1; }
  SetAssocCache& l2(int core) { return cores_[core].l2; }
  SetAssocCache& llc() { return llc_; }
  DramChannel& dram() { return dram_; }

 private:
  struct CoreState {
    explicit CoreState(const MachineConfig& config)
        : l1(config.l1), l2(config.l2), hw_prefetcher(config.hw_prefetcher) {}

    SetAssocCache l1;
    SetAssocCache l2;
    HwPrefetcher hw_prefetcher;
    PendingLines pending;
    CoreMemStats stats;
  };

  enum class Level { L1, L2, Llc };

  /// Account a displaced line: useless-prefetch bookkeeping plus dirty
  /// propagation (write the line into the next level down, or retire it to
  /// DRAM as writeback bandwidth if no lower level holds it).
  void handle_eviction(CoreState& core, Level level,
                       const std::optional<Eviction>& ev, Cycle now);
  void issue_hw_prefetches(int core_idx, Cycle now);

  MachineConfig config_;
  DramChannel dram_;
  SetAssocCache llc_;
  std::vector<CoreState> cores_;
  std::vector<Addr> hw_candidates_;  // scratch, avoids per-access allocation
};

}  // namespace re::sim
