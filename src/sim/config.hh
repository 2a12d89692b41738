// Machine configurations (the paper's Table II) and tunables for the
// simulated memory hierarchy and hardware prefetchers.
#pragma once

#include <cstdint>
#include <string>

#include "support/types.hh"

namespace re::sim {

/// Geometry of one cache level.
struct CacheGeometry {
  std::uint64_t size_bytes = 0;
  std::uint32_t associativity = 1;

  std::uint64_t num_lines() const { return size_bytes / kLineSize; }
  std::uint64_t num_sets() const {
    const std::uint64_t lines = num_lines();
    return associativity ? lines / associativity : lines;
  }
};

/// Hardware prefetcher tunables. The defaults model an aggressive commodity
/// stream/stride prefetcher of the 2014 era.
struct HwPrefetcherConfig {
  bool enabled = false;

  // PC-indexed stride prefetcher.
  bool pc_stride = true;
  std::uint32_t stride_table_entries = 256;  // 0 or a power of two
  std::uint32_t stride_confidence_threshold = 2;
  std::uint32_t stride_degree = 4;  // lines fetched ahead on a trained PC

  // Region-based stream detector (next-line streams within 4 kB regions).
  bool stream = true;
  std::uint32_t stream_table_entries = 64;  // 0 or a power of two
  std::uint32_t stream_train_misses = 2;  // sequential misses to trigger
  std::uint32_t stream_degree = 4;        // lines fetched ahead per trigger

  // Fetch the buddy line of every triggering miss (Intel "adjacent line" /
  // spatial prefetcher). Responsible for large overfetch on sparse misses.
  bool adjacent_line = false;

  // Throttle: when the DRAM queue delay (cycles a new request would wait
  // before the channel is free) exceeds this, the effective degree is
  // halved. Mirrors the paper's observation that real prefetchers throttle
  // under contention yet still waste bandwidth.
  Cycle throttle_queue_cycles = 48;
  std::uint32_t throttled_min_degree = 1;
};

/// Full machine description.
struct MachineConfig {
  std::string name;
  double freq_ghz = 3.0;

  CacheGeometry l1;
  CacheGeometry l2;
  CacheGeometry llc;  // shared across all cores

  // Load-to-use hit latencies (cycles).
  Cycle l1_latency = 3;
  Cycle l2_latency = 14;
  Cycle llc_latency = 40;
  Cycle dram_latency = 200;

  /// Out-of-order latency-hiding window (cycles). Miss stalls of
  /// *independent* loads are reduced by this amount (the core overlaps them
  /// with other work); serially-dependent loads (pointer chasing) pay the
  /// full latency. Models memory-level parallelism without an OoO pipeline.
  Cycle oo_overlap_cycles = 160;
  /// Floor for any observed miss stall (cycles).
  Cycle min_miss_stall = 2;
  /// Cost of an L1 hit for an independent (pipelined) load.
  Cycle pipelined_l1_cost = 1;

  /// Sustained off-chip bandwidth in bytes per core-cycle (shared channel).
  double dram_bytes_per_cycle = 4.0;

  /// Cost of executing one software prefetch instruction (the paper's α).
  Cycle prefetch_inst_cost = 1;

  HwPrefetcherConfig hw_prefetcher;

  /// Peak off-chip bandwidth in GB/s (1 GHz == 1e9 cycles/s).
  double peak_bandwidth_gbps() const {
    return dram_bytes_per_cycle * freq_ghz;
  }
};

/// Geometry scale factors applied to both machines (and matched by the
/// workload footprints), keeping the paper's Table II hierarchy shape while
/// holding simulated runs at ~10^6 references (DESIGN.md §5). The LLC — the
/// contended resource every multicore result hinges on — is scaled the
/// most; the L1 the least, so per-core hot data still fits it.
inline constexpr std::uint64_t kL1Scale = 1;
inline constexpr std::uint64_t kL2Scale = 4;
inline constexpr std::uint64_t kLlcScale = 8;

/// AMD Phenom II X4-like configuration (Table II row 1).
/// Paper: 64 kB / 512 kB / 6 MB at 2.8 GHz; stride + stream prefetcher, no
/// adjacent-line prefetch. Scaled: 64 kB / 128 kB / 768 kB.
MachineConfig amd_phenom_ii();

/// Intel i7-2600K (Sandy Bridge)-like configuration (Table II row 2).
/// Paper: 32 kB / 256 kB / 8 MB at 3.4 GHz; stream prefetcher with
/// adjacent-line ("spatial") prefetching — the source of the paper's cigar
/// pathology. Scaled: 32 kB / 64 kB / 1 MB.
MachineConfig intel_sandybridge();

/// Number of cores used in the paper's multicore experiments.
inline constexpr int kNumCores = 4;

}  // namespace re::sim
