// Hardware prefetcher model (per core, observing the L2 access stream).
//
// Two cooperating engines, mirroring 2014-era commodity prefetchers:
//  * a PC-indexed stride prefetcher (AMD-style), and
//  * a region-based stream detector with configurable degree plus an
//    optional adjacent-line prefetch (Intel Sandy Bridge-style).
//
// The model is intentionally aggressive and speculative: it trains on two
// events, runs past stream ends, and fetches buddy lines on sparse misses.
// That is the behaviour the paper measures as useless off-chip traffic.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/config.hh"
#include "support/types.hh"

namespace re::sim {

struct HwPrefetcherStats {
  std::uint64_t stride_prefetches = 0;
  std::uint64_t stream_prefetches = 0;
  std::uint64_t adjacent_prefetches = 0;
  std::uint64_t throttled_events = 0;

  std::uint64_t total() const {
    return stride_prefetches + stream_prefetches + adjacent_prefetches;
  }
};

class HwPrefetcher {
 public:
  /// Throws std::invalid_argument for a stride or stream table size that
  /// is neither 0 (engine off) nor a power of two: slots are hashes masked
  /// to the table size.
  explicit HwPrefetcher(const HwPrefetcherConfig& config);

  /// Observe one demand access that reached the L2 (i.e. missed L1).
  /// `l2_hit` distinguishes training-on-miss engines. `dram_queue_delay`
  /// drives throttling. Candidate prefetch target *line* addresses are
  /// appended to `out` (dedup against caches is the caller's job).
  void observe(Pc pc, Addr addr, bool l2_hit, Cycle dram_queue_delay,
               std::vector<Addr>& out);

  const HwPrefetcherStats& stats() const { return stats_; }
  void reset();

 private:
  struct StrideEntry {
    Pc pc = 0;
    Addr last_addr = 0;
    std::int64_t stride = 0;
    std::uint32_t confidence = 0;
    bool valid = false;
  };

  struct StreamEntry {
    Addr region = 0;
    Addr last_line = 0;
    int direction = 0;  // +1 / -1
    std::uint32_t count = 0;
    bool valid = false;
  };

  std::uint32_t effective_degree(std::uint32_t configured,
                                 Cycle dram_queue_delay);

  HwPrefetcherConfig config_;
  std::vector<StrideEntry> stride_table_;
  std::vector<StreamEntry> stream_table_;
  HwPrefetcherStats stats_;
};

}  // namespace re::sim
