#include "sim/hw_prefetcher.hh"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "workloads/program.hh"  // mix64

namespace re::sim {

namespace {
constexpr Addr kRegionShift = 12;  // 4 kB stream-training regions

/// Slot of `key` in a power-of-two table of `table_size` entries.
std::size_t slot_for(std::uint64_t key, std::size_t table_size) {
  return workloads::mix64(key) & (table_size - 1);
}

std::uint32_t checked_table_size(std::uint32_t entries, const char* table) {
  if ((entries & (entries - 1)) != 0) {
    throw std::invalid_argument(std::string("hardware prefetcher ") + table +
                                " table size must be 0 or a power of two");
  }
  return entries;
}
}  // namespace

HwPrefetcher::HwPrefetcher(const HwPrefetcherConfig& config)
    : config_(config),
      stride_table_(checked_table_size(config.stride_table_entries, "stride")),
      stream_table_(
          checked_table_size(config.stream_table_entries, "stream")) {}

std::uint32_t HwPrefetcher::effective_degree(std::uint32_t configured,
                                             Cycle dram_queue_delay) {
  if (dram_queue_delay > config_.throttle_queue_cycles) {
    ++stats_.throttled_events;
    return std::max(config_.throttled_min_degree, configured / 2);
  }
  return configured;
}

void HwPrefetcher::observe(Pc pc, Addr addr, bool l2_hit,
                           Cycle dram_queue_delay, std::vector<Addr>& out) {
  if (!config_.enabled) return;
  const Addr line = line_of(addr);

  if (config_.pc_stride && !stride_table_.empty()) {
    StrideEntry& entry = stride_table_[slot_for(pc, stride_table_.size())];
    if (entry.valid && entry.pc == pc) {
      const std::int64_t delta = static_cast<std::int64_t>(addr) -
                                 static_cast<std::int64_t>(entry.last_addr);
      if (delta != 0 && delta == entry.stride) {
        if (entry.confidence < 16) ++entry.confidence;
      } else if (entry.confidence > 0) {
        --entry.confidence;
      } else {
        // Adopt the new stride; this observation is its first confirmation.
        entry.stride = delta;
        entry.confidence = 1;
      }
      entry.last_addr = addr;
      if (delta != 0 && entry.stride != 0 &&
          entry.confidence >= config_.stride_confidence_threshold) {
        const std::uint32_t degree =
            effective_degree(config_.stride_degree, dram_queue_delay);
        Addr prev_line = line;
        for (std::uint32_t k = 1; k <= degree; ++k) {
          const Addr target = static_cast<Addr>(
              static_cast<std::int64_t>(addr) + entry.stride *
              static_cast<std::int64_t>(k));
          const Addr target_line = line_of(target);
          if (target_line != prev_line) {
            out.push_back(target_line);
            ++stats_.stride_prefetches;
            prev_line = target_line;
          }
        }
      }
    } else {
      entry = StrideEntry{pc, addr, 0, 0, true};
    }
  }

  // Stream and adjacent-line engines train on L2 misses only.
  if (l2_hit) return;

  if (config_.stream && !stream_table_.empty()) {
    const Addr region = line >> (kRegionShift - kLineShift);
    StreamEntry& entry = stream_table_[slot_for(region, stream_table_.size())];
    if (entry.valid && entry.region == region) {
      const std::int64_t delta = static_cast<std::int64_t>(line) -
                                 static_cast<std::int64_t>(entry.last_line);
      if (delta == 1 || delta == -1) {
        const int dir = delta > 0 ? 1 : -1;
        if (entry.direction == dir) {
          ++entry.count;
        } else {
          entry.direction = dir;
          entry.count = 1;
        }
        if (entry.count >= config_.stream_train_misses) {
          const std::uint32_t degree =
              effective_degree(config_.stream_degree, dram_queue_delay);
          for (std::uint32_t k = 1; k <= degree; ++k) {
            const std::int64_t target =
                static_cast<std::int64_t>(line) +
                dir * static_cast<std::int64_t>(k);
            if (target >= 0) {
              out.push_back(static_cast<Addr>(target));
              ++stats_.stream_prefetches;
            }
          }
        }
      } else if (delta != 0) {
        entry.count = 0;
        entry.direction = 0;
      }
      entry.last_line = line;
    } else {
      entry = StreamEntry{region, line, 0, 0, true};
    }
  }

  // Adjacent-line prefetch backs off entirely under channel contention.
  if (config_.adjacent_line &&
      dram_queue_delay <= config_.throttle_queue_cycles) {
    out.push_back(line ^ 1);
    ++stats_.adjacent_prefetches;
  }
}

void HwPrefetcher::reset() {
  std::fill(stride_table_.begin(), stride_table_.end(), StrideEntry{});
  std::fill(stream_table_.begin(), stream_table_.end(), StreamEntry{});
  stats_ = HwPrefetcherStats{};
}

}  // namespace re::sim
