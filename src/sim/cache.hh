// Set-associative cache with true-LRU replacement and prefetch/NT-aware
// fill control.
//
// Tracks, per line, whether it was installed by a prefetch and whether it has
// been touched by a demand access since — the basis of the useless-prefetch
// accounting behind the paper's off-chip traffic results.
//
// Layout: each set is a run of `ways` tags, a parallel run of ages (the
// tick of the way's last use) and a parallel run of flag bytes. An invalid
// way holds the sentinel tag ~0 (never a line number: lines are addresses
// shifted right by 6) and age 0, below every valid age. A probe compares
// every way of the set without branching and takes the first match; the
// LRU victim is the first way of minimum age, so "first invalid way, else
// the least recently used" falls out of one branch-free scan. A probe
// gathers its compares into a 64-bit hit mask, hence the associativity
// bound.
#pragma once

#include <bit>
#include <cstdint>
#include <optional>
#include <vector>

#include "sim/config.hh"
#include "support/types.hh"

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

namespace re::sim {

/// How a line came to be resident (for pollution/useless-fill accounting).
enum class FillOrigin : std::uint8_t {
  Demand,       // brought in by a demand load
  SwPrefetch,   // software prefetch (normal or NT)
  HwPrefetch,   // hardware prefetcher
};

/// Result of evicting a line.
struct Eviction {
  Addr line = 0;
  FillOrigin origin = FillOrigin::Demand;
  bool demand_touched = false;  // ever hit by a demand access while resident
  bool dirty = false;           // written while resident (needs writeback)
};

class SetAssocCache {
 public:
  /// Widest set the probe's 64-bit hit mask covers; also the way number a
  /// probe returns on a miss.
  static constexpr std::uint32_t kMaxAssociativity = 64;

  /// Throws std::invalid_argument for an empty geometry, a set count that
  /// is not a power of two, or more than kMaxAssociativity ways.
  explicit SetAssocCache(const CacheGeometry& geometry);

  /// Demand or prefetch probe. A hit refreshes recency; a demand hit also
  /// marks the line as touched, and a `dirty` hit (a store) marks it
  /// dirty. Returns true on hit.
  bool access(Addr line, bool demand, bool dirty = false) {
    const std::size_t base = set_base(line);
    const std::uint32_t way = find(base, line);
    if (way >= ways_) return false;
    ages_[base + way] = ++tick_;
    flags_[base + way] |= static_cast<std::uint8_t>(
        (demand ? kTouched : 0) | (dirty ? kDirty : 0));
    return true;
  }

  /// Mark a resident line dirty (store hit or dirty writeback from an
  /// upper level); no-op if absent. Returns true if the line was found.
  bool mark_dirty(Addr line);

  /// Probe without changing any state.
  bool contains(Addr line) const {
    return find(set_base(line), line) < ways_;
  }

  /// Insert a line (caller established it missed), dirty if `dirty` (a
  /// store miss). Returns the eviction, if a valid line was displaced.
  std::optional<Eviction> fill(Addr line, FillOrigin origin,
                               bool dirty = false);

  /// Remove a specific line if present.
  void invalidate(Addr line);

  /// Remove everything.
  void flush();

  std::uint64_t num_sets() const { return sets_; }
  std::uint32_t associativity() const { return ways_; }
  std::uint64_t size_bytes() const { return sets_ * ways_ * kLineSize; }

  /// Resident lines installed by prefetch and never demand-touched (cheap
  /// pollution snapshot used by tests).
  std::uint64_t untouched_prefetch_lines() const;

 private:
  static constexpr Addr kInvalidTag = ~Addr{0};
  // Flag byte: the FillOrigin in the low two bits, then these.
  static constexpr std::uint8_t kOriginMask = 0x3;
  static constexpr std::uint8_t kTouched = 1 << 2;
  static constexpr std::uint8_t kDirty = 1 << 3;

  /// Index of the first way of `line`'s set in the per-way arrays.
  std::size_t set_base(Addr line) const {
    return static_cast<std::size_t>(line & (sets_ - 1)) * ways_;
  }

  /// Way of the first tag equal to `line` among `ways` tags, or
  /// kMaxAssociativity on a miss: every way is compared into a 64-bit hit
  /// mask without branching, and the lowest set bit is the first match.
  /// With SSE2, an even number of ways is compared two per instruction.
  static std::uint32_t find_in(const Addr* tags, std::uint32_t ways,
                               Addr line) {
    std::uint64_t hits = 0;
#if defined(__SSE2__)
    if (ways % 2 == 0) {
      const __m128i key = _mm_set1_epi64x(static_cast<long long>(line));
      for (std::uint32_t w = 0; w < ways; w += 2) {
        // 64-bit equality from SSE2's 32-bit compare: both halves equal.
        __m128i eq = _mm_cmpeq_epi32(
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(tags + w)),
            key);
        eq = _mm_and_si128(eq, _mm_shuffle_epi32(eq, _MM_SHUFFLE(2, 3, 0, 1)));
        hits |= static_cast<std::uint64_t>(
                    _mm_movemask_pd(_mm_castsi128_pd(eq)))
                << w;
      }
      return static_cast<std::uint32_t>(std::countr_zero(hits));
    }
#endif
    for (std::uint32_t w = 0; w < ways; ++w) {
      hits |= static_cast<std::uint64_t>(tags[w] == line) << w;
    }
    return static_cast<std::uint32_t>(std::countr_zero(hits));
  }

  /// Way holding `line` in the set at `base`, or >= ways_ on a miss. The
  /// machines' associativities get a compile-time width the compiler
  /// unrolls.
  std::uint32_t find(std::size_t base, Addr line) const {
    const Addr* tags = &tags_[base];
    switch (ways_) {
      case 2: return find_in(tags, 2, line);
      case 8: return find_in(tags, 8, line);
      case 16: return find_in(tags, 16, line);
      case 24: return find_in(tags, 24, line);
      default: return find_in(tags, ways_, line);
    }
  }

  /// The first way of minimum age in the set at `base`.
  std::uint32_t victim(std::size_t base) const;

  std::uint64_t sets_;
  std::uint32_t ways_;
  std::uint64_t tick_ = 0;
  // sets_ * ways_ entries each, row-major by set.
  std::vector<Addr> tags_;
  std::vector<std::uint64_t> ages_;
  std::vector<std::uint8_t> flags_;
};

}  // namespace re::sim
