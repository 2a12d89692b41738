// Set-associative cache with true-LRU replacement and prefetch/NT-aware
// fill control.
//
// Tracks, per line, whether it was installed by a prefetch and whether it has
// been touched by a demand access since — the basis of the useless-prefetch
// accounting behind the paper's off-chip traffic results.
//
// Layout: each set is a run of `ways` 8-byte tags and parallel runs of
// one-byte recency ranks and flag bytes; sets of kPartialTagMinWays or more
// ways add a run of one-byte partial tags: 10 bytes per way, or 11. A miss
// reads the ranks and partial tags, not a 64-bit word per way.
//  - An invalid way holds the sentinel tag ~0 (never a line number: lines
//    are addresses shifted right by 6) and partial tag 0.
//  - The ranks of a set are a permutation of 0..ways-1, 0 the most recently
//    used. Invalid ways hold the bottom ranks, the lowest-numbered invalid
//    way the very last, so the victim — the way ranked ways-1 — is the
//    first invalid way, else the least recently used one. A hit or fill
//    ranks the way 0 and ages every more recent way by one; with SSE2 that
//    is a few byte-wise compares, a subtract and one store per 16 ways.
//  - A partial tag is the low byte of the tag above the set index, with 0
//    reserved for invalid (a byte of 0 is stored as 1). A wide probe
//    compares up to 16 partial tags per instruction and reads a full tag
//    only where the byte matched.
// Narrow sets compare every full tag into a 64-bit hit mask without
// branching and take the first match. Probes gather their compares into a
// 64-bit mask, hence the associativity bound.
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
  /// Sets at least this wide are probed through one-byte partial tags.
  static constexpr std::uint32_t kPartialTagMinWays = 8;

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
    promote(base, way);
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

  /// Partial tag of `line`: the low tag byte, never 0.
  std::uint8_t partial_tag(Addr line) const {
    const auto byte = static_cast<std::uint8_t>(line >> set_shift_);
    return static_cast<std::uint8_t>(byte + (byte == 0));
  }

#if defined(__SSE2__)
  /// `byte` in all 16 lanes: one multiply, one move and one shuffle, where
  /// _mm_set1_epi8 takes three shuffles on SSE2.
  static __m128i broadcast(std::uint8_t byte) {
    return _mm_shuffle_epi32(
        _mm_cvtsi32_si128(static_cast<int>(byte * 0x01010101u)), 0);
  }
#endif

  /// Bit w set where bytes[w] == key, for w < ways. With SSE2, 16 bytes
  /// are compared per instruction (a width that is not a multiple of 16
  /// re-reads an overlapping last block) and 8 take one 8-byte compare.
  static std::uint64_t match_bytes(const std::uint8_t* bytes,
                                   std::uint32_t ways, std::uint8_t key) {
    std::uint64_t hits = 0;
#if defined(__SSE2__)
    const __m128i k = broadcast(key);
    const auto block = [&](__m128i v) {
      return static_cast<std::uint64_t>(
          _mm_movemask_epi8(_mm_cmpeq_epi8(v, k)));
    };
    if (ways >= 16) {
      std::uint32_t w = 0;
      for (; w + 16 <= ways; w += 16) {
        hits |= block(_mm_loadu_si128(
                    reinterpret_cast<const __m128i*>(bytes + w)))
                << w;
      }
      if (w < ways) {
        hits |= block(_mm_loadu_si128(
                    reinterpret_cast<const __m128i*>(bytes + ways - 16)))
                << (ways - 16);
      }
      return hits;
    }
    if (ways == 8) {
      return block(_mm_loadl_epi64(reinterpret_cast<const __m128i*>(bytes))) &
             0xFF;
    }
#endif
    for (std::uint32_t w = 0; w < ways; ++w) {
      hits |= static_cast<std::uint64_t>(bytes[w] == key) << w;
    }
    return hits;
  }

  /// Rank `way` most recently used among `ways` ranks: every way more
  /// recent than it ages by one rank. Of two ways, way 0's rank is the
  /// index of the other, so both ranks are stored without reading them.
  /// With SSE2, widths that are a multiple of 8 update 16 (or a last 8)
  /// ranks per compare and store.
  static void promote_in(std::uint8_t* ranks, std::uint32_t ways,
                         std::uint32_t way) {
    if (ways == 2) {
      ranks[0] = static_cast<std::uint8_t>(way);
      ranks[1] = static_cast<std::uint8_t>(way ^ 1);
      return;
    }
    const std::uint8_t rank = ranks[way];
#if defined(__SSE2__)
    if (ways % 8 == 0) {
      // Ranks stay below 64, so the signed byte compare is exact; the one
      // rank equal to `rank` is the way's own and becomes 0.
      const __m128i key = broadcast(rank);
      const auto update = [&](__m128i v) {
        return _mm_andnot_si128(_mm_cmpeq_epi8(v, key),
                                _mm_sub_epi8(v, _mm_cmplt_epi8(v, key)));
      };
      std::uint32_t w = 0;
      for (; w + 16 <= ways; w += 16) {
        auto* p = reinterpret_cast<__m128i*>(ranks + w);
        _mm_storeu_si128(p, update(_mm_loadu_si128(p)));
      }
      if (w < ways) {
        auto* p = reinterpret_cast<__m128i*>(ranks + w);
        _mm_storel_epi64(p, update(_mm_loadl_epi64(p)));
      }
      return;
    }
#endif
    for (std::uint32_t w = 0; w < ways; ++w) {
      ranks[w] = static_cast<std::uint8_t>(ranks[w] + (ranks[w] < rank));
    }
    ranks[way] = 0;
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

  /// Way of the first valid tag equal to `line` among `ways` ways at
  /// `base`, or kMaxAssociativity on a miss: partial tags are matched
  /// first and each candidate's full tag confirms it. An invalid way's
  /// partial tag 0 never matches.
  std::uint32_t find_partial(std::size_t base, std::uint32_t ways,
                             Addr line) const {
    std::uint64_t candidates =
        match_bytes(&partial_tags_[base], ways, partial_tag(line));
    for (; candidates != 0; candidates &= candidates - 1) {
      const auto way =
          static_cast<std::uint32_t>(std::countr_zero(candidates));
      if (tags_[base + way] == line) return way;
    }
    return kMaxAssociativity;
  }

  /// Way holding `line` in the set at `base`, or >= ways_ on a miss. The
  /// machines' associativities get a compile-time width the compiler
  /// unrolls.
  std::uint32_t find(std::size_t base, Addr line) const {
    const Addr* tags = &tags_[base];
    switch (ways_) {
      case 2: return find_in(tags, 2, line);
      case 8: return find_partial(base, 8, line);
      case 16: return find_partial(base, 16, line);
      case 24: return find_partial(base, 24, line);
      default:
        return ways_ >= kPartialTagMinWays ? find_partial(base, ways_, line)
                                           : find_in(tags, ways_, line);
    }
  }

  /// Rank `way` of the set at `base` most recently used, at find()'s
  /// compile-time widths.
  void promote(std::size_t base, std::uint32_t way) {
    std::uint8_t* ranks = &ranks_[base];
    switch (ways_) {
      case 2: return promote_in(ranks, 2, way);
      case 8: return promote_in(ranks, 8, way);
      case 16: return promote_in(ranks, 16, way);
      case 24: return promote_in(ranks, 24, way);
      default: return promote_in(ranks, ways_, way);
    }
  }

  /// fill() for sets of W ways, or of ways_ ways if W is 0.
  template <std::uint32_t W>
  std::optional<Eviction> fill_in(Addr line, FillOrigin origin, bool dirty);

  /// Rank every set's ways as an empty set's: way w at ways-1-w.
  void reset_ranks();

  std::uint64_t sets_;
  std::uint32_t ways_;
  int set_shift_;  // log2(sets_): the tag's offset in a line number
  // sets_ * ways_ entries each, row-major by set; partial tags only for
  // sets of kPartialTagMinWays or more ways.
  std::vector<Addr> tags_;
  std::vector<std::uint8_t> ranks_;
  std::vector<std::uint8_t> flags_;
  std::vector<std::uint8_t> partial_tags_;
};

}  // namespace re::sim
