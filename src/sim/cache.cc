#include "sim/cache.hh"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace re::sim {

namespace {
bool is_pow2(std::uint64_t x) { return x != 0 && (x & (x - 1)) == 0; }
}  // namespace

SetAssocCache::SetAssocCache(const CacheGeometry& geometry)
    : sets_(geometry.num_sets()), ways_(geometry.associativity) {
  if (sets_ == 0 || ways_ == 0) {
    throw std::invalid_argument("cache geometry must be non-empty");
  }
  if (!is_pow2(sets_)) {
    throw std::invalid_argument(
        "cache set count must be a power of two (adjust associativity)");
  }
  if (ways_ > kMaxAssociativity) {
    throw std::invalid_argument("cache associativity must be at most 64");
  }
  set_shift_ = std::countr_zero(sets_);
  tags_.assign(sets_ * ways_, kInvalidTag);
  ranks_.resize(sets_ * ways_);
  reset_ranks();
  flags_.assign(sets_ * ways_, 0);
  if (ways_ >= kPartialTagMinWays) partial_tags_.assign(sets_ * ways_, 0);
}

void SetAssocCache::reset_ranks() {
  for (std::size_t base = 0; base < ranks_.size(); base += ways_) {
    for (std::uint32_t w = 0; w < ways_; ++w) {
      ranks_[base + w] = static_cast<std::uint8_t>(ways_ - 1 - w);
    }
  }
}

template <std::uint32_t W>
std::optional<Eviction> SetAssocCache::fill_in(Addr line, FillOrigin origin,
                                               bool dirty) {
  const std::uint32_t ways = W != 0 ? W : ways_;
  // Contract: the caller has established that `line` is not resident (all
  // call sites probe with access()/contains() first). A duplicate fill
  // would corrupt the set, so this is asserted in debug builds.
  const std::size_t base = static_cast<std::size_t>(line & (sets_ - 1)) * ways;
  assert(line != kInvalidTag && "line collides with the invalid-way tag");
  assert(find(base, line) >= ways && "duplicate cache fill");
  // The victim is the way ranked last: of two ways, the one not ranked 0.
  const std::uint8_t* ranks = &ranks_[base];
  const auto way =
      ways == 2 ? std::uint32_t{ranks[0] == 0}
                : static_cast<std::uint32_t>(std::countr_zero(match_bytes(
                      ranks, ways, static_cast<std::uint8_t>(ways - 1))));
  assert(way < ways && "set ranks are not a permutation");
  promote_in(&ranks_[base], ways, way);

  const std::size_t slot = base + way;
  std::optional<Eviction> evicted;
  if (tags_[slot] != kInvalidTag) {
    const std::uint8_t flags = flags_[slot];
    evicted = Eviction{tags_[slot],
                       static_cast<FillOrigin>(flags & kOriginMask),
                       (flags & kTouched) != 0, (flags & kDirty) != 0};
  }
  tags_[slot] = line;
  if (ways >= kPartialTagMinWays) partial_tags_[slot] = partial_tag(line);
  flags_[slot] = static_cast<std::uint8_t>(static_cast<std::uint8_t>(origin) |
                                           (dirty ? kDirty : 0));
  return evicted;
}

std::optional<Eviction> SetAssocCache::fill(Addr line, FillOrigin origin,
                                            bool dirty) {
  // The machines' associativities get a compile-time width.
  switch (ways_) {
    case 2: return fill_in<2>(line, origin, dirty);
    case 8: return fill_in<8>(line, origin, dirty);
    case 16: return fill_in<16>(line, origin, dirty);
    case 24: return fill_in<24>(line, origin, dirty);
    default: return fill_in<0>(line, origin, dirty);
  }
}

bool SetAssocCache::mark_dirty(Addr line) {
  const std::size_t base = set_base(line);
  const std::uint32_t way = find(base, line);
  if (way >= ways_) return false;
  flags_[base + way] |= kDirty;
  return true;
}

void SetAssocCache::invalidate(Addr line) {
  const std::size_t base = set_base(line);
  const std::uint32_t way = find(base, line);
  if (way >= ways_) return;
  tags_[base + way] = kInvalidTag;
  if (!partial_tags_.empty()) partial_tags_[base + way] = 0;
  // The way leaves the recency order: the valid ways ranked below it move
  // up one, then the invalid ways take the bottom ranks, lowest way last.
  std::uint8_t* ranks = &ranks_[base];
  const std::uint8_t rank = ranks[way];
  auto bottom = static_cast<std::uint8_t>(ways_);
  for (std::uint32_t w = 0; w < ways_; ++w) {
    if (tags_[base + w] == kInvalidTag) {
      ranks[w] = --bottom;
    } else if (ranks[w] > rank) {
      --ranks[w];
    }
  }
}

void SetAssocCache::flush() {
  std::fill(tags_.begin(), tags_.end(), kInvalidTag);
  std::fill(partial_tags_.begin(), partial_tags_.end(), 0);
  reset_ranks();
}

std::uint64_t SetAssocCache::untouched_prefetch_lines() const {
  std::uint64_t count = 0;
  for (std::size_t i = 0; i < tags_.size(); ++i) {
    const std::uint8_t flags = flags_[i];
    if (tags_[i] != kInvalidTag && (flags & kTouched) == 0 &&
        static_cast<FillOrigin>(flags & kOriginMask) != FillOrigin::Demand) {
      ++count;
    }
  }
  return count;
}

}  // namespace re::sim
