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
  tags_.assign(sets_ * ways_, kInvalidTag);
  ages_.assign(sets_ * ways_, 0);
  flags_.assign(sets_ * ways_, 0);
}

std::uint32_t SetAssocCache::victim(std::size_t base) const {
  const std::uint64_t* ages = &ages_[base];
  std::uint32_t oldest_way = 0;
  std::uint64_t oldest = ages[0];
  for (std::uint32_t w = 1; w < ways_; ++w) {
    const bool older = ages[w] < oldest;
    oldest = older ? ages[w] : oldest;
    oldest_way = older ? w : oldest_way;
  }
  return oldest_way;
}

std::optional<Eviction> SetAssocCache::fill(Addr line, FillOrigin origin,
                                            bool dirty) {
  // Contract: the caller has established that `line` is not resident (all
  // call sites probe with access()/contains() first). A duplicate fill
  // would corrupt the set, so this is asserted in debug builds.
  const std::size_t base = set_base(line);
  assert(line != kInvalidTag && "line collides with the invalid-way tag");
  assert(find(base, line) >= ways_ && "duplicate cache fill");
  const std::size_t slot = base + victim(base);

  std::optional<Eviction> evicted;
  if (ages_[slot] != 0) {
    const std::uint8_t flags = flags_[slot];
    evicted = Eviction{tags_[slot],
                       static_cast<FillOrigin>(flags & kOriginMask),
                       (flags & kTouched) != 0, (flags & kDirty) != 0};
  }
  tags_[slot] = line;
  ages_[slot] = ++tick_;
  flags_[slot] = static_cast<std::uint8_t>(static_cast<std::uint8_t>(origin) |
                                           (dirty ? kDirty : 0));
  return evicted;
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
  ages_[base + way] = 0;
}

void SetAssocCache::flush() {
  std::fill(tags_.begin(), tags_.end(), kInvalidTag);
  std::fill(ages_.begin(), ages_.end(), 0);
}

std::uint64_t SetAssocCache::untouched_prefetch_lines() const {
  std::uint64_t count = 0;
  for (std::size_t i = 0; i < ages_.size(); ++i) {
    const std::uint8_t flags = flags_[i];
    if (ages_[i] != 0 && (flags & kTouched) == 0 &&
        static_cast<FillOrigin>(flags & kOriginMask) != FillOrigin::Demand) {
      ++count;
    }
  }
  return count;
}

}  // namespace re::sim
