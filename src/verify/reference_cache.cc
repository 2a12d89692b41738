#include "verify/reference_cache.hh"

#include <algorithm>

namespace re::verify {

ReferenceCache::ReferenceCache(const sim::CacheGeometry& geometry)
    : sets_(geometry.num_sets()), ways_(geometry.associativity) {}

ReferenceCache::Set::iterator ReferenceCache::find(Set& set, Addr line) {
  return std::find_if(set.begin(), set.end(),
                      [line](const Resident& r) { return r.line == line; });
}

bool ReferenceCache::access(Addr line, bool demand, bool dirty) {
  Set& set = set_of(line);
  const auto it = find(set, line);
  if (it == set.end()) return false;
  it->demand_touched = it->demand_touched || demand;
  it->dirty = it->dirty || dirty;
  set.splice(set.begin(), set, it);
  return true;
}

bool ReferenceCache::mark_dirty(Addr line) {
  Set& set = set_of(line);
  const auto it = find(set, line);
  if (it == set.end()) return false;
  it->dirty = true;
  return true;
}

bool ReferenceCache::contains(Addr line) const {
  const Set& set = set_of(line);
  return std::any_of(set.begin(), set.end(),
                     [line](const Resident& r) { return r.line == line; });
}

std::optional<sim::Eviction> ReferenceCache::fill(Addr line,
                                                  sim::FillOrigin origin,
                                                  bool dirty) {
  Set& set = set_of(line);
  std::optional<sim::Eviction> evicted;
  if (set.size() == ways_) {
    const Resident& lru = set.back();
    evicted = sim::Eviction{lru.line, lru.origin, lru.demand_touched,
                            lru.dirty};
    set.pop_back();
  }
  set.push_front(Resident{line, origin, false, dirty});
  return evicted;
}

void ReferenceCache::invalidate(Addr line) {
  Set& set = set_of(line);
  const auto it = find(set, line);
  if (it != set.end()) set.erase(it);
}

void ReferenceCache::flush() {
  for (Set& set : sets_) set.clear();
}

}  // namespace re::verify
