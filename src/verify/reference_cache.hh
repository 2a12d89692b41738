// Naive reference model of sim::SetAssocCache: one recency-ordered list of
// resident lines per set.
//
// Production packs each set into tag/age arrays probed branch-free
// (sim/cache.hh). This model states LRU the textbook way — a hit moves the
// line to the front, a fill into a full set evicts the back — with the
// same per-line origin/touched/dirty bookkeeping, so a differential test
// can hold every hit, miss and Eviction of the production cache to it.
#pragma once

#include <cstdint>
#include <list>
#include <optional>
#include <vector>

#include "sim/cache.hh"
#include "sim/config.hh"
#include "support/types.hh"

namespace re::verify {

class ReferenceCache {
 public:
  explicit ReferenceCache(const sim::CacheGeometry& geometry);

  /// Same contracts as the sim::SetAssocCache members of the same name.
  bool access(Addr line, bool demand, bool dirty = false);
  bool mark_dirty(Addr line);
  bool contains(Addr line) const;
  std::optional<sim::Eviction> fill(Addr line, sim::FillOrigin origin,
                                    bool dirty = false);
  void invalidate(Addr line);
  void flush();

 private:
  struct Resident {
    Addr line = 0;
    sim::FillOrigin origin = sim::FillOrigin::Demand;
    bool demand_touched = false;
    bool dirty = false;
  };
  using Set = std::list<Resident>;  // most recently used first

  Set& set_of(Addr line) { return sets_[line % sets_.size()]; }
  const Set& set_of(Addr line) const { return sets_[line % sets_.size()]; }
  static Set::iterator find(Set& set, Addr line);

  std::vector<Set> sets_;
  std::size_t ways_;
};

}  // namespace re::verify
