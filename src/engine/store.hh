// Artifact store: allocation-reuse backing for repeated engine solves.
//
// The online runtime re-runs the StatStack solve every few thousand
// references on small windowed sub-profiles; rebuilding the per-PC
// grouping map and its inner vectors from scratch each window dominated
// the solve's allocation cost. The store keeps two things alive across
// solves:
//
//   * an interned PC table — hot PCs recur window after window, so each
//     gets a stable dense index assigned on first sight; grouping then
//     indexes a flat vector instead of rehashing an unordered_map, and
//   * histogram/grouping buffers — per-PC sample vectors whose capacity
//     survives clear(), so steady-state windows allocate nothing.
//
// A store is NOT thread-safe; it belongs to one solve at a time. Parallel
// solves (e.g. the engine-stress test's 64 concurrent windows) use one
// store per unit — the executor's ordered reduction keeps artifacts
// deterministic either way.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "support/types.hh"

namespace re::engine {

/// Stable Pc -> dense-index interning table.
class PcInterner {
 public:
  /// Index for `pc`, assigning the next dense id on first sight.
  std::uint32_t intern(Pc pc) {
    auto [it, inserted] =
        ids_.emplace(pc, static_cast<std::uint32_t>(pcs_.size()));
    if (inserted) pcs_.push_back(pc);
    return it->second;
  }

  /// The Pc for a dense index (must have been interned).
  Pc pc_of(std::uint32_t index) const { return pcs_[index]; }

  /// Const lookup (must have been interned). Safe to call concurrently —
  /// parallel curve builders resolve their PC's slot through this, never
  /// through intern().
  std::uint32_t index_of(Pc pc) const { return ids_.at(pc); }

  std::size_t size() const { return pcs_.size(); }

 private:
  std::unordered_map<Pc, std::uint32_t> ids_;
  std::vector<Pc> pcs_;
};

/// Reusable per-solve scratch. clear() empties the buffers but keeps their
/// capacity (and the interner's learned PC table) for the next solve.
class ArtifactStore {
 public:
  PcInterner& pc_table() { return pc_table_; }
  const PcInterner& pc_table() const { return pc_table_; }

  /// Per-dense-PC sample groups, grown on demand. Buffers come back empty
  /// but with their previous capacity.
  std::vector<std::vector<RefCount>>& reuse_groups(std::size_t pc_count) {
    if (reuse_groups_.size() < pc_count) reuse_groups_.resize(pc_count);
    return reuse_groups_;
  }

  /// Scratch list of the dense PC ids touched by the current solve.
  std::vector<std::uint32_t>& touched_pcs() { return touched_pcs_; }

  /// Reset per-solve state; interned PCs and buffer capacities survive.
  void clear() {
    for (const std::uint32_t id : touched_pcs_) {
      if (id < reuse_groups_.size()) reuse_groups_[id].clear();
    }
    touched_pcs_.clear();
  }

 private:
  PcInterner pc_table_;
  std::vector<std::vector<RefCount>> reuse_groups_;
  std::vector<std::uint32_t> touched_pcs_;
};

}  // namespace re::engine
