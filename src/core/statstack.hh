// StatStack fast cache model (paper Section IV; Eklöv & Hagersten,
// ISPASS'10).
//
// Converts a sparse reuse-distance distribution into expected stack
// distances, from which LRU miss ratios follow for *any* cache size:
//
//   An access with reuse distance D has expected stack distance
//       SD(D) = sum_{j=0}^{D-1} P(reuse distance > j)
//   i.e. each of the D intervening references contributes one *unique* line
//   iff its own forward reuse carries it past the end of the window.
//   The access misses in a fully-associative LRU cache of S lines
//   iff SD(D) >= S.
//
// Dangling samples (lines never re-accessed) have infinite reuse distance:
// they keep the survival function bounded away from zero, so stack
// distances keep growing with window size — exactly the behaviour of
// streaming data.
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "core/profile.hh"
#include "support/histogram.hh"
#include "support/types.hh"

namespace re::engine {
class Executor;
class ArtifactStore;
}  // namespace re::engine

namespace re::core {

/// Piecewise-linear expected-stack-distance function built from the sampled
/// reuse-distance distribution.
class StackDistanceSolver {
 public:
  /// `finite` holds the observed (finite) reuse distances; `dangling_count`
  /// samples had no reuse before the window ended.
  StackDistanceSolver(const Histogram& finite, double dangling_count);

  /// Expected stack distance (unique intervening lines) for a reuse
  /// distance. Monotone non-decreasing.
  double stack_distance(RefCount reuse_distance) const;

  /// Smallest reuse distance whose expected stack distance reaches
  /// `stack_distance` (the inverse); kInfiniteDistance if never reached.
  RefCount reuse_distance_for(double stack_distance) const;

  double total_samples() const { return total_; }

 private:
  // Segment i covers reuse distances [start_[i], start_[i+1]) over which
  // the survival function is the constant survival_[i];
  // integral_[i] = SD(start_[i]).
  std::vector<RefCount> start_;
  std::vector<double> survival_;
  std::vector<double> integral_;
  double total_ = 0.0;
};

/// Per-instruction (or whole-application) miss-ratio curve: the fraction of
/// an instruction's sampled accesses whose expected stack distance reaches a
/// given cache size.
class MissRatioCurve {
 public:
  MissRatioCurve() = default;

  MissRatioCurve(std::vector<RefCount> sorted_reuse_distances,
                 double dangling, std::shared_ptr<const StackDistanceSolver>
                 solver);

  /// Modeled miss ratio for a cache of `cache_lines` lines. Returns 0 for
  /// an empty curve (no samples ⇒ assume hits).
  double miss_ratio_lines(std::uint64_t cache_lines) const;

  /// Convenience: cache size given in bytes.
  double miss_ratio_bytes(std::uint64_t bytes) const {
    return miss_ratio_lines(bytes / kLineSize);
  }

  double sample_count() const { return samples_; }
  bool empty() const { return samples_ <= 0.0; }

 private:
  std::vector<RefCount> reuse_distances_;  // ascending
  double dangling_ = 0.0;
  double samples_ = 0.0;
  std::shared_ptr<const StackDistanceSolver> solver_;
};

/// The full model: global stack-distance solver plus per-PC curves.
class StatStack {
 public:
  explicit StatStack(const Profile& profile);

  /// Engine-aware build: per-PC curve construction fans out over
  /// `executor`'s workers (ordered reduction — the model is byte-identical
  /// to the serial build at any worker count), and `store` supplies the
  /// interned PC table plus reusable grouping buffers so repeated windowed
  /// solves allocate nothing in steady state. Either argument may be null.
  StatStack(const Profile& profile, const engine::Executor* executor,
            engine::ArtifactStore* store);

  const StackDistanceSolver& solver() const { return *solver_; }

  /// Whole-application miss ratio curve (includes dangling samples).
  const MissRatioCurve& application_mrc() const { return application_; }

  /// Per-instruction curve; empty curve for PCs with no samples.
  const MissRatioCurve& pc_mrc(Pc pc) const;

  /// PCs that have at least one reuse sample, ascending.
  const std::vector<Pc>& sampled_pcs() const { return pcs_; }

  /// Estimated misses per PC for a given cache size: modeled miss ratio
  /// times the PC's execution count from the profile.
  double estimated_misses(Pc pc, std::uint64_t cache_lines,
                          const Profile& profile) const;

 private:
  std::shared_ptr<const StackDistanceSolver> solver_;
  MissRatioCurve application_;
  std::unordered_map<Pc, MissRatioCurve> per_pc_;
  std::vector<Pc> pcs_;
  MissRatioCurve empty_;
};

}  // namespace re::core
