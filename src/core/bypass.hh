// Cache-bypass (non-temporal) analysis (paper Section VI-B; Sandberg et
// al., SC'10).
//
// For a prefetchable load A, find its *data-reusing loads*: the
// instructions that touch A's cache lines next (from the reuse-sample
// pairs). If none of them reuses data out of the L2/LLC — their miss-ratio
// curves are flat between the L1 and LLC sizes — then A's data passes
// through the higher cache levels without benefit and the prefetch can be
// non-temporal (PREFETCHNTA): fill L1 only, never pollute L2/LLC.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/profile.hh"
#include "core/statstack.hh"
#include "sim/config.hh"
#include "support/types.hh"

namespace re::core {

struct BypassOptions {
  /// A reusing load disqualifies bypassing if its MRC drops by more than
  /// this fraction of its L1 miss ratio between the L1 and LLC points
  /// (i.e. it serves that share of accesses out of L2/LLC).
  double drop_threshold = 0.10;
  /// Ignore reuse edges carrying less than this fraction of a load's
  /// outgoing reuse samples (noise).
  double min_edge_weight = 0.05;
  /// Shared-LLC capacity (bytes) the core can rely on under co-run
  /// contention; 0 = the full machine.llc.size_bytes. A shrunken effective
  /// share moves the upper end of the flatness window: data that would be
  /// served out of an uncontended LLC no longer disqualifies bypassing when
  /// co-runners would evict it first. Set by the co-run pipeline together
  /// with MddliOptions::llc_effective_bytes.
  std::uint64_t llc_effective_bytes = 0;
};

/// Data-reuse graph: for each PC, the PCs observed to access the same cache
/// line directly after it, with sample counts.
class ReuseGraph {
 public:
  explicit ReuseGraph(const Profile& profile);

  /// Successor PCs of `pc` whose edge weight is at least `min_fraction` of
  /// pc's outgoing samples.
  std::vector<Pc> reusers_of(Pc pc, double min_fraction) const;

  std::uint64_t edge_count(Pc from, Pc to) const;
  std::uint64_t out_degree_samples(Pc from) const;

 private:
  std::unordered_map<Pc, std::unordered_map<Pc, std::uint64_t>> edges_;
  std::unordered_map<Pc, std::uint64_t> totals_;
};

/// True if the MRC is (nearly) flat between the machine's L1 and LLC sizes,
/// i.e. the load does not reuse data from the intermediate levels.
/// `llc_effective_bytes` overrides the LLC capacity when nonzero (a core's
/// contention-adjusted share of the shared LLC).
bool mrc_flat_between_l1_and_llc(const MissRatioCurve& mrc,
                                 const sim::MachineConfig& machine,
                                 double drop_threshold,
                                 std::uint64_t llc_effective_bytes = 0);

/// Decide whether a prefetch for `pc` may bypass the higher cache levels.
bool should_bypass(Pc pc, const ReuseGraph& graph, const StatStack& model,
                   const sim::MachineConfig& machine,
                   const BypassOptions& options = {});

}  // namespace re::core
