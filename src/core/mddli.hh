// Model-driven delinquent load identification (paper Section V).
//
// Uses the StatStack per-instruction miss-ratio curves at the target
// machine's L1/L2/LLC sizes to run the paper's cost-benefit filter:
//
//     insert a prefetch for load A  iff  MR_A(D$) > alpha / latency
//
// where alpha is the cost of executing one prefetch instruction (~1 cycle)
// and `latency` is the average latency of an L1 miss of A, derived from the
// modeled distribution of where A's misses are served.
#pragma once

#include <cstdint>
#include <vector>

#include "core/profile.hh"
#include "core/statstack.hh"
#include "sim/config.hh"
#include "support/types.hh"

namespace re::core {

struct MddliOptions {
  /// Cost of one prefetch instruction in cycles (the paper measured 1).
  double alpha = 1.0;
  /// Ignore PCs with fewer reuse samples than this (too noisy to model).
  std::uint64_t min_samples = 8;
  /// Shared-LLC capacity (bytes) this core can actually rely on under
  /// co-run contention. 0 means the full machine.llc.size_bytes (the
  /// single-core assumption baked in before co-run modeling existed). The
  /// co-run pipeline sets it (with BypassOptions::llc_effective_bytes) from
  /// CoRunModel::effective_llc_lines, so LLC miss ratios — and through them the
  /// average miss latency the cost-benefit filter uses — reflect
  /// contention-adjusted miss costs.
  std::uint64_t llc_effective_bytes = 0;
};

/// One load that passed the cost-benefit filter.
struct DelinquentLoad {
  Pc pc = 0;
  double l1_miss_ratio = 0.0;
  double l2_miss_ratio = 0.0;
  double llc_miss_ratio = 0.0;
  /// Average latency of this load's L1 misses (cycles), from the model.
  double avg_miss_latency = 0.0;
  /// Modeled L1 misses over the profiled window (miss ratio × executions).
  double estimated_l1_misses = 0.0;
};

/// Average latency per L1 miss implied by the level miss ratios, using the
/// machine's hit latencies. Exposed for tests.
double average_miss_latency(const sim::MachineConfig& machine, double mr_l1,
                            double mr_l2, double mr_llc);

/// Run the MDDLI pass: returns the delinquent loads that are worth
/// prefetching, ordered by descending estimated misses.
std::vector<DelinquentLoad> identify_delinquent_loads(
    const StatStack& model, const Profile& profile,
    const sim::MachineConfig& machine, const MddliOptions& options = {});

}  // namespace re::core
