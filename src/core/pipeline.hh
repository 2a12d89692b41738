// End-to-end optimization pipeline (paper Figure 1):
//
//   sampling pass  ->  StatStack modeling  ->  MDDLI cost-benefit  ->
//   stride analysis -> prefetch distance -> bypass analysis -> insertion
//
// plus the stride-centric baseline the paper compares against (Section
// VI-D): prefetch *every* load with a regular stride, no cost-benefit
// filter, no bypassing — modeled on Luk'02 / Wu'02.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/bypass.hh"
#include "core/insertion.hh"
#include "core/mddli.hh"
#include "core/profile.hh"
#include "core/profile_validator.hh"
#include "core/sampler.hh"
#include "core/statstack.hh"
#include "core/stride_analysis.hh"
#include "sim/config.hh"
#include "sim/system.hh"
#include "workloads/program.hh"

namespace re::core {

struct OptimizerOptions {
  SamplerConfig sampler;
  MddliOptions mddli;
  StrideAnalysisOptions stride;
  BypassOptions bypass;
  /// Use PREFETCHNTA where the bypass analysis allows ("Soft Pref.+NT" in
  /// the paper); false gives plain "Software Pref.".
  bool enable_non_temporal = true;
  /// Cap on profiled references (full run by default).
  std::uint64_t profile_max_refs = ~std::uint64_t{0};
  /// Δ (cycles per memory operation) knobs, resolved by the engine with
  /// one precedence rule (engine/delta.hh): assumed > measured >
  /// baseline-sim. `assumed` is a statement of intent (tests, ablations,
  /// replays); `measured` is an online observation of the running program
  /// (the adaptive runtime's EWMA — it cannot pause the workload to run a
  /// counterfactual baseline); when both are unset the offline baseline
  /// simulation supplies Δ.
  double assumed_cycles_per_memop = 0.0;
  double measured_cycles_per_memop = 0.0;
};

/// Everything the analysis produced, for reporting and tests.
struct OptimizationReport {
  std::string benchmark;
  Profile profile;
  std::vector<DelinquentLoad> delinquent_loads;
  std::vector<StrideInfo> stride_infos;  // for the delinquent loads
  std::vector<PrefetchPlan> plans;
  /// Measured average cycles per memory operation (the paper's Δ).
  double cycles_per_memop = 0.0;
  workloads::Program optimized;
  /// Every prefetch the pipeline conservatively suppressed (and every
  /// profile-level discard), with machine-readable reasons. When the
  /// profile is unusable the pipeline degrades to "emit nothing" and
  /// `optimized` is the input program unchanged.
  DegradationLog degradation;
};

/// Δ of a finished run: core 0's cycles per memory operation (1.0 when the
/// run made no references).
double cycles_per_memop(const sim::RunResult& run);

/// Measure Δ: baseline cycles per memory operation from a single-core run
/// with all prefetching off (the paper measures this per benchmark with
/// performance counters).
double measure_cycles_per_memop(const workloads::Program& program,
                                const sim::MachineConfig& machine);

/// Run the full resource-efficient prefetching pipeline for one program.
OptimizationReport optimize_program(const workloads::Program& program,
                                    const sim::MachineConfig& machine,
                                    const OptimizerOptions& options = {});

/// Same pipeline, but starting from an externally supplied profile — the
/// entry point for fault-injection studies (`repf faultcheck`,
/// `bench_robustness_faults`) and for replaying stored profiles. The
/// profile is validated first; degraded or corrupt evidence suppresses
/// prefetches (recorded in the report's DegradationLog) rather than
/// producing wrong ones. With a clean profile this is exactly
/// optimize_program.
OptimizationReport optimize_with_profile(const workloads::Program& program,
                                         Profile profile,
                                         const sim::MachineConfig& machine,
                                         const OptimizerOptions& options = {});

/// The stride-centric baseline: same sampling pass, but inserts a prefetch
/// for every load with a dominant stride — no miss-ratio model, no
/// cost-benefit filter, no NT bypassing, constant assumed memory latency.
OptimizationReport stride_centric_optimize(
    const workloads::Program& program, const sim::MachineConfig& machine,
    const OptimizerOptions& options = {});

}  // namespace re::core
