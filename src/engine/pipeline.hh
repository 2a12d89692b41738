// The shared analysis engine: the paper's dataflow as a stage graph.
//
// Every analysis consumer in the repo runs one of the graph configurations
// below instead of a hand-rolled call chain:
//
//   * core::optimize_program / optimize_with_profile and the stride-centric
//     baseline (one-line wrappers at the end of pipeline.cc);
//   * core::phase_aware_optimize (optimize_graph once per phase profile,
//     defined in pipeline.cc);
//   * the adaptive controller's per-window refinement;
//   * the co-run pipeline's per-core plan solve (analysis/corun);
//   * differential verification's estimator side;
//   * the experiment drivers, the advisory service's solver and repf.
//
// The stages:
//
//   sample    — integrated reuse/stride sampling pass over the program
//   validate  — profile sanitation (skip-not-guess; PR 1's gates)
//   delta     — Δ resolution: assumed > measured > baseline-sim
//   statstack — stack-distance solve + per-PC MRCs + reuse graph
//               (fans out per-PC curve construction across workers)
//   mddli     — delinquent-load identification (cost-benefit filter)
//   stride    — per-load numerics gate, stride analysis, prefetch distance
//               (fans out per delinquent load, ordered reduction)
//   bypass    — non-temporal (cache bypass) decision per selected load
//   insert    — plan assembly + prefetch insertion into the program
//
// Determinism contract: a graph's OptimizationReport is byte-identical at
// any Executor worker count (golden plans are the oracle; see
// serialize_report and DESIGN.md §11).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/pipeline.hh"
#include "engine/delta.hh"
#include "engine/stage.hh"

namespace re::engine {

/// Artifact set flowing through the optimization graphs. Bound inputs are
/// pointers (owned by the caller); everything else is produced by stages.
struct OptimizeArtifacts {
  // -- bound inputs
  const workloads::Program* program = nullptr;
  const sim::MachineConfig* machine = nullptr;
  core::OptimizerOptions options;
  /// True when the caller supplied `report.profile` directly (replayed or
  /// fault-injected profiles); the `sample` stage is skipped.
  bool profile_bound = false;

  // -- produced artifacts
  /// `validate`: false means the profile was unusable; downstream analysis
  /// stages are skipped and `insert` degrades to a pass-through.
  bool profile_usable = true;
  /// `delta`: where the resolved Δ came from (reporting only).
  DeltaSource delta_source = DeltaSource::kBaselineSim;
  /// `statstack`: the fast cache model and the data-reuse graph.
  std::unique_ptr<core::StatStack> model;
  std::unique_ptr<core::ReuseGraph> reuse_graph;

  /// Per-delinquent-load working state carried from `mddli` through
  /// `insert`; index-parallel with report.delinquent_loads.
  struct LoadState {
    bool selected = false;          // survived every gate so far
    std::int64_t distance_bytes = 0;  // `stride`
    workloads::PrefetchHint hint = workloads::PrefetchHint::T0;  // `bypass`
  };
  std::vector<LoadState> loads;

  /// The final artifact (profile, Δ, delinquent loads, stride infos,
  /// plans, degradation log, optimized program).
  core::OptimizationReport report;
};

/// The full resource-efficient pipeline (Figure 1): sample → validate →
/// delta → statstack → mddli → stride → bypass → insert.
const StageGraph<OptimizeArtifacts>& optimize_graph();

/// The stride-centric baseline (Section VI-D): sample → delta →
/// stride-all → insert. No cache model, no cost-benefit filter, no NT.
const StageGraph<OptimizeArtifacts>& stride_centric_graph();

/// The estimator used by differential verification: statstack → mddli over
/// a bound profile (the exact-LRU side judges the same artifacts).
const StageGraph<OptimizeArtifacts>& estimator_graph();

// -- convenience entry points (what the thin core:: wrappers call) --------

core::OptimizationReport run_optimize(const workloads::Program& program,
                                      const sim::MachineConfig& machine,
                                      const core::OptimizerOptions& options,
                                      const EngineContext& ctx = {});

core::OptimizationReport run_optimize_with_profile(
    const workloads::Program& program, core::Profile profile,
    const sim::MachineConfig& machine, const core::OptimizerOptions& options,
    const EngineContext& ctx = {});

core::OptimizationReport run_stride_centric(
    const workloads::Program& program, const sim::MachineConfig& machine,
    const core::OptimizerOptions& options, const EngineContext& ctx = {});

/// Stable, complete text serialization of a report — the equality witness
/// for the engine's determinism contract (property tests compare these
/// byte-for-byte across worker counts).
std::string serialize_report(const core::OptimizationReport& report);

/// One "knob=value" per line — the audit trail `repf optimize --verbose`
/// prints so a run's effective configuration is reviewable.
std::string describe_knobs(const core::OptimizerOptions& options);

}  // namespace re::engine
