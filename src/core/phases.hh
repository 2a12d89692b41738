// Phase-guided profiling (after Sembrant, Black-Schaffer & Hagersten,
// CGO'12 — the framework the paper's sampler builds on).
//
// Real applications move through execution phases with distinct memory
// behaviour; one global profile blurs them together. This pass splits the
// profiled reference stream into fixed windows, fingerprints each window by
// its static-instruction mix, clusters consecutive windows into phases, and
// runs the engine's full analysis graph (validate → StatStack → MDDLI →
// stride → bypass) per phase. The merged plan keeps, for every load, the
// decision from the phase where it matters most (highest estimated misses).
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "core/pipeline.hh"
#include "core/profile.hh"
#include "workloads/program.hh"

namespace re::core {

/// Normalized per-PC frequency vector fingerprinting one profiling window
/// (entries sum to 1). Shared between the offline phase clustering below and
/// the online runtime::PhaseDetector.
using PhaseSignature = std::unordered_map<Pc, double>;

/// Manhattan (L1) distance between two normalized signatures; lies in
/// [0, 2], with 0 = identical instruction mixes and 2 = disjoint ones.
double signature_distance(const PhaseSignature& a, const PhaseSignature& b);

/// Normalize raw per-PC reference counts into a signature. Empty when
/// `total` is zero.
PhaseSignature normalize_signature(
    const std::unordered_map<Pc, std::uint64_t>& counts, std::uint64_t total);

/// Nearest-centroid phase assignment, shared by profile_with_phases and
/// runtime::PhaseDetector: the centroid whose distance to `signature` is
/// strictly below `threshold` and smallest wins (the first one on ties).
/// An unmatched signature founds a new phase: it is appended to
/// `centroids`. Returns the phase index.
int assign_phase(const PhaseSignature& signature,
                 std::vector<PhaseSignature>& centroids, double threshold);

struct PhaseOptions {
  /// References per signature window.
  std::uint64_t window_refs = 1 << 16;
  /// Manhattan distance between normalized PC-frequency signatures below
  /// which a window joins an existing phase (signatures sum to 1, so the
  /// distance lies in [0, 2]).
  double similarity_threshold = 0.5;
};

/// One contiguous run of windows belonging to the same phase.
struct PhaseSegment {
  int phase_id = 0;
  std::uint64_t begin_ref = 0;
  std::uint64_t end_ref = 0;  // exclusive
};

/// A profile annotated with detected phases.
struct PhasedProfile {
  Profile full;
  std::vector<PhaseSegment> segments;
  int num_phases = 0;

  /// Phase id covering a stream position (last segment wins at boundaries).
  int phase_at(std::uint64_t ref) const;

  /// Sub-profile containing only the samples recorded inside `phase_id`'s
  /// segments, positioned in phase-local coordinates: a sample's at_ref
  /// counts the phase's references before it, so every position lies
  /// within the phase's total_references. A reuse longer than that whole
  /// window counts as dangling and a stride sample that long is dropped;
  /// the run's dangling counts are scaled to the phase's share of
  /// references.
  Profile phase_profile(int phase_id) const;

  /// Total references spent in a phase.
  std::uint64_t phase_references(int phase_id) const;
};

/// Profile one run of `program`, fingerprinting windows and clustering them
/// into phases.
PhasedProfile profile_with_phases(
    const workloads::Program& program, const SamplerConfig& sampler_config,
    const PhaseOptions& phase_options = {},
    std::uint64_t max_refs = ~std::uint64_t{0});

/// Phase-aware variant of optimize_program: one engine solve per phase,
/// merged plans.
struct PhasedOptimizationReport {
  /// The merged result: the full-run profile, the run's Δ, the merged plans
  /// and the optimized program. Its delinquent loads, stride infos and
  /// degradation log stay empty: they belong to the per-phase solves.
  OptimizationReport merged;
  PhasedProfile phases;
  /// Plans each phase produced on its own (index = phase id).
  std::vector<std::vector<PrefetchPlan>> per_phase_plans;
};

/// Δ is resolved once for the whole run (engine/delta.hh precedence) and
/// passed to every phase's solve as the assumed value. Each load takes its
/// plan from the phase with the most estimated L1 misses and keeps NT only
/// if every phase that prefetches it chose NT. Defined with the other
/// engine entry points in engine/pipeline.cc.
PhasedOptimizationReport phase_aware_optimize(
    const workloads::Program& program, const sim::MachineConfig& machine,
    const OptimizerOptions& options = {},
    const PhaseOptions& phase_options = {});

}  // namespace re::core
