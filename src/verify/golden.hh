// Golden-plan snapshots: the full pipeline's prefetch plans for the
// 12-benchmark suite, rendered in a stable text format and committed under
// tests/golden/. A plan change — a new distance, a hint flip, a load
// appearing or vanishing — shows up as a readable diff instead of silently
// shifting downstream performance numbers. Re-blessing is deliberate:
// `repf verify --bless` rewrites the snapshot after a reviewed change.
#pragma once

#include <string>
#include <vector>

#include "analysis/experiments.hh"
#include "core/insertion.hh"
#include "sim/config.hh"

namespace re::engine {
class Executor;
}  // namespace re::engine

namespace re::verify {

struct GoldenEntry {
  std::string benchmark;
  std::vector<core::PrefetchPlan> plans;
};

/// Run the full optimization pipeline (default options, Reference inputs)
/// over the whole suite on `machine`, in Table I order. With an executor,
/// benchmarks fan out over its workers; entries stay in Table I order and
/// are byte-identical to the serial path at any worker count — this is the
/// oracle `repf verify --golden --jobs N` checks.
std::vector<GoldenEntry> compute_suite_plans(
    const sim::MachineConfig& machine,
    const engine::Executor* executor = nullptr);

/// Render entries in the golden format. Comment lines (leading '#') carry
/// the machine tag and the re-bless instructions; they are ignored by
/// comparison so they can evolve freely.
std::string render_golden(const std::vector<GoldenEntry>& entries,
                          const std::string& machine_name);

/// Snapshot file name for a machine: "plans_<machine>.golden".
std::string golden_filename(const std::string& machine_name);

/// Compare two renderings, ignoring comments and blank lines. Returns an
/// empty string when equivalent, else a line-oriented -expected/+actual
/// diff suitable for test failure messages.
std::string diff_golden(const std::string& expected, const std::string& actual);

// ---- co-run golden plans ------------------------------------------------
//
// Contention-adjusted snapshot: every suite benchmark runs as the victim on
// core 0 against three deterministic streaming aggressors, through the full
// co-run pipeline (analysis::run_corun), and its core-0 prefetch plan —
// solved with the composed effective-LLC-share knob — is snapshotted. A
// composition change that shifts any victim's plan shows up as a readable
// diff, exactly like the solo plans_<machine>.golden.

/// Compute the co-run victim plans for the whole suite on `machine`, in
/// Table I order. With an executor, benchmarks fan out over its workers;
/// output is byte-identical to the serial path at any worker count.
std::vector<GoldenEntry> compute_corun_suite_plans(
    const sim::MachineConfig& machine,
    const engine::Executor* executor = nullptr);

/// Render co-run entries (same body format as render_golden, with co-run
/// re-bless instructions in the comment header).
std::string render_corun_golden(const std::vector<GoldenEntry>& entries,
                                const std::string& machine_name);

/// Snapshot file name for a machine: "corun_plans_<machine>.golden".
std::string corun_golden_filename(const std::string& machine_name);

// ---- simulator goldens ---------------------------------------------------
//
// The timed simulator's statistics behind the paper's Figs. 4-11: every
// suite benchmark under each policy (Baseline, Hardware, Software,
// SoftwareNT, StrideCentric) plus two seeded 4-app mixes under Baseline,
// Hardware and SoftwareNT. A line carries cycles, references, whole-window
// DRAM lines by class and the late/useless prefetch counters, so a
// simulator change that moves any figure names the run it moved.

struct SimGolden {
  std::vector<analysis::BenchmarkEvaluation> suite;
  std::vector<analysis::MixEvaluation> mixes;
};

/// Evaluate the suite and the golden mixes on `machine`. With an executor,
/// units fan out over its workers; the result is byte-identical to the
/// serial path at any worker count.
SimGolden compute_sim_golden(const sim::MachineConfig& machine,
                             const engine::Executor* executor = nullptr);

/// Render in the golden format: one `<benchmark> <policy> key=value...`
/// line per suite run and one `mix<i> <policy> ...` line per mix run.
std::string render_sim_golden(const SimGolden& golden,
                              const std::string& machine_name);

/// Snapshot file name for a machine: "sim_<machine>.golden".
std::string sim_golden_filename(const std::string& machine_name);

}  // namespace re::verify
