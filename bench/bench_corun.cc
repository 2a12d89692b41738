// Co-run interference acceptance gate (shared-LLC composition).
//
// The paper's motivating multicore pathology: a pointer-chase victim
// sharing the LLC with streaming co-runners whose speculative hardware
// prefetcher (stream + adjacent-line) overfetches. The composed co-run
// model (analysis::CoRunModel over solo StatStack profiles) must *predict*
// the victim's degradation before any interleaved run, and the exact
// shared-LRU oracle (verify::ExactSharedLruModel) must confirm both the
// prediction and the model's accuracy.
//
// Gates (enforced in smoke mode too — the experiment is already small):
//   1. prediction: with hardware prefetching on the aggressors, the
//      composed model predicts a higher victim shared-LLC miss ratio and
//      no larger capacity share, on both machine models,
//   2. confirmation: the exact interleaved-LRU oracle agrees the victim's
//      miss ratio rose,
//   3. accuracy: composed-vs-exact victim error stays under the documented
//      interference bound at every cell, and the streaming-vs-chase
//      scenario's full differential stays inside its per-family bounds
//      with the integer miss-attribution identity intact,
//   4. determinism: the co-run graph's serialized plans and effective
//      shares are byte-identical at 1 and 8 executor workers.
//
// Exits non-zero on any violation — CI gate, same contract as
// bench_chaos_recovery. Writes BENCH_corun.json.
#include <cstdio>
#include <string>
#include <vector>

#include "analysis/corun.hh"
#include "bench_common.hh"
#include "engine/executor.hh"
#include "engine/pipeline.hh"
#include "support/text_table.hh"
#include "verify/differential.hh"
#include "verify/trace_fuzzer.hh"
#include "workloads/mix.hh"
#include "workloads/program.hh"

namespace {

using namespace re;

constexpr std::uint64_t kSeed = 42;

/// Composed-vs-exact victim error bound for the interference experiment.
/// Observed errors sit under 0.6 % across machines and core counts
/// (DESIGN.md §13); 2 % absolute leaves slack without hiding regressions.
constexpr double kInterferenceErrorBound = 0.02;

using bench::check;
using bench::violations;

/// Serialize everything the co-run graph decides for one scenario: the
/// per-core optimization plans plus the composed effective shares. Two
/// runs at different worker counts must produce identical bytes.
std::string corun_decisions(const std::vector<workloads::Program>& programs,
                            const sim::MachineConfig& machine, int jobs,
                            std::uint64_t max_refs) {
  analysis::CoRunArtifacts artifacts;
  artifacts.programs = &programs;
  artifacts.machine = &machine;
  artifacts.max_refs_per_core = max_refs;
  const engine::Executor executor(jobs);
  engine::EngineContext ctx;
  ctx.executor = &executor;
  analysis::run_corun(artifacts, ctx);

  std::string out;
  for (std::size_t i = 0; i < artifacts.reports.size(); ++i) {
    out += "core " + std::to_string(i) + " share " +
           std::to_string(artifacts.effective_llc_lines[i]) + "\n";
    out += engine::serialize_report(artifacts.reports[i]);
  }
  return out;
}

}  // namespace

int main() {
  const bool smoke = bench::smoke_mode();
  bench::print_header(
      "Co-run interference: prefetch-induced victim degradation, predicted",
      "Composed shared-LLC model vs exact interleaved-LRU oracle; chase "
      "victim vs sparse streaming aggressors, hw prefetch off/on");
  if (smoke) std::printf("[smoke mode: 2-core cells only]\n\n");

  bench::JsonReport report("corun");
  report.set("seed", kSeed);
  const std::uint64_t max_refs =
      smoke ? (std::uint64_t{1} << 14) : (std::uint64_t{1} << 16);
  const std::vector<int> core_counts = smoke ? std::vector<int>{2}
                                             : std::vector<int>{2, 4};
  const std::vector<sim::MachineConfig> machines =
      smoke ? std::vector<sim::MachineConfig>{sim::amd_phenom_ii()}
            : std::vector<sim::MachineConfig>{sim::amd_phenom_ii(),
                                              sim::intel_sandybridge()};

  // Gates 1-3a: the interference matrix.
  TextTable table({"machine", "cores", "mr off", "mr on", "exact off",
                   "exact on", "share off", "share on", "max err"});
  double worst_error = 0.0;
  double headline_degradation = 0.0;
  for (const sim::MachineConfig& machine : machines) {
    for (const int cores : core_counts) {
      const verify::CoRunInterference r =
          verify::run_corun_interference(machine, cores, kSeed, max_refs);
      check(r.predicted(),
            "composed model predicts victim degradation under prefetch");
      check(r.confirmed(), "exact shared-LRU oracle confirms degradation");
      check(r.max_composed_error <= kInterferenceErrorBound,
            "composed victim miss ratio tracks the exact oracle");
      worst_error = std::max(worst_error, r.max_composed_error);
      if (headline_degradation == 0.0) {
        headline_degradation = r.victim_mr_on - r.victim_mr_off;
      }
      char err[32];
      std::snprintf(err, sizeof err, "%.4f", r.max_composed_error);
      auto pct = [](double v) {
        char buf[32];
        std::snprintf(buf, sizeof buf, "%.1f%%", 100.0 * v);
        return std::string(buf);
      };
      table.add_row({machine.name, std::to_string(cores),
                     pct(r.victim_mr_off), pct(r.victim_mr_on),
                     pct(r.exact_mr_off), pct(r.exact_mr_on),
                     std::to_string(r.share_off), std::to_string(r.share_on),
                     err});
    }
  }
  std::fputs(table.render().c_str(), stdout);

  // Gate 3b: the streaming-vs-chase differential inside its family bounds.
  verify::CoRunDifferentialOptions options;
  options.max_refs_per_core = max_refs;
  const std::vector<verify::CoRunScenario> scenarios =
      verify::corun_scenarios(core_counts.back());
  double differential_error = 0.0;
  for (const verify::CoRunScenario& scenario : scenarios) {
    if (scenario.name != "streaming_vs_chase") continue;
    const verify::CoRunDifferentialResult diff = verify::run_corun_differential(
        scenario, machines.front(), kSeed, options);
    check(diff.attribution_exact,
          "per-core attributed misses sum exactly to the shared total");
    for (std::size_t core = 0; core < diff.per_core.size(); ++core) {
      const double bound = verify::corun_family_error_bound(
          scenario.families[core % scenario.families.size()],
          core_counts.back());
      check(diff.per_core[core].max_error() <= bound,
            "streaming_vs_chase differential within per-family bound");
    }
    differential_error = diff.max_error();
    std::printf("\nstreaming_vs_chase differential (%d cores): max err %.4f, "
                "attribution %s\n",
                core_counts.back(), diff.max_error(),
                diff.attribution_exact ? "exact" : "BROKEN");
  }

  // Gate 4: worker-count determinism of the full co-run graph.
  std::vector<workloads::Program> programs;
  for (int core = 0; core < core_counts.back(); ++core) {
    const verify::TraceFamily family = core % 2 == 0
                                           ? verify::TraceFamily::kPointerChase
                                           : verify::TraceFamily::kStrided;
    verify::FuzzedTrace fuzzed = verify::make_trace(family, kSeed, core);
    workloads::rebase_program(fuzzed.program,
                              workloads::core_address_offset(core));
    programs.push_back(std::move(fuzzed.program));
  }
  const std::string serial =
      corun_decisions(programs, machines.front(), 1, max_refs);
  const std::string parallel =
      corun_decisions(programs, machines.front(), 8, max_refs);
  check(serial == parallel,
        "co-run plans byte-identical at 1 and 8 executor workers");
  std::printf("determinism: %zu plan bytes, jobs 1 vs 8 %s\n", serial.size(),
              serial == parallel ? "identical" : "DIFFER");

  report.set("victim_degradation", headline_degradation);
  report.set("worst_composed_error", worst_error);
  report.set("differential_max_error", differential_error);
  report.set("plan_bytes", static_cast<std::uint64_t>(serial.size()));
  report.set("violations", static_cast<std::uint64_t>(violations));
  report.write();

  if (violations != 0) {
    std::printf("\nbench_corun: %d violation(s)\n", violations);
    return 1;
  }
  std::printf("\nbench_corun: all gates hold\n");
  return 0;
}
