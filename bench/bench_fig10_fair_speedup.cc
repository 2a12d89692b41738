// Figure 10 — Fair-Speedup (harmonic mean of per-app speedups, normalized
// to baseline), averaged over the mixed workloads: original and different
// inputs, both machines. Paper finding: FS mirrors weighted speedup — the
// resource-efficient method stays clearly ahead of hardware prefetching.
#include <cstdio>

#include "analysis/mix_study.hh"
#include "bench_common.hh"
#include "support/text_table.hh"

int main() {
  using namespace re;
  // Averages converge well before the paper's 180 mixes; this binary
  // evaluates four full studies (2 machines x 2 input sets).
  const int count = bench::mix_count(60);
  bench::print_header("Figure 10: Fair-Speedup (normalized to baseline)",
                      "Average over " + std::to_string(count) +
                          " mixes; original and different inputs");

  TextTable table({"Config", "Soft Pref.+NT", "Hardware Pref."});
  for (const sim::MachineConfig& machine :
       {sim::amd_phenom_ii(), sim::intel_sandybridge()}) {
    analysis::PlanCache cache;
    for (const auto input :
         {workloads::InputSet::Reference, workloads::InputSet::Alternate}) {
      const analysis::MixStudy study =
          analysis::run_mix_study(machine, cache, count, input);
      const std::string label =
          std::string(machine.name == "AMD Phenom II" ? "AMD" : "Intel") +
          (input == workloads::InputSet::Reference ? "-avg" : " avg-diff-in");
      table.add_row({label,
                     format_double(study.average(&analysis::MixOutcome::fs_nt),
                                   3),
                     format_double(study.average(&analysis::MixOutcome::fs_hw),
                                   3)});
    }
  }
  std::printf("%s\n", table.render().c_str());
  std::printf("(paper Fig. 10: NT ~1.14-1.19 vs HW ~1.02-1.08, both "
              "machines, both input sets)\n");
  return 0;
}
