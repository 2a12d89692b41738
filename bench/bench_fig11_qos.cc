// Figure 11 — QoS degradation (cumulative per-app slowdown per mix,
// sum_i min(0, T_base/T_pref - 1)), averaged over the mixed workloads.
// Closer to zero is better. Paper findings: the software method degrades
// QoS far less than hardware prefetching, and its QoS *improves* when
// moving to different inputs (less optimal prefetching perturbs the mix's
// resource balance less).
#include <cstdio>

#include "analysis/mix_study.hh"
#include "bench_common.hh"
#include "support/text_table.hh"

int main() {
  using namespace re;
  const int count = bench::mix_count(60);
  bench::print_header("Figure 11: QoS degradation",
                      "Average over " + std::to_string(count) +
                          " mixes; original and different inputs; closer to "
                          "zero is better");

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
      table.add_row(
          {label,
           format_percent(study.average(&analysis::MixOutcome::qos_nt)),
           format_percent(study.average(&analysis::MixOutcome::qos_hw))});
    }
  }
  std::printf("%s\n", table.render().c_str());
  std::printf("(paper Fig. 11: NT around -3%% to -8%%, HW around -10%% to "
              "-21%%)\n");
  return 0;
}
