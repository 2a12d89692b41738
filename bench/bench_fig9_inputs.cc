// Figure 9 — Speedup distribution across the mixed workloads when the apps
// run with *different inputs* than the ones used for profiling (paper
// Section VII-D). The prefetch plans are trained on the Reference inputs
// and applied unchanged to the Alternate inputs. Paper finding: the method
// stays stable — ~6 % (AMD) / ~4 % (Intel) better than hardware prefetching
// on average, while hardware prefetching varies widely and degrades ~10 %
// of the mixes.
#include <cstdio>

#include "analysis/mix_study.hh"
#include "bench_common.hh"
#include "support/series_chart.hh"

int main() {
  using namespace re;
  const int count = bench::mix_count(180);
  bench::print_header(
      "Figure 9: Mixed workloads with different inputs",
      "Plans profiled on Reference inputs, mixes run on Alternate inputs (" +
          std::to_string(count) + " mixes)");

  for (const sim::MachineConfig& machine :
       {sim::amd_phenom_ii(), sim::intel_sandybridge()}) {
    analysis::PlanCache cache;
    const analysis::MixStudy study = analysis::run_mix_study(
        machine, cache, count, workloads::InputSet::Alternate);

    std::printf("--- %s: weighted speedup over baseline ---\n",
                machine.name.c_str());
    std::vector<ChartSeries> speedups = {
        {"Soft Pref.+NT", study.collect(&analysis::MixOutcome::ws_nt)},
        {"Hardware Pref.", study.collect(&analysis::MixOutcome::ws_hw)}};
    for (ChartSeries& s : speedups) {
      for (double& v : s.values) v -= 1.0;
    }
    std::printf("%s\n", render_distribution(speedups).c_str());

    int nt_slow = 0, hw_slow = 0;
    for (const analysis::MixOutcome& o : study.outcomes) {
      if (o.ws_nt < 1.0) ++nt_slow;
      if (o.ws_hw < 1.0) ++hw_slow;
    }
    std::printf("summary: avg NT %+.1f%% vs HW %+.1f%% | slowdowns: NT %d, "
                "HW %d | avg traffic NT %+.1f%% vs HW %+.1f%%\n\n",
                (study.average(&analysis::MixOutcome::ws_nt) - 1.0) * 100.0,
                (study.average(&analysis::MixOutcome::ws_hw) - 1.0) * 100.0,
                nt_slow, hw_slow,
                study.average(&analysis::MixOutcome::traffic_nt) * 100.0,
                study.average(&analysis::MixOutcome::traffic_hw) * 100.0);
  }
  return 0;
}
