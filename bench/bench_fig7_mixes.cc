// Figure 7 — Distribution functions of throughput (weighted speedup) and
// off-chip traffic increase across 180 randomly generated 4-app mixes, on
// both machines. Paper findings: Soft Pref.+NT beats hardware prefetching
// by 16 % on average on AMD (max 24 %) and ~5 % on Intel (higher throughput
// in 79 % of mixes), never hurts throughput, and reduces off-chip traffic
// in every case — below baseline in 73 % of the Intel mixes.
#include <cstdio>

#include "analysis/mix_study.hh"
#include "bench_common.hh"
#include "support/series_chart.hh"
#include "support/text_table.hh"

int main() {
  using namespace re;
  const int count = bench::mix_count(180);  // the paper's mix count
  bench::print_header(
      "Figure 7: Mixed-workload throughput and off-chip traffic",
      "Distribution across " + std::to_string(count) +
          " random 4-app mixes (sorted per series, paper style)");

  for (const sim::MachineConfig& machine :
       {sim::amd_phenom_ii(), sim::intel_sandybridge()}) {
    analysis::PlanCache cache;
    const analysis::MixStudy study = analysis::run_mix_study(
        machine, cache, count, workloads::InputSet::Reference);

    std::printf("--- %s: weighted speedup over baseline ---\n",
                machine.name.c_str());
    std::vector<ChartSeries> speedups = {
        {"Soft Pref.+NT", study.collect(&analysis::MixOutcome::ws_nt)},
        {"Hardware Pref.", study.collect(&analysis::MixOutcome::ws_hw)}};
    for (ChartSeries& s : speedups) {
      for (double& v : s.values) v -= 1.0;  // report as +x%
    }
    std::printf("%s\n", render_distribution(speedups).c_str());

    std::printf("--- %s: off-chip traffic increase ---\n",
                machine.name.c_str());
    const std::vector<ChartSeries> traffic = {
        {"Soft Pref.+NT", study.collect(&analysis::MixOutcome::traffic_nt)},
        {"Hardware Pref.", study.collect(&analysis::MixOutcome::traffic_hw)}};
    std::printf("%s\n", render_distribution(traffic).c_str());

    int nt_beats_hw = 0, hw_slowdowns = 0, nt_slowdowns = 0;
    int nt_traffic_below_base = 0, nt_less_traffic = 0;
    double max_nt_adv = 0.0;
    for (const analysis::MixOutcome& o : study.outcomes) {
      if (o.ws_nt > o.ws_hw) ++nt_beats_hw;
      if (o.ws_hw < 1.0) ++hw_slowdowns;
      if (o.ws_nt < 1.0) ++nt_slowdowns;
      if (o.traffic_nt < 0.0) ++nt_traffic_below_base;
      if (o.traffic_nt < o.traffic_hw) ++nt_less_traffic;
      max_nt_adv = std::max(max_nt_adv, o.ws_nt / o.ws_hw - 1.0);
    }
    std::printf("summary: avg speedup NT %+.1f%%, HW %+.1f%% | NT > HW in "
                "%d/%d mixes (max advantage %.1f%%)\n",
                (study.average(&analysis::MixOutcome::ws_nt) - 1.0) * 100.0,
                (study.average(&analysis::MixOutcome::ws_hw) - 1.0) * 100.0,
                nt_beats_hw, count, max_nt_adv * 100.0);
    std::printf("         HW slows %d mixes below baseline; NT slows %d\n",
                hw_slowdowns, nt_slowdowns);
    std::printf("         avg traffic NT %+.1f%%, HW %+.1f%% | NT below "
                "baseline in %d mixes, NT < HW in %d/%d\n\n",
                study.average(&analysis::MixOutcome::traffic_nt) * 100.0,
                study.average(&analysis::MixOutcome::traffic_hw) * 100.0,
                nt_traffic_below_base, nt_less_traffic, count);
  }
  return 0;
}
