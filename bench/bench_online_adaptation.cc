// Online adaptation acceptance gate (runtime subsystem).
//
// Compares five ways of running a phase-alternating workload whose hot PC
// changes behaviour between phases (streaming with one stride in phase A,
// L1-resident with another in phase B). The merged profile sees a bimodal
// stride for that PC and the stride-dominance gate rejects it, so the
// offline static plan forfeits the streaming phase; phase-aware profiles
// recover it:
//
//   baseline      no prefetching
//   static        offline merged plan (optimize_program), baked in
//   oracle        per-phase plans switched by a ScheduledPlanAgent that
//                 knows the segment boundaries from an offline phase profile
//   online cold   AdaptiveController starting with an empty plan cache
//   online warm   AdaptiveController warm-started from the cold run's plan
//                 cache via the JSON snapshot (save -> load round trip)
//
// Gates (skipped under RE_BENCH_SMOKE, where runs are too short to be
// meaningful):
//   1. warm online IPC within 2 % of the per-phase oracle,
//   2. warm online beats the static merged plan outright,
//   3. the plan cache actually serves hot swaps (hits on the warm run),
//   4. a stable single-phase workload (milc) loses < 1 % vs static,
//   5. the bandwidth governor engages on a saturated 4-core streaming mix
//      without costing > 2 % vs the static mix.
//
// Exits non-zero on any violation — CI gate, same contract as
// bench_robustness_faults.
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "core/phases.hh"
#include "core/pipeline.hh"
#include "runtime/adaptive_controller.hh"
#include "runtime/plan_cache.hh"
#include "runtime/scheduled_agent.hh"
#include "sim/system.hh"
#include "support/text_table.hh"
#include "workloads/suite.hh"

namespace {

using namespace re;

constexpr std::uint64_t KB = 1024;
constexpr std::uint64_t MB = 1024 * KB;

/// Two alternating phases sharing pc 1 with conflicting behaviour. In the
/// streaming phase pc 1 walks an 8 MB array with a 64-byte stride (every
/// access a cold miss -> prefetch pays off); in the hot phase the same pc
/// cycles a 16 kB L1-resident buffer with a 16-byte stride. The merged
/// profile therefore sees pc 1 with a bimodal stride (50/50 between 64 and
/// 16), which fails the stride-dominance gate: the offline static plan
/// cannot prefetch pc 1 at all and forfeits the streaming phase. Per-phase
/// profiles — offline segments for the oracle, online windowed sub-profiles
/// for the controller — each see a clean dominant stride and recover it.
workloads::Program phase_alternating_program(std::uint64_t iterations,
                                             std::uint64_t reps) {
  using workloads::HotBufferPattern;
  using workloads::Loop;
  using workloads::StaticInst;
  using workloads::StreamPattern;

  workloads::Program p;
  p.name = "phasetick";
  p.seed = 17;

  StaticInst a1, a2;
  a1.pc = 1;
  a1.pattern = StreamPattern{0, 64, 8 * MB};
  a1.compute_cycles = 14;
  a2.pc = 2;
  a2.pattern = StreamPattern{1ULL << 32, 8, 4 * MB};
  a2.compute_cycles = 14;
  p.loops.push_back(Loop{{a1, a2}, iterations});

  StaticInst b1;
  b1.pc = 1;  // same pc, different stride and locality
  b1.pattern = HotBufferPattern{2ULL << 32, 16, 16 * KB};
  b1.compute_cycles = 2;
  p.loops.push_back(Loop{{b1}, iterations});

  p.outer_reps = reps;
  return p;
}

double ipc(const sim::RunResult& r) {
  if (r.apps.empty() || r.apps[0].cycles == 0) return 0.0;
  return static_cast<double>(r.apps[0].references) /
         static_cast<double>(r.apps[0].cycles);
}

runtime::AdaptiveOptions adaptive_options() {
  runtime::AdaptiveOptions opts;
  // Small windows so switch lag (>= 1 window per phase change by
  // construction: the detector needs one full window of the new phase) is a
  // fraction of a percent of the run. Fingerprints use exact per-PC counts,
  // so tiny windows stay sharp; only re-optimization needs samples, and
  // those accumulate across windows up to min_reoptimize_refs.
  opts.window_refs = 1024;
  opts.sampler = core::SamplerConfig{50, 42};
  opts.phases.hysteresis_windows = 1;
  opts.min_reoptimize_refs = 16384;
  return opts;
}

using bench::check;
using bench::violations;

}  // namespace

int main() {
  const bool smoke = bench::smoke_mode();
  const bool enforce = !smoke;
  bench::print_header(
      "Online adaptation: windowed sampling + plan cache + governor",
      "Adaptive controller vs offline static plan vs per-phase oracle "
      "(AMD config)");
  if (smoke) std::printf("[smoke mode: tiny runs, gates not enforced]\n\n");

  const sim::MachineConfig machine = sim::amd_phenom_ii();
  bench::JsonReport report("online_adaptation");
  report.set("seed", std::uint64_t{17});  // the workload generator seed

  // ---------------------------------------------------------------- phase
  // alternation scenario
  const std::uint64_t iters = smoke ? 16384 : 131072;
  const std::uint64_t reps = smoke ? 2 : 4;
  const workloads::Program program = phase_alternating_program(iters, reps);

  const sim::RunResult base = sim::run_single(machine, program, false);

  const core::OptimizationReport merged =
      core::optimize_program(program, machine);
  const sim::RunResult stat =
      sim::run_single(machine, merged.optimized, false);

  const core::PhasedOptimizationReport phased =
      core::phase_aware_optimize(program, machine);
  runtime::ScheduledPlanAgent oracle_agent(phased.phases.segments,
                                           phased.per_phase_plans);
  const sim::RunResult oracle =
      sim::run_single_adaptive(machine, program, false, oracle_agent);

  const runtime::AdaptiveOptions aopts = adaptive_options();
  runtime::AdaptiveController cold_ctl(program, machine, aopts);
  const sim::RunResult cold =
      sim::run_single_adaptive(machine, program, false, cold_ctl);
  const runtime::AdaptiveStats cold_stats = cold_ctl.stats();

  // Warm start: JSON round trip through the snapshot format, exactly what
  // `repf adapt --save-cache / --load-cache` does between runs.
  const std::string snapshot = cold_ctl.plan_cache().to_json();
  runtime::AdaptiveController warm_ctl(program, machine, aopts);
  auto loaded = runtime::PlanCache::from_json(snapshot, aopts.cache);
  check(loaded.has_value(), "plan-cache JSON snapshot failed to reload");
  if (loaded.has_value()) {
    warm_ctl.plan_cache() = std::move(loaded.value());
  }
  const sim::RunResult warm =
      sim::run_single_adaptive(machine, program, false, warm_ctl);
  const runtime::AdaptiveStats warm_stats = warm_ctl.stats();

  TextTable table({"configuration", "cycles", "IPC", "vs oracle"});
  const double oracle_cycles = static_cast<double>(oracle.apps[0].cycles);
  const auto row = [&](const char* name, const sim::RunResult& r) {
    table.add_row({name, std::to_string(r.apps[0].cycles),
                   format_double(ipc(r), 4),
                   format_percent(static_cast<double>(r.apps[0].cycles) /
                                      oracle_cycles -
                                  1.0)});
  };
  row("baseline (no pf)", base);
  row("static merged", stat);
  row("per-phase oracle", oracle);
  row("online cold", cold);
  row("online warm", warm);
  std::printf("%s\n", table.render().c_str());

  std::printf(
      "cold: windows=%llu phases=%d switches=%llu reopt=%llu (refine=%llu) "
      "hot_swaps=%llu cache_hit_rate=%.2f\n",
      static_cast<unsigned long long>(cold_stats.windows), cold_stats.phases,
      static_cast<unsigned long long>(cold_stats.phase_switches),
      static_cast<unsigned long long>(cold_stats.reoptimizations),
      static_cast<unsigned long long>(cold_stats.refinements),
      static_cast<unsigned long long>(cold_stats.hot_swaps),
      cold_stats.cache.hit_rate());
  std::printf(
      "warm: windows=%llu phases=%d reopt=%llu hot_swaps=%llu "
      "cache_hit_rate=%.2f governor_peak_util=%.2f\n\n",
      static_cast<unsigned long long>(warm_stats.windows), warm_stats.phases,
      static_cast<unsigned long long>(warm_stats.reoptimizations),
      static_cast<unsigned long long>(warm_stats.hot_swaps),
      warm_stats.cache.hit_rate(), warm_stats.governor.peak_utilization);

  report.set("alt_baseline_ipc", ipc(base));
  report.set("alt_static_ipc", ipc(stat));
  report.set("alt_oracle_ipc", ipc(oracle));
  report.set("alt_online_cold_ipc", ipc(cold));
  report.set("alt_online_warm_ipc", ipc(warm));
  report.set("alt_cold_reoptimizations", cold_stats.reoptimizations);
  report.set("alt_cold_refinements", cold_stats.refinements);
  report.set("alt_cold_hot_swaps", cold_stats.hot_swaps);
  report.set("alt_warm_hot_swaps", warm_stats.hot_swaps);
  report.set("alt_warm_cache_hit_rate", warm_stats.cache.hit_rate());

  if (enforce) {
    check(ipc(warm) >= 0.98 * ipc(oracle),
          "warm online IPC not within 2 % of the per-phase oracle");
    check(ipc(warm) > ipc(stat),
          "warm online does not beat the static merged plan");
    check(cold_stats.phases >= 2, "cold run detected fewer than 2 phases");
    check(cold_stats.reoptimizations >= 2,
          "cold run re-optimized fewer than 2 phases");
    check(cold_stats.hot_swaps >= 1,
          "cold run never hot-swapped from the plan cache on a revisit");
    check(warm_stats.cache.hits >= 2,
          "warm run did not hit the preloaded plan cache");
  }

  // ---------------------------------------------------------------- stable
  // single-phase scenario: adaptation must not tax a workload with nothing
  // to adapt to.
  if (!smoke) {
    const workloads::Program milc = workloads::make_benchmark("milc");
    const core::OptimizationReport milc_merged =
        core::optimize_program(milc, machine);
    const sim::RunResult milc_static =
        sim::run_single(machine, milc_merged.optimized, false);

    runtime::AdaptiveController milc_cold(milc, machine, aopts);
    const sim::RunResult milc_cold_run =
        sim::run_single_adaptive(machine, milc, false, milc_cold);

    runtime::AdaptiveController milc_warm(milc, machine, aopts);
    auto milc_loaded = runtime::PlanCache::from_json(
        milc_cold.plan_cache().to_json(), aopts.cache);
    check(milc_loaded.has_value(), "milc plan-cache snapshot failed to reload");
    if (milc_loaded.has_value()) {
      milc_warm.plan_cache() = std::move(milc_loaded.value());
    }
    const sim::RunResult milc_warm_run =
        sim::run_single_adaptive(machine, milc, false, milc_warm);

    const double ratio = static_cast<double>(milc_warm_run.apps[0].cycles) /
                         static_cast<double>(milc_static.apps[0].cycles);
    std::printf(
        "stable workload (milc): static %llu cy, online cold %llu cy, "
        "online warm %llu cy (warm/static = %.4f, phases=%d)\n\n",
        static_cast<unsigned long long>(milc_static.apps[0].cycles),
        static_cast<unsigned long long>(milc_cold_run.apps[0].cycles),
        static_cast<unsigned long long>(milc_warm_run.apps[0].cycles), ratio,
        milc_warm.stats().phases);

    report.set("milc_static_ipc", ipc(milc_static));
    report.set("milc_online_cold_ipc", ipc(milc_cold_run));
    report.set("milc_online_warm_ipc", ipc(milc_warm_run));
    report.set("milc_warm_vs_static", ratio);

    check(ratio <= 1.01,
          "warm online regresses the stable workload by more than 1 %");
  }

  // ---------------------------------------------------------------- mix
  // scenario: saturated shared channel, the governor must engage.
  if (!smoke) {
    const workloads::Program lbm = workloads::make_benchmark("lbm");
    const core::OptimizationReport lbm_merged =
        core::optimize_program(lbm, machine);
    const std::vector<const workloads::Program*> static_mix(
        4, &lbm_merged.optimized);
    const sim::RunResult mix_static =
        sim::run_mix(machine, static_mix, false);

    std::vector<std::unique_ptr<runtime::AdaptiveController>> controllers;
    std::vector<sim::CoreAgent*> agents;
    const std::vector<const workloads::Program*> base_mix(4, &lbm);
    for (int i = 0; i < 4; ++i) {
      controllers.push_back(
          std::make_unique<runtime::AdaptiveController>(lbm, machine, aopts));
      agents.push_back(controllers.back().get());
    }
    const sim::RunResult mix_adaptive =
        sim::run_mix_adaptive(machine, base_mix, false, agents);

    std::uint64_t governed_windows = 0;
    double peak_util = 0.0;
    for (const auto& c : controllers) {
      const runtime::GovernorStats& g = c->stats().governor;
      governed_windows += g.demote_windows + g.suppress_windows;
      if (g.peak_utilization > peak_util) peak_util = g.peak_utilization;
    }
    const double mix_ratio =
        static_cast<double>(mix_adaptive.elapsed_cycles) /
        static_cast<double>(mix_static.elapsed_cycles);
    std::printf(
        "contended mix (4x lbm): static %llu cy @ %.1f GB/s, adaptive %llu "
        "cy @ %.1f GB/s (adaptive/static = %.4f)\n"
        "governor: %llu demoted/suppressed windows across 4 cores, peak "
        "utilization %.2f\n\n",
        static_cast<unsigned long long>(mix_static.elapsed_cycles),
        mix_static.bandwidth_gbps(),
        static_cast<unsigned long long>(mix_adaptive.elapsed_cycles),
        mix_adaptive.bandwidth_gbps(), mix_ratio,
        static_cast<unsigned long long>(governed_windows), peak_util);

    report.set("mix_static_gbps", mix_static.bandwidth_gbps());
    report.set("mix_adaptive_gbps", mix_adaptive.bandwidth_gbps());
    report.set("mix_adaptive_vs_static", mix_ratio);
    report.set("mix_governed_windows", governed_windows);
    report.set("mix_peak_utilization", peak_util);

    check(governed_windows >= 1,
          "governor never engaged on a saturated 4-core mix");
    check(mix_ratio <= 1.02,
          "adaptive mix loses more than 2 % vs the static mix");
  }

  report.write();

  if (violations > 0) {
    std::printf("FAILED: %d online-adaptation invariant violation(s)\n",
                violations);
    return 1;
  }
  std::printf("All online-adaptation invariants hold.\n");
  return 0;
}
