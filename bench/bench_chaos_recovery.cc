// Chaos recovery acceptance gate (supervised runtime).
//
// Replays seeded fault schedules — sampling-window drops, clock skew,
// governor signal loss, mid-run profile corruption — through the
// per-core failure domains of runtime::Supervisor while a multi-core mix
// runs on a shared memory system, and checks that the recovery machinery
// (watchdog, LKG rollback, exponential backoff, half-open probes, circuit
// breaker) preserves the paper's never-hurts contract under fire.
//
// Three runs per fault rate: an unmanaged no-prefetch baseline, a clean
// supervised run (no faults) and the chaotic supervised run. Gates
// (skipped under RE_BENCH_SMOKE, where runs are too short):
//   1. never-hurts: no app in the chaotic run loses more than 1 % against
//      the no-prefetch baseline, at any fault rate in the 0-50 % sweep,
//   2. bounded recovery: every domain that recovered did so within 64
//      windows of its last trip,
//   3. no domain's circuit opens permanently at these fault rates,
//   4. a zero-fault schedule causes zero trips (the watchdog and health
//      checks have no false positives),
//   5. faults actually exercise the machinery (trips > 0 at rates >= 10 %),
//   6. the crash-consistent plan-cache journal quarantines corruption and
//      survives torn writes (kill-and-restart of the cache file).
//
// Exits non-zero on any violation — CI gate, same contract as
// bench_online_adaptation.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "runtime/chaos.hh"
#include "runtime/supervisor.hh"
#include "support/text_table.hh"
#include "workloads/program.hh"

namespace {

using namespace re;

constexpr std::uint64_t kSeed = 42;

using bench::check;
using bench::violations;

}  // namespace

int main() {
  const bool smoke = bench::smoke_mode();
  const bool enforce = !smoke;
  bench::print_header(
      "Chaos recovery: per-core failure domains under seeded fault schedules",
      "Supervised adaptive runtime vs no-prefetch baseline across a 0-50 % "
      "fault-rate sweep (AMD config)");
  if (smoke) std::printf("[smoke mode: tiny runs, gates not enforced]\n\n");

  const sim::MachineConfig machine = sim::amd_phenom_ii();
  bench::JsonReport report("chaos_recovery");
  report.set("seed", kSeed);

  const int cores = smoke ? 2 : 4;
  const std::uint64_t iterations = smoke ? 8192 : 32768;
  std::vector<workloads::Program> storage;
  storage.reserve(static_cast<std::size_t>(cores));
  for (int c = 0; c < cores; ++c) {
    storage.push_back(
        runtime::chaos_mix_program(static_cast<std::uint64_t>(c), iterations));
  }
  std::vector<const workloads::Program*> programs;
  for (const workloads::Program& p : storage) programs.push_back(&p);

  const runtime::SupervisorOptions sopts =
      runtime::chaos_supervisor_options(kSeed);
  const std::vector<double> rates = {0.0, 0.1, 0.25, 0.5};

  TextTable table({"fault rate", "episodes", "trips", "rollbacks",
                   "recoveries", "opens", "worst rec (win)", "vs no-pf"});
  std::uint64_t trips_at_low_rates = 0;
  for (const double rate : rates) {
    runtime::ChaosConfig config;
    config.fault_rate = rate;
    config.horizon_refs = storage[0].total_references();
    config.mean_episode_refs = 8192;
    config.cores = cores;
    config.seed = kSeed;

    const runtime::ChaosRunResult result =
        runtime::run_chaos_mix(machine, programs, false, config, sopts);

    if (rate > 0.0) trips_at_low_rates += result.total_trips;

    table.add_row({format_percent(rate, 0),
                   std::to_string(result.schedule.episodes().size()),
                   std::to_string(result.total_trips),
                   std::to_string(result.total_rollbacks),
                   std::to_string(result.total_recoveries),
                   std::to_string(result.open_domains),
                   std::to_string(result.worst_recovery_windows),
                   format_double(result.worst_vs_baseline, 4)});

    const std::string tag =
        "rate_" + std::to_string(static_cast<int>(rate * 100.0));
    report.set(tag + "_worst_vs_baseline", result.worst_vs_baseline);
    report.set(tag + "_trips",
               static_cast<std::uint64_t>(result.total_trips));
    report.set(tag + "_recovery_windows", result.worst_recovery_windows);

    if (enforce) {
      check(result.worst_vs_baseline <= 1.01,
            "chaotic run lost more than 1 % to the no-prefetch baseline");
      check(result.worst_recovery_windows <= 64,
            "a domain needed more than 64 windows to recover");
      check(result.open_domains == 0,
            "a domain's circuit opened permanently");
      if (rate == 0.0) {
        check(result.total_trips == 0,
              "zero-fault schedule tripped a domain (false positive)");
      }
    }
  }
  std::fputs(table.render().c_str(), stdout);
  std::printf("(chaos seed %llu; worst rec = windows from last trip to "
              "re-arm)\n\n",
              static_cast<unsigned long long>(kSeed));
  if (enforce) {
    check(trips_at_low_rates > 0,
          "fault sweep never tripped a domain (chaos harness inert)");
  }

  // Crash consistency of the plan-cache journal: corruption past the header
  // is quarantined entry by entry, and a kill mid-save leaves the previous
  // snapshot fully loadable.
  const runtime::CacheCrashReport crash = runtime::chaos_cache_crash_check(
      kSeed, smoke ? 8 : 64, "BENCH_chaos_recovery_cache.json");
  std::printf("%s\n\n", crash.to_string().c_str());
  report.set("crash_trials", static_cast<std::uint64_t>(crash.trials));
  report.set("crash_failed_loads",
             static_cast<std::uint64_t>(crash.failed_loads));
  report.set("crash_entries_recovered",
             static_cast<std::uint64_t>(crash.entries_recovered));
  if (enforce) {
    check(crash.failed_loads == 0,
          "body corruption made a plan-cache load fail outright");
    check(crash.accounting_errors == 0,
          "a quarantined load lost track of an entry");
    check(crash.survives_torn_write,
          "a torn cache write destroyed the previous snapshot");
  }

  report.write();

  if (violations > 0) {
    std::printf("FAILED: %d chaos-recovery invariant violation(s) "
                "(reproduce with seed %llu)\n",
                violations, static_cast<unsigned long long>(kSeed));
    return 1;
  }
  std::printf("All chaos-recovery invariants hold.\n");
  return 0;
}
