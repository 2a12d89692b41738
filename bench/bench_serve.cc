// Advisory-service overload acceptance gate (repf serve tier).
//
// Drives the long-lived plan service with seeded mixed hot/cold traffic
// from 10k simulated client cores in virtual time, sized so that cache
// misses arrive at roughly 2x the solve capacity — the overload regime the
// degradation ladder exists for. The miss path runs the real analysis
// engine (run_optimize with cooperative cancellation), fanned over the
// deterministic executor.
//
// Gates (enforced outside RE_BENCH_SMOKE):
//   1. bounded queue: the solve queue's high-water mark never exceeds its
//      configured capacity, at 2x saturation,
//   2. no stale-as-fresh: zero deadline-missed answers returned with a
//      non-degraded kind (stale_fresh_violations == 0),
//   3. degraded answers are safe: every degraded response is exactly the
//      core's last-known-good plan set or the empty no-prefetch set,
//   4. p99 admitted latency (fresh + cache hits) stays within the deadline,
//   5. overload actually sheds (shed + degraded > 0 at 2x saturation —
//      otherwise the bench is not testing what it claims),
//   6. byte-determinism: the chained response digest and headline counters
//      are identical across --jobs 1 vs --jobs 8 and across two identical
//      runs.
//
// Reports p50/p99 admitted latency, shed rate, and deadline-miss rate to
// BENCH_serve.json. Exits non-zero on any violation — CI gate, same
// contract as bench_chaos_recovery.
#include <cstdio>
#include <string>

#include "bench_common.hh"
#include "engine/executor.hh"
#include "serve/harness.hh"
#include "serve/service.hh"
#include "sim/config.hh"
#include "support/text_table.hh"

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
      "Advisory service under overload: 10k cores at 2x solve saturation",
      "Deadline budgets, admission control, and the degradation ladder "
      "(AMD config)");
  if (smoke) std::printf("[smoke mode: tiny runs, gates not enforced]\n\n");

  const sim::MachineConfig machine = sim::amd_phenom_ii();
  bench::JsonReport report("serve");
  report.set("seed", kSeed);

  // Sizing for ~2x saturation: solve capacity is solve_slots / solve_cost
  // = 8/48 ~ 0.17 solves/tick. With a 90 % hot mix over 4 quickly-cached
  // hot families and a 4096-family cold tail (mostly never seen twice),
  // miss arrivals ~ 0.1 * cores * request_rate ~ 0.33/tick — twice what
  // the solver can retire.
  serve::TrafficConfig traffic;
  traffic.cores = smoke ? 500 : 10000;
  traffic.ticks = smoke ? 128 : 1024;
  traffic.request_rate = smoke ? 0.007 : 0.00033;
  traffic.hot_fraction = 0.9;
  traffic.hot_families = 4;
  traffic.cold_families = smoke ? 256 : 4096;
  traffic.seed = kSeed;

  serve::ServiceOptions sopts;
  sopts.solve_slots = 8;
  sopts.solve_cost_ticks = 48;
  sopts.deadline_ticks = 256;
  sopts.queue_capacity = 64;
  sopts.seed = kSeed ^ 0xAD115EEDull;

  const std::vector<serve::Family> families =
      serve::make_families(traffic.hot_families, traffic.cold_families);

  // Three runs: jobs=1 twice (run-to-run determinism) and jobs=8
  // (executor-width determinism). Identical bytes or bust.
  struct Run {
    const char* label;
    int jobs;
  };
  const Run runs[] = {{"jobs=1", 1}, {"jobs=1 (replay)", 1}, {"jobs=8", 8}};
  serve::ServeRunResult results[3];
  for (int i = 0; i < 3; ++i) {
    const engine::Executor executor(runs[i].jobs);
    const serve::AdvisoryService::Solver solver =
        serve::make_engine_solver(families, machine, &executor);
    results[i] = serve::run_serve_sim(traffic, sopts, solver, &executor);
  }
  const serve::ServeRunResult& r = results[0];
  const serve::ServiceStats& s = r.stats;

  TextTable table({"metric", "value"});
  table.add_row({"client cores", std::to_string(traffic.cores)});
  table.add_row({"virtual ticks", std::to_string(traffic.ticks)});
  table.add_row({"requests", std::to_string(s.submitted)});
  table.add_row({"  fresh solves", std::to_string(s.fresh)});
  table.add_row({"  cache hits", std::to_string(s.cache_hits)});
  table.add_row({"  last-known-good", std::to_string(s.last_known_good)});
  table.add_row({"  no-prefetch", std::to_string(s.no_prefetch)});
  table.add_row({"shed (queue full / infeasible)",
                 std::to_string(s.shed_queue_full) + " / " +
                     std::to_string(s.shed_infeasible)});
  table.add_row({"cancelled solves", std::to_string(s.cancelled_solves)});
  table.add_row({"p50 admitted (ticks)", format_double(r.p50_admitted, 1)});
  table.add_row({"p99 admitted (ticks)", format_double(r.p99_admitted, 1)});
  table.add_row({"shed rate", format_percent(r.shed_rate)});
  table.add_row({"deadline-miss rate", format_percent(r.deadline_miss_rate)});
  table.add_row({"degraded rate", format_percent(r.degraded_rate)});
  table.add_row({"max queue depth",
                 std::to_string(s.max_queue_depth) + " / " +
                     std::to_string(sopts.queue_capacity)});
  table.add_row({"stale-as-fresh", std::to_string(s.stale_fresh_violations)});
  std::fputs(table.render().c_str(), stdout);

  std::printf("determinism:");
  for (int i = 0; i < 3; ++i) {
    std::printf(" %s digest=%016llx", runs[i].label,
                static_cast<unsigned long long>(results[i].digest));
  }
  std::printf("\n\n");

  report.set("cores", static_cast<std::uint64_t>(traffic.cores));
  report.set("requests", s.submitted);
  report.set("p50_admitted_ticks", r.p50_admitted);
  report.set("p99_admitted_ticks", r.p99_admitted);
  report.set("shed_rate", r.shed_rate);
  report.set("deadline_miss_rate", r.deadline_miss_rate);
  report.set("hit_rate", r.hit_rate);
  report.set("degraded_rate", r.degraded_rate);
  report.set("fresh", s.fresh);
  report.set("cache_hits", s.cache_hits);
  report.set("last_known_good", s.last_known_good);
  report.set("no_prefetch", s.no_prefetch);
  report.set("cancelled_solves", s.cancelled_solves);
  report.set("max_queue_depth", static_cast<std::uint64_t>(s.max_queue_depth));
  report.set("stale_fresh_violations", s.stale_fresh_violations);
  report.set("digest", r.digest);

  if (enforce) {
    check(r.queue_bounded,
          "solve queue exceeded its configured capacity under overload");
    check(r.no_stale_fresh && s.stale_fresh_violations == 0,
          "a deadline-missed answer was returned as if fresh");
    check(r.degraded_safe,
          "a degraded answer was not last-known-good or no-prefetch");
    check(r.p99_admitted <= static_cast<double>(sopts.deadline_ticks),
          "p99 admitted latency exceeded the deadline budget");
    check(s.shed_queue_full + s.shed_infeasible + s.last_known_good +
                  s.no_prefetch >
              0,
          "2x saturation produced no shedding (bench mis-sized)");
    check(s.fresh > 0 && s.cache_hits > 0,
          "traffic mix produced no fresh solves or no cache hits");
    for (int i = 1; i < 3; ++i) {
      check(results[i].digest == r.digest &&
                results[i].stats.submitted == s.submitted &&
                results[i].stats.fresh == s.fresh &&
                results[i].stats.cache_hits == s.cache_hits &&
                results[i].stats.last_known_good == s.last_known_good &&
                results[i].stats.no_prefetch == s.no_prefetch,
            "response stream diverged across runs/--jobs (determinism "
            "contract broken)");
    }
  }

  report.write();

  if (violations > 0) {
    std::printf("FAILED: %d serve invariant violation(s) (reproduce with "
                "seed %llu)\n",
                violations, static_cast<unsigned long long>(kSeed));
    return 1;
  }
  std::printf("All serve overload invariants hold.\n");
  return 0;
}
