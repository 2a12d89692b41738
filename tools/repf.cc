// repf — command-line front end for the resource-efficient prefetching
// framework: dump workloads to the trace-program DSL, run the optimization
// pipeline on a DSL file (printing the annotated listing with inserted
// prefetches), simulate programs under any policy, and measure coverage.
//
// The subcommands, their flags and their help live in the `kCommands`
// registry below; `repf --help` and `repf <command> --help` print them.
// Every command except dump, optimize and commands builds one Report: main
// prints it as text and, with --json FILE, also writes it as JSON.
//
// Exit codes (uniform across commands): 0 success; 1 operational failure
// (bad file, I/O error, verify mismatch); 2 invalid usage; 3
// runtime-degradation gate failure (faultcheck, chaos, or serve invariant
// violated — the output names the seed that reproduces it).
#include <sys/stat.h>

#include <algorithm>
#include <cstdio>
#include <limits>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/functional_sim.hh"
#include "core/fault_injection.hh"
#include "core/phases.hh"
#include "core/pipeline.hh"
#include "engine/executor.hh"
#include "engine/pipeline.hh"
#include "runtime/adaptive_controller.hh"
#include "runtime/chaos.hh"
#include "runtime/plan_cache.hh"
#include "runtime/supervisor.hh"
#include "serve/harness.hh"
#include "serve/service.hh"
#include "sim/system.hh"
#include "support/atomic_file.hh"
#include "support/numbers.hh"
#include "support/report.hh"
#include "support/text_table.hh"
#include "verify/differential.hh"
#include "verify/golden.hh"
#include "verify/trace_fuzzer.hh"
#include "workloads/dsl.hh"
#include "workloads/suite.hh"

namespace {

using namespace re;

// Exit-code policy (documented in usage()): distinct codes let CI tell a
// broken invocation from a broken invariant.
constexpr int kExitFailure = 1;   // operational failure (I/O, bad input file)
constexpr int kExitUsage = 2;     // invalid arguments
constexpr int kExitDegraded = 3;  // never-hurts / recovery gate violated

// Per-command --seed defaults.
constexpr std::uint64_t kFaultSeed = 0xFA57;   // faultcheck
constexpr std::uint64_t kFuzzSeed = 42;        // verify, corun
constexpr std::uint64_t kChaosSeed = 0xC4A05;  // chaos, serve

// JSON keys that more than one report writes. Every other key is written
// once, at the cell that carries it.
constexpr const char* kBenchmarkKey = "benchmark";
constexpr const char* kMachineKey = "machine";
constexpr const char* kSeedKey = "seed";
constexpr const char* kCoresKey = "cores";
constexpr const char* kReferencesKey = "references";
constexpr const char* kPhasesKey = "phases";
constexpr const char* kBaselineCyclesKey = "baseline_cycles";
constexpr const char* kRatesKey = "rates";
constexpr const char* kCrashCheckKey = "crash_check";
constexpr const char* kTrialsKey = "trials";
constexpr const char* kWarmFilesRejectedKey = "warm_files_rejected";
constexpr const char* kWarmEntriesLoadedKey = "warm_entries_loaded";
constexpr const char* kWarmEntriesQuarantinedKey = "warm_entries_quarantined";

struct Options {
  std::string command;
  std::string target;
  sim::MachineConfig machine = sim::amd_phenom_ii();
  bool hw_prefetch = false;
  bool optimize = false;
  bool enable_nt = true;
  bool stride_centric = false;
  bool verbose = false;
  bool help = false;
  /// Fault rate for `faultcheck` and `chaos` as a fraction; negative =
  /// sweep the command's default ladder.
  double fault_rate = -1.0;
  /// --seed; unset = the command's default (kFaultSeed, kFuzzSeed or
  /// kChaosSeed).
  std::optional<std::uint64_t> seed;
  /// Cores in the `chaos` synthetic mix ([1, 16], checked in cmd_chaos) or
  /// simulated client cores in `serve` (no upper bound — the service is
  /// virtual-time, 10k+ cores is the intended overload regime).
  int chaos_cores = 0;  // 0 = command default (chaos 2, serve 64)
  /// Also run the plan-cache kill-and-restart sweep in `chaos` (with
  /// --serve: the journal tear/recover sweep instead).
  bool crash_check = false;
  /// `chaos --serve`: target the advisory service tier instead of the
  /// supervised adaptive runtime.
  bool chaos_serve = false;
  /// `chaos --serve --poison-warm-start`: also sweep the poisoned
  /// warm-start recovery gates (bit flips, stale fingerprints, truncation).
  bool poison_warm_start = false;
  /// `serve`: journal acked plans to this directory.
  std::string serve_journal_dir;
  /// `serve --warm-start DIR`: trust-but-verify cache warm-up from a
  /// prior run's shard journals.
  std::string warm_start_dir;
  /// Virtual ticks for `serve` (0 = default 512).
  std::uint64_t serve_steps = 0;
  /// Comma-separated fuzzer family names for `verify` (empty = all).
  std::string families;
  /// Golden-plan snapshot directory for `verify`; empty skips the check.
  std::string golden_dir;
  bool bless = false;
  /// Phase/adaptation window in references (0 = command default).
  std::uint64_t window = 0;
  /// Phase-signature similarity threshold (0 = command default).
  double threshold = 0.0;
  std::string save_cache;
  std::string load_cache;
  /// Engine worker count (--jobs). 1 = serial; any N yields byte-identical
  /// output (the executor's determinism contract).
  int jobs = 1;
  /// Also write the command's report as JSON to this path (atomic write).
  std::string json_path;
};

/// The `ok` field; in a row table it is the verdict column.
Cell ok_cell(bool ok, const char* failure = "VIOLATION") {
  return {"ok", "verdict", ok, ok ? "OK" : failure};
}

Cell fault_rate_cell(double rate, int decimals) {
  return percent_cell("fault_rate", "fault rate", rate, decimals);
}

/// One unit of a fanned-out sweep: its table row, its verdict and the text
/// printed after the table (logs, per-unit reports).
struct UnitRow {
  std::vector<Cell> row;
  bool ok = true;
  std::string details;
};

/// Add `units` as the row table `key`, followed by their details. Returns
/// how many units failed.
int add_units(Report& report, const char* key,
              const std::vector<UnitRow>& units) {
  std::vector<std::vector<Cell>> rows;
  std::string details;
  int failed = 0;
  for (const UnitRow& unit : units) {
    rows.push_back(unit.row);
    details += unit.details;
    if (!unit.ok) ++failed;
  }
  report.rows(key, std::move(rows));
  report.text(std::move(details));
  return failed;
}

/// Close a gated report: the `ok` field, then the verdict line. A failure
/// names the seed that reproduces it and exits kExitDegraded.
int gate_verdict(Report& report, int violations, std::uint64_t seed,
                 const char* failed, const char* violation, const char* holds) {
  report.field(ok_cell(violations == 0));
  if (violations == 0) {
    report.text(holds);
    return 0;
  }
  report.print("%s: %d %s (reproduce with --seed %llu)\n", failed, violations,
               violation, static_cast<unsigned long long>(seed));
  return kExitDegraded;
}

/// The `machine` and `seed` fields, and the header line that names them:
/// `# repf <title> | machine=M | seed=S<details>`.
void seeded_header(Report& report, const Options& opts, std::uint64_t seed,
                   const char* title, const std::string& details) {
  report.fields("", {},
                {cell(kMachineKey, "", opts.machine.name),
                 cell(kSeedKey, "", seed)});
  report.print("# repf %s | machine=%s | seed=%llu%s\n", title,
               opts.machine.name.c_str(),
               static_cast<unsigned long long>(seed), details.c_str());
}

workloads::Program load_target(const std::string& target) {
  const auto& names = workloads::suite_names();
  if (std::find(names.begin(), names.end(), target) != names.end()) {
    return workloads::make_benchmark(target);
  }
  const Expected<std::string> text = support::read_file(target);
  if (!text.has_value()) {
    throw std::runtime_error("no such benchmark or file: " + target);
  }
  return workloads::parse_program(*text);
}

/// Check a freshly rendered snapshot against the golden file
/// `--golden DIR/filename(machine)`, or rewrite the file under --bless.
/// `render` runs only when --golden is given. Adds the status lines and the
/// `field` status cell; returns false when the snapshot is missing or
/// differs.
template <typename Render>
bool check_golden(const Options& opts,
                  std::string (*filename)(const std::string&),
                  const char* title, const char* field, Render render,
                  Report& report) {
  std::string status = "skipped";
  if (!opts.golden_dir.empty()) {
    const std::string path =
        opts.golden_dir + "/" + filename(opts.machine.name);
    const std::string rendered = render();
    if (opts.bless) {
      const Status saved = support::write_file_atomic(path, rendered);
      if (!saved.ok()) {
        throw std::runtime_error(path + ": " + saved.to_string());
      }
      report.print("== %s: blessed %s\n", title, path.c_str());
      status = "blessed";
    } else if (const Expected<std::string> golden = support::read_file(path);
               !golden.has_value()) {
      report.print("== %s: %s missing (run with --bless)\n", title,
                   path.c_str());
      status = "missing";
    } else if (const std::string diff = verify::diff_golden(*golden, rendered);
               diff.empty()) {
      report.print("== %s: %s matches\n", title, path.c_str());
      status = "match";
    } else {
      report.print("== %s: %s DIFFERS (-golden/+current)\n%s", title,
                   path.c_str(), diff.c_str());
      status = "differs";
    }
  }
  report.field(cell(field, "", status));
  return status != "missing" && status != "differs";
}

int cmd_list(const Options&, Report& report) {
  report.text("built-in workload models (paper Table I):\n");
  std::vector<std::vector<Cell>> rows;
  for (const std::string& name : workloads::suite_names()) {
    const auto p = workloads::make_benchmark(name);
    rows.push_back({cell(kBenchmarkKey, "benchmark", name),
                    cell(kReferencesKey, "refs/run", p.total_references()),
                    cell("static_loads", "static loads",
                         p.static_instruction_count())});
  }
  report.rows("benchmarks", std::move(rows));
  return 0;
}

int cmd_dump(const Options& opts, Report& report) {
  report.text(workloads::print_program(load_target(opts.target)));
  return 0;
}

int cmd_optimize(const Options& opts, Report& report) {
  const workloads::Program program = load_target(opts.target);
  core::OptimizerOptions options;
  options.enable_non_temporal = opts.enable_nt;
  const engine::Executor executor(opts.jobs);
  const engine::EngineContext ctx{&executor};
  const core::OptimizationReport result =
      opts.stride_centric
          ? engine::run_stride_centric(program, opts.machine, options, ctx)
          : engine::run_optimize(program, opts.machine, options, ctx);

  if (opts.verbose) {
    report.print("# effective analysis knobs:\n");
    std::istringstream lines(engine::describe_knobs(options));
    std::string line;
    while (std::getline(lines, line)) {
      report.print("#   %s\n", line.c_str());
    }
    // Execution config: the analysis result never depends on it, the
    // wall-clock (and the audit trail) does.
    report.print("# executor: %s\n",
                 engine::describe_executor(executor).c_str());
  }
  report.print("# %s pass on %s | Δ=%.2f cycles/memop | %zu plans\n",
               opts.stride_centric ? "stride-centric" : "MDDLI",
               opts.machine.name.c_str(), result.cycles_per_memop,
               result.plans.size());
  for (const auto& plan : result.plans) {
    report.print("#   pc%-3u %s %+lld\n", plan.pc,
                 core::hint_mnemonic(plan.hint),
                 static_cast<long long>(plan.distance_bytes));
  }
  report.text(workloads::print_program(result.optimized));
  return 0;
}

int cmd_run(const Options& opts, Report& report) {
  workloads::Program program = load_target(opts.target);
  if (opts.optimize) {
    core::OptimizerOptions options;
    options.enable_non_temporal = opts.enable_nt;
    const engine::Executor executor(opts.jobs);
    program = engine::run_optimize(program, opts.machine, options,
                                   engine::EngineContext{&executor})
                  .optimized;
  }
  const sim::RunResult run =
      sim::run_single(opts.machine, program, opts.hw_prefetch);
  const auto& mem = run.apps[0].mem;
  const double cpi = static_cast<double>(run.apps[0].cycles) /
                     static_cast<double>(mem.loads);

  report.fields(
      "", {"metric", "value"},
      {cell(kBenchmarkKey, "", program.name),
       cell(kMachineKey, "machine", opts.machine.name),
       {"hw_prefetch", "", opts.hw_prefetch, ""},
       {"optimized", "", opts.optimize, ""},
       cell("cycles", "cycles", run.apps[0].cycles),
       cell(kReferencesKey, "references", mem.loads),
       decimal_cell("cpi_per_memop", "CPI (per memop)", cpi, 2),
       percent_cell("l1_miss_ratio", "L1 miss ratio", mem.l1_miss_ratio()),
       cell("offchip_lines", "off-chip lines", run.dram.total_lines()),
       {"bandwidth_gbps", "bandwidth", run.bandwidth_gbps(),
        format_gbps(run.bandwidth_gbps())},
       cell("sw_prefetches", "sw prefetches", mem.sw_prefetches_issued),
       cell("late_prefetches", "late prefetches", mem.late_prefetch_hits),
       cell("hw_prefetch_lines", "hw prefetch lines",
            mem.hw_prefetch_dram_lines)});
  return 0;
}

int cmd_phases(const Options& opts, Report& report) {
  const workloads::Program program = load_target(opts.target);
  core::PhaseOptions phase_options;
  if (opts.window > 0) phase_options.window_refs = opts.window;
  if (opts.threshold > 0.0) phase_options.similarity_threshold = opts.threshold;
  const core::PhasedProfile phased =
      core::profile_with_phases(program, {}, phase_options);
  report.fields("", {},
                {cell(kBenchmarkKey, "", program.name),
                 cell(kPhasesKey, "", phased.num_phases),
                 cell(kReferencesKey, "", phased.full.total_references)});
  report.print("%d phase(s) over %llu references\n", phased.num_phases,
               static_cast<unsigned long long>(
                   phased.full.total_references));
  std::vector<std::vector<Cell>> rows;
  for (std::size_t i = 0; i < phased.segments.size(); ++i) {
    const auto& seg = phased.segments[i];
    rows.push_back({cell("segment", "segment", i),
                    cell("phase", "phase", seg.phase_id),
                    cell("begin", "begin", seg.begin_ref),
                    cell("end", "end", seg.end_ref),
                    cell("refs", "refs", seg.end_ref - seg.begin_ref)});
  }
  report.rows("segments", std::move(rows));
  return 0;
}

int cmd_coverage(const Options& opts, Report& report) {
  const workloads::Program program = load_target(opts.target);
  const auto mddli = core::optimize_program(program, opts.machine);
  const auto centric = core::stride_centric_optimize(program, opts.machine);
  const auto row = [&](const char* method,
                       const core::OptimizationReport& optimized) {
    const auto coverage = analysis::measure_coverage(
        program, optimized.optimized, opts.machine.l1);
    return std::vector<Cell>{
        cell("method", "method", method),
        percent_cell("miss_coverage", "miss coverage",
                     coverage.miss_coverage()),
        decimal_cell("overhead", "OH", coverage.overhead(), 1),
        cell("prefetches", "prefetches", coverage.prefetches_executed)};
  };
  report.fields("", {},
                {cell(kBenchmarkKey, "", program.name),
                 cell(kMachineKey, "", opts.machine.name)});
  report.rows("methods",
              {row("MDDLI filtered", mddli), row("stride-centric", centric)});
  return 0;
}

int cmd_adapt(const Options& opts, Report& report) {
  const workloads::Program program = load_target(opts.target);

  // One executor for the whole command: the offline static plan and every
  // per-window re-optimization inside the controller fan out over it.
  // Declared before the controller so the pointer outlives every use.
  const engine::Executor executor(opts.jobs);

  runtime::AdaptiveOptions aopts;
  aopts.executor = &executor;
  aopts.window_refs = 1024;
  aopts.sampler = core::SamplerConfig{50, 42};
  aopts.phases.hysteresis_windows = 1;
  if (opts.window > 0) aopts.window_refs = opts.window;
  if (opts.threshold > 0.0) {
    aopts.phases.similarity_threshold = opts.threshold;
    aopts.cache.match_threshold = opts.threshold;
  }

  runtime::AdaptiveController controller(program, opts.machine, aopts);
  if (!opts.load_cache.empty()) {
    // Crash-consistent load: understands both the CRC journal written by
    // --save-cache and legacy JSON; corrupt entries are quarantined, not
    // fatal (warm-starting from a partial cache beats cold-starting).
    auto loaded = runtime::PlanCache::load_file(opts.load_cache, aopts.cache);
    if (!loaded.has_value()) {
      throw std::runtime_error(opts.load_cache + ": " +
                               loaded.status().to_string());
    }
    runtime::PlanCache::LoadReport load = std::move(loaded.value());
    controller.plan_cache() = std::move(load.cache);
    report.print("# warm start: %zu cached plan set(s) from %s\n",
                 controller.plan_cache().size(), opts.load_cache.c_str());
    if (load.degraded()) {
      report.print(
          "# degraded load: %zu loaded, %zu quarantined, %zu missing\n",
          load.loaded, load.quarantined, load.missing);
      for (const std::string& line : load.quarantine_log) {
        report.print("#   quarantined: %s\n", line.c_str());
      }
    }
  }

  const sim::RunResult base = sim::run_single(opts.machine, program, false);
  const core::OptimizationReport merged =
      engine::run_optimize(program, opts.machine, core::OptimizerOptions{},
                           engine::EngineContext{&executor});
  const sim::RunResult stat =
      sim::run_single(opts.machine, merged.optimized, false);
  const sim::RunResult adaptive =
      sim::run_single_adaptive(opts.machine, program, false, controller);
  const runtime::AdaptiveStats stats = controller.stats();

  report.fields("", {},
                {cell(kBenchmarkKey, "", program.name),
                 cell(kMachineKey, "", opts.machine.name),
                 cell("window_refs", "", aopts.window_refs)});
  const double base_cycles = static_cast<double>(base.apps[0].cycles);
  const auto row = [&](const char* name, const sim::RunResult& r,
                       const char* cycles_key, const char* speedup_key) {
    const double speedup =
        base_cycles / static_cast<double>(r.apps[0].cycles);
    return std::vector<Cell>{
        cell("", "configuration", name),
        cell(cycles_key, "cycles", r.apps[0].cycles),
        decimal_cell(speedup_key, "speedup vs baseline", speedup, 3)};
  };
  // Flattened into the top level: the cycles of each run, then the two
  // speedups (the baseline's own 1.000 is text-only).
  report.rows("", {row("baseline (no prefetch)", base, kBaselineCyclesKey, ""),
                   row("static plan (offline)", stat, "static_cycles",
                       "static_speedup"),
                   row("online adaptive", adaptive, "adaptive_cycles",
                       "adaptive_speedup")});

  report.fields(
      "", {"adaptive runtime metric", "value"},
      {cell("windows", "windows", stats.windows),
       cell(kPhasesKey, "phases detected", stats.phases),
       cell("phase_switches", "phase switches", stats.phase_switches),
       cell("reoptimizations", "re-optimizations", stats.reoptimizations),
       cell("refinements", "  of which refinements", stats.refinements),
       cell("hot_swaps", "plan hot-swaps", stats.hot_swaps),
       percent_cell("cache_hit_rate", "plan-cache hit rate",
                    stats.cache.hit_rate()),
       decimal_cell("measured_cycles_per_memop", "measured Δ (cycles/memop)",
                    stats.measured_cycles_per_memop, 2),
       cell("governor_demote_windows", "governor demote windows",
            stats.governor.demote_windows),
       cell("governor_suppress_windows", "governor suppress windows",
            stats.governor.suppress_windows),
       percent_cell("governor_peak_utilization", "governor peak utilization",
                    stats.governor.peak_utilization)});

  if (opts.verbose) {
    report.print("plan cache (MRU first):\n");
    std::size_t i = 0;
    for (const auto& entry : controller.plan_cache().entries()) {
      report.print("  entry %zu: %zu plan(s)\n", i++, entry.plans.size());
      for (const auto& plan : entry.plans) {
        report.print("    pc%-3u %s %+lld\n", plan.pc,
                     core::hint_mnemonic(plan.hint),
                     static_cast<long long>(plan.distance_bytes));
      }
    }
  }

  if (!opts.save_cache.empty()) {
    // Atomic, checksummed journal (temp file + rename): a kill mid-save
    // leaves any previous snapshot intact.
    const Status saved = controller.plan_cache().save(opts.save_cache);
    if (!saved.ok()) {
      throw std::runtime_error(opts.save_cache + ": " + saved.to_string());
    }
    report.print("# saved %zu cached plan set(s) to %s\n",
                 controller.plan_cache().size(), opts.save_cache.c_str());
  }
  return 0;
}

int cmd_faultcheck(const Options& opts, Report& report) {
  const workloads::Program program = load_target(opts.target);
  const std::uint64_t seed = opts.seed.value_or(kFaultSeed);
  const sim::RunResult base =
      sim::run_single(opts.machine, program, /*hw_prefetch=*/false);
  const double base_cycles = static_cast<double>(base.apps[0].cycles);
  constexpr double kEpsilon = 0.01;

  const core::Profile profile =
      core::profile_program(program, core::SamplerConfig{});
  const core::OptimizationReport clean =
      core::optimize_program(program, opts.machine);

  std::vector<double> rates = {0.0, 0.05, 0.2, 0.5};
  if (opts.fault_rate >= 0.0) rates = {opts.fault_rate};

  report.fields("", {},
                {cell(kBenchmarkKey, "", program.name),
                 cell(kMachineKey, "", opts.machine.name),
                 cell(kSeedKey, "", seed),
                 cell(kBaselineCyclesKey, "", base.apps[0].cycles)});
  report.print("# faultcheck %s on %s | baseline %llu cycles | ε = %.0f %%\n",
               program.name.c_str(), opts.machine.name.c_str(),
               static_cast<unsigned long long>(base.apps[0].cycles),
               kEpsilon * 100.0);
  // Each fault rate is an independent optimize+simulate unit; fan them out
  // and assemble rows in rate order (the ordered map keeps output identical
  // to the serial sweep at any --jobs).
  const engine::Executor executor(opts.jobs);
  const std::vector<UnitRow> results =
      executor.map(rates.size(), [&](std::size_t i) {
        const double rate = rates[i];
        const core::FaultInjector injector(
            core::FaultConfig::uniform(rate, seed));
        const core::OptimizationReport optimized = core::optimize_with_profile(
            program, injector.inject(profile), opts.machine);
        const sim::RunResult opt =
            sim::run_single(opts.machine, optimized.optimized, false);

        UnitRow r;
        const double delta =
            static_cast<double>(opt.apps[0].cycles) / base_cycles - 1.0;
        r.ok = delta <= kEpsilon;
        for (const core::DelinquentLoad& load : optimized.delinquent_loads) {
          const bool planned = std::any_of(
              optimized.plans.begin(), optimized.plans.end(),
              [&](const core::PrefetchPlan& p) { return p.pc == load.pc; });
          if (!planned && !optimized.degradation.contains(load.pc)) {
            r.ok = false;
          }
        }
        if (rate == 0.0 && optimized.plans.size() != clean.plans.size()) {
          r.ok = false;
        }
        r.row = {fault_rate_cell(rate, 1),
                 cell("plans", "plans", optimized.plans.size()),
                 cell("suppressed", "suppressed", optimized.degradation.size()),
                 percent_cell("vs_baseline", "vs baseline", delta),
                 ok_cell(r.ok)};
        if (opts.verbose && !optimized.degradation.empty()) {
          r.details = "-- degradation log @ " + format_percent(rate) + "\n" +
                  optimized.degradation.to_string();
        }
        return r;
      });

  const int violations = add_units(report, kRatesKey, results);
  return gate_verdict(report, violations, seed, "FAILED", "violation(s)",
                      "degradation invariant holds\n");
}

/// Add the serve-gate verdict lines; returns the number of violated gates.
int serve_gates(const serve::ServeRunResult& r, std::uint64_t deadline_ticks,
                Report& report) {
  struct Gate {
    const char* name;
    bool ok;
  };
  const bool p99_ok =
      r.p99_admitted <= static_cast<double>(deadline_ticks);
  const Gate gates[] = {
      {"bounded queue (depth <= capacity)", r.queue_bounded},
      {"no stale-as-fresh (missed deadline => degraded)",
       r.no_stale_fresh && r.stats.stale_fresh_violations == 0},
      {"degraded answers safe (LKG or no-prefetch only)", r.degraded_safe},
      {"p99 admitted latency within deadline", p99_ok},
  };
  int violations = 0;
  for (const Gate& gate : gates) {
    if (!gate.ok) ++violations;
    report.print("gate: %-48s %s\n", gate.name,
                 gate.ok ? "OK" : "VIOLATION");
  }
  return violations;
}

/// The service counters and rates of one serve run, labelled as `repf
/// serve` tabulates them. Where the table's order differs from the JSON's
/// (hit rate, max queue depth) the table gets its own text-only cell.
std::vector<Cell> serve_stats_cells(const serve::ServeRunResult& r,
                                    std::size_t queue_capacity) {
  const auto& s = r.stats;
  char digest[32];
  std::snprintf(digest, sizeof digest, "%016llx",
                static_cast<unsigned long long>(r.digest));
  return {
      cell("submitted", "requests", s.submitted),
      cell("responses", "", r.responses),
      cell("fresh", "  fresh solves", s.fresh),
      cell("cache_hits", "  cache hits", s.cache_hits),
      cell("last_known_good", "  last-known-good", s.last_known_good),
      cell("no_prefetch", "  no-prefetch", s.no_prefetch),
      cell("shed_queue_full", "shed (queue full)", s.shed_queue_full),
      cell("shed_infeasible", "shed (infeasible)", s.shed_infeasible),
      cell("deadline_expired", "deadline expirations", s.deadline_expired),
      cell("shard_down", "", s.shard_down),
      cell("cache_faults", "", s.cache_faults),
      cell("cancelled_solves", "cancelled solves", s.cancelled_solves),
      cell("retries", "retries", s.retries),
      cell("journal_appends", "", s.journal_appends),
      cell("breaker_trips", "breaker trips", s.breaker_trips),
      cell("deadline_missed", "", s.deadline_missed),
      cell("stale_fresh_violations", "", s.stale_fresh_violations),
      cell("max_queue_depth", "", s.max_queue_depth),
      cell("solves_started", "", s.solves_started),
      cell("shed_quota", "", s.shed_quota),
      cell("quota_breaker_trips", "", s.quota_breaker_trips),
      cell("shed_slow_consumer", "", s.shed_slow_consumer),
      cell("max_tenant_queue_depth", "", s.max_tenant_queue_depth),
      cell("warm_files_loaded", "", s.warm_files_loaded),
      cell(kWarmFilesRejectedKey, "", s.warm_files_rejected),
      cell(kWarmEntriesLoadedKey, "", s.warm_entries_loaded),
      cell(kWarmEntriesQuarantinedKey, "", s.warm_entries_quarantined),
      decimal_cell("p50_admitted_ticks", "p50 admitted (ticks)",
                   r.p50_admitted, 1),
      decimal_cell("p99_admitted_ticks", "p99 admitted (ticks)",
                   r.p99_admitted, 1),
      percent_cell("", "hit rate", r.hit_rate),
      percent_cell("shed_rate", "shed rate", r.shed_rate),
      percent_cell("deadline_miss_rate", "deadline-miss rate",
                   r.deadline_miss_rate),
      percent_cell("hit_rate", "", r.hit_rate),
      percent_cell("degraded_rate", "degraded rate", r.degraded_rate),
      cell("", "max queue depth",
           std::to_string(s.max_queue_depth) + " / " +
               std::to_string(queue_capacity)),
      {"digest", "response digest", r.digest, digest},
  };
}

int cmd_serve(const Options& opts, Report& report) {
  const std::uint64_t seed = opts.seed.value_or(kChaosSeed);
  serve::TrafficConfig traffic;
  traffic.cores = opts.chaos_cores > 0 ? opts.chaos_cores : 64;
  traffic.ticks = opts.serve_steps > 0 ? opts.serve_steps : 512;
  traffic.seed = seed;

  serve::ServiceOptions sopts;
  sopts.seed = seed ^ 0xAD115EEDull;
  // Journals and warm-start files carry the machine-model/knob fingerprint
  // so a restart under different assumptions refuses the stale state.
  core::OptimizerOptions knobs;
  knobs.enable_non_temporal = opts.enable_nt;
  sopts.config_fingerprint = serve::config_fingerprint(opts.machine, knobs);
  if (!opts.serve_journal_dir.empty()) {
    ::mkdir(opts.serve_journal_dir.c_str(), 0755);  // EEXIST is fine
    sopts.journal_dir = opts.serve_journal_dir;
  }
  sopts.warm_start_dir = opts.warm_start_dir;

  const engine::Executor executor(opts.jobs);
  const std::vector<serve::Family> families =
      serve::make_families(traffic.hot_families, traffic.cold_families);
  const serve::AdvisoryService::Solver solver =
      serve::make_engine_solver(families, opts.machine, &executor);

  seeded_header(report, opts, seed, "serve",
                " | " + std::to_string(traffic.cores) + " core(s) | " +
                    std::to_string(traffic.ticks) + " tick(s) | deadline=" +
                    std::to_string(sopts.deadline_ticks) +
                    " | fingerprint=" + sopts.config_fingerprint);
  report.fields("", {},
                {cell(kCoresKey, "", traffic.cores),
                 cell("ticks", "", traffic.ticks)});
  const serve::ServeRunResult r =
      serve::run_serve_sim(traffic, sopts, solver, &executor);
  const auto& s = r.stats;

  if (!opts.warm_start_dir.empty()) {
    report.print("# warm start from %s: %llu file(s) accepted, %llu "
                 "rejected; %llu entrie(s) verified, %llu quarantined\n",
                 opts.warm_start_dir.c_str(),
                 static_cast<unsigned long long>(s.warm_files_loaded),
                 static_cast<unsigned long long>(s.warm_files_rejected),
                 static_cast<unsigned long long>(s.warm_entries_loaded),
                 static_cast<unsigned long long>(s.warm_entries_quarantined));
  }

  report.fields("metrics", {"service metric", "value"},
                serve_stats_cells(r, sopts.queue_capacity));

  if (opts.verbose) {
    report.print("shards: %d | open at end: %d | journal acks: %zu | "
                 "final tick: %llu\n",
                 sopts.shards, r.shards_open, r.acked.size(),
                 static_cast<unsigned long long>(r.final_tick));
  }

  const int violations = serve_gates(r, sopts.deadline_ticks, report);
  return gate_verdict(report, violations, seed, "serve FAILED",
                      "gate violation(s)", "serve robustness gates hold\n");
}

/// `repf chaos --serve`: fault-rate sweep against the advisory service —
/// injected transient cache faults exercise the retry ladder and the
/// per-shard breakers, every rate is replayed twice to witness
/// byte-determinism, and --crash-check tears the journals.
int cmd_chaos_serve(const Options& opts, Report& report) {
  const std::uint64_t seed = opts.seed.value_or(kChaosSeed);
  std::vector<double> rates = {0.0, 0.1, 0.25, 0.5};
  if (opts.fault_rate >= 0.0) rates = {opts.fault_rate};

  serve::TrafficConfig traffic;
  traffic.cores = 32;
  traffic.ticks = 256;
  traffic.request_rate = 0.1;
  traffic.hot_families = 4;
  traffic.cold_families = 32;
  traffic.seed = seed;

  seeded_header(report, opts, seed, "chaos --serve",
                " | " + std::to_string(traffic.cores) + " core(s)");

  // Each fault rate is an independent double-run unit (the solver is the
  // cheap synthetic one; the service runs inline). Fan the rates out and
  // reduce in order so the table is byte-identical at any --jobs.
  const engine::Executor executor(opts.jobs);
  const std::vector<UnitRow> results =
      executor.map(rates.size(), [&](std::size_t i) {
        serve::ServiceOptions sopts;
        sopts.cache_fault_rate = rates[i];
        sopts.seed = seed ^ 0xAD115EEDull;
        const std::vector<serve::Family> families = serve::make_families(
            traffic.hot_families, traffic.cold_families);
        const serve::AdvisoryService::Solver solver =
            serve::make_synthetic_solver(families);

        const serve::ServeRunResult run =
            serve::run_serve_sim(traffic, sopts, solver, nullptr);
        const serve::ServeRunResult replay =
            serve::run_serve_sim(traffic, sopts, solver, nullptr);
        const bool deterministic = replay.digest == run.digest;
        UnitRow r;
        r.ok = run.gates_ok() && deterministic;
        // A clean schedule must not trip breakers or burn retries.
        if (rates[i] == 0.0 &&
            (run.stats.breaker_trips != 0 || run.stats.retries != 0)) {
          r.ok = false;
        }
        // JSON: every service counter. Table: a summary of them.
        const auto& s = run.stats;
        r.row = {fault_rate_cell(rates[i], 0),
                 {"deterministic", "", deterministic, ""}};
        for (Cell& stat : serve_stats_cells(run, sopts.queue_capacity)) {
          if (stat.key.empty()) continue;
          stat.label.clear();
          r.row.push_back(std::move(stat));
        }
        r.row.insert(
            r.row.end(),
            {cell("", "requests", s.submitted),
             cell("", "degraded", s.last_known_good + s.no_prefetch),
             cell("", "retries", s.retries),
             cell("", "trips", s.breaker_trips),
             cell("", "shed", s.shed_queue_full + s.shed_infeasible),
             cell("", "stale-fresh", s.stale_fresh_violations),
             cell("", "replay", deterministic ? "bytes==" : "DIVERGED"),
             ok_cell(r.ok)});
        return r;
      });

  int violations = add_units(report, kRatesKey, results);

  if (opts.crash_check) {
    const serve::ServeCrashReport crash =
        serve::serve_crash_check(seed, 32, "repf_serve_crash_scratch");
    report.print("serve crash check: %s -> %s\n", crash.to_string().c_str(),
                 crash.ok() ? "OK" : "VIOLATION");
    if (!crash.ok()) ++violations;
    report.fields(kCrashCheckKey, {},
                  {cell(kTrialsKey, "", crash.trials),
                   cell("acked", "", crash.acked_total),
                   cell("recovered", "", crash.recovered_total),
                   cell("quarantined", "", crash.quarantined),
                   cell("lost_acked", "", crash.lost_acked),
                   cell("alien_entries", "", crash.alien_entries),
                   ok_cell(crash.ok())});
  }

  if (opts.poison_warm_start) {
    const serve::PoisonReport poison =
        serve::serve_poison_check(seed, 12, "repf_serve_poison_scratch");
    report.print("poisoned warm-start check: %s\n",
                 poison.to_string().c_str());
    if (!poison.ok()) ++violations;
    report.fields(
        "poison_warm_start", {},
        {cell(kTrialsKey, "", poison.trials),
         cell("bitflip_trials", "", poison.bitflip_trials),
         cell("stale_fp_trials", "", poison.stale_fp_trials),
         cell("truncated_trials", "", poison.truncated_trials),
         cell(kWarmEntriesLoadedKey, "", poison.warm_entries_loaded),
         cell(kWarmEntriesQuarantinedKey, "", poison.warm_entries_quarantined),
         cell(kWarmFilesRejectedKey, "", poison.warm_files_rejected),
         cell("stale_fresh", "", poison.stale_fresh),
         cell("alien_served", "", poison.alien_served),
         cell("gate_failures", "", poison.gate_failures),
         cell("acked_then_lost", "", poison.acked_then_lost),
         cell("recovery_failures", "", poison.recovery_failures),
         ok_cell(poison.ok())});
  }

  return gate_verdict(report, violations, seed, "chaos FAILED",
                      "gate violation(s)", "serve chaos gates hold\n");
}

int cmd_chaos(const Options& opts, Report& report) {
  // The full-system chaos mix simulates every core cycle-by-cycle; the
  // [1, 16] cap is a cost bound, not a correctness one, and only applies
  // here (`serve` and `chaos --serve` are virtual-time — no cap).
  const int cores = opts.chaos_cores > 0 ? opts.chaos_cores : 2;
  if (!opts.chaos_serve && cores > 16) {
    std::fprintf(stderr, "chaos: --cores must be in [1, 16]\n");
    return kExitUsage;
  }
  report.field({"serve", "", opts.chaos_serve, ""});
  if (opts.chaos_serve) return cmd_chaos_serve(opts, report);
  const std::uint64_t seed = opts.seed.value_or(kChaosSeed);

  std::vector<workloads::Program> storage;
  for (int c = 0; c < cores; ++c) {
    storage.push_back(
        runtime::chaos_mix_program(static_cast<std::uint64_t>(c), 32768));
  }
  std::vector<const workloads::Program*> programs;
  for (const workloads::Program& p : storage) programs.push_back(&p);

  const runtime::SupervisorOptions sopts =
      runtime::chaos_supervisor_options(seed);

  std::vector<double> rates = {0.0, 0.1, 0.25, 0.5};
  if (opts.fault_rate >= 0.0) rates = {opts.fault_rate};

  seeded_header(report, opts, seed, "chaos",
                " | " + std::to_string(cores) + " core(s)");
  report.field(cell(kCoresKey, "", cores));
  // Each fault rate replays its own seeded schedule against its own
  // supervisor instance — independent units, fanned out with ordered
  // reduction so the table is byte-identical at any --jobs.
  const engine::Executor executor(opts.jobs);
  const std::vector<UnitRow> results =
      executor.map(rates.size(), [&](std::size_t i) {
        const double rate = rates[i];
        runtime::ChaosConfig config;
        config.fault_rate = rate;
        config.horizon_refs = storage[0].total_references();
        config.mean_episode_refs = 8192;
        config.cores = cores;
        config.seed = seed;

        const runtime::ChaosRunResult result = runtime::run_chaos_mix(
            opts.machine, programs, false, config, sopts);

        // The recovery gates: never-hurts within 1 %, recovery within 64
        // windows, no permanently open circuit, no false-positive trips on
        // a clean schedule.
        UnitRow r;
        r.ok = result.worst_vs_baseline <= 1.01 &&
               result.worst_recovery_windows <= 64 &&
               result.open_domains == 0;
        if (rate == 0.0 && result.total_trips != 0) r.ok = false;
        r.row = {fault_rate_cell(rate, 0),
                 cell("episodes", "episodes",
                      result.schedule.episodes().size()),
                 cell("trips", "trips", result.total_trips),
                 cell("rollbacks", "rollbacks", result.total_rollbacks),
                 cell("recoveries", "recoveries", result.total_recoveries),
                 cell("opens", "opens", result.open_domains),
                 cell("worst_recovery_windows", "worst rec (win)",
                      result.worst_recovery_windows),
                 decimal_cell("worst_vs_baseline", "vs no-pf",
                              result.worst_vs_baseline, 4),
                 ok_cell(r.ok)};
        if (opts.verbose) {
          r.details += "-- schedule @ " + format_percent(rate, 0) + "\n" +
                       result.schedule.to_string();
          for (int core = 0; core < static_cast<int>(result.domains.size());
               ++core) {
            r.details += "   core " + std::to_string(core) + ": " +
                         result.domains[core].to_string() + "\n";
          }
        }
        return r;
      });

  int violations = add_units(report, kRatesKey, results);

  if (opts.crash_check) {
    const runtime::CacheCrashReport crash = runtime::chaos_cache_crash_check(
        seed, 64, "repf_chaos_cache_scratch.json");
    const bool crash_ok = crash.failed_loads == 0 &&
                          crash.accounting_errors == 0 &&
                          crash.survives_torn_write;
    report.print("cache crash check: %s -> %s\n", crash.to_string().c_str(),
                 crash_ok ? "OK" : "VIOLATION");
    if (!crash_ok) ++violations;
    report.fields(kCrashCheckKey, {},
                  {cell(kTrialsKey, "", crash.trials),
                   cell("clean_loads", "", crash.clean_loads),
                   cell("degraded_loads", "", crash.degraded_loads),
                   cell("failed_loads", "", crash.failed_loads),
                   cell("entries_recovered", "", crash.entries_recovered),
                   cell("accounting_errors", "", crash.accounting_errors),
                   {"survives_torn_write", "", crash.survives_torn_write, ""},
                   ok_cell(crash_ok)});
  }

  return gate_verdict(report, violations, seed, "chaos FAILED",
                      "gate violation(s)", "chaos recovery gates hold\n");
}

int cmd_verify(const Options& opts, Report& report) {
  const std::uint64_t seed = opts.seed.value_or(kFuzzSeed);
  std::vector<verify::TraceFamily> families;
  if (opts.families.empty()) {
    families = verify::all_trace_families();
  } else {
    std::istringstream list(opts.families);
    std::string name;
    while (std::getline(list, name, ',')) {
      bool found = false;
      for (verify::TraceFamily family : verify::all_trace_families()) {
        if (name == verify::trace_family_name(family)) {
          families.push_back(family);
          found = true;
        }
      }
      if (!found) {
        std::fprintf(stderr, "unknown fuzzer family: %s\n", name.c_str());
        return kExitUsage;
      }
    }
  }

  constexpr std::uint64_t kVariants = 2;
  seeded_header(report, opts, seed, "verify",
                " | " + std::to_string(families.size()) + " families x " +
                    std::to_string(kVariants) + " variants");
  report.print("== differential oracle: StatStack vs exact LRU\n");

  // Every (family, variant) trace is an independent differential unit; fan
  // them out over the engine executor and reduce in declaration order so
  // the report is byte-identical at any --jobs.
  struct Unit {
    verify::TraceFamily family;
    std::uint64_t variant;
  };
  std::vector<Unit> units;
  for (const verify::TraceFamily family : families) {
    for (std::uint64_t variant = 0; variant < kVariants; ++variant) {
      units.push_back({family, variant});
    }
  }
  const engine::Executor executor(opts.jobs);
  const std::vector<UnitRow> unit_results =
      executor.map(units.size(), [&](std::size_t i) {
        const Unit& unit = units[i];
        const verify::FuzzedTrace trace =
            verify::make_trace(unit.family, seed, unit.variant);
        const verify::DifferentialResult result =
            verify::run_differential(trace.program, opts.machine);

        const double app_error = result.max_application_error();
        const double bound = verify::family_app_error_bound(unit.family);
        const double mddli = result.mddli_agreement();
        const double bypass = result.bypass_agreement();
        UnitRow r;
        r.ok = app_error <= bound && mddli >= verify::kMinDecisionAgreement &&
               bypass >= verify::kMinDecisionAgreement;
        r.row = {cell("family", "family",
                      verify::trace_family_name(unit.family)),
                 cell("variant", "var", unit.variant),
                 cell(kReferencesKey, "refs",
                      static_cast<std::uint64_t>(result.references)),
                 cell("samples", "samples",
                      static_cast<std::uint64_t>(result.reuse_samples)),
                 percent_cell("max_application_error", "max app err",
                              app_error),
                 percent_cell("bound", "bound", bound),
                 percent_cell("mddli_agreement", "mddli", mddli),
                 percent_cell("bypass_agreement", "bypass", bypass),
                 ok_cell(r.ok, "FAIL")};
        if (opts.verbose || !r.ok) r.details = result.to_string();
        return r;
      });
  bool failed = add_units(report, "traces", unit_results) > 0;

  const bool golden_ok = check_golden(
      opts, verify::golden_filename, "golden plans", "golden",
      [&] {
        return verify::render_golden(
            verify::compute_suite_plans(opts.machine, &executor),
            opts.machine.name);
      },
      report);
  if (!golden_ok) failed = true;
  const bool sim_golden_ok = check_golden(
      opts, verify::sim_golden_filename, "golden sim stats", "sim_golden",
      [&] {
        return verify::render_sim_golden(
            verify::compute_sim_golden(opts.machine, &executor),
            opts.machine.name);
      },
      report);
  if (!sim_golden_ok) failed = true;

  report.field(ok_cell(!failed));
  report.text(failed ? "verify FAILED\n" : "verify clean\n");
  return failed ? kExitFailure : 0;
}

// repf corun: the multi-programmed scenario matrix. Every (core count,
// scenario) cell runs the composed co-run model against the exact
// shared-LRU oracle and checks the per-family error bounds plus the
// integer attribution identity; the streaming-vs-chase row additionally
// re-runs with hardware prefetching modeled and checks that the composition
// *predicts* the chase victim's degradation. Exit: kExitFailure on any
// bound/prediction violation (output names the seed).
int cmd_corun(const Options& opts, Report& report) {
  const std::uint64_t seed = opts.seed.value_or(kFuzzSeed);
  std::vector<int> core_counts = {2, 4, 8};
  if (opts.chaos_cores != 0) {
    if (opts.chaos_cores > 16) {
      std::fprintf(stderr, "corun --cores caps at 16\n");
      return kExitUsage;
    }
    core_counts = {opts.chaos_cores};
  }

  seeded_header(report, opts, seed, "corun", "");

  // Every (core count, scenario, hw) cell is an independent unit; fan out
  // over the engine executor and reduce in declaration order so the report
  // is byte-identical at any --jobs. hw=true cells exist only for the
  // interference-prediction row (streaming_vs_chase).
  struct Unit {
    int cores = 0;
    verify::CoRunScenario scenario;
    bool hw = false;
  };
  std::vector<Unit> units;
  for (const int cores : core_counts) {
    for (verify::CoRunScenario& scenario : verify::corun_scenarios(cores)) {
      const bool interference = scenario.name == "streaming_vs_chase";
      units.push_back({cores, scenario, false});
      if (interference) units.push_back({cores, std::move(scenario), true});
    }
  }

  const engine::Executor executor(opts.jobs);
  const std::vector<UnitRow> unit_results =
      executor.map(units.size(), [&](std::size_t i) {
        const Unit& unit = units[i];
        verify::CoRunDifferentialOptions options;
        options.model_hw_prefetch = unit.hw;
        const verify::CoRunDifferentialResult result =
            verify::run_corun_differential(unit.scenario, opts.machine, seed,
                                           options);
        UnitRow r;
        r.ok = result.attribution_exact;
        double worst_margin = -1.0;  // max over cores of (error - bound)
        std::uint64_t accesses = 0;
        for (std::size_t core = 0; core < result.per_core.size(); ++core) {
          const double bound = verify::corun_family_error_bound(
              unit.scenario.families[core], unit.cores);
          const double margin = result.per_core[core].max_error() - bound;
          worst_margin = std::max(worst_margin, margin);
          if (margin > 0.0) r.ok = false;
          accesses += result.per_core[core].accesses;
        }
        // The table leads with the core count, the JSON with the scenario.
        r.row = {cell("", "cores", unit.cores),
                 cell("scenario", "scenario", result.scenario),
                 cell(kCoresKey, "", unit.cores),
                 {"hw", "hw", unit.hw, unit.hw ? "on" : "off"},
                 cell("", "accesses", accesses),
                 percent_cell("max_error", "max err", result.max_error()),
                 percent_cell("worst_margin", "margin", worst_margin),
                 {"attribution_exact", "attrib", result.attribution_exact,
                  result.attribution_exact ? "exact" : "BROKEN"},
                 ok_cell(r.ok, "FAIL")};
        if (opts.verbose || !r.ok) r.details = result.to_string();
        return r;
      });
  report.print("== composed co-run model vs exact shared-LRU oracle\n");
  bool failed = add_units(report, "scenarios", unit_results) > 0;

  // Interference prediction: a pointer-chase victim vs sparse streaming
  // aggressors whose speculative adjacent-line prefetcher fills only the
  // skipped buddy lines — pure pollution, the paper's motivating co-run
  // pathology. The composition must *predict* the victim's degradation
  // before any run (higher shared-LLC miss ratio, no larger capacity
  // share) and the exact interleaved-LRU oracle must confirm it.
  report.print("== interference prediction (chase victim vs streaming)\n");
  const std::vector<verify::CoRunInterference> interference_results =
      executor.map(core_counts.size(), [&](std::size_t i) {
        return verify::run_corun_interference(opts.machine, core_counts[i],
                                              seed);
      });
  std::vector<std::vector<Cell>> interference;
  std::string details;
  for (const verify::CoRunInterference& r : interference_results) {
    const bool ok = r.predicted() && r.confirmed();
    if (!ok) failed = true;
    const auto share = [&](const char* key, const char* label,
                           std::uint64_t lines) {
      return Cell{key, label, lines,
                  std::to_string(lines) + "/" + std::to_string(r.llc_lines)};
    };
    interference.push_back(
        {cell(kCoresKey, "cores", r.cores),
         percent_cell("victim_mr_off", "mr off", r.victim_mr_off),
         percent_cell("victim_mr_on", "mr on", r.victim_mr_on),
         percent_cell("exact_mr_off", "exact off", r.exact_mr_off),
         percent_cell("exact_mr_on", "exact on", r.exact_mr_on),
         share("share_off", "share off", r.share_off),
         share("share_on", "share on", r.share_on),
         {"predicted", "", r.predicted(), ""},
         {"confirmed", "", r.confirmed(), ""},
         cell("", "verdict",
              ok ? "degrades (OK)"
                 : (r.predicted() ? "NOT CONFIRMED" : "NOT PREDICTED"))});
    if (opts.verbose) details += r.to_string();
  }
  report.rows("interference", std::move(interference));
  report.text(details);

  const bool golden_ok = check_golden(
      opts, verify::corun_golden_filename, "co-run golden plans", "golden",
      [&] {
        return verify::render_corun_golden(
            verify::compute_corun_suite_plans(opts.machine, &executor),
            opts.machine.name);
      },
      report);
  if (!golden_ok) failed = true;

  report.field(ok_cell(!failed));
  if (failed) {
    report.print("corun FAILED (seed=%llu)\n",
                 static_cast<unsigned long long>(seed));
    return kExitFailure;
  }
  report.print("corun clean\n");
  return 0;
}

int cmd_commands(const Options&, Report& report);

/// The subcommand registry: one row per command, driving usage(), the
/// per-command --help, dispatch in main(), the machine-readable `repf
/// commands` listing and the CLI self-test (every registered command must
/// appear in --help and answer `<cmd> --help` with exit 0).
struct CommandInfo {
  const char* name;
  /// Preformatted usage block (argument stub + aligned description lines).
  const char* block;
  /// Detailed `repf <command> --help` text.
  const char* help;
  int (*run)(const Options&, Report&);
  bool needs_target;
  /// The command builds a report and honors --json; listings refuse it.
  bool json;
};

constexpr CommandInfo kCommands[] = {
    {"list",
     "  list                         list built-in workload models\n",
     "repf list\n"
     "  Print every built-in workload model (paper Table I) with its\n"
     "  dynamic reference count and static load count.\n",
     cmd_list, false, true},
    {"dump",
     "  dump <benchmark>             print a workload in the DSL\n",
     "repf dump <benchmark>\n"
     "  Print a built-in workload in the trace-program DSL, suitable\n"
     "  for editing and feeding back to any other command.\n",
     cmd_dump, true, false},
    {"optimize",
     "  optimize <file|benchmark>    run the pipeline, print the annotated\n"
     "                               listing\n",
     "repf optimize <file|benchmark> [options]\n"
     "  Run the full sampling -> StatStack -> MDDLI -> stride ->\n"
     "  bypass pipeline and print the annotated listing with the\n"
     "  inserted prefetches.\n"
     "    --machine amd|intel   target machine model (default amd)\n"
     "    --no-nt               disable non-temporal (bypass) hints\n"
     "    --stride-centric      use the stride-centric baseline pass\n"
     "                          instead of the MDDLI pipeline\n"
     "    --jobs N              engine workers for the pipeline\n"
     "                          (byte-identical output at any N)\n"
     "    --verbose             also print the effective analysis\n"
     "                          knobs and the executor config\n"
     "                          (audit trail)\n",
     cmd_optimize, true, false},
    {"run",
     "  run <file|benchmark>         simulate under a chosen policy\n",
     "repf run <file|benchmark> [options]\n"
     "  Simulate one program alone on core 0 and print run metrics.\n"
     "    --machine amd|intel   target machine model (default amd)\n"
     "    --hw                  enable the hardware prefetcher\n"
     "    --optimize            software-prefetch via the pipeline\n"
     "                          before running\n"
     "    --jobs N              engine workers for the optimize step\n"
     "                          (byte-identical output at any N)\n"
     "    --json FILE           also write the metrics as JSON\n"
     "                          (atomic temp-file + rename)\n",
     cmd_run, true, true},
    {"coverage",
     "  coverage <file|benchmark>    Table-I style coverage row\n",
     "repf coverage <file|benchmark> [--machine amd|intel]\n"
     "  Measure miss coverage and overhead (paper Table I columns)\n"
     "  for the MDDLI-filtered and stride-centric passes.\n",
     cmd_coverage, true, true},
    {"phases",
     "  phases <file|benchmark>      detect execution phases\n",
     "repf phases <file|benchmark> [options]\n"
     "  Profile the program, fingerprint fixed-size windows by their\n"
     "  per-PC frequency signatures and cluster them into phases.\n"
     "    --window N      window size in references (default 65536)\n"
     "    --threshold X   signature Manhattan-distance threshold in\n"
     "                    [0, 2] below which windows share a phase\n"
     "                    (default 0.5)\n",
     cmd_phases, true, true},
    {"adapt",
     "  adapt <file|benchmark>       run the online adaptive controller,\n"
     "                               compare vs baseline and static plan\n",
     "repf adapt <file|benchmark> [options]\n"
     "  Run the online adaptive prefetch runtime (windowed sampling,\n"
     "  phase detection, plan cache, bandwidth governor) against the\n"
     "  no-prefetch baseline and the offline static plan.\n"
     "    --machine amd|intel   target machine model (default amd)\n"
     "    --window N            adaptation window in references\n"
     "                          (default 1024)\n"
     "    --threshold X         phase-match threshold in [0, 2]\n"
     "                          (default 0.5)\n"
     "    --save-cache FILE     write the learned plan cache as JSON\n"
     "    --load-cache FILE     warm-start from a saved plan cache\n"
     "    --jobs N              engine workers for the offline plan\n"
     "                          and per-window re-optimizations\n"
     "    --json FILE           also write the comparison as JSON\n"
     "                          (atomic temp-file + rename)\n"
     "    --verbose             also print the cached plan sets\n",
     cmd_adapt, true, true},
    {"faultcheck",
     "  faultcheck <file|benchmark>  inject profile faults, verify the\n"
     "                               never-hurts degradation invariant\n",
     "repf faultcheck <file|benchmark> [options]\n"
     "  Inject sampling faults into the profile and verify the\n"
     "  never-hurts degradation invariant end-to-end.\n"
     "    --machine amd|intel   target machine model (default amd)\n"
     "    --rate PCT            single fault rate in percent\n"
     "                          (default: sweep 0/5/20/50)\n"
     "    --seed N              fault-injection seed\n"
     "    --jobs N              evaluate fault rates on N engine\n"
     "                          workers (byte-identical output)\n"
     "    --verbose             print the degradation logs\n",
     cmd_faultcheck, true, true},
    {"verify",
     "  verify                       differential oracle (StatStack vs\n"
     "                               exact LRU), golden-plan and sim\n"
     "                               snapshots\n",
     "repf verify [options]\n"
     "  Run the differential verification harness: fuzzed traces with\n"
     "  known analytic truth are replayed once into both the sampled\n"
     "  StatStack estimator and an exact-LRU reference model, and the\n"
     "  miss-ratio curves plus MDDLI/bypass decisions are compared.\n"
     "  Output is deterministic: same seed, same bytes.\n"
     "    --machine amd|intel   target machine model (default amd)\n"
     "    --seed N              fuzzer seed (default 42)\n"
     "    --families a,b,...    restrict to these fuzzer families\n"
     "                          (strided subline chase blocked\n"
     "                          phasemix hotcold; default all)\n"
     "    --golden DIR          also check the suite's prefetch plans\n"
     "                          against DIR/plans_<machine>.golden and\n"
     "                          its simulated statistics against\n"
     "                          DIR/sim_<machine>.golden\n"
     "    --bless               rewrite the golden snapshots instead\n"
     "                          of checking them\n"
     "    --jobs N              fan traces and golden benchmarks out\n"
     "                          over N engine workers\n"
     "                          (byte-identical output at any N)\n"
     "    --json FILE           also write the results as JSON\n"
     "                          (atomic temp-file + rename)\n"
     "    --verbose             print the full per-trace reports\n",
     cmd_verify, false, true},
    {"corun",
     "  corun                        co-run scenario matrix: composed\n"
     "                               shared-LLC model vs the exact\n"
     "                               interleaved-LRU oracle\n",
     "repf corun [options]\n"
     "  Run the multi-programmed co-run scenario matrix: per-core\n"
     "  StatStack profiles are composed into shared-LLC miss-ratio\n"
     "  curves (interleaving-ratio reuse inflation) and checked\n"
     "  against one exact LRU stack over the interleaved trace, with\n"
     "  per-family error bounds, an exact per-core miss-attribution\n"
     "  identity, and the streaming-vs-chase interference prediction\n"
     "  (hardware prefetching must be predicted to degrade the chase\n"
     "  victim). Output is deterministic: same seed, same bytes.\n"
     "    --machine amd|intel   target machine model (default amd)\n"
     "    --seed N              fuzzer seed (default 42)\n"
     "    --cores N             run only this core count\n"
     "                          (default matrix: 2, 4, 8; max 16)\n"
     "    --golden DIR          also check the co-run victim plans\n"
     "                          against DIR/corun_plans_<machine>\n"
     "                          .golden\n"
     "    --bless               rewrite the golden snapshot instead\n"
     "                          of checking it\n"
     "    --jobs N              fan scenario cells and golden\n"
     "                          benchmarks out over N engine workers\n"
     "                          (byte-identical output at any N)\n"
     "    --json FILE           also write the results as JSON\n"
     "                          (atomic temp-file + rename)\n"
     "    --verbose             print the full per-scenario reports\n",
     cmd_corun, false, true},
    {"chaos",
     "  chaos                        replay a seeded fault schedule against\n"
     "                               the supervised runtime, check recovery\n"
     "                               (--serve targets the advisory service)\n",
     "repf chaos [options]\n"
     "  Generate a seeded schedule of fault episodes (window drops,\n"
     "  clock skew, governor blackout, profile corruption), replay it\n"
     "  against the supervised adaptive runtime on a synthetic\n"
     "  multi-core mix, and check the recovery gates: the chaotic run\n"
     "  never loses more than 1 % to the no-prefetch baseline, every\n"
     "  recovery completes within 64 windows, no circuit opens, and a\n"
     "  zero-fault schedule trips nothing. Output is deterministic:\n"
     "  same seed, same bytes. Exits 3 if any gate fails.\n"
     "    --machine amd|intel   target machine model (default amd)\n"
     "    --rate PCT            single fault rate in percent\n"
     "                          (default: sweep 0/10/25/50)\n"
     "    --seed N              schedule seed (default 0xC4A05)\n"
     "    --cores N             cores in the synthetic mix\n"
     "                          (default 2, max 16)\n"
     "    --serve               target the advisory service tier: a\n"
     "                          fault-rate sweep of injected cache\n"
     "                          faults with double-run determinism,\n"
     "                          breaker, and degradation gates\n"
     "    --crash-check         also sweep crash consistency: plan\n"
     "                          cache kill/corruption, or with --serve\n"
     "                          the journal tear/recover/ack audit\n"
     "    --poison-warm-start   with --serve: also sweep poisoned\n"
     "                          warm-start recovery — bit-flipped,\n"
     "                          stale-fingerprint, and truncated shard\n"
     "                          journals must cost cache warmth only\n"
     "                          (quarantine/reject), never a stale or\n"
     "                          alien plan, a lost ack, or the daemon\n"
     "    --jobs N              replay fault rates on N engine\n"
     "                          workers (byte-identical output)\n"
     "    --json FILE           also write the gate results as JSON\n"
     "                          (atomic temp-file + rename)\n"
     "    --verbose             print the fault schedule and per-core\n"
     "                          domain stats\n",
     cmd_chaos, false, true},
    {"serve",
     "  serve                        run the advisory plan service under\n"
     "                               simulated client load, check the\n"
     "                               overload/degradation gates\n",
     "repf serve [options]\n"
     "  Run the long-lived advisory plan service against seeded mixed\n"
     "  hot/cold traffic from N simulated client cores in virtual\n"
     "  time: cache hits answer immediately, misses solve on the\n"
     "  analysis engine under a deadline budget with cooperative\n"
     "  cancellation, and overload degrades (last-known-good or\n"
     "  no-prefetch) instead of blocking. Checks the robustness\n"
     "  gates: bounded queue, no deadline-missed answer served as\n"
     "  fresh, every degraded answer safe. Output is deterministic:\n"
     "  same seed, same bytes, at any --jobs. Exits 3 on any gate\n"
     "  failure.\n"
     "    --machine amd|intel   target machine model (default amd)\n"
     "    --cores N             simulated client cores (default 64;\n"
     "                          no upper bound — virtual time)\n"
     "    --steps N             virtual ticks to run (default 512)\n"
     "    --seed N              traffic/service seed (default 0xC4A05)\n"
     "    --journal DIR         journal acked plans to per-shard\n"
     "                          append-mode files under DIR (created\n"
     "                          if missing), headers stamped with the\n"
     "                          machine-model/knob fingerprint\n"
     "    --warm-start DIR      trust-but-verify warm start from a\n"
     "                          prior run's shard journals in DIR:\n"
     "                          fingerprint + CRC + plan-sanity\n"
     "                          revalidation, suspect state is\n"
     "                          quarantined (that phase re-solves\n"
     "                          fresh), never served\n"
     "    --jobs N              engine workers for the solve batches\n"
     "                          (byte-identical output at any N)\n"
     "    --json FILE           also write the metrics as JSON\n"
     "                          (atomic temp-file + rename)\n"
     "    --verbose             also print the per-shard breaker\n"
     "                          states and cache sizes\n",
     cmd_serve, false, true},
    {"commands",
     "  commands                     print registered subcommand names, one\n"
     "                               per line (for scripts and self-tests)\n",
     "repf commands\n"
     "  Print every registered subcommand name, one per line. The CLI\n"
     "  self-test iterates this list to prove each command appears in\n"
     "  --help and answers `repf <cmd> --help` with exit 0.\n",
     cmd_commands, false, false},
};

int usage() {
  std::fprintf(stderr,
               "usage: repf <command> [args]   (repf <command> --help for "
               "details)\n");
  for (const CommandInfo& command : kCommands) {
    std::fputs(command.block, stderr);
  }
  std::fprintf(
      stderr,
      "--json FILE: every command but dump, optimize and commands also\n"
      "             writes its report as JSON (atomic temp-file + rename)\n"
      "exit codes: 0 ok, 1 operational failure, 2 invalid usage,\n"
      "            3 degradation-gate violation (output names the seed)\n");
  return kExitUsage;
}

/// `repf commands`: the registry, machine-readable. The CLI self-test
/// iterates this to prove every command is documented and help-answering.
int cmd_commands(const Options&, Report& report) {
  for (const CommandInfo& command : kCommands) {
    report.print("%s\n", command.name);
  }
  return 0;
}

/// The value of numeric flag `flag`: one whole, finite number in [lo, hi],
/// or in (lo, hi] when `open_low`. Prints the error and returns nothing
/// otherwise.
template <typename T>
std::optional<T> flag_value(const std::string& flag, const char* text, T lo,
                            T hi, bool open_low = false) {
  const Expected<T> value = [&] {
    if constexpr (std::is_same_v<T, double>) {
      return support::parse_finite_double(text);
    } else {
      return support::parse_uint64(text);
    }
  }();
  if (!value.has_value()) {
    std::fprintf(stderr, "%s: %s: %s\n", flag.c_str(),
                 value.status().message().c_str(), text);
    return std::nullopt;
  }
  if (*value < lo || (open_low && *value == lo) || *value > hi) {
    std::ostringstream range;
    range << (open_low ? "(" : "[") << lo << ", " << hi << "]";
    std::fprintf(stderr, "%s must be in %s\n", flag.c_str(),
                 range.str().c_str());
    return std::nullopt;
  }
  return *value;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  Options opts;
  opts.command = argv[1];
  constexpr std::uint64_t kNoLimit = std::numeric_limits<std::uint64_t>::max();
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--machine") {
      if (++i >= argc) return usage();
      const std::string which = argv[i];
      if (which == "amd") {
        opts.machine = sim::amd_phenom_ii();
      } else if (which == "intel") {
        opts.machine = sim::intel_sandybridge();
      } else {
        std::fprintf(stderr, "unknown machine: %s\n", which.c_str());
        return kExitUsage;
      }
    } else if (arg == "--hw") {
      opts.hw_prefetch = true;
    } else if (arg == "--optimize") {
      opts.optimize = true;
    } else if (arg == "--no-nt") {
      opts.enable_nt = false;
    } else if (arg == "--stride-centric") {
      opts.stride_centric = true;
    } else if (arg == "--verbose") {
      opts.verbose = true;
    } else if (arg == "--rate") {
      if (++i >= argc) return usage();
      const auto percent = flag_value(arg, argv[i], 0.0, 100.0);
      if (!percent) return kExitUsage;
      opts.fault_rate = *percent / 100.0;
    } else if (arg == "--seed") {
      if (++i >= argc) return usage();
      opts.seed = flag_value<std::uint64_t>(arg, argv[i], 0, kNoLimit);
      if (!opts.seed) return kExitUsage;
    } else if (arg == "--cores") {
      if (++i >= argc) return usage();
      // Upper bound is per-command: chaos caps at 16 (cycle-accurate cores
      // are expensive), serve takes any count (virtual-time clients).
      const auto cores = flag_value<std::uint64_t>(arg, argv[i], 1, 1'000'000);
      if (!cores) return kExitUsage;
      opts.chaos_cores = static_cast<int>(*cores);
    } else if (arg == "--steps") {
      if (++i >= argc) return usage();
      const auto steps =
          flag_value<std::uint64_t>(arg, argv[i], 1, 100'000'000);
      if (!steps) return kExitUsage;
      opts.serve_steps = *steps;
    } else if (arg == "--serve") {
      opts.chaos_serve = true;
    } else if (arg == "--crash-check") {
      opts.crash_check = true;
    } else if (arg == "--poison-warm-start") {
      opts.poison_warm_start = true;
    } else if (arg == "--journal") {
      if (++i >= argc) return usage();
      opts.serve_journal_dir = argv[i];
    } else if (arg == "--warm-start") {
      if (++i >= argc) return usage();
      opts.warm_start_dir = argv[i];
    } else if (arg == "--families") {
      if (++i >= argc) return usage();
      opts.families = argv[i];
    } else if (arg == "--golden") {
      if (++i >= argc) return usage();
      opts.golden_dir = argv[i];
    } else if (arg == "--bless") {
      opts.bless = true;
    } else if (arg == "--window") {
      if (++i >= argc) return usage();
      const auto window = flag_value<std::uint64_t>(arg, argv[i], 1, kNoLimit);
      if (!window) return kExitUsage;
      opts.window = *window;
    } else if (arg == "--threshold") {
      if (++i >= argc) return usage();
      const auto threshold = flag_value(arg, argv[i], 0.0, 2.0, true);
      if (!threshold) return kExitUsage;
      opts.threshold = *threshold;
    } else if (arg == "--jobs") {
      if (++i >= argc) return usage();
      const auto jobs = flag_value<std::uint64_t>(arg, argv[i], 1, 256);
      if (!jobs) return kExitUsage;
      opts.jobs = static_cast<int>(*jobs);
    } else if (arg == "--json") {
      if (++i >= argc) return usage();
      opts.json_path = argv[i];
    } else if (arg == "--save-cache") {
      if (++i >= argc) return usage();
      opts.save_cache = argv[i];
    } else if (arg == "--load-cache") {
      if (++i >= argc) return usage();
      opts.load_cache = argv[i];
    } else if (arg == "--help" || arg == "-h") {
      opts.help = true;
    } else if (!arg.empty() && arg[0] != '-' && opts.target.empty()) {
      opts.target = arg;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      return kExitUsage;
    }
  }

  if (opts.command == "--help" || opts.command == "-h" ||
      opts.command == "help") {
    usage();
    return 0;
  }
  const CommandInfo* command = nullptr;
  for (const CommandInfo& info : kCommands) {
    if (opts.command == info.name) command = &info;
  }
  if (command == nullptr) return usage();
  if (opts.help) {
    std::fputs(command->help, stdout);
    return 0;
  }
  if (command->needs_target && opts.target.empty()) return usage();
  if (!command->json && !opts.json_path.empty()) {
    std::fprintf(stderr, "repf %s prints a listing, not a report: no --json\n",
                 command->name);
    return kExitUsage;
  }

  Report report(opts.command);
  int rc = 0;
  try {
    rc = command->run(opts, report);
  } catch (const std::exception& e) {
    // Whatever the command reported before failing is still its output.
    std::fputs(report.render_text().c_str(), stdout);
    std::fprintf(stderr, "repf: %s\n", e.what());
    return kExitFailure;
  }
  std::fputs(report.render_text().c_str(), stdout);
  // The JSON is written whatever the verdict, so CI can harvest metrics
  // from failing runs too.
  if (rc != kExitUsage && !opts.json_path.empty()) {
    const Status saved =
        support::write_file_atomic(opts.json_path, report.render_json());
    if (!saved.ok()) {
      std::fprintf(stderr, "repf: %s: %s\n", opts.json_path.c_str(),
                   saved.to_string().c_str());
      return kExitFailure;
    }
  }
  return rc;
}
