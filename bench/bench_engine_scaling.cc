// Engine scaling — wall-clock scaling of the analysis engine's
// deterministic executor on the Figure 4 suite, plus the determinism gate
// that makes the parallelism safe to use anywhere: artifacts at every
// worker count must be byte-identical to the serial path.
//
// For each worker count (1, 2, 4, 8, 16) the full suite is re-analyzed
// from a cold PlanCache on both machines (profile + optimize under every
// policy + five simulated runs per benchmark, fanned out by
// evaluate_suite), and every OptimizationReport is serialized into a
// per-pass fingerprint.
//
// Gates (exit 1 on violation):
//   * 0-diff: every fingerprint equals the serial one. Always enforced.
//   * speedup >= 2.5x at 4 workers — enforced only when the host has >= 4
//     hardware threads and the bench is not in smoke mode.
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "analysis/experiments.hh"
#include "bench_common.hh"
#include "engine/executor.hh"
#include "engine/pipeline.hh"
#include "support/text_table.hh"

namespace {

using namespace re;

/// One cold full-suite analysis pass at `jobs` workers. Returns the
/// concatenated serialized reports (the determinism witness) and the wall
/// time.
struct PassResult {
  std::string fingerprint;
  double millis = 0.0;
};

PassResult run_pass(int jobs, const std::vector<std::string>& names) {
  const engine::Executor executor(jobs);
  const auto start = std::chrono::steady_clock::now();

  std::string fingerprint;
  for (const sim::MachineConfig& machine :
       {sim::amd_phenom_ii(), sim::intel_sandybridge()}) {
    // Cold cache per pass: every worker count redoes the identical work.
    analysis::PlanCache cache;
    const std::vector<analysis::BenchmarkEvaluation> evals =
        analysis::evaluate_suite(machine, names, cache, &executor);
    for (const analysis::BenchmarkEvaluation& eval : evals) {
      for (const auto& [policy, run] : eval.runs) {
        fingerprint += machine.name + "/" + eval.name + "/" +
                       analysis::policy_name(policy) + ": " +
                       std::to_string(run.apps[0].cycles) + " cycles\n";
      }
    }
    // The optimize artifacts themselves, via the engine's stable
    // serialization (per-PC MRC construction fans out inside StatStack).
    for (const std::string& name : names) {
      const workloads::Program program = workloads::make_benchmark(name);
      fingerprint += engine::serialize_report(engine::run_optimize(
          program, machine, {}, engine::EngineContext{&executor}));
    }
  }

  const auto end = std::chrono::steady_clock::now();
  PassResult result;
  result.fingerprint = std::move(fingerprint);
  result.millis =
      std::chrono::duration<double, std::milli>(end - start).count();
  return result;
}

}  // namespace

int main() {
  bench::print_header("Engine scaling: 1/2/4/8/16 workers",
                      "Full fig4-suite analysis per pass; artifacts must be "
                      "0-diff");

  std::vector<std::string> names = workloads::suite_names();
  if (bench::smoke_mode() && names.size() > 2) names.resize(2);

  const unsigned hw_threads = std::thread::hardware_concurrency();
  std::printf("hardware threads: %u%s\n\n", hw_threads,
              hw_threads >= 4 ? "" : " (speedup gate reports only)");

  const std::vector<int> worker_counts = {1, 2, 4, 8, 16};

  bench::JsonReport report("engine_scaling");
  report.set("seed", engine::kDefaultExecutorSeed);
  report.set("hw_threads", static_cast<std::uint64_t>(hw_threads));
  report.set("benchmarks", static_cast<std::uint64_t>(names.size()));

  // passes[i] is the pass at worker_counts[i]; the serial pass is the
  // reference fingerprint.
  std::vector<PassResult> passes;
  for (const int jobs : worker_counts) passes.push_back(run_pass(jobs, names));
  const PassResult& reference = passes[0];

  bool identical = true;
  TextTable table({"workers", "wall (ms)", "speedup", "artifacts"});
  for (std::size_t i = 0; i < passes.size(); ++i) {
    const PassResult& pass = passes[i];
    const bool same = pass.fingerprint == reference.fingerprint;
    if (!same) identical = false;
    const double speedup = reference.millis / pass.millis;
    table.add_row({std::to_string(worker_counts[i]),
                   format_double(pass.millis, 1), format_double(speedup, 2),
                   same ? "identical" : "DIFFER"});
    const std::string key = "_jobs" + std::to_string(worker_counts[i]);
    report.set("ms" + key, pass.millis);
    report.set("speedup" + key, speedup);
  }
  std::printf("%s\n", table.render().c_str());
  report.set("artifacts_identical", std::uint64_t{identical ? 1u : 0u});

  const double speedup4 = reference.millis / passes[2].millis;
  const bool gate_speedup = hw_threads >= 4 && !bench::smoke_mode();
  bool failed = false;
  if (!identical) {
    std::printf("FAILED: artifacts differ across worker counts "
                "(determinism contract violated)\n");
    failed = true;
  }
  if (gate_speedup && speedup4 < 2.5) {
    std::printf("FAILED: %.2fx at 4 workers (< 2.5x gate)\n", speedup4);
    failed = true;
  }
  if (!failed) {
    std::printf(gate_speedup
                    ? "engine scaling gates hold (0-diff, %.2fx at 4 workers)\n"
                    : "engine determinism gate holds (0-diff; speedup gate "
                      "skipped: %.2fx at 4 workers)\n",
                speedup4);
  }
  report.write();
  return failed ? 1 : 0;
}
