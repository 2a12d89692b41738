#include "analysis/experiments.hh"

#include <iterator>
#include <stdexcept>

#include "analysis/metrics.hh"
#include "engine/pipeline.hh"

namespace re::analysis {

const char* policy_name(Policy policy) {
  switch (policy) {
    case Policy::Baseline: return "Baseline";
    case Policy::Hardware: return "Hardware Pref.";
    case Policy::Software: return "Software Pref.";
    case Policy::SoftwareNT: return "Soft Pref.+NT";
    case Policy::StrideCentric: return "Stride-centric";
  }
  return "?";
}

PlanCache::PlanCache(core::OptimizerOptions options)
    : options_(std::move(options)) {}

const core::Profile& PlanCache::profile(const std::string& benchmark) {
  return profiles_.get(benchmark, [&] {
    return core::profile_program(
        workloads::make_benchmark(benchmark, workloads::InputSet::Reference),
        options_.sampler, options_.profile_max_refs);
  });
}

const sim::RunResult& PlanCache::baseline(const sim::MachineConfig& machine,
                                          const std::string& benchmark) {
  return baselines_.get(machine.name + "/" + benchmark, [&] {
    return sim::run_single(
        machine,
        workloads::make_benchmark(benchmark, workloads::InputSet::Reference),
        /*hw_prefetch=*/false);
  });
}

const core::OptimizationReport& PlanCache::report(
    const sim::MachineConfig& machine, const std::string& benchmark,
    Policy policy) {
  std::string variant;
  switch (policy) {
    case Policy::Software: variant = "sw"; break;
    case Policy::SoftwareNT: variant = "nt"; break;
    case Policy::StrideCentric: variant = "sc"; break;
    default:
      throw std::invalid_argument("no optimization report for this policy");
  }
  return reports_.get(machine.name + "/" + benchmark + "/" + variant, [&] {
    const workloads::Program reference =
        workloads::make_benchmark(benchmark, workloads::InputSet::Reference);
    engine::OptimizeArtifacts a;
    a.program = &reference;
    a.machine = &machine;
    a.options = options_;
    // Δ's baseline-sim fallback is the memoized Baseline run; the graph
    // takes the resolved value as assumed.
    a.options.assumed_cycles_per_memop =
        engine::resolve_delta(options_.assumed_cycles_per_memop,
                              options_.measured_cycles_per_memop,
                              [&] {
                                return core::cycles_per_memop(
                                    baseline(machine, benchmark));
                              })
            .cycles_per_memop;
    a.profile_bound = true;
    a.report.profile = profile(benchmark);
    a.report.benchmark = reference.name;
    if (policy == Policy::StrideCentric) {
      engine::stride_centric_graph().run(a, {});
    } else {
      a.options.enable_non_temporal = (policy == Policy::SoftwareNT);
      engine::optimize_graph().run(a, {});
    }
    return std::move(a.report);
  });
}

workloads::Program PlanCache::prepare(const sim::MachineConfig& machine,
                                      const std::string& benchmark,
                                      workloads::InputSet input,
                                      Policy policy, Addr base_offset) {
  workloads::Program program = workloads::make_benchmark(benchmark, input);
  if (policy != Policy::Baseline && policy != Policy::Hardware) {
    // Plans are keyed by PC ("binary" location), so they apply unchanged to
    // other inputs of the same program.
    program = core::insert_prefetches(
        program, report(machine, benchmark, policy).plans);
  }
  if (base_offset != 0) workloads::rebase_program(program, base_offset);
  return program;
}

double BenchmarkEvaluation::speedup(Policy policy) const {
  const auto& base = runs.at(Policy::Baseline);
  const auto& run = runs.at(policy);
  return static_cast<double>(base.apps[0].cycles) /
         static_cast<double>(run.apps[0].cycles);
}

double BenchmarkEvaluation::traffic_increase(Policy policy) const {
  return analysis::traffic_increase(
      runs.at(Policy::Baseline).dram.total_bytes(),
      runs.at(policy).dram.total_bytes());
}

double BenchmarkEvaluation::bandwidth_gbps(Policy policy) const {
  return runs.at(policy).bandwidth_gbps();
}

namespace {

// In enum order: kPolicies[p] == Policy(p).
constexpr Policy kPolicies[] = {Policy::Baseline, Policy::Hardware,
                                Policy::Software, Policy::SoftwareNT,
                                Policy::StrideCentric};

sim::RunResult run_policy(const sim::MachineConfig& machine,
                          const std::string& benchmark, PlanCache& cache,
                          workloads::InputSet input, Policy policy) {
  if (policy == Policy::Baseline && input == workloads::InputSet::Reference) {
    return cache.baseline(machine, benchmark);
  }
  return sim::run_single(machine,
                         cache.prepare(machine, benchmark, input, policy),
                         policy == Policy::Hardware);
}

}  // namespace

BenchmarkEvaluation evaluate_benchmark(const sim::MachineConfig& machine,
                                       const std::string& benchmark,
                                       PlanCache& cache,
                                       workloads::InputSet input) {
  BenchmarkEvaluation eval;
  eval.name = benchmark;
  for (Policy policy : kPolicies) {
    eval.runs.emplace(policy,
                      run_policy(machine, benchmark, cache, input, policy));
  }
  return eval;
}

std::vector<BenchmarkEvaluation> evaluate_suite(
    const sim::MachineConfig& machine,
    const std::vector<std::string>& benchmarks, PlanCache& cache,
    const engine::Executor* executor, workloads::InputSet input) {
  constexpr std::size_t kUnits = 3;  // per benchmark per wave
  constexpr std::size_t kRuns = std::size(kPolicies);
  const engine::EngineContext ctx{executor};
  // runs[i * kRuns + p]: benchmark i under kPolicies[p].
  std::vector<sim::RunResult> runs(benchmarks.size() * kRuns);
  const auto run_unit = [&](std::size_t i, Policy policy) {
    runs[i * kRuns + static_cast<std::size_t>(policy)] =
        run_policy(machine, benchmarks[i], cache, input, policy);
  };

  // Wave 1: what every plan reads (the profile; the Baseline run is also
  // Δ's fallback) beside the Hardware run, which needs no plan.
  ctx.for_each(benchmarks.size() * kUnits, [&](std::size_t u) {
    const std::size_t i = u / kUnits;
    switch (u % kUnits) {
      case 0: cache.profile(benchmarks[i]); break;
      case 1: run_unit(i, Policy::Baseline); break;
      default: run_unit(i, Policy::Hardware); break;
    }
  });
  // Wave 2: each planned policy solves its plan, then runs it.
  constexpr Policy kPlanned[kUnits] = {Policy::Software, Policy::SoftwareNT,
                                       Policy::StrideCentric};
  ctx.for_each(benchmarks.size() * kUnits, [&](std::size_t u) {
    run_unit(u / kUnits, kPlanned[u % kUnits]);
  });

  std::vector<BenchmarkEvaluation> out(benchmarks.size());
  for (std::size_t i = 0; i < benchmarks.size(); ++i) {
    out[i].name = benchmarks[i];
    for (std::size_t p = 0; p < kRuns; ++p) {
      out[i].runs.emplace(kPolicies[p], std::move(runs[i * kRuns + p]));
    }
  }
  return out;
}

std::vector<double> MixEvaluation::times(Policy policy) const {
  std::vector<double> out;
  for (const sim::AppResult& app : runs.at(policy).apps) {
    out.push_back(static_cast<double>(app.cycles));
  }
  return out;
}

double MixEvaluation::weighted_speedup(Policy policy) const {
  return analysis::weighted_speedup(
      MixTimes{times(Policy::Baseline), times(policy)});
}

double MixEvaluation::fair_speedup(Policy policy) const {
  return analysis::fair_speedup(
      MixTimes{times(Policy::Baseline), times(policy)});
}

double MixEvaluation::qos(Policy policy) const {
  return analysis::qos_degradation(
      MixTimes{times(Policy::Baseline), times(policy)});
}

double MixEvaluation::traffic_increase(Policy policy) const {
  return analysis::traffic_increase(
      runs.at(Policy::Baseline).dram.total_bytes(),
      runs.at(policy).dram.total_bytes());
}

double MixEvaluation::bandwidth_gbps(Policy policy) const {
  return runs.at(policy).bandwidth_gbps();
}

MixEvaluation evaluate_mix(const sim::MachineConfig& machine,
                           const workloads::MixSpec& spec, PlanCache& cache,
                           workloads::InputSet run_input,
                           const std::vector<Policy>& policies) {
  MixEvaluation eval;
  eval.spec = spec;
  for (Policy policy : policies) {
    std::vector<workloads::Program> programs;
    programs.reserve(spec.apps.size());
    for (std::size_t core = 0; core < spec.apps.size(); ++core) {
      programs.push_back(cache.prepare(
          machine, spec.apps[core], run_input, policy,
          workloads::core_address_offset(static_cast<int>(core))));
    }
    std::vector<const workloads::Program*> ptrs;
    for (const auto& p : programs) ptrs.push_back(&p);
    const bool hw = policy == Policy::Hardware;
    eval.runs.emplace(policy, sim::run_mix(machine, ptrs, hw));
  }
  return eval;
}

}  // namespace re::analysis
