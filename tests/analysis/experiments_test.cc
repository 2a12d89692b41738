#include "analysis/experiments.hh"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/pipeline.hh"
#include "engine/executor.hh"
#include "engine/pipeline.hh"

namespace re::analysis {
namespace {

TEST(PolicyName, AllPoliciesNamed) {
  EXPECT_STREQ(policy_name(Policy::Baseline), "Baseline");
  EXPECT_STREQ(policy_name(Policy::Hardware), "Hardware Pref.");
  EXPECT_STREQ(policy_name(Policy::Software), "Software Pref.");
  EXPECT_STREQ(policy_name(Policy::SoftwareNT), "Soft Pref.+NT");
  EXPECT_STREQ(policy_name(Policy::StrideCentric), "Stride-centric");
}

TEST(PlanCache, ReportsAreCachedPerKey) {
  PlanCache cache;
  const auto machine = sim::amd_phenom_ii();
  const auto& a = cache.report(machine, "libquantum", Policy::SoftwareNT);
  const auto& b = cache.report(machine, "libquantum", Policy::SoftwareNT);
  EXPECT_EQ(&a, &b);  // same object: computed once
  const auto& c = cache.report(machine, "libquantum", Policy::Software);
  EXPECT_NE(&a, &c);  // NT and non-NT variants are distinct
}

TEST(PlanCache, SharedArtifactsMatchFreshSolves) {
  // One profile per benchmark, shared by both machines and all variants,
  // and Δ from the memoized Baseline run give the reports that solving each
  // (machine, benchmark, variant) from scratch gives.
  PlanCache cache;
  for (const sim::MachineConfig& machine :
       {sim::amd_phenom_ii(), sim::intel_sandybridge()}) {
    for (const std::string name : {"libquantum", "mcf"}) {
      const workloads::Program reference =
          workloads::make_benchmark(name, workloads::InputSet::Reference);
      core::OptimizerOptions options = cache.options();
      for (const Policy policy : {Policy::Software, Policy::SoftwareNT}) {
        options.enable_non_temporal = policy == Policy::SoftwareNT;
        EXPECT_EQ(
            engine::serialize_report(cache.report(machine, name, policy)),
            engine::serialize_report(
                core::optimize_program(reference, machine, options)))
            << machine.name << "/" << name << "/" << policy_name(policy);
      }
      EXPECT_EQ(engine::serialize_report(
                    cache.report(machine, name, Policy::StrideCentric)),
                engine::serialize_report(core::stride_centric_optimize(
                    reference, machine, cache.options())))
          << machine.name << "/" << name << "/stride-centric";
    }
  }
}

TEST(PlanCache, BaselineIsTheReferenceRunWithPrefetchingOff) {
  PlanCache cache;
  const auto machine = sim::amd_phenom_ii();
  const sim::RunResult& memo = cache.baseline(machine, "cigar");
  EXPECT_EQ(&memo, &cache.baseline(machine, "cigar"));
  const sim::RunResult fresh = sim::run_single(
      machine, workloads::make_benchmark("cigar"), /*hw_prefetch=*/false);
  EXPECT_EQ(memo.apps[0].cycles, fresh.apps[0].cycles);
  EXPECT_EQ(memo.dram.total_lines(), fresh.dram.total_lines());
}

TEST(PlanCache, BaselinePolicyHasNoReport) {
  PlanCache cache;
  EXPECT_THROW(
      cache.report(sim::amd_phenom_ii(), "libquantum", Policy::Baseline),
      std::invalid_argument);
}

TEST(PlanCache, PrepareBaselineHasNoPrefetches) {
  PlanCache cache;
  const auto program =
      cache.prepare(sim::amd_phenom_ii(), "libquantum",
                    workloads::InputSet::Reference, Policy::Baseline);
  for (const auto& loop : program.loops) {
    for (const auto& inst : loop.body) {
      EXPECT_FALSE(inst.prefetch.has_value());
    }
  }
}

TEST(PlanCache, PreparedProgramCarriesPlansAcrossInputs) {
  PlanCache cache;
  const auto machine = sim::intel_sandybridge();
  const auto& report = cache.report(machine, "libquantum", Policy::SoftwareNT);
  ASSERT_FALSE(report.plans.empty());
  const auto alt = cache.prepare(machine, "libquantum",
                                 workloads::InputSet::Alternate,
                                 Policy::SoftwareNT);
  for (const auto& plan : report.plans) {
    const auto* inst = alt.find(plan.pc);
    ASSERT_NE(inst, nullptr);
    ASSERT_TRUE(inst->prefetch.has_value());
    EXPECT_EQ(inst->prefetch->distance_bytes, plan.distance_bytes);
  }
}

TEST(PlanCache, PrepareAppliesBaseOffset) {
  PlanCache cache;
  const auto machine = sim::amd_phenom_ii();
  const auto base = cache.prepare(machine, "milc",
                                  workloads::InputSet::Reference,
                                  Policy::Baseline, 0);
  const auto moved = cache.prepare(machine, "milc",
                                   workloads::InputSet::Reference,
                                   Policy::Baseline, 1ULL << 40);
  Addr base_addr = 0, moved_addr = 0;
  std::visit([&](const auto& p) { base_addr = p.base; },
             base.loops[0].body[0].pattern);
  std::visit([&](const auto& p) { moved_addr = p.base; },
             moved.loops[0].body[0].pattern);
  EXPECT_EQ(moved_addr, base_addr + (1ULL << 40));
}

TEST(EvaluateBenchmark, ProducesAllPolicies) {
  PlanCache cache;
  const auto eval =
      evaluate_benchmark(sim::amd_phenom_ii(), "libquantum", cache);
  EXPECT_EQ(eval.runs.size(), 5u);
  EXPECT_DOUBLE_EQ(eval.speedup(Policy::Baseline), 1.0);
  EXPECT_GT(eval.speedup(Policy::SoftwareNT), 1.2);
  EXPECT_GT(eval.bandwidth_gbps(Policy::Baseline), 0.0);
}

TEST(EvaluateSuite, ExecutorMatchesSerial) {
  // The (benchmark, policy) fan-out gives every run the per-benchmark loop
  // gives, inline (null executor) and at 1 and 4 workers.
  const auto machine = sim::amd_phenom_ii();
  const std::vector<std::string> names = {"libquantum", "mcf", "cigar"};
  PlanCache serial_cache;
  std::vector<BenchmarkEvaluation> expected;
  for (const std::string& name : names) {
    expected.push_back(evaluate_benchmark(machine, name, serial_cache));
  }
  for (const int jobs : {0, 1, 4}) {
    PlanCache cache;
    const engine::Executor executor(jobs);
    const std::vector<BenchmarkEvaluation> evals = evaluate_suite(
        machine, names, cache, jobs == 0 ? nullptr : &executor);
    ASSERT_EQ(evals.size(), names.size());
    for (std::size_t i = 0; i < names.size(); ++i) {
      EXPECT_EQ(evals[i].name, names[i]);
      ASSERT_EQ(evals[i].runs.size(), expected[i].runs.size());
      for (const auto& [policy, want] : expected[i].runs) {
        const sim::RunResult& got = evals[i].runs.at(policy);
        const std::string where = "jobs " + std::to_string(jobs) + " " +
                                  names[i] + " " + policy_name(policy);
        ASSERT_EQ(got.apps.size(), 1u) << where;
        EXPECT_EQ(got.apps[0].cycles, want.apps[0].cycles) << where;
        EXPECT_EQ(got.dram.demand_lines, want.dram.demand_lines) << where;
        EXPECT_EQ(got.dram.sw_prefetch_lines, want.dram.sw_prefetch_lines)
            << where;
        EXPECT_EQ(got.dram.hw_prefetch_lines, want.dram.hw_prefetch_lines)
            << where;
        EXPECT_EQ(got.dram.writeback_lines, want.dram.writeback_lines)
            << where;
      }
    }
  }
}

TEST(EvaluateMix, FourAppsFourResults) {
  PlanCache cache;
  const workloads::MixSpec spec{
      {"libquantum", "milc", "soplex", "GemsFDTD"}};
  const auto eval = evaluate_mix(sim::amd_phenom_ii(), spec, cache);
  for (const auto policy :
       {Policy::Baseline, Policy::Hardware, Policy::SoftwareNT}) {
    EXPECT_EQ(eval.runs.at(policy).apps.size(), 4u);
  }
  EXPECT_DOUBLE_EQ(eval.weighted_speedup(Policy::Baseline), 1.0);
  EXPECT_DOUBLE_EQ(eval.qos(Policy::Baseline), 0.0);
  EXPECT_GT(eval.weighted_speedup(Policy::SoftwareNT), 1.0);
}

TEST(EvaluateMix, FairSpeedupNeverExceedsWeighted) {
  PlanCache cache;
  const workloads::MixSpec spec{{"libquantum", "mcf", "gcc", "cigar"}};
  const auto eval = evaluate_mix(sim::intel_sandybridge(), spec, cache);
  for (const auto policy : {Policy::Hardware, Policy::SoftwareNT}) {
    EXPECT_LE(eval.fair_speedup(policy),
              eval.weighted_speedup(policy) + 1e-9);
  }
}

}  // namespace
}  // namespace re::analysis
