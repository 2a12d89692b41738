// Analysis-engine tests: the determinism property (any stage graph yields
// byte-identical reports at any worker count), Δ precedence, the knob
// audit, and thread-safety stress for the shared plan cache and concurrent
// windowed solves (run under RE_SANITIZE=thread by the tsan lane in
// tools/check.sh).
#include "engine/pipeline.hh"

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "analysis/experiments.hh"
#include "core/pipeline.hh"
#include "engine/delta.hh"
#include "engine/executor.hh"
#include "testutil.hh"
#include "workloads/suite.hh"

namespace re::engine {
namespace {

// -- determinism property -------------------------------------------------

/// Every graph entry point, serialized at `jobs` workers.
std::string all_graphs_fingerprint(const workloads::Program& program,
                                   const sim::MachineConfig& machine,
                                   int jobs) {
  const Executor executor(jobs);
  const EngineContext ctx{&executor};

  std::string out;
  out += serialize_report(run_optimize(program, machine, {}, ctx));
  out += serialize_report(run_stride_centric(program, machine, {}, ctx));
  const core::Profile profile =
      core::profile_program(program, core::SamplerConfig{});
  out += serialize_report(
      run_optimize_with_profile(program, profile, machine, {}, ctx));
  return out;
}

TEST(EngineDeterminism, ByteIdenticalReportsAtAnyWorkerCount) {
  for (const std::string& name : workloads::suite_names()) {
    const workloads::Program program = workloads::make_benchmark(name);
    for (const sim::MachineConfig& machine :
         {sim::amd_phenom_ii(), sim::intel_sandybridge()}) {
      const std::string serial = all_graphs_fingerprint(program, machine, 1);
      ASSERT_FALSE(serial.empty());
      for (const int jobs : {2, 7, 16}) {
        EXPECT_EQ(all_graphs_fingerprint(program, machine, jobs), serial)
            << name << " on " << machine.name << " at jobs " << jobs;
      }
    }
  }
}

TEST(EngineDeterminism, ContextlessRunMatchesSerialExecutor) {
  // The default EngineContext (no executor) is the same code path as a
  // one-worker executor.
  const workloads::Program program = workloads::make_benchmark("libquantum");
  const sim::MachineConfig machine = sim::amd_phenom_ii();
  const std::string contextless =
      serialize_report(run_optimize(program, machine, {}));
  EXPECT_EQ(contextless, serialize_report(run_optimize(
                             program, machine, {}, EngineContext{nullptr})));
  const Executor executor(1);
  EXPECT_EQ(contextless, serialize_report(run_optimize(
                             program, machine, {}, EngineContext{&executor})));
}

TEST(EngineDeterminism, SharedExecutorAcrossRunsIsInvisible) {
  // One executor serving solve after solve, across programs and in any
  // order, never changes a result.
  const sim::MachineConfig machine = sim::amd_phenom_ii();
  const Executor executor(2);
  const EngineContext ctx{&executor};
  std::vector<std::string> first_pass;
  for (const std::string& name : workloads::suite_names()) {
    first_pass.push_back(serialize_report(
        run_optimize(workloads::make_benchmark(name), machine, {}, ctx)));
  }
  // Second pass through the same executor, in reverse order.
  for (std::size_t i = workloads::suite_names().size(); i-- > 0;) {
    const std::string& name = workloads::suite_names()[i];
    EXPECT_EQ(serialize_report(run_optimize(workloads::make_benchmark(name),
                                            machine, {}, ctx)),
              first_pass[i])
        << name;
  }
}

// -- stage graph self-description -----------------------------------------

TEST(StageGraph, DescribeNamesEveryPipelineStage) {
  const std::string description = optimize_graph().describe();
  for (const char* stage : {"sample", "validate", "delta", "statstack",
                            "mddli", "stride", "bypass", "insert"}) {
    EXPECT_NE(description.find(stage), std::string::npos)
        << "missing stage: " << stage << "\n"
        << description;
  }
  EXPECT_EQ(optimize_graph().stages().size(), 8u);
  EXPECT_FALSE(stride_centric_graph().describe().empty());
  EXPECT_FALSE(estimator_graph().describe().empty());
}

// -- Δ resolution ----------------------------------------------------------

TEST(Delta, PrecedenceAssumedOverMeasuredOverBaselineSim) {
  int baseline_calls = 0;
  const auto baseline = [&] {
    ++baseline_calls;
    return 7.0;
  };

  const DeltaEstimate assumed = resolve_delta(3.0, 5.0, baseline);
  EXPECT_EQ(assumed.source, DeltaSource::kAssumed);
  EXPECT_DOUBLE_EQ(assumed.cycles_per_memop, 3.0);

  const DeltaEstimate measured = resolve_delta(0.0, 5.0, baseline);
  EXPECT_EQ(measured.source, DeltaSource::kMeasured);
  EXPECT_DOUBLE_EQ(measured.cycles_per_memop, 5.0);

  // The expensive baseline simulation is invoked lazily: only now.
  EXPECT_EQ(baseline_calls, 0);
  const DeltaEstimate sim = resolve_delta(0.0, 0.0, baseline);
  EXPECT_EQ(sim.source, DeltaSource::kBaselineSim);
  EXPECT_DOUBLE_EQ(sim.cycles_per_memop, 7.0);
  EXPECT_EQ(baseline_calls, 1);
}

TEST(Delta, EwmaIgnoresEmptyWindowsAndTracksChanges) {
  DeltaEwma ewma;
  EXPECT_DOUBLE_EQ(ewma.value(), 0.0);
  ewma.observe(0.0);   // empty window measures nothing
  ewma.observe(-1.0);  // nonsense measures nothing
  EXPECT_DOUBLE_EQ(ewma.value(), 0.0);
  ewma.observe(4.0);  // first observation seeds the estimate
  EXPECT_DOUBLE_EQ(ewma.value(), 4.0);
  ewma.observe(8.0);
  EXPECT_DOUBLE_EQ(ewma.value(), 0.7 * 4.0 + 0.3 * 8.0);
}

// -- knob audit ------------------------------------------------------------

TEST(Knobs, DescribeListsEveryFieldOnce) {
  const std::string audit = describe_knobs(core::OptimizerOptions{});
  for (const char* field :
       {"sample_period", "sample_seed", "profile_max_refs",
        "enable_non_temporal", "assumed_cycles_per_memop",
        "measured_cycles_per_memop", "llc_effective_bytes", "mddli.",
        "stride.", "bypass."}) {
    EXPECT_NE(audit.find(field), std::string::npos)
        << "missing knob: " << field << "\n"
        << audit;
  }
}

TEST(Knobs, DescribePrintsTheOptionsValues) {
  core::OptimizerOptions options;
  options.sampler.sample_period = 123;
  options.sampler.seed = 77;
  options.profile_max_refs = 5000;
  options.enable_non_temporal = false;
  options.assumed_cycles_per_memop = 2.5;
  options.measured_cycles_per_memop = 3.5;
  options.mddli.llc_effective_bytes = 256 << 10;
  const std::string audit = describe_knobs(options);
  for (const char* line :
       {"sample_period=123\n", "sample_seed=77\n", "profile_max_refs=5000\n",
        "enable_non_temporal=0\n", "assumed_cycles_per_memop=2.5\n",
        "measured_cycles_per_memop=3.5\n", "llc_effective_bytes=262144\n"}) {
    EXPECT_NE(audit.find(line), std::string::npos)
        << "missing line: " << line << audit;
  }
}

// -- thread-safety stress (TSan lane) --------------------------------------

TEST(EngineStress, ConcurrentWindowedSolvesAreIndependent) {
  // 64 concurrent windowed solves: 16 threads x 4 solves. Under
  // RE_SANITIZE=thread this is the data-race oracle for the whole engine
  // path (sampling, StatStack grouping, stride fan-out, insertion).
  // All threads fan out through one shared executor, so concurrent
  // fan-outs on the same executor run under the same oracle.
  const sim::MachineConfig machine = sim::amd_phenom_ii();
  const std::vector<std::string> names = workloads::suite_names();
  const workloads::Program program = workloads::make_benchmark("libquantum");
  const std::string expected =
      serialize_report(run_optimize(program, machine, {}));

  constexpr int kThreads = 16;
  constexpr int kSolvesPerThread = 4;
  const Executor executor(2);
  std::vector<std::string> mismatches(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const EngineContext ctx{&executor};
      for (int s = 0; s < kSolvesPerThread; ++s) {
        const std::string got =
            serialize_report(run_optimize(program, machine, {}, ctx));
        if (got != expected) {
          mismatches[t] = "thread " + std::to_string(t) + " solve " +
                          std::to_string(s) + " diverged";
          return;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (const std::string& m : mismatches) EXPECT_EQ(m, "");
}

TEST(EngineStress, PlanCacheComputesEachKeyOnceUnderContention) {
  // Many threads hammer the shared PlanCache with overlapping keys on both
  // machines, so they contend on the machine-independent profile memo, the
  // per-machine Baseline memo and the report memo at once. Every returned
  // reference must describe the same plans, and distinct keys must not
  // serialize behind one another (call_once is per entry).
  const std::vector<sim::MachineConfig> machines = {sim::amd_phenom_ii(),
                                                    sim::intel_sandybridge()};
  analysis::PlanCache cache;
  const std::vector<std::string> names = workloads::suite_names();
  const std::vector<analysis::Policy> policies = {
      analysis::Policy::Software, analysis::Policy::SoftwareNT,
      analysis::Policy::StrideCentric};

  // Expected plan counts from a private serial cache.
  analysis::PlanCache reference;
  std::vector<std::size_t> expected;
  for (const sim::MachineConfig& machine : machines) {
    for (const std::string& name : names) {
      for (const analysis::Policy policy : policies) {
        expected.push_back(
            reference.report(machine, name, policy).plans.size());
      }
    }
  }

  constexpr int kThreads = 8;
  std::vector<std::string> mismatches(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Odd threads start on the other machine, so both machines' reports
      // ask for each benchmark's shared profile at once.
      for (std::size_t step = 0; step < machines.size(); ++step) {
        const std::size_t m =
            (step + static_cast<std::size_t>(t)) % machines.size();
        std::size_t k = m * names.size() * policies.size();
        for (const std::string& name : names) {
          for (const analysis::Policy policy : policies) {
            const auto& report = cache.report(machines[m], name, policy);
            if (report.plans.size() != expected[k]) {
              mismatches[t] =
                  machines[m].name + "/" + name + ": wrong plan count";
              return;
            }
            ++k;
          }
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (const std::string& m : mismatches) EXPECT_EQ(m, "");
}

}  // namespace
}  // namespace re::engine
