// Shared experiment harness for the bench binaries: evaluates benchmarks
// and workload mixes under the paper's prefetching policies.
//
// Policies (paper Figures 4-7):
//   Baseline      — original program, hardware prefetcher off. All speedups
//                   and traffic numbers are relative to this.
//   Hardware      — original program, hardware prefetcher on.
//   Software      — MDDLI-optimized program without NT, HW prefetcher off.
//   SoftwareNT    — MDDLI-optimized with cache bypassing ("Soft Pref.+NT").
//   StrideCentric — the stride-centric baseline, HW prefetcher off.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/pipeline.hh"
#include "engine/executor.hh"
#include "sim/config.hh"
#include "sim/system.hh"
#include "workloads/mix.hh"
#include "workloads/suite.hh"

namespace re::analysis {

enum class Policy { Baseline, Hardware, Software, SoftwareNT, StrideCentric };

const char* policy_name(Policy policy);

/// Memoizes the three artifacts a suite pass shares, each computed once per
/// cache however many policies, machines or threads ask for it:
///   * the raw profile per benchmark: the Reference input sampled under
///     options().sampler. It does not depend on the machine (paper Section
///     VII-D: a single input profile is used for both target architectures
///     and all runs);
///   * the Baseline run per (machine, benchmark) on the Reference input:
///     the Baseline policy's timed run, and the Δ fallback of every plan
///     solved for that benchmark on that machine;
///   * the optimization report per (machine, benchmark, policy variant):
///     optimize_graph (Software, SoftwareNT) or stride_centric_graph
///     (StrideCentric) over the bound profile. Software/NT reports hold
///     the sanitized profile, StrideCentric the raw one.
///
/// Thread-safe: evaluate_suite fans units out over engine workers that
/// share one cache. Each memo guards only its map's shape with a mutex;
/// every entry is computed exactly once (call_once) outside that lock, so
/// distinct keys compute in parallel, and returned references stay stable
/// (entries never move).
class PlanCache {
 public:
  explicit PlanCache(core::OptimizerOptions options = {});

  const core::Profile& profile(const std::string& benchmark);

  const sim::RunResult& baseline(const sim::MachineConfig& machine,
                                 const std::string& benchmark);

  const core::OptimizationReport& report(const sim::MachineConfig& machine,
                                         const std::string& benchmark,
                                         Policy policy);

  /// Program for `benchmark` with `input` data, optimized per `policy`
  /// (plans trained on the Reference input), rebased by `base_offset`.
  workloads::Program prepare(const sim::MachineConfig& machine,
                             const std::string& benchmark,
                             workloads::InputSet input, Policy policy,
                             Addr base_offset = 0);

  const core::OptimizerOptions& options() const { return options_; }

 private:
  /// Map-shape mutex plus per-entry call_once: `compute` runs once per key,
  /// outside the lock.
  template <typename V>
  class Memo {
   public:
    template <typename Compute>
    const V& get(const std::string& key, const Compute& compute) {
      Entry* entry;
      {
        std::lock_guard<std::mutex> lock(mutex_);
        std::unique_ptr<Entry>& slot = entries_[key];
        if (slot == nullptr) slot = std::make_unique<Entry>();
        entry = slot.get();
      }
      std::call_once(entry->once, [&] { entry->value = compute(); });
      return entry->value;
    }

   private:
    struct Entry {
      std::once_flag once;
      V value;
    };
    std::mutex mutex_;
    std::map<std::string, std::unique_ptr<Entry>> entries_;
  };

  core::OptimizerOptions options_;
  Memo<core::Profile> profiles_;
  Memo<sim::RunResult> baselines_;
  Memo<core::OptimizationReport> reports_;
};

/// Single-benchmark evaluation (Figures 4-6): one run per policy.
struct BenchmarkEvaluation {
  std::string name;
  std::map<Policy, sim::RunResult> runs;

  double speedup(Policy policy) const;           // vs Baseline
  double traffic_increase(Policy policy) const;  // vs Baseline
  double bandwidth_gbps(Policy policy) const;
};

/// The Reference-input Baseline run comes from the cache's memo.
BenchmarkEvaluation evaluate_benchmark(
    const sim::MachineConfig& machine, const std::string& benchmark,
    PlanCache& cache,
    workloads::InputSet input = workloads::InputSet::Reference);

/// Evaluate a whole suite, fanning (benchmark, unit) pairs out over
/// `executor`'s workers in two ordered waves: first each benchmark's
/// profile, Baseline run and Hardware run, then its three planned policies
/// (solve the plan, then the timed run). Every unit writes only its own
/// run slot, so results arrive in `benchmarks` order and equal
/// evaluate_benchmark's at any worker count. Null executor = the same
/// units, inline.
std::vector<BenchmarkEvaluation> evaluate_suite(
    const sim::MachineConfig& machine,
    const std::vector<std::string>& benchmarks, PlanCache& cache,
    const engine::Executor* executor = nullptr,
    workloads::InputSet input = workloads::InputSet::Reference);

/// Mixed-workload evaluation (Figures 7-11): Baseline, Hardware and
/// SoftwareNT runs of a 4-app mix.
struct MixEvaluation {
  workloads::MixSpec spec;
  std::map<Policy, sim::RunResult> runs;

  std::vector<double> times(Policy policy) const;
  double weighted_speedup(Policy policy) const;
  double fair_speedup(Policy policy) const;
  double qos(Policy policy) const;
  double traffic_increase(Policy policy) const;
  double bandwidth_gbps(Policy policy) const;
};

MixEvaluation evaluate_mix(
    const sim::MachineConfig& machine, const workloads::MixSpec& spec,
    PlanCache& cache,
    workloads::InputSet run_input = workloads::InputSet::Reference,
    const std::vector<Policy>& policies = {Policy::Baseline, Policy::Hardware,
                                           Policy::SoftwareNT});

}  // namespace re::analysis
