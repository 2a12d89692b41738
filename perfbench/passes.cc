#include "passes.hh"

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <iterator>
#include <stdexcept>
#include <utility>

#include "analysis/experiments.hh"
#include "serve/harness.hh"
#include "serve/service.hh"
#include "sim/config.hh"
#include "sim/system.hh"
#include "support/rng.hh"
#include "workloads/cursor.hh"
#include "workloads/mix.hh"
#include "workloads/suite.hh"

namespace perfbench {

namespace {

using re::analysis::Policy;

/// 64-bit FNV-1a over the fields fed to it; stable across builds and hosts.
class Digest {
 public:
  Digest& add(std::uint64_t value) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (value >> (8 * i)) & 0xff;
      hash_ *= 0x100000001b3ull;
    }
    return *this;
  }
  Digest& add(const std::string& text) {
    for (const char c : text) {
      hash_ ^= static_cast<unsigned char>(c);
      hash_ *= 0x100000001b3ull;
    }
    return add(static_cast<std::uint64_t>(text.size()));
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ull;
};

double elapsed_s(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Simulated work summed over a pass's timed runs; feeds the per-layer
/// `sim.<workload>.*` counts.
struct SimCounts {
  std::uint64_t demand_refs = 0;
  std::uint64_t l1_misses = 0;
  std::uint64_t dram_lines = 0;
  std::uint64_t sw_prefetch_lines = 0;
  std::uint64_t hw_prefetch_lines = 0;
  std::uint64_t late_prefetch_hits = 0;
  std::uint64_t useless_prefetch_evictions = 0;
  std::uint64_t stall_cycles = 0;
  std::uint64_t core_cycles = 0;  // cores x window length

  void add(const re::sim::RunResult& run) {
    for (const re::sim::AppResult& app : run.apps) {
      demand_refs += app.mem.loads;
      l1_misses += app.mem.l1_misses();
      late_prefetch_hits += app.mem.late_prefetch_hits;
      useless_prefetch_evictions +=
          app.mem.useless_sw_evictions + app.mem.useless_hw_evictions;
      stall_cycles += app.mem.memory_stall_cycles;
      core_cycles += run.elapsed_cycles;
    }
    dram_lines += run.dram.total_lines();
    sw_prefetch_lines += run.dram.sw_prefetch_lines;
    hw_prefetch_lines += run.dram.hw_prefetch_lines;
  }

  void report(std::map<std::string, double>& layer) const {
    const auto ratio = [](std::uint64_t num, std::uint64_t den) {
      return den == 0 ? 0.0
                      : static_cast<double>(num) / static_cast<double>(den);
    };
    const std::string p = "sim.";
    const std::uint64_t prefetched = sw_prefetch_lines + hw_prefetch_lines;
    layer[p + "demand_refs"] = static_cast<double>(demand_refs);
    layer[p + "l1_miss_ratio"] = ratio(l1_misses, demand_refs);
    layer[p + "dram_lines"] = static_cast<double>(dram_lines);
    layer[p + "sw_prefetch_lines"] = static_cast<double>(sw_prefetch_lines);
    layer[p + "hw_prefetch_lines"] = static_cast<double>(hw_prefetch_lines);
    layer[p + "late_prefetch_hits"] = static_cast<double>(late_prefetch_hits);
    layer[p + "memory_stall_share"] = ratio(stall_cycles, core_cycles);
    // The simulator counts a never-touched prefetched line once per cache
    // level it leaves, so the useless evictions are reported beside their
    // base, not as a share of it.
    layer[p + "prefetched_lines"] = static_cast<double>(prefetched);
    layer[p + "useless_prefetch_evictions"] =
        static_cast<double>(useless_prefetch_evictions);
  }
};

/// A program's fixed work, counted by walking it rather than from
/// Program::total_references, so the simulator's count is checked against
/// an independent one.
std::uint64_t walked_references(const re::workloads::Program& program) {
  re::workloads::ProgramCursor cursor(program);
  std::uint64_t refs = 0;
  while (cursor.next()) ++refs;
  return refs;
}

/// Each named program's fixed work, one executor unit per program: set-up
/// on all workers, like the passes, so a slow spell on one host CPU moves
/// set-up time no more than pass time.
std::map<std::string, std::uint64_t> fixed_work(
    const std::vector<std::string>& names,
    const re::engine::Executor& executor) {
  const std::vector<std::uint64_t> refs =
      executor.map(names.size(), [&](std::size_t i) {
        return walked_references(re::workloads::make_benchmark(names[i]));
      });
  std::map<std::string, std::uint64_t> out;
  for (std::size_t i = 0; i < names.size(); ++i) out[names[i]] = refs[i];
  return out;
}

/// Every simulated statistic of one run that the paper's figures read.
void digest_run(Digest& d, const re::sim::RunResult& run) {
  for (const re::sim::AppResult& app : run.apps) {
    d.add(app.name).add(app.cycles).add(app.references);
    d.add(app.mem.late_prefetch_hits);
  }
  d.add(run.dram.total_lines())
      .add(run.dram.sw_prefetch_lines)
      .add(run.dram.hw_prefetch_lines)
      .add(run.elapsed_cycles);
}

void perturb_run(re::sim::RunResult& run) { ++run.apps[0].mem.late_prefetch_hits; }

// ---- suite -----------------------------------------------------------------

constexpr Policy kSuitePolicies[] = {Policy::Baseline, Policy::Hardware,
                                     Policy::Software, Policy::SoftwareNT,
                                     Policy::StrideCentric};

class SuiteWorkload : public Workload {
 public:
  explicit SuiteWorkload(const Config& config) : config_(config) {}
  const char* op_name() const override { return "(benchmark, policy) run"; }

  void setup(const re::engine::Executor& executor) override {
    names_ = config_.smoke
                 ? std::vector<std::string>{"libquantum", "omnetpp", "cigar"}
                 : re::workloads::suite_names();
    machines_ = {re::sim::amd_phenom_ii()};
    if (!config_.smoke) machines_.push_back(re::sim::intel_sandybridge());
    fixed_work_ = fixed_work(names_, executor);
    options_ = re::core::OptimizerOptions{};
    options_.sampler.seed = config_.seed;
  }

  PassResult pass(const re::engine::Executor& executor,
                  Tracer* tracer) override {
    re::analysis::PlanCache cache(options_);
    std::vector<std::vector<re::analysis::BenchmarkEvaluation>> evals;
    const auto start = Clock::now();
    {
      Span root(tracer, "suite.pass", "bench", 0);
      for (const re::sim::MachineConfig& machine : machines_) {
        if (tracer == nullptr) {
          evals.push_back(
              re::analysis::evaluate_suite(machine, names_, cache, &executor));
        } else {
          evals.push_back(
              traced_suite(machine, cache, executor, *tracer, root.id()));
        }
      }
    }
    PassResult result;
    result.seconds = elapsed_s(start);

    Digest digest;
    SimCounts counts;
    double log_speedup = 0.0, traffic_increase = 0.0;
    std::uint64_t single_refs = 0, single_hw_refs = 0;
    int units = 0;
    std::vector<Named> less_data;
    for (std::size_t m = 0; m < machines_.size(); ++m) {
      double hw_bytes = 0.0, nt_bytes = 0.0;
      for (re::analysis::BenchmarkEvaluation& eval : evals[m]) {
        hw_bytes += static_cast<double>(
            eval.runs.at(Policy::Hardware).dram.total_bytes());
        nt_bytes += static_cast<double>(
            eval.runs.at(Policy::SoftwareNT).dram.total_bytes());
        for (const Policy policy : kSuitePolicies) {
          re::sim::RunResult& run = eval.runs.at(policy);
          if (config_.perturb && policy == Policy::SoftwareNT) {
            perturb_run(run);
          }
          ++result.ops;
          if (!check_run(eval.name, run, result)) ++result.failed_ops;
          Digest op;
          op.add(machines_[m].name).add(eval.name).add(
              re::analysis::policy_name(policy));
          digest_run(op, run);
          digest.add(op.value());
          counts.add(run);
          (policy == Policy::Hardware ? single_hw_refs : single_refs) +=
              run.apps[0].mem.loads;
        }
        log_speedup += std::log(eval.speedup(Policy::SoftwareNT));
        traffic_increase += eval.traffic_increase(Policy::SoftwareNT);
        ++units;
      }
      less_data.push_back({"suite.nt_less_data_than_hw_pct." +
                               std::string(m == 0 ? "amd" : "intel"),
                           100.0 * (1.0 - nt_bytes / hw_bytes), "%"});
    }
    result.digest = digest.value();
    result.sim_gain = std::exp(log_speedup / units);
    result.sim_cost = 1.0 + traffic_increase / units;
    result.named = {
        {"suite.nt_speedup_gmean", result.sim_gain, "x"},
        {"suite.nt_traffic_increase_pct", 100.0 * traffic_increase / units, "%"},
    };
    result.named.insert(result.named.end(), less_data.begin(), less_data.end());
    counts.report(result.layer);
    // Bases of the traced run's per-reference simulator costs.
    result.layer["internal.single_refs"] = static_cast<double>(single_refs);
    result.layer["internal.single_hw_refs"] = static_cast<double>(single_hw_refs);

    std::uint64_t samples = 0;
    for (const re::sim::MachineConfig& machine : machines_) {
      for (const std::string& name : names_) {
        for (const Policy policy :
             {Policy::Software, Policy::SoftwareNT, Policy::StrideCentric}) {
          const re::core::Profile& profile =
              cache.report(machine, name, policy).profile;
          samples += profile.reuse_samples.size() +
                     profile.stride_samples.size();
        }
      }
    }
    result.layer["core.samples"] = static_cast<double>(samples);
    return result;
  }

 private:
  /// evaluate_suite assembled from its parts, with spans: the plan
  /// (PlanCache::report) and each timed simulation (run_single) of every
  /// benchmark unit, fanned over the executor like evaluate_suite does.
  std::vector<re::analysis::BenchmarkEvaluation> traced_suite(
      const re::sim::MachineConfig& machine, re::analysis::PlanCache& cache,
      const re::engine::Executor& executor, Tracer& tracer,
      std::uint64_t group) {
    Span fan_out(&tracer, "analysis.evaluate_suite", "analysis", group);
    const std::uint64_t parent = fan_out.id();
    return executor.map(names_.size(), [&](std::size_t i) {
      Span unit(&tracer, "analysis.unit", "analysis", group, parent);
      re::analysis::BenchmarkEvaluation eval;
      eval.name = names_[i];
      for (const Policy policy : kSuitePolicies) {
        const bool hw = policy == Policy::Hardware;
        if (!hw && policy != Policy::Baseline) {
          Span plan(&tracer, "analysis.plan", "analysis", group);
          cache.report(machine, eval.name, policy);
        }
        const re::workloads::Program program = cache.prepare(
            machine, eval.name, re::workloads::InputSet::Reference, policy);
        Span sim(&tracer, hw ? "sim.run_single_hw" : "sim.run_single", "sim",
                 group);
        eval.runs.emplace(policy, re::sim::run_single(machine, program, hw));
      }
      return eval;
    });
  }

  bool check_run(const std::string& benchmark, const re::sim::RunResult& run,
                 PassResult& result) const {
    const bool ok = run.apps.size() == 1 &&
                    run.apps[0].references == fixed_work_.at(benchmark) &&
                    run.apps[0].mem.loads == run.apps[0].references &&
                    run.apps[0].cycles > 0;
    if (!ok) result.problems.push_back(benchmark + ": work invariant failed");
    return ok;
  }

  Config config_;
  std::vector<std::string> names_;
  std::vector<re::sim::MachineConfig> machines_;
  std::map<std::string, std::uint64_t> fixed_work_;
  re::core::OptimizerOptions options_;
};

// ---- mix -------------------------------------------------------------------

constexpr Policy kMixPolicies[] = {Policy::Baseline, Policy::Hardware,
                                   Policy::SoftwareNT};

class MixWorkload : public Workload {
 public:
  explicit MixWorkload(const Config& config)
      : config_(config), machine_(re::sim::amd_phenom_ii()) {}
  const char* op_name() const override { return "(mix, policy) run"; }

  void setup(const re::engine::Executor& executor) override {
    re::core::OptimizerOptions options;
    options.sampler.seed = config_.seed;
    cache_ = std::make_unique<re::analysis::PlanCache>(options);
    const std::vector<std::string>& apps = re::workloads::suite_names();
    fixed_work_ = fixed_work(apps, executor);
    // Warm the SoftwareNT plans so the timed pass is multicore simulation.
    executor.for_each(apps.size(), [&](std::size_t i) {
      cache_->report(machine_, apps[i], Policy::SoftwareNT);
    });
    mixes_ = stratified_mixes(config_.smoke ? 1 : kRounds);
  }

  PassResult pass(const re::engine::Executor& executor,
                  Tracer* tracer) override {
    // One unit per (mix, policy): 3x finer than per mix, so the uneven mix
    // lengths balance better over the workers.
    constexpr std::size_t kPolicies = std::size(kMixPolicies);
    std::vector<re::analysis::MixEvaluation> evals(mixes_.size());
    const auto start = Clock::now();
    {
      Span root(tracer, "mix.pass", "bench", 0);
      const std::uint64_t group = root.id();
      std::vector<re::sim::RunResult> runs =
          executor.map(mixes_.size() * kPolicies, [&](std::size_t i) {
            const re::workloads::MixSpec& spec = mixes_[i / kPolicies];
            const Policy policy = kMixPolicies[i % kPolicies];
            if (tracer != nullptr) return traced_run(spec, policy, *tracer, group);
            return re::analysis::evaluate_mix(machine_, spec, *cache_,
                                              re::workloads::InputSet::Reference,
                                              {policy})
                .runs.at(policy);
          });
      for (std::size_t i = 0; i < runs.size(); ++i) {
        evals[i / kPolicies].spec = mixes_[i / kPolicies];
        evals[i / kPolicies].runs.emplace(kMixPolicies[i % kPolicies],
                                          std::move(runs[i]));
      }
    }
    PassResult result;
    result.seconds = elapsed_s(start);

    Digest digest;
    SimCounts counts;
    double weighted = 0.0, fair = 0.0, slowdown = 0.0;
    for (re::analysis::MixEvaluation& eval : evals) {
      std::string label;
      for (const std::string& app : eval.spec.apps) label += app + "+";
      for (const Policy policy : kMixPolicies) {
        re::sim::RunResult& run = eval.runs.at(policy);
        if (config_.perturb && policy == Policy::SoftwareNT) perturb_run(run);
        ++result.ops;
        if (!check_run(eval.spec, run, result)) ++result.failed_ops;
        digest.add(label).add(re::analysis::policy_name(policy));
        digest_run(digest, run);
        counts.add(run);
      }
      weighted += eval.weighted_speedup(Policy::SoftwareNT);
      fair += eval.fair_speedup(Policy::SoftwareNT);
      // 1 / fair speedup: the mean over apps of T_nt / T_baseline.
      slowdown += 1.0 / eval.fair_speedup(Policy::SoftwareNT);
    }
    const double n = static_cast<double>(evals.size());
    result.digest = digest.value();
    result.sim_gain = weighted / n;
    result.sim_cost = slowdown / n;
    result.named = {
        {"mix.weighted_speedup_nt", weighted / n, "x"},
        {"mix.fair_speedup_nt", fair / n, "x"},
    };
    counts.report(result.layer);
    return result;
  }

 private:
  /// Mixes drawn one app per runtime quartile of the suite: each round
  /// shuffles every quartile and deals one app from each into 3 mixes, so
  /// every benchmark appears once per round and every mix holds one of the
  /// slowest apps. The seed decides who runs with whom. Independent draws
  /// (generate_mixes) made a pass's simulated work, and with it the pass
  /// time, swing by 20 % between seeds.
  static constexpr int kRounds = 2;

  std::vector<re::workloads::MixSpec> stratified_mixes(int rounds) const {
    // Baseline run time of each app, from the Δ the warmed plans measured.
    std::vector<std::pair<double, std::string>> by_time;
    for (const std::string& app : re::workloads::suite_names()) {
      const double cycles =
          cache_->report(machine_, app, Policy::SoftwareNT).cycles_per_memop *
          static_cast<double>(fixed_work_.at(app));
      by_time.emplace_back(cycles, app);
    }
    std::sort(by_time.begin(), by_time.end());
    const std::size_t cores = re::sim::kNumCores;
    const std::size_t per_tier = by_time.size() / cores;

    re::Rng rng(re::workloads::mix64(config_.seed ^ 0x180ull));
    std::vector<re::workloads::MixSpec> mixes;
    for (int r = 0; r < rounds; ++r) {
      std::vector<std::vector<std::string>> tiers(cores);
      for (std::size_t t = 0; t < cores; ++t) {
        for (std::size_t i = 0; i < per_tier; ++i) {
          tiers[t].push_back(by_time[t * per_tier + i].second);
        }
        for (std::size_t i = per_tier - 1; i > 0; --i) {
          std::swap(tiers[t][i], tiers[t][rng.next(i + 1)]);
        }
      }
      for (std::size_t m = 0; m < per_tier; ++m) {
        re::workloads::MixSpec spec;
        for (std::size_t t = 0; t < cores; ++t) spec.apps.push_back(tiers[t][m]);
        // Which core each tier lands on rotates too.
        std::rotate(spec.apps.begin(),
                    spec.apps.begin() + static_cast<std::ptrdiff_t>(rng.next(cores)),
                    spec.apps.end());
        mixes.push_back(std::move(spec));
      }
    }
    return mixes;
  }

  /// evaluate_mix for one policy assembled from its parts
  /// (PlanCache::prepare + run_mix), with a span around the simulation.
  re::sim::RunResult traced_run(const re::workloads::MixSpec& spec,
                                Policy policy, Tracer& tracer,
                                std::uint64_t group) {
    Span unit(&tracer, "analysis.mix_unit", "analysis", group, group);
    std::vector<re::workloads::Program> programs;
    for (std::size_t core = 0; core < spec.apps.size(); ++core) {
      programs.push_back(cache_->prepare(
          machine_, spec.apps[core], re::workloads::InputSet::Reference, policy,
          re::workloads::core_address_offset(static_cast<int>(core))));
    }
    std::vector<const re::workloads::Program*> ptrs;
    for (const re::workloads::Program& p : programs) ptrs.push_back(&p);
    Span sim(&tracer, "sim.run_mix", "sim", group);
    return re::sim::run_mix(machine_, ptrs, policy == Policy::Hardware);
  }

  bool check_run(const re::workloads::MixSpec& spec,
                 const re::sim::RunResult& run, PassResult& result) const {
    bool ok = run.apps.size() == spec.apps.size();
    for (std::size_t i = 0; ok && i < run.apps.size(); ++i) {
      ok = run.apps[i].references == fixed_work_.at(spec.apps[i]) &&
           run.apps[i].cycles > 0 && run.apps[i].cycles <= run.elapsed_cycles;
    }
    if (!ok) result.problems.push_back("mix: work invariant failed");
    return ok;
  }

  Config config_;
  re::sim::MachineConfig machine_;
  std::vector<re::workloads::MixSpec> mixes_;
  std::unique_ptr<re::analysis::PlanCache> cache_;
  std::map<std::string, std::uint64_t> fixed_work_;
};

// ---- serve -----------------------------------------------------------------

struct Arrival {
  std::uint64_t tick = 0;
  re::serve::PlanRequest request;
};

class ServeWorkload : public Workload {
 public:
  explicit ServeWorkload(const Config& config)
      : config_(config), machine_(re::sim::amd_phenom_ii()) {
    // bench_serve's sizing: 10k cores at ~0.00033 requests/core/tick, 90 %
    // on 4 hot families and a 4096-family cold tail, so misses arrive at
    // about twice the 8-slot / 48-tick solve capacity.
    cores_ = config.smoke ? 500 : 10000;
    rate_ = config.smoke ? 0.007 : 0.00033;
    cold_ = config.smoke ? 256 : 4096;
    schedules_.resize(config.smoke ? 2 : kSchedules);
    options_.solve_slots = 8;
    options_.solve_cost_ticks = 48;
    options_.deadline_ticks = 256;
    options_.queue_capacity = 64;
  }
  const char* op_name() const override { return "request"; }

  void setup(const re::engine::Executor& executor) override {
    families_ = re::serve::make_families(kHot, cold_);
    solver_ = re::serve::make_engine_solver(families_, machine_, &executor);
    // One executor unit per schedule, as fixed_work() does for programs.
    schedules_ = executor.map(schedules_.size(), [&](std::size_t k) {
      return draw_schedule(
          re::workloads::mix64(config_.seed ^ (0x5E47E5EEDull + k)));
    });
  }

  PassResult pass(const re::engine::Executor& executor,
                  Tracer* tracer) override {
    std::vector<std::vector<re::serve::PlanResponse>> out(schedules_.size());
    std::vector<re::serve::ServiceStats> stats(schedules_.size());
    const auto start = Clock::now();
    {
      Span root(tracer, "serve.pass", "bench", 0);
      for (std::size_t k = 0; k < schedules_.size(); ++k) {
        stats[k] = serve(k, executor, tracer, root.id(), out[k]);
      }
    }
    PassResult result;
    result.seconds = elapsed_s(start);
    if (config_.perturb && !out.back().empty()) ++out.back().back().latency_ticks;
    check_and_digest(out, stats, result);
    return result;
  }

 private:
  static constexpr std::uint64_t kHot = 4;
  static constexpr double kHotFraction = 0.9;
  /// Independent services per pass. Under saturation the 8 solve slots
  /// lock into a phase pattern set by the first arrivals, and that pattern
  /// decides how many solves share an executor fan-out; averaging several
  /// patterns keeps host time from hinging on one draw.
  static constexpr std::size_t kSchedules = 24;
  static constexpr std::uint64_t kTicks = 1024;

  /// Open-loop Bernoulli arrivals per (tick, core), drawn by geometric
  /// skipping over the flattened (tick, core) space: the same law as one
  /// draw per core per tick, at the cost of one draw per request.
  std::vector<Arrival> draw_schedule(std::uint64_t seed) const {
    std::vector<Arrival> schedule;
    re::Rng rng(seed);
    const std::uint64_t slots = kTicks * static_cast<std::uint64_t>(cores_);
    std::uint64_t index = rng.geometric_gap(1.0 / rate_) - 1;
    for (std::uint64_t id = 1; index < slots; ++id) {
      Arrival arrival;
      arrival.tick = index / static_cast<std::uint64_t>(cores_);
      arrival.request.id = id;
      arrival.request.core = static_cast<int>(index % cores_);
      arrival.request.family =
          rng.chance(kHotFraction)
              ? rng.next(kHot)
              : kHot + rng.next(static_cast<std::uint64_t>(cold_));
      arrival.request.signature = families_[arrival.request.family].signature;
      schedule.push_back(std::move(arrival));
      index += rng.geometric_gap(1.0 / rate_);
    }
    return schedule;
  }

  /// Group id shared by the spans of one request: ids restart per schedule.
  static std::uint64_t request_group(std::size_t k,
                                     const re::serve::PlanRequest& request) {
    return (static_cast<std::uint64_t>(k + 1) << 32) | request.id;
  }

  /// Drive one fresh service through schedule k: step every tick, submit
  /// the tick's arrivals, drain at the end.
  re::serve::ServiceStats serve(std::size_t k,
                                const re::engine::Executor& executor,
                                Tracer* tracer, std::uint64_t group,
                                std::vector<re::serve::PlanResponse>& out) {
    const std::vector<Arrival>& schedule = schedules_[k];
    out.reserve(schedule.size());
    re::serve::ServiceOptions options = options_;
    options.seed = re::workloads::mix64(config_.seed ^ 0xAD115EEDull) + k;
    re::serve::AdvisoryService::Solver solver = solver_;
    // The service runs its solves on executor workers while the calling
    // thread waits inside step()/drain(); solve spans name that call as
    // their parent so the service's self time excludes them.
    std::atomic<std::uint64_t> service_span{0};
    if (tracer != nullptr) {
      solver = [&, inner = solver_](const re::serve::PlanRequest& request,
                                    const re::engine::CancelToken* cancel) {
        Span solve(tracer, "serve.solve", "serve", request_group(k, request),
                   service_span.load(std::memory_order_relaxed));
        return inner(request, cancel);
      };
    }
    re::serve::AdvisoryService service(options, solver, &executor);
    std::size_t next = 0;
    for (std::uint64_t tick = 0; tick < kTicks; ++tick) {
      {
        Span step(tracer, "serve.service", "serve", group, group);
        service_span.store(step.id(), std::memory_order_relaxed);
        service.step(tick, out);
      }
      for (; next < schedule.size() && schedule[next].tick == tick; ++next) {
        const re::serve::PlanRequest& request = schedule[next].request;
        Span submit(tracer, "serve.service", "serve", request_group(k, request),
                    group);
        service_span.store(submit.id(), std::memory_order_relaxed);
        service.submit(request, tick, out);
      }
    }
    Span drain(tracer, "serve.service", "serve", group, group);
    service_span.store(drain.id(), std::memory_order_relaxed);
    service.drain(kTicks, out);
    drain.end();
    return service.stats();
  }

  void check_and_digest(
      const std::vector<std::vector<re::serve::PlanResponse>>& out,
      const std::vector<re::serve::ServiceStats>& stats,
      PassResult& result) const {
    std::vector<double> admitted;
    std::uint64_t requests = 0, degraded = 0, failed = 0;
    re::serve::ServiceStats total;
    bool pass_ok = true;
    Digest digest;
    for (std::size_t k = 0; k < out.size(); ++k) {
      const std::size_t n = schedules_[k].size();
      requests += n;
      std::vector<std::uint8_t> answers(n + 1, 0);
      for (const re::serve::PlanResponse& r : out[k]) {
        digest.add(r.id).add(static_cast<std::uint64_t>(r.core));
        digest.add(static_cast<std::uint64_t>(r.kind))
            .add(static_cast<std::uint64_t>(r.cause));
        digest.add(r.latency_ticks).add(r.deadline_missed ? 1 : 0).add(
            static_cast<std::uint64_t>(r.retries));
        for (const re::core::PrefetchPlan& plan : r.plans) {
          digest.add(plan.pc)
              .add(static_cast<std::uint64_t>(plan.distance_bytes))
              .add(static_cast<std::uint64_t>(plan.hint));
        }
        if (r.id == 0 || r.id > n || answers[r.id]++ != 0) {
          ++failed;  // unknown id or answered twice
          continue;
        }
        if (r.deadline_missed && !r.degraded()) ++failed;
        if (r.degraded()) {
          ++degraded;
        } else {
          admitted.push_back(static_cast<double>(r.latency_ticks));
        }
      }
      for (std::size_t id = 1; id <= n; ++id) {
        if (answers[id] == 0) ++failed;  // unanswered
      }
      const re::serve::ServiceStats& s = stats[k];
      pass_ok = pass_ok && s.submitted == n && s.stale_fresh_violations == 0 &&
                s.max_queue_depth <= options_.queue_capacity;
      total.solves_started += s.solves_started;
      total.cache_hits += s.cache_hits;
      total.cancelled_solves += s.cancelled_solves;
      total.max_queue_depth = std::max(total.max_queue_depth, s.max_queue_depth);
      total.shed_queue_full += s.shed_queue_full + s.shed_infeasible +
                               s.shard_down + s.cache_faults;
    }
    result.ops = requests;
    result.digest = digest.value();
    std::sort(admitted.begin(), admitted.end());
    const double p50 = admitted.empty() ? 0.0 : admitted[admitted.size() / 2];
    const double p99 =
        admitted.empty()
            ? 0.0
            : admitted[std::min(admitted.size() - 1, admitted.size() * 99 / 100)];
    const double submitted = static_cast<double>(std::max<std::uint64_t>(requests, 1));
    const double deadline = static_cast<double>(options_.deadline_ticks);

    pass_ok = pass_ok && !admitted.empty() && p99 <= deadline;
    if (!pass_ok) {
      result.problems.push_back(
          "serve: queue bound, stale-as-fresh, submitted count or p99 <= "
          "deadline invariant failed");
      failed = requests;
    } else if (failed != 0) {
      result.problems.push_back("serve: a request was unanswered, answered "
                                "twice, or stale-as-fresh");
    }
    result.failed_ops = std::min(failed, requests);

    result.sim_gain = 1.0 - static_cast<double>(degraded) / submitted;
    result.sim_cost = p99 / deadline;
    result.named = {
        {"serve.p99_admitted_ticks", p99, "ticks"},
        {"serve.p50_admitted_ticks", p50, "ticks"},
        {"serve.degraded_rate", static_cast<double>(degraded) / submitted, "ratio"},
        {"serve.requests", static_cast<double>(requests), "count"},
        {"serve.solves", static_cast<double>(total.solves_started), "count"},
    };
    result.layer["serve.solves"] = static_cast<double>(total.solves_started);
    result.layer["serve.cache_hit_rate"] =
        static_cast<double>(total.cache_hits) / submitted;
    result.layer["serve.shed_rate"] =
        static_cast<double>(total.shed_queue_full) / submitted;
    result.layer["serve.cancelled_solves"] =
        static_cast<double>(total.cancelled_solves);
    result.layer["serve.max_queue_depth"] =
        static_cast<double>(total.max_queue_depth);
  }

  Config config_;
  re::sim::MachineConfig machine_;
  int cores_ = 0;
  double rate_ = 0.0;
  int cold_ = 0;
  re::serve::ServiceOptions options_;
  std::vector<re::serve::Family> families_;
  re::serve::AdvisoryService::Solver solver_;
  std::vector<std::vector<Arrival>> schedules_;
};

}  // namespace

std::string hex64(std::uint64_t value) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, value);
  return buf;
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"suite", "mix", "serve"};
  return names;
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        const Config& config) {
  if (name == "suite") return std::make_unique<SuiteWorkload>(config);
  if (name == "mix") return std::make_unique<MixWorkload>(config);
  if (name == "serve") return std::make_unique<ServeWorkload>(config);
  throw std::invalid_argument("unknown workload '" + name + "'");
}

}  // namespace perfbench
