#include "ledger.hh"

#include <algorithm>
#include <numeric>
#include <utility>

#include "core/sampler.hh"
#include "engine/pipeline.hh"
#include "serve/harness.hh"
#include "sim/cache.hh"
#include "sim/config.hh"
#include "workloads/cursor.hh"
#include "workloads/suite.hh"

namespace perfbench {

namespace {

double elapsed_s(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t index = std::min(
      values.size() - 1,
      static_cast<std::size_t>(q * static_cast<double>(values.size())));
  return values[index];
}

const char* const kStages[] = {"sample", "validate", "delta",  "statstack",
                               "mddli",  "stride",   "bypass", "insert"};

std::vector<std::string> ledger_programs(const Config& config) {
  return config.smoke ? std::vector<std::string>{"libquantum", "omnetpp"}
                      : re::workloads::suite_names();
}

// Keeps measured loops from being optimised away.
volatile std::uint64_t g_sink = 0;

}  // namespace

const std::vector<MetricDef>& ledger_metrics() {
  static const std::vector<MetricDef> defs = [] {
    const std::vector<std::string> all = {"suite", "mix", "serve"};
    const std::vector<std::string> suite = {"suite"};
    const std::vector<std::string> mix = {"mix"};
    const std::vector<std::string> serve = {"serve"};
    const std::vector<std::string> sims = {"suite", "mix"};
    const std::vector<std::string> solves = {"suite", "serve"};
    std::vector<MetricDef> d = {
        {"workloads.cursor_ns_per_ref", "ns", sims},
        {"sim.single_ns_per_ref", "ns", suite},
        {"sim.single_hw_ns_per_ref", "ns", suite},
        {"sim.mix_ns_per_ref", "ns", mix},
        {"sim.cache_access_ns", "ns", sims},
        {"sim.cache_fill_ns", "ns", sims},
        {"sim.demand_refs", "count", sims},
        {"sim.l1_miss_ratio", "ratio", sims},
        {"sim.dram_lines", "count", sims},
        {"sim.sw_prefetch_lines", "count", sims},
        {"sim.hw_prefetch_lines", "count", sims},
        {"sim.late_prefetch_hits", "count", sims},
        {"sim.memory_stall_share", "ratio", sims},
        {"sim.prefetched_lines", "count", sims},
        {"sim.useless_prefetch_evictions", "count", sims},
        {"core.sampler_ns_per_ref", "ns", solves},
        {"core.samples", "count", suite},
    };
    for (const char* stage : kStages) {
      d.push_back({std::string("engine.stage.") + stage + ".self_ms", "ms", solves});
    }
    d.push_back({"engine.executor.utilization", "ratio", suite});
    d.push_back({"engine.executor.critical_unit_share", "ratio", suite});
    d.push_back({"engine.executor.dispatch_us", "us", serve});
    d.push_back({"engine.executor.steals", "count", all});
    d.push_back({"engine.executor.prefetch_hints", "count", all});
    d.push_back({"analysis.unit_ms_p50", "ms", suite});
    d.push_back({"analysis.unit_ms_max", "ms", suite});
    d.push_back({"analysis.plan_s", "s", suite});
    d.push_back({"analysis.sim_s", "s", suite});
    d.push_back({"serve.solve_ms_p50", "ms", serve});
    d.push_back({"serve.solve_ms_p99", "ms", serve});
    d.push_back({"serve.service_self_s", "s", serve});
    d.push_back({"serve.solves", "count", serve});
    d.push_back({"serve.cache_hit_rate", "ratio", serve});
    d.push_back({"serve.shed_rate", "ratio", serve});
    d.push_back({"serve.cancelled_solves", "count", serve});
    d.push_back({"serve.max_queue_depth", "count", serve});
    d.push_back({"trace.overhead_pct", "%", all});
    return d;
  }();
  return defs;
}

bool MetricDef::measured_on(const std::string& workload) const {
  return std::find(workloads.begin(), workloads.end(), workload) != workloads.end();
}

bool measured_on(const std::string& metric, const std::string& workload) {
  for (const MetricDef& def : ledger_metrics()) {
    if (def.name == metric) return def.measured_on(workload);
  }
  return false;
}

void measure_layers(const std::string& workload, const Config& config,
                    const re::engine::Executor& executor,
                    std::map<std::string, double>& metrics,
                    LedgerChecks& checks) {
  const auto wanted = [&](const char* metric) {
    return measured_on(metric, workload);
  };
  const std::vector<std::string> names = ledger_programs(config);

  // workloads: drain ProgramCursor::next over each suite model; then time
  // Sampler::observe over the same stream, recorded first so the cursor is
  // not charged to the sampler.
  if (wanted("workloads.cursor_ns_per_ref") ||
      wanted("core.sampler_ns_per_ref")) {
    double cursor_s = 0.0, sampler_s = 0.0;
    std::uint64_t refs = 0;
    std::vector<std::pair<re::Pc, re::Addr>> stream;
    re::core::SamplerConfig sampler_config;
    sampler_config.seed = config.seed;
    for (const std::string& name : names) {
      const re::workloads::Program program =
          re::workloads::make_benchmark(name);
      re::workloads::ProgramCursor cursor(program);
      std::uint64_t sink = 0, n = 0;
      auto start = Clock::now();
      while (const auto event = cursor.next()) {
        sink ^= event->addr;
        ++n;
      }
      cursor_s += elapsed_s(start);
      g_sink = g_sink + sink;
      ++checks.ops;
      if (n != program.total_references()) {
        ++checks.failed;
        checks.problems.push_back(name + ": cursor references != fixed work");
      }
      refs += n;

      stream.clear();
      stream.reserve(n);
      cursor.reset();
      while (const auto event = cursor.next()) {
        stream.emplace_back(event->inst->pc, event->addr);
      }
      re::core::Sampler sampler(sampler_config);
      start = Clock::now();
      for (const auto& [pc, addr] : stream) sampler.observe(pc, addr);
      const re::core::Profile profile = sampler.finish();
      sampler_s += elapsed_s(start);
      g_sink = g_sink + profile.reuse_samples.size();
    }
    const double n_refs = static_cast<double>(refs);
    metrics["workloads.cursor_ns_per_ref"] = cursor_s * 1e9 / n_refs;
    metrics["core.sampler_ns_per_ref"] = sampler_s * 1e9 / n_refs;
  }

  const re::sim::MachineConfig amd = re::sim::amd_phenom_ii();
  constexpr int kReps = 5;

  // sim: SetAssocCache::access hits at L1 geometry, over a resident half of
  // the cache visited in a scrambled order.
  if (wanted("sim.cache_access_ns")) {
    re::sim::SetAssocCache l1(amd.l1);
    const std::uint64_t lines = l1.num_sets() * l1.associativity() / 2;
    for (std::uint64_t line = 0; line < lines; ++line) {
      l1.fill(line, re::sim::FillOrigin::Demand);
    }
    constexpr std::uint64_t kAccesses = 1 << 22;
    std::vector<double> reps;
    std::uint64_t hits = 0;
    for (int r = 0; r < kReps; ++r) {
      const auto start = Clock::now();
      for (std::uint64_t i = 0; i < kAccesses; ++i) {
        hits += l1.access((i * 0x9E3779B1ull) % lines, true) ? 1 : 0;
      }
      reps.push_back(elapsed_s(start) * 1e9 / kAccesses);
    }
    metrics["sim.cache_access_ns"] = median(reps);
    ++checks.ops;
    if (hits != kAccesses * kReps) {
      ++checks.failed;
      checks.problems.push_back("cache access micro: resident lines missed");
    }
  }
  // sim: fill + evict streaming at LLC geometry (every access misses).
  if (wanted("sim.cache_fill_ns")) {
    re::sim::SetAssocCache llc(amd.llc);
    const std::uint64_t lines = llc.num_sets() * llc.associativity();
    const std::uint64_t fills = 4 * lines;
    std::vector<double> reps;
    std::uint64_t next_line = 0, evictions = 0;
    for (int r = 0; r < kReps; ++r) {
      const auto start = Clock::now();
      for (std::uint64_t i = 0; i < fills; ++i, ++next_line) {
        if (!llc.access(next_line, true)) {
          evictions += llc.fill(next_line, re::sim::FillOrigin::Demand) ? 1 : 0;
        }
      }
      reps.push_back(elapsed_s(start) * 1e9 / static_cast<double>(fills));
    }
    metrics["sim.cache_fill_ns"] = median(reps);
    ++checks.ops;
    if (evictions != fills * kReps - lines) {
      ++checks.failed;
      checks.problems.push_back("cache fill micro: eviction count off");
    }
  }

  // engine: one for_each of 8 trivial units.
  if (wanted("engine.executor.dispatch_us")) {
    std::vector<double> reps;
    std::vector<std::uint64_t> slots(8);
    for (int r = 0; r < 200; ++r) {
      const auto start = Clock::now();
      executor.for_each(slots.size(), [&](std::size_t i) { slots[i] += i; });
      reps.push_back(elapsed_s(start) * 1e6);
    }
    metrics["engine.executor.dispatch_us"] = median(reps);
    g_sink = g_sink + std::accumulate(slots.begin(), slots.end(), std::uint64_t{0});
  }
}

void measure_stages(const Config& config, const re::engine::Executor& executor,
                    Tracer& tracer, std::map<std::string, double>& metrics,
                    LedgerChecks& checks) {
  using re::engine::OptimizeArtifacts;
  const re::sim::MachineConfig amd = re::sim::amd_phenom_ii();

  // The walk mirrors what PlanCache::report runs for the Soft Pref.+NT
  // plan: optimize_graph over the Reference program, serially.
  // A null tracer walks without spans.
  const auto walk = [&](const re::workloads::Program& program,
                        const re::core::OptimizerOptions& options,
                        Tracer* spans) {
    OptimizeArtifacts a;
    a.program = &program;
    a.machine = &amd;
    a.options = options;
    a.report.benchmark = program.name;
    const re::engine::EngineContext ctx;
    Span root(spans, "engine.optimize", "engine", 0, 0);
    for (const re::engine::Stage<OptimizeArtifacts>& stage :
         re::engine::optimize_graph().stages()) {
      ctx.check_cancel();
      if (stage.enabled && !stage.enabled(a)) continue;
      const std::string span_name = "engine.stage." + stage.name;
      Span span(spans, span_name.c_str(), "engine", root.id());
      stage.run(a, ctx);
    }
    return std::move(a.report);
  };

  re::core::OptimizerOptions options;
  options.sampler.seed = config.seed;
  options.enable_non_temporal = true;
  const std::vector<std::string> names = ledger_programs(config);
  std::vector<re::core::OptimizationReport> walked;
  for (std::size_t i = 0; i < names.size(); ++i) {
    const re::workloads::Program program = re::workloads::make_benchmark(names[i]);
    walked.push_back(walk(program, options, &tracer));
  }
  // Reference: the engine's own entry point, fanned over the executor.
  const std::vector<std::string> reference =
      executor.map(names.size(), [&](std::size_t i) {
        const re::workloads::Program program =
            re::workloads::make_benchmark(names[i]);
        return re::engine::serialize_report(
            re::engine::run_optimize(program, amd, options));
      });
  for (std::size_t i = 0; i < names.size(); ++i) {
    ++checks.ops;
    if (re::engine::serialize_report(walked[i]) != reference[i]) {
      ++checks.failed;
      checks.problems.push_back(names[i] + ": stage walk != run_optimize");
    }
  }

  // The serve solver is run_optimize with default options over a family's
  // program; walking the stages must give the same plans.
  const std::vector<re::serve::Family> families = re::serve::make_families(4, 4);
  const re::serve::AdvisoryService::Solver solver =
      re::serve::make_engine_solver(families, amd, &executor);
  for (const re::serve::Family& family : families) {
    re::serve::PlanRequest request;
    request.family = family.id;
    const std::vector<re::core::PrefetchPlan> solved = solver(request, nullptr);
    const re::core::OptimizationReport report =
        walk(family.program, re::core::OptimizerOptions{}, nullptr);
    bool same = solved.size() == report.plans.size();
    for (std::size_t p = 0; same && p < solved.size(); ++p) {
      same = solved[p].pc == report.plans[p].pc &&
             solved[p].distance_bytes == report.plans[p].distance_bytes &&
             solved[p].hint == report.plans[p].hint;
    }
    ++checks.ops;
    if (!same) {
      ++checks.failed;
      checks.problems.push_back(family.program.name +
                                ": stage walk plans != engine solver plans");
    }
  }

  const std::map<std::string, double> self = tracer.self_seconds_by_name();
  for (const char* stage : kStages) {
    const std::string name = std::string("engine.stage.") + stage;
    auto it = self.find(name);
    metrics[name + ".self_ms"] = it == self.end() ? 0.0 : it->second * 1e3;
  }
}

void span_metrics(const Tracer& tracer, int workers,
                  const std::map<std::string, double>& layer,
                  std::map<std::string, double>& metrics) {
  const std::vector<SpanRecord> spans = tracer.spans();
  const std::map<std::string, double> self = tracer.self_seconds_by_name();
  const auto self_s = [&](const char* name) {
    auto it = self.find(name);
    return it == self.end() ? 0.0 : it->second;
  };
  const auto count = [&](const char* key) {
    auto it = layer.find(key);
    return it == layer.end() ? 0.0 : it->second;
  };

  double suite_wall = 0.0, unit_sum = 0.0, single_s = 0.0, single_hw_s = 0.0,
         mix_s = 0.0;
  std::vector<double> unit_ms, solve_ms;
  std::map<std::uint64_t, double> longest_unit;  // per evaluate_suite span
  for (const SpanRecord& s : spans) {
    if (s.name == "suite.pass") suite_wall += s.seconds();
    if (s.name == "analysis.unit") {
      unit_sum += s.seconds();
      unit_ms.push_back(s.seconds() * 1e3);
      longest_unit[s.parent] = std::max(longest_unit[s.parent], s.seconds());
    }
    if (s.name == "sim.run_single") single_s += s.seconds();
    if (s.name == "sim.run_single_hw") single_hw_s += s.seconds();
    if (s.name == "sim.run_mix") mix_s += s.seconds();
    if (s.name == "serve.solve") solve_ms.push_back(s.seconds() * 1e3);
  }
  double critical = 0.0;
  for (const auto& [fan_out, seconds] : longest_unit) critical += seconds;

  // The pass's own executor fan-outs (suite units; mix and serve fan out
  // inside the program, where the benchmark does not see unit spans).
  metrics["engine.executor.utilization"] =
      suite_wall > 0 ? unit_sum / (workers * suite_wall) : 0.0;
  metrics["engine.executor.critical_unit_share"] =
      suite_wall > 0 ? critical / suite_wall : 0.0;
  metrics["analysis.unit_ms_p50"] = median(unit_ms);
  metrics["analysis.unit_ms_max"] =
      unit_ms.empty() ? 0.0 : *std::max_element(unit_ms.begin(), unit_ms.end());
  metrics["analysis.plan_s"] = self_s("analysis.plan");
  metrics["analysis.sim_s"] = self_s("sim.run_single") + self_s("sim.run_single_hw");
  metrics["sim.single_ns_per_ref"] = single_s * 1e9 / count("internal.single_refs");
  metrics["sim.single_hw_ns_per_ref"] =
      single_hw_s * 1e9 / count("internal.single_hw_refs");
  metrics["sim.mix_ns_per_ref"] = mix_s * 1e9 / count("sim.demand_refs");
  metrics["serve.solve_ms_p50"] = median(solve_ms);
  metrics["serve.solve_ms_p99"] = percentile(solve_ms, 0.99);
  metrics["serve.service_self_s"] = self_s("serve.service");
}

}  // namespace perfbench
