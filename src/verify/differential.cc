#include "verify/differential.hh"

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <set>

#include "analysis/corun.hh"
#include "core/statstack.hh"
#include "core/trace_replay.hh"
#include "engine/pipeline.hh"
#include "verify/exact_lru.hh"
#include "verify/shared_lru.hh"
#include "workloads/mix.hh"

namespace re::verify {

namespace {

void append_f(std::string& out, const char* format, ...)
    __attribute__((format(printf, 2, 3)));

void append_f(std::string& out, const char* format, ...) {
  char buf[256];
  va_list args;
  va_start(args, format);
  std::vsnprintf(buf, sizeof(buf), format, args);
  va_end(args);
  out += buf;
}

/// Exact-side flatness test mirroring core::mrc_flat_between_l1_and_llc,
/// also reporting the drop fraction for the dead-band check.
bool exact_flat(const ExactMrc& mrc, const sim::MachineConfig& machine,
                double drop_threshold, double* drop_out) {
  *drop_out = 0.0;
  if (mrc.empty()) return true;
  const double mr_l1 = mrc.miss_ratio_bytes(machine.l1.size_bytes);
  if (mr_l1 <= 0.0) return true;
  const double mr_llc = mrc.miss_ratio_bytes(machine.llc.size_bytes);
  *drop_out = (mr_l1 - mr_llc) / mr_l1;
  return *drop_out <= drop_threshold;
}

double estimated_drop(const core::MissRatioCurve& mrc,
                      const sim::MachineConfig& machine) {
  if (mrc.empty()) return 0.0;
  const double mr_l1 = mrc.miss_ratio_bytes(machine.l1.size_bytes);
  if (mr_l1 <= 0.0) return 0.0;
  return (mr_l1 - mrc.miss_ratio_bytes(machine.llc.size_bytes)) / mr_l1;
}

}  // namespace

double family_app_error_bound(TraceFamily family) {
  return family == TraceFamily::kPhaseMixed ? 0.10 : 0.02;
}

double DifferentialResult::max_application_error() const {
  double worst = 0.0;
  for (const MrcComparison& c : application) {
    worst = std::max(worst, c.abs_error());
  }
  return worst;
}

double DifferentialResult::mddli_agreement() const {
  if (loads.empty()) return 1.0;
  std::size_t agree = 0;
  for (const LoadComparison& l : loads) agree += l.mddli_agrees() ? 1 : 0;
  return static_cast<double>(agree) / static_cast<double>(loads.size());
}

double DifferentialResult::bypass_agreement() const {
  if (loads.empty()) return 1.0;
  std::size_t agree = 0;
  for (const LoadComparison& l : loads) agree += l.bypass_agrees() ? 1 : 0;
  return static_cast<double>(agree) / static_cast<double>(loads.size());
}

std::string DifferentialResult::to_string() const {
  std::string out;
  append_f(out, "differential %s machine=%s\n", trace.c_str(),
           machine.c_str());
  append_f(out, "  references=%llu reuse_samples=%llu period=%llu\n",
           static_cast<unsigned long long>(references),
           static_cast<unsigned long long>(reuse_samples),
           static_cast<unsigned long long>(sample_period));
  for (const MrcComparison& c : application) {
    append_f(out,
             "  app-mrc %-3s lines=%-6llu exact=%.6f est=%.6f err=%.6f\n",
             c.level, static_cast<unsigned long long>(c.cache_lines), c.exact,
             c.estimated, c.abs_error());
  }
  for (const LoadComparison& l : loads) {
    append_f(out,
             "  load pc%-3llu l1 exact=%.4f est=%.4f"
             " mddli=%c/%c%s bypass=%c/%c%s\n",
             static_cast<unsigned long long>(l.pc), l.exact_l1,
             l.estimated_l1, l.exact_delinquent ? 'D' : '-',
             l.estimated_delinquent ? 'D' : '-',
             l.mddli_borderline ? "~" : "", l.exact_bypass ? 'B' : '-',
             l.estimated_bypass ? 'B' : '-', l.bypass_borderline ? "~" : "");
  }
  append_f(out,
           "  summary max_app_err=%.6f mddli_agree=%.4f bypass_agree=%.4f\n",
           max_application_error(), mddli_agreement(), bypass_agreement());
  return out;
}

DifferentialResult run_differential(const workloads::Program& program,
                                    const sim::MachineConfig& machine,
                                    const DifferentialOptions& options) {
  const std::uint64_t refs =
      std::min(program.total_references(), options.max_refs);

  core::SamplerConfig sampler_config = options.sampler;
  if (sampler_config.sample_period == 0) {
    sampler_config.sample_period = std::max<std::uint64_t>(1, refs / 16384);
  }

  // One replay feeds both sides, so they judge the identical stream.
  core::Sampler sampler(sampler_config);
  ExactLruModel exact;
  core::replay_program(
      program,
      [&](Pc pc, Addr addr) {
        sampler.observe(pc, addr);
        exact.observe(pc, addr);
      },
      options.max_refs);
  exact.finalize();

  // The estimator side is the production engine verbatim: the same
  // statstack → mddli stage configuration every optimize entry point runs
  // (engine/pipeline.hh), bound to the sampled profile.
  engine::OptimizeArtifacts artifacts;
  artifacts.program = &program;
  artifacts.machine = &machine;
  artifacts.options.mddli = options.mddli;
  artifacts.profile_bound = true;
  artifacts.report.profile = sampler.finish();
  engine::estimator_graph().run(artifacts, {});
  const core::Profile& profile = artifacts.report.profile;
  const core::StatStack& model = *artifacts.model;
  const core::ReuseGraph& graph = *artifacts.reuse_graph;

  DifferentialResult result;
  result.trace = program.name;
  result.machine = machine.name;
  result.references = exact.accesses();
  result.reuse_samples =
      profile.reuse_samples.size() + profile.dangling_reuse_samples;
  result.sample_period = sampler_config.sample_period;

  const struct {
    const char* level;
    std::uint64_t lines;
  } levels[] = {{"L1", machine.l1.num_lines()},
                {"L2", machine.l2.num_lines()},
                {"LLC", machine.llc.num_lines()}};
  for (const auto& [level, lines] : levels) {
    result.application.push_back(
        {level, lines, exact.application_mrc().miss_ratio_lines(lines),
         model.application_mrc().miss_ratio_lines(lines)});
  }

  const std::vector<core::DelinquentLoad>& delinquent =
      artifacts.report.delinquent_loads;

  // Compare every static load of the program (sorted, deduplicated).
  std::set<Pc> pcs;
  for (const workloads::Loop& loop : program.loops) {
    for (const workloads::StaticInst& inst : loop.body) pcs.insert(inst.pc);
  }

  const double eps = options.decision_epsilon;
  for (Pc pc : pcs) {
    LoadComparison cmp;
    cmp.pc = pc;

    // --- MDDLI: exact side re-derives the paper's cost-benefit test from
    // ground-truth curves; estimator side is the production pass verbatim.
    const ExactMrc& exact_mrc = exact.pc_mrc(pc);
    cmp.exact_l1 = exact_mrc.miss_ratio_bytes(machine.l1.size_bytes);
    const double exact_l2 = exact_mrc.miss_ratio_bytes(machine.l2.size_bytes);
    const double exact_llc =
        exact_mrc.miss_ratio_bytes(machine.llc.size_bytes);
    const double exact_lat =
        core::average_miss_latency(machine, cmp.exact_l1, exact_l2, exact_llc);
    cmp.exact_delinquent =
        exact_lat > 0.0 &&
        cmp.exact_l1 > options.mddli.alpha / exact_lat;

    const core::MissRatioCurve& est_mrc = model.pc_mrc(pc);
    cmp.estimated_l1 = est_mrc.miss_ratio_bytes(machine.l1.size_bytes);
    const double est_lat = core::average_miss_latency(
        machine, cmp.estimated_l1,
        est_mrc.miss_ratio_bytes(machine.l2.size_bytes),
        est_mrc.miss_ratio_bytes(machine.llc.size_bytes));
    cmp.estimated_delinquent =
        std::any_of(delinquent.begin(), delinquent.end(),
                    [pc](const core::DelinquentLoad& d) { return d.pc == pc; });

    cmp.mddli_borderline =
        (exact_lat > 0.0 &&
         std::abs(cmp.exact_l1 - options.mddli.alpha / exact_lat) <= eps) ||
        (est_lat > 0.0 &&
         std::abs(cmp.estimated_l1 - options.mddli.alpha / est_lat) <= eps);

    // --- Bypass: same structure. The exact reuse graph plays the role of
    // the sampled one; a reuser whose MRC drop sits within the dead band of
    // the flatness threshold makes the whole decision borderline.
    cmp.estimated_bypass =
        core::should_bypass(pc, graph, model, machine, options.bypass);

    std::vector<Pc> exact_reusers =
        exact.reusers_of(pc, options.bypass.min_edge_weight);
    if (std::find(exact_reusers.begin(), exact_reusers.end(), pc) ==
        exact_reusers.end()) {
      exact_reusers.push_back(pc);
    }
    cmp.exact_bypass = true;
    for (Pc reuser : exact_reusers) {
      double drop = 0.0;
      const bool flat = exact_flat(exact.pc_mrc(reuser), machine,
                                   options.bypass.drop_threshold, &drop);
      if (!flat) cmp.exact_bypass = false;
      if (std::abs(drop - options.bypass.drop_threshold) <= eps) {
        cmp.bypass_borderline = true;
      }
    }
    std::vector<Pc> est_reusers =
        graph.reusers_of(pc, options.bypass.min_edge_weight);
    if (std::find(est_reusers.begin(), est_reusers.end(), pc) ==
        est_reusers.end()) {
      est_reusers.push_back(pc);
    }
    for (Pc reuser : est_reusers) {
      const double drop = estimated_drop(model.pc_mrc(reuser), machine);
      if (std::abs(drop - options.bypass.drop_threshold) <= eps) {
        cmp.bypass_borderline = true;
      }
    }

    result.loads.push_back(cmp);
  }
  return result;
}

double corun_family_error_bound(TraceFamily family, int cores) {
  // Calibrated against the observed worst-case errors of the seeded
  // 2/4/8-core matrix (DESIGN.md §13, "differential bounds"); each bound is
  // the observed ceiling plus headroom, so a regression that worsens the
  // known composition bias still fails. Solo StatStack bias
  // (family_app_error_bound) is the floor; interleaving-ratio error adds a
  // per-core term on top.
  const double base =
      family == TraceFamily::kPhaseMixed ? 0.12 : 0.06;
  return base + 0.01 * cores;
}

std::vector<CoRunScenario> corun_scenarios(int cores) {
  using F = TraceFamily;
  std::vector<CoRunScenario> matrix = {
      // Homogeneous rows: every core runs the same family, so the composed
      // shares should split the LLC near-evenly.
      {"streaming_uniform", {F::kStrided}},
      {"chase_uniform", {F::kPointerChase}},
      // Adversarial mixes: core 0 is the victim, the rest are aggressors.
      {"streaming_vs_chase", {F::kPointerChase, F::kStrided}},
      {"stencil_vs_streaming", {F::kBlocked, F::kStrided}},
      {"hotcold_vs_chase", {F::kHotCold, F::kPointerChase}},
      {"phase_mixed", {F::kPhaseMixed, F::kStrided}},
  };
  for (CoRunScenario& scenario : matrix) {
    // Cycle the row out to the core count; aggressors repeat.
    std::vector<TraceFamily> families;
    families.reserve(static_cast<std::size_t>(cores));
    for (int i = 0; i < cores; ++i) {
      families.push_back(
          scenario.families[static_cast<std::size_t>(i) %
                            scenario.families.size()]);
    }
    scenario.families = std::move(families);
  }
  return matrix;
}

double CoRunCoreComparison::max_error() const {
  double worst = 0.0;
  for (const CoRunPoint& p : points) worst = std::max(worst, p.error);
  return worst;
}

double CoRunDifferentialResult::max_error() const {
  double worst = 0.0;
  for (const CoRunCoreComparison& c : per_core) {
    worst = std::max(worst, c.max_error());
  }
  return worst;
}

std::string CoRunDifferentialResult::to_string() const {
  std::string out;
  append_f(out, "corun-differential %s machine=%s cores=%d seed=%llu hw=%d\n",
           scenario.c_str(), machine.c_str(), cores,
           static_cast<unsigned long long>(seed), hw_prefetch ? 1 : 0);
  for (const CoRunCoreComparison& c : per_core) {
    append_f(out, "  core%d %-12s accesses=%-8llu eff_llc_lines=%llu\n",
             c.core, c.family.c_str(),
             static_cast<unsigned long long>(c.accesses),
             static_cast<unsigned long long>(c.effective_llc_lines));
    for (const CoRunPoint& p : c.points) {
      append_f(out,
               "    mrc lines=%-6llu exact=%.6f composed=%.6f err=%.6f "
               "raw=%.6f\n",
               static_cast<unsigned long long>(p.cache_lines), p.exact,
               p.composed, p.error, p.abs_error());
    }
  }
  append_f(out, "  summary max_err=%.6f attribution=%s\n", max_error(),
           attribution_exact ? "exact" : "BROKEN");
  return out;
}

CoRunDifferentialResult run_corun_differential(
    const CoRunScenario& scenario, const sim::MachineConfig& machine,
    std::uint64_t seed, const CoRunDifferentialOptions& options) {
  const int cores = static_cast<int>(scenario.families.size());

  // Per-core fuzzed programs: variant = core id keeps co-runners of the
  // same family distinct; rebasing makes the address spaces disjoint (no
  // sharing — the composition assumes it, the oracle would model it).
  std::vector<workloads::Program> programs;
  programs.reserve(static_cast<std::size_t>(cores));
  for (int core = 0; core < cores; ++core) {
    FuzzedTrace fuzzed =
        make_trace(scenario.families[static_cast<std::size_t>(core)], seed,
                   static_cast<std::uint64_t>(core));
    workloads::rebase_program(fuzzed.program,
                              workloads::core_address_offset(core));
    programs.push_back(std::move(fuzzed.program));
  }

  // Composed side: the production co-run pipeline verbatim.
  analysis::CoRunArtifacts artifacts;
  artifacts.programs = &programs;
  artifacts.machine = &machine;
  artifacts.model_hw_prefetch = options.model_hw_prefetch;
  artifacts.max_refs_per_core = options.max_refs_per_core;
  analysis::run_corun(artifacts);

  // Exact side: one true LRU stack over the identical interleaved trace.
  ExactSharedLruModel oracle(cores);
  analysis::interleave_traces(
      artifacts.traces, [&](int core, const analysis::CoreAccess& access) {
        oracle.observe(core, access.pc, access.addr);
      });
  oracle.finalize();

  CoRunDifferentialResult result;
  result.scenario = scenario.name;
  result.machine = machine.name;
  result.cores = cores;
  result.seed = seed;
  result.hw_prefetch = options.model_hw_prefetch;

  const std::uint64_t llc = machine.llc.num_lines();
  const std::uint64_t sizes[] = {llc / 2, llc, llc * 2};

  // Vertical miss-ratio distance is ill-posed on a working-set cliff: both
  // curves step between the same two plateaus, and a probe that lands
  // mid-transition reads the full step height even when the composition
  // localizes the cliff within a few percent of cache size (observed on the
  // intel stencil_vs_streaming cells, where the strided core's cliff sits
  // right at 2·LLC). Score each probe with ±1/8 of horizontal slack: the
  // error is the smallest vertical distance after shifting either curve by
  // at most one slack step. Away from cliffs both curves are flat across
  // the slack window and this reduces to the plain vertical error.
  const auto point_error = [&](int core, std::uint64_t lines, double exact_mr,
                               double composed_mr) {
    double err = std::abs(exact_mr - composed_mr);
    for (const std::uint64_t shifted : {lines - lines / 8, lines + lines / 8}) {
      err = std::min(
          err, std::abs(artifacts.corun->shared_miss_ratio_lines(
                            core, shifted) -
                        exact_mr));
      err = std::min(
          err, std::abs(composed_mr -
                        oracle.core_mrc(core).miss_ratio_lines(shifted)));
    }
    return err;
  };

  for (int core = 0; core < cores; ++core) {
    CoRunCoreComparison cmp;
    cmp.core = core;
    cmp.family =
        trace_family_name(scenario.families[static_cast<std::size_t>(core)]);
    cmp.accesses = oracle.accesses_of(core);
    cmp.effective_llc_lines =
        artifacts.effective_llc_lines[static_cast<std::size_t>(core)];
    for (const std::uint64_t lines : sizes) {
      const double exact_mr = oracle.core_mrc(core).miss_ratio_lines(lines);
      const double composed_mr =
          artifacts.corun->shared_miss_ratio_lines(core, lines);
      cmp.points.push_back(
          {lines, exact_mr, composed_mr,
           point_error(core, lines, exact_mr, composed_mr)});
    }
    result.per_core.push_back(std::move(cmp));
  }

  // Attribution identity: per-core misses sum to the shared total, exactly.
  for (const std::uint64_t lines : sizes) {
    std::uint64_t sum = 0;
    for (int core = 0; core < cores; ++core) {
      sum += oracle.core_misses_at(core, lines);
    }
    if (sum != oracle.misses_at(lines)) result.attribution_exact = false;
  }
  return result;
}

namespace {

/// Sparse streaming aggressor for the interference experiment: a cyclic
/// 2-line-stride sweep over 2·LLC worth of *touched* lines. The skipped
/// buddy lines are what the adjacent-line prefetcher pollutes the shared
/// LLC with.
workloads::Program make_sparse_stream_aggressor(
    const sim::MachineConfig& machine, int core) {
  workloads::Program program;
  program.name = "sparse_stream_aggressor";
  program.seed = 0xA66 + static_cast<std::uint64_t>(core);
  workloads::StaticInst inst;
  inst.pc = 1;
  const std::int64_t stride = 2 * kLineSize;
  const std::uint64_t footprint =
      4 * machine.llc.size_bytes;  // bytes spanned; lines touched = 2·LLC
  inst.pattern = workloads::StreamPattern{0, stride, footprint};
  workloads::Loop loop;
  loop.iterations =
      3 * (footprint / static_cast<std::uint64_t>(stride));  // ~3 sweeps
  loop.body.push_back(std::move(inst));
  program.loops.push_back(std::move(loop));
  return program;
}

struct InterferenceRun {
  double victim_mr = 0.0;
  double exact_mr = 0.0;
  std::uint64_t share = 0;
};

InterferenceRun run_interference_once(
    std::vector<workloads::Program>& programs,
    const sim::MachineConfig& machine, std::uint64_t max_refs_per_core,
    bool hw_on_aggressors) {
  const int cores = static_cast<int>(programs.size());

  analysis::CoRunArtifacts artifacts;
  artifacts.programs = &programs;
  artifacts.machine = &machine;
  artifacts.max_refs_per_core = max_refs_per_core;
  sim::HwPrefetcherConfig aggressive = machine.hw_prefetcher;
  if (hw_on_aggressors) {
    // The paper's speculative engines: stream + adjacent-line overfetch.
    aggressive.adjacent_line = true;
    artifacts.hw_config = &aggressive;
    artifacts.hw_prefetch_core.assign(static_cast<std::size_t>(cores), 1);
    artifacts.hw_prefetch_core[0] = 0;  // the victim does not prefetch
  }
  analysis::run_corun(artifacts);

  ExactSharedLruModel oracle(cores);
  analysis::interleave_traces(
      artifacts.traces, [&](int core, const analysis::CoreAccess& access) {
        oracle.observe(core, access.pc, access.addr);
      });
  oracle.finalize();

  InterferenceRun run;
  const std::uint64_t llc = machine.llc.num_lines();
  run.victim_mr = artifacts.corun->shared_miss_ratio_lines(0, llc);
  run.exact_mr = oracle.core_mrc(0).miss_ratio_lines(llc);
  run.share = artifacts.effective_llc_lines[0];
  return run;
}

}  // namespace

std::string CoRunInterference::to_string() const {
  std::string out;
  append_f(out, "corun-interference machine=%s cores=%d seed=%llu\n",
           machine.c_str(), cores, static_cast<unsigned long long>(seed));
  append_f(out, "  victim mr  off=%.6f on=%.6f (composed)\n", victim_mr_off,
           victim_mr_on);
  append_f(out, "  victim mr  off=%.6f on=%.6f (exact)\n", exact_mr_off,
           exact_mr_on);
  append_f(out, "  victim share off=%llu on=%llu of %llu lines\n",
           static_cast<unsigned long long>(share_off),
           static_cast<unsigned long long>(share_on),
           static_cast<unsigned long long>(llc_lines));
  append_f(out, "  composed_err=%.6f predicted=%d confirmed=%d\n",
           max_composed_error, predicted() ? 1 : 0, confirmed() ? 1 : 0);
  return out;
}

CoRunInterference run_corun_interference(const sim::MachineConfig& machine,
                                         int cores, std::uint64_t seed,
                                         std::uint64_t max_refs_per_core) {
  // Chase victim on core 0 (fuzzed, so RE_TEST_SEED varies it), sparse
  // streaming aggressors on the rest. Both runs share the same programs.
  std::vector<workloads::Program> programs;
  programs.reserve(static_cast<std::size_t>(cores));
  FuzzedTrace victim = make_trace(TraceFamily::kPointerChase, seed, 0);
  programs.push_back(std::move(victim.program));
  for (int core = 1; core < cores; ++core) {
    workloads::Program aggressor = make_sparse_stream_aggressor(machine, core);
    workloads::rebase_program(aggressor,
                              workloads::core_address_offset(core));
    programs.push_back(std::move(aggressor));
  }

  const InterferenceRun off =
      run_interference_once(programs, machine, max_refs_per_core, false);
  const InterferenceRun on =
      run_interference_once(programs, machine, max_refs_per_core, true);

  CoRunInterference result;
  result.machine = machine.name;
  result.cores = cores;
  result.seed = seed;
  result.llc_lines = machine.llc.num_lines();
  result.victim_mr_off = off.victim_mr;
  result.victim_mr_on = on.victim_mr;
  result.exact_mr_off = off.exact_mr;
  result.exact_mr_on = on.exact_mr;
  result.share_off = off.share;
  result.share_on = on.share;
  result.max_composed_error =
      std::max(std::abs(off.victim_mr - off.exact_mr),
               std::abs(on.victim_mr - on.exact_mr));
  return result;
}

}  // namespace re::verify
