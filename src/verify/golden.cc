#include "verify/golden.hh"

#include <algorithm>
#include <cctype>
#include <iterator>
#include <sstream>

#include "analysis/corun.hh"
#include "core/pipeline.hh"
#include "engine/executor.hh"
#include "verify/trace_fuzzer.hh"
#include "workloads/mix.hh"
#include "workloads/suite.hh"

namespace re::verify {

namespace {

/// Seed of the deterministic streaming aggressors in the co-run snapshot.
constexpr std::uint64_t kCoRunGoldenSeed = 0x5eed;

/// Seed and count of the 4-app mixes in the simulator snapshot.
constexpr std::uint64_t kSimGoldenMixSeed = 0x51a;
constexpr int kSimGoldenMixes = 2;

/// Suite policies in snapshot order, with their golden-file tokens.
constexpr analysis::Policy kSuitePolicies[] = {
    analysis::Policy::Baseline, analysis::Policy::Hardware,
    analysis::Policy::Software, analysis::Policy::SoftwareNT,
    analysis::Policy::StrideCentric};
constexpr analysis::Policy kMixPolicies[] = {analysis::Policy::Baseline,
                                             analysis::Policy::Hardware,
                                             analysis::Policy::SoftwareNT};

const char* policy_token(analysis::Policy policy) {
  switch (policy) {
    case analysis::Policy::Baseline: return "Baseline";
    case analysis::Policy::Hardware: return "Hardware";
    case analysis::Policy::Software: return "Software";
    case analysis::Policy::SoftwareNT: return "SoftwareNT";
    case analysis::Policy::StrideCentric: return "StrideCentric";
  }
  return "?";
}

void append_dram(std::ostringstream& out, const sim::DramStats& dram) {
  out << " dram_demand=" << dram.demand_lines
      << " dram_sw=" << dram.sw_prefetch_lines
      << " dram_hw=" << dram.hw_prefetch_lines
      << " dram_wb=" << dram.writeback_lines;
}

/// Lower-case alphanumeric runs of `name` joined by '_'.
std::string slug(const std::string& name) {
  std::string out;
  for (char c : name) {
    if (std::isalnum(static_cast<unsigned char>(c))) {
      out.push_back(static_cast<char>(
          std::tolower(static_cast<unsigned char>(c))));
    } else if (!out.empty() && out.back() != '_') {
      out.push_back('_');
    }
  }
  return out;
}

void append_plan_body(std::ostringstream& out,
                      const std::vector<GoldenEntry>& entries) {
  for (const GoldenEntry& entry : entries) {
    out << "benchmark " << entry.benchmark << "\n";
    if (entry.plans.empty()) {
      out << "  none\n";
      continue;
    }
    for (const core::PrefetchPlan& plan : entry.plans) {
      out << "  pc" << plan.pc << " " << core::hint_mnemonic(plan.hint) << " "
          << (plan.distance_bytes >= 0 ? "+" : "") << plan.distance_bytes
          << "\n";
    }
  }
}

std::vector<std::string> significant_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream stream(text);
  std::string line;
  while (std::getline(stream, line)) {
    while (!line.empty() && (line.back() == '\r' || line.back() == ' ')) {
      line.pop_back();
    }
    if (line.empty() || line[0] == '#') continue;
    lines.push_back(line);
  }
  return lines;
}

}  // namespace

std::vector<GoldenEntry> compute_suite_plans(
    const sim::MachineConfig& machine, const engine::Executor* executor) {
  const std::vector<std::string> names = workloads::suite_names();
  const auto compute = [&](std::size_t i) {
    const workloads::Program program =
        workloads::make_benchmark(names[i], workloads::InputSet::Reference);
    core::OptimizationReport report = core::optimize_program(program, machine);
    return GoldenEntry{names[i], std::move(report.plans)};
  };
  if (executor != nullptr) return executor->map(names.size(), compute);
  std::vector<GoldenEntry> entries;
  entries.reserve(names.size());
  for (std::size_t i = 0; i < names.size(); ++i) {
    entries.push_back(compute(i));
  }
  return entries;
}

std::string render_golden(const std::vector<GoldenEntry>& entries,
                          const std::string& machine_name) {
  std::ostringstream out;
  out << "# golden prefetch plans | machine=" << machine_name
      << " | format=1\n";
  out << "# Regenerate after a reviewed pipeline change:\n";
  out << "#   tools/check.sh verify --bless\n";
  out << "#   (or: repf verify --bless --golden tests/golden"
         " [--machine intel])\n";
  append_plan_body(out, entries);
  return out.str();
}

std::string golden_filename(const std::string& machine_name) {
  return "plans_" + slug(machine_name) + ".golden";
}

std::vector<GoldenEntry> compute_corun_suite_plans(
    const sim::MachineConfig& machine, const engine::Executor* executor) {
  const std::vector<std::string> names = workloads::suite_names();
  const auto compute = [&](std::size_t i) {
    // Victim on core 0, three deterministic streaming aggressors on the
    // remaining cores, each in a disjoint address space.
    std::vector<workloads::Program> programs;
    programs.reserve(sim::kNumCores);
    programs.push_back(
        workloads::make_benchmark(names[i], workloads::InputSet::Reference));
    for (int core = 1; core < sim::kNumCores; ++core) {
      FuzzedTrace aggressor =
          make_trace(TraceFamily::kStrided, kCoRunGoldenSeed,
                     static_cast<std::uint64_t>(core));
      workloads::rebase_program(aggressor.program,
                                workloads::core_address_offset(core));
      programs.push_back(std::move(aggressor.program));
    }
    analysis::CoRunArtifacts artifacts;
    artifacts.programs = &programs;
    artifacts.machine = &machine;
    analysis::run_corun(artifacts);
    return GoldenEntry{names[i], std::move(artifacts.reports[0].plans)};
  };
  if (executor != nullptr) return executor->map(names.size(), compute);
  std::vector<GoldenEntry> entries;
  entries.reserve(names.size());
  for (std::size_t i = 0; i < names.size(); ++i) {
    entries.push_back(compute(i));
  }
  return entries;
}

std::string render_corun_golden(const std::vector<GoldenEntry>& entries,
                                const std::string& machine_name) {
  std::ostringstream out;
  out << "# golden co-run victim plans | machine=" << machine_name
      << " | format=1\n";
  out << "# Core 0 victim vs 3 streaming aggressors; plans solved with the\n";
  out << "# composed effective-LLC-share knob. Regenerate after a reviewed\n";
  out << "# composition change:\n";
  out << "#   repf corun --bless --golden tests/golden [--machine intel]\n";
  append_plan_body(out, entries);
  return out.str();
}

std::string corun_golden_filename(const std::string& machine_name) {
  return "corun_" + golden_filename(machine_name);
}

SimGolden compute_sim_golden(const sim::MachineConfig& machine,
                             const engine::Executor* executor) {
  analysis::PlanCache cache;
  SimGolden golden;
  golden.suite = analysis::evaluate_suite(machine, workloads::suite_names(),
                                          cache, executor);
  const std::vector<workloads::MixSpec> specs =
      workloads::generate_mixes(kSimGoldenMixes, sim::kNumCores,
                                kSimGoldenMixSeed);
  // One unit per (mix, policy); each writes only its own run.
  constexpr std::size_t kPolicies = std::size(kMixPolicies);
  const auto run = [&](std::size_t i) {
    return analysis::evaluate_mix(machine, specs[i / kPolicies], cache,
                                  workloads::InputSet::Reference,
                                  {kMixPolicies[i % kPolicies]});
  };
  const engine::Executor serial(1);
  std::vector<analysis::MixEvaluation> units =
      (executor != nullptr ? *executor : serial)
          .map(specs.size() * kPolicies, run);
  golden.mixes.resize(specs.size());
  for (std::size_t i = 0; i < units.size(); ++i) {
    analysis::MixEvaluation& mix = golden.mixes[i / kPolicies];
    mix.spec = specs[i / kPolicies];
    mix.runs.merge(units[i].runs);
  }
  return golden;
}

std::string render_sim_golden(const SimGolden& golden,
                              const std::string& machine_name) {
  std::ostringstream out;
  out << "# golden simulator statistics | machine=" << machine_name
      << " | format=1\n";
  out << "# Regenerate after a reviewed simulator change:\n";
  out << "#   tools/check.sh verify --bless\n";
  out << "#   (or: repf verify --bless --golden tests/golden"
         " [--machine intel])\n";
  for (const analysis::BenchmarkEvaluation& eval : golden.suite) {
    for (const analysis::Policy policy : kSuitePolicies) {
      const sim::RunResult& run = eval.runs.at(policy);
      const sim::AppResult& app = run.apps.at(0);
      out << eval.name << " " << policy_token(policy)
          << " cycles=" << app.cycles << " refs=" << app.references;
      append_dram(out, run.dram);
      out << " late=" << app.mem.late_prefetch_hits
          << " useless_sw=" << app.mem.useless_sw_evictions
          << " useless_hw=" << app.mem.useless_hw_evictions << "\n";
    }
  }
  for (std::size_t m = 0; m < golden.mixes.size(); ++m) {
    const analysis::MixEvaluation& mix = golden.mixes[m];
    for (const analysis::Policy policy : kMixPolicies) {
      const sim::RunResult& run = mix.runs.at(policy);
      out << "mix" << m << " " << policy_token(policy) << " apps=";
      for (std::size_t a = 0; a < mix.spec.apps.size(); ++a) {
        out << (a ? "," : "") << mix.spec.apps[a];
      }
      out << " cycles=";
      for (std::size_t a = 0; a < run.apps.size(); ++a) {
        out << (a ? "," : "") << run.apps[a].cycles;
      }
      append_dram(out, run.dram);
      out << "\n";
    }
  }
  return out.str();
}

std::string sim_golden_filename(const std::string& machine_name) {
  return "sim_" + slug(machine_name) + ".golden";
}

std::string diff_golden(const std::string& expected,
                        const std::string& actual) {
  const std::vector<std::string> want = significant_lines(expected);
  const std::vector<std::string> got = significant_lines(actual);
  std::ostringstream diff;
  const std::size_t n = std::max(want.size(), got.size());
  for (std::size_t i = 0; i < n; ++i) {
    const std::string* w = i < want.size() ? &want[i] : nullptr;
    const std::string* g = i < got.size() ? &got[i] : nullptr;
    if (w && g && *w == *g) continue;
    if (w) diff << "-" << *w << "\n";
    if (g) diff << "+" << *g << "\n";
  }
  return diff.str();
}

}  // namespace re::verify
