// The reproduction's benchmark program.
//
//   perfbench --workload suite|mix|serve --seed N --seconds S --trace 0|1
//             [--jobs J] [--digests FILE] [--trace-out FILE] [--git-rev REV]
//             [--smoke] [--perturb]
//
// --trace 0 times one workload: passes for S seconds, with set-up timed
// before each pass, and prints the end-to-end metrics. --trace 1 is the
// workload's per-layer ledger: untraced and traced passes (their medians
// give the tracing overhead), then the micro measurements and the stage
// walk of the layers the workload exercises; it prints every per-layer
// metric (0 where the workload does not measure it) and writes the spans
// to --trace-out. Every pass is checked: a digest over all simulated
// statistics must repeat across passes, between traced and untraced
// passes, and equal the value recorded in --digests for that seed.
//
// The last line of standard output is one JSON object: correct, attempted,
// failed and metrics ({"name": {"value": v, "unit": u}}). The exit code is 0
// when every check passed, 1 when a check failed and 2 on a usage or
// internal error (no result line).
#include <malloc.h>

#include <algorithm>
#include <cerrno>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "engine/executor.hh"
#include "engine/scheduler.hh"
#include "ledger.hh"
#include "passes.hh"
#include "trace.hh"

namespace perfbench {
namespace {

/// Set-up timed before each pass, in seconds (at least one set-up).
constexpr double kSetupSliceS = 0.3;
/// Fewest set-ups a timed run measures.
constexpr std::size_t kMinSetups = 10;
/// Untraced and traced passes of a traced run; the tracing overhead
/// compares their medians.
constexpr int kOverheadPasses = 3;

struct Args {
  std::string workload;
  Config config;
  double seconds = 10.0;
  bool trace = false;
  int jobs = 0;  // 0 = min(4, hardware threads)
  std::string digests;
  std::string trace_out;
  std::string git_rev = "unknown";
};

[[noreturn]] void usage(const std::string& message) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload suite|mix|serve "
               "--seed N --seconds S --trace 0|1 [--jobs J] [--digests FILE] "
               "[--trace-out FILE] [--git-rev REV] [--smoke] [--perturb]\n",
               message.c_str());
  std::exit(2);
}

std::uint64_t parse_u64(const std::string& text, const char* flag) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long value = std::strtoull(text.c_str(), &end, 10);
  if (text.empty() || text[0] == '-' || *end != '\0' || errno != 0) {
    usage(std::string("bad value for ") + flag + ": '" + text + "'");
  }
  return value;
}

Args parse_args(int argc, char** argv) {
  Args args;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      args.config.smoke = true;
      continue;
    }
    if (flag == "--perturb") {
      args.config.perturb = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.config.seed = parse_u64(value, "--seed");
    } else if (flag == "--seconds") {
      args.seconds = static_cast<double>(parse_u64(value, "--seconds"));
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("--trace takes 0 or 1");
      args.trace = value == "1";
      have_trace = true;
    } else if (flag == "--jobs") {
      args.jobs = static_cast<int>(std::min<std::uint64_t>(
          parse_u64(value, "--jobs"), 256));
    } else if (flag == "--digests") {
      args.digests = value;
    } else if (flag == "--trace-out") {
      args.trace_out = value;
    } else if (flag == "--git-rev") {
      args.git_rev = value;
    } else {
      usage("unknown flag " + flag);
    }
  }
  const auto& names = workload_names();
  if (std::find(names.begin(), names.end(), args.workload) == names.end()) {
    usage("--workload must be suite, mix or serve");
  }
  if (!have_trace) usage("--trace is required");
  return args;
}

/// Recorded digests: lines of "<workload> <full|smoke> <seed> <hex>".
std::map<std::string, std::string> load_digests(const std::string& path) {
  std::map<std::string, std::string> out;
  if (path.empty()) return out;
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read digests file " + path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string workload, size, seed, hex;
    if (!(fields >> workload >> size >> seed >> hex)) {
      throw std::runtime_error("malformed digests line: " + line);
    }
    out[workload + " " + size + " " + seed] = hex;
  }
  return out;
}

std::string digest_key(const std::string& workload, const Config& config) {
  return workload + (config.smoke ? " smoke " : " full ") +
         std::to_string(config.seed);
}

struct Quartiles {
  double q1 = 0.0, median = 0.0, q3 = 0.0;
};

/// Quartiles by linear interpolation between order statistics.
Quartiles quartiles(std::vector<double> values) {
  Quartiles q;
  if (values.empty()) return q;
  std::sort(values.begin(), values.end());
  const auto at = [&](double p) {
    const double pos = p * static_cast<double>(values.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
  };
  q.q1 = at(0.25);
  q.median = at(0.5);
  q.q3 = at(0.75);
  return q;
}

/// Return freed heap to the system and restart the resident high-water
/// mark from the current resident size, so the next peak_rss_mb() covers
/// only what runs in between.
void reset_peak_rss() {
  malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
}

/// Peak resident memory (VmHWM) since the last reset_peak_rss(). Unlike
/// getrusage's ru_maxrss it does not carry over the high-water mark of the
/// process that exec'd this one (such as run.py).
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

/// Accumulates the run's verdict and prints the result line.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Named> metrics;

  void fail(std::uint64_t ops, const std::string& why) {
    failed += ops;
    std::printf("CHECK FAILED: %s\n", why.c_str());
  }
  void metric(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  int finish() const {
    std::string line = "{\"correct\": ";
    line += failed == 0 ? "true" : "false";
    line += ", \"attempted\": " + std::to_string(attempted);
    line += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
    char buf[64];
    for (std::size_t i = 0; i < metrics.size(); ++i) {
      const Named& m = metrics[i];
      std::snprintf(buf, sizeof buf, "%.17g",
                    std::isfinite(m.value) ? m.value : 0.0);
      line += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " + buf +
              ", \"unit\": \"" + m.unit + "\"}";
    }
    line += "}}";
    std::fflush(stdout);
    std::printf("%s\n", line.c_str());
    return failed == 0 ? 0 : 1;
  }
};

void print_metric(const std::string& name, double value, const std::string& unit,
                  const std::string& note = "") {
  std::printf("  %-40s %16.6g %-6s %s\n", name.c_str(), value, unit.c_str(),
              note.c_str());
}

/// Exact integers and provenance (never routed through a double).
void print_provenance(const Args& args, const re::engine::Executor& executor,
                      unsigned hw_threads) {
  std::printf(
      "{\"provenance\": {\"workload\": \"%s\", \"trace\": %d, \"seed\": %" PRIu64
      ", \"smoke\": %s, \"git_rev\": \"%s\", \"build_type\": \"%s\", "
      "\"compiler\": \"%s\", \"nproc\": %u, \"workers\": %d, "
      "\"executor_seed\": %" PRIu64 ", \"scheduler\": \"%s\"}}\n",
      args.workload.c_str(), args.trace ? 1 : 0, args.config.seed,
      args.config.smoke ? "true" : "false", args.git_rev.c_str(),
      PERFBENCH_BUILD_TYPE, PERFBENCH_COMPILER, hw_threads, executor.jobs(),
      executor.seed(), re::engine::scheduler_backend_name(executor.backend()));
}

/// Compares a pass's digest with the reference and records the outcome.
/// The reference is the recorded digest when there is one, else the first
/// digest seen in this run.
struct DigestCheck {
  std::string recorded;  // hex, empty when none
  std::string reference;

  void check(const std::string& label, const PassResult& pass, Outcome& out) {
    const std::string hex = hex64(pass.digest);
    if (reference.empty()) reference = recorded.empty() ? hex : recorded;
    out.attempted += pass.ops;
    for (const std::string& problem : pass.problems) {
      std::printf("CHECK FAILED: %s: %s\n", label.c_str(), problem.c_str());
    }
    if (hex != reference) {
      out.fail(pass.ops, label + " digest " + hex + " != " +
                             (recorded.empty() ? "first pass " : "recorded ") +
                             reference);
      return;
    }
    out.failed += pass.failed_ops;
  }
};

int run_workload(const Args& args, const re::engine::Executor& executor,
                 const std::map<std::string, std::string>& recorded) {
  const std::string w = args.workload;
  Outcome out;

  // Set-up is timed in slices of about kSetupSliceS before every pass, so
  // its samples span the whole run, as the passes do, and a spell of slow
  // host time moves both medians alike; at least kMinSetups in all. Each
  // set-up builds a fresh workload; the previous one is destroyed first,
  // outside the timed region.
  std::unique_ptr<Workload> workload;
  std::vector<double> setup_s;
  const auto time_setup = [&] {
    workload.reset();
    workload = make_workload(w, args.config);
    const auto start = Clock::now();
    workload->setup(executor);
    setup_s.push_back(std::chrono::duration<double>(Clock::now() - start).count());
    return setup_s.back();
  };
  const auto setup_slice = [&] {
    double slice = 0.0;
    do slice += time_setup(); while (slice < kSetupSliceS);
  };

  DigestCheck digests;
  auto it = recorded.find(digest_key(w, args.config));
  if (it != recorded.end()) digests.recorded = it->second;

  std::vector<double> pass_s;
  double timed = 0.0;
  PassResult first;
  // Peak memory per pass, from a trimmed heap: with 4 workers allocating,
  // one pass's peak varies with thread timing, so report the median.
  std::vector<double> rss_mb;
  while (pass_s.empty() || timed < args.seconds) {
    setup_slice();
    reset_peak_rss();
    PassResult pass = workload->pass(executor, nullptr);
    rss_mb.push_back(peak_rss_mb());
    digests.check(w + " pass " + std::to_string(pass_s.size() + 1), pass, out);
    pass_s.push_back(pass.seconds);
    timed += pass.seconds;
    if (pass_s.size() == 1) first = std::move(pass);
  }
  while (setup_s.size() < kMinSetups) time_setup();
  const Quartiles rss_q = quartiles(rss_mb);

  const Quartiles setup_q = quartiles(setup_s);
  const Quartiles pass_q = quartiles(pass_s);
  char note[160];
  std::printf("%s: %zu passes of %" PRIu64 " %ss each, %d workers\n", w.c_str(),
              pass_s.size(), first.ops, workload->op_name(), executor.jobs());
  std::snprintf(note, sizeof note, "median of %zu set-ups; q1 %.4g q3 %.4g",
                setup_s.size(), setup_q.q1, setup_q.q3);
  print_metric(w + ".setup_s", setup_q.median, "s", note);
  std::snprintf(note, sizeof note, "median over passes; q1 %.4g q3 %.4g",
                rss_q.q1, rss_q.q3);
  print_metric(w + ".peak_rss_mb", rss_q.median, "MB", note);
  std::snprintf(note, sizeof note, "median of %zu passes; q1 %.4g q3 %.4g",
                pass_s.size(), pass_q.q1, pass_q.q3);
  print_metric(w + ".pass_s", pass_q.median, "s", note);
  // A pass's operation count is fixed by the seed, so this restates pass_s
  // as a rate: printed for the reader, not a reported metric.
  print_metric(w + (w == "serve" ? ".requests_per_s" : ".runs_per_s"),
               static_cast<double>(first.ops) / pass_q.median, "1/s");
  for (const Named& m : first.named) {
    print_metric(m.name, m.value, m.unit);
  }
  std::printf("digest %s %s %" PRIu64 " %s (%s)\n", w.c_str(),
              args.config.smoke ? "smoke" : "full", args.config.seed,
              hex64(first.digest).c_str(),
              digests.recorded.empty() ? "no recorded value; determinism only"
              : digests.recorded == hex64(first.digest) ? "matches recorded"
                                                        : "DIFFERS from recorded");

  out.metric("setup_s", setup_q.median, "s");
  out.metric("peak_rss_mb", rss_q.median, "MB");
  out.metric("pass_s", pass_q.median, "s");
  out.metric("sim_gain", first.sim_gain, "x");
  out.metric("sim_cost", first.sim_cost, "x");
  return out.finish();
}

int run_ledger(const Args& args, const re::engine::Executor& executor,
               const std::map<std::string, std::string>& recorded) {
  const std::string& w = args.workload;
  Outcome out;
  std::unique_ptr<Workload> workload = make_workload(w, args.config);
  workload->setup(executor);
  DigestCheck digests;
  auto it = recorded.find(digest_key(w, args.config));
  if (it != recorded.end()) digests.recorded = it->second;

  // Untraced and traced passes alternate in the order U T T U U T ..., so
  // drift in host speed over the run loads both sides alike. Each traced
  // pass records into a fresh tracer; the last one's spans and counts feed
  // the ledger and the trace file.
  std::vector<double> untraced_s, traced_s;
  std::unique_ptr<Tracer> tracer;
  std::map<std::string, double> layer;  // counts reported by the pass
  for (int i = 0; i < 2 * kOverheadPasses; ++i) {
    if ((i + 1) / 2 % 2 == 0) {
      const PassResult pass = workload->pass(executor, nullptr);
      untraced_s.push_back(pass.seconds);
      digests.check(w + " untraced pass " + std::to_string(untraced_s.size()),
                    pass, out);
      continue;
    }
    tracer = std::make_unique<Tracer>();
    const std::uint64_t steals = executor.steals();
    const std::uint64_t hints = executor.prefetch_hints();
    PassResult pass = workload->pass(executor, tracer.get());
    traced_s.push_back(pass.seconds);
    digests.check(w + " traced pass " + std::to_string(traced_s.size()), pass,
                  out);
    layer = std::move(pass.layer);
    layer["engine.executor.steals"] = static_cast<double>(executor.steals() - steals);
    layer["engine.executor.prefetch_hints"] =
        static_cast<double>(executor.prefetch_hints() - hints);
  }
  const Quartiles untraced_q = quartiles(untraced_s);
  const Quartiles traced_q = quartiles(traced_s);
  std::map<std::string, double> metrics;  // the ledger
  metrics["trace.overhead_pct"] =
      100.0 * (traced_q.median - untraced_q.median) / untraced_q.median;
  std::printf("%s: untraced %.4f s (q1 %.4g q3 %.4g), traced %.4f s (q1 %.4g "
              "q3 %.4g), medians of %d passes each; digest %s\n",
              w.c_str(), untraced_q.median, untraced_q.q1, untraced_q.q3,
              traced_q.median, traced_q.q1, traced_q.q3, kOverheadPasses,
              digests.reference.c_str());

  LedgerChecks checks;
  measure_layers(w, args.config, executor, metrics, checks);
  if (measured_on("engine.stage.sample.self_ms", w)) {
    measure_stages(args.config, executor, *tracer, metrics, checks);
  }
  span_metrics(*tracer, executor.jobs(), layer, metrics);
  out.attempted += checks.ops;
  for (const std::string& problem : checks.problems) out.fail(0, problem);
  out.failed += checks.failed;

  if (!args.trace_out.empty()) {
    if (tracer->write_chrome(args.trace_out)) {
      std::printf("trace: %zu spans written to %s\n", tracer->spans().size(),
                  args.trace_out.c_str());
    } else {
      out.fail(1, "cannot write trace file " + args.trace_out);
    }
  }

  std::printf("per-layer ledger of %s (%d workers):\n", w.c_str(),
              executor.jobs());
  for (const MetricDef& def : ledger_metrics()) {
    double value = 0.0;
    if (def.measured_on(w)) {
      auto m = metrics.find(def.name);
      auto l = layer.find(def.name);
      value = m != metrics.end() ? m->second : l != layer.end() ? l->second : 0.0;
      print_metric(def.name, value, def.unit);
    } else {
      print_metric(def.name, value, def.unit, "(not measured on " + w + ")");
    }
    out.metric(def.name, value, def.unit);
  }
  return out.finish();
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Args args = parse_args(argc, argv);
  try {
    const unsigned hw_threads = std::max(1u, std::thread::hardware_concurrency());
    const int jobs =
        args.jobs > 0 ? args.jobs : static_cast<int>(std::min(4u, hw_threads));
    const re::engine::Executor executor(jobs);
    const std::map<std::string, std::string> recorded = load_digests(args.digests);
    print_provenance(args, executor, hw_threads);
    return args.trace ? run_ledger(args, executor, recorded)
                      : run_workload(args, executor, recorded);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
