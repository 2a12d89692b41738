// The benchmark's three workloads: `suite` (one cold Figure-4 pass),
// `mix` (seeded 4-app Figure-7 mixes on the AMD model) and `serve` (the
// advisory service at about twice its solve capacity).
//
// Each workload separates set-up from the timed pass, checks every pass's
// outputs (a digest over every simulated statistic plus invariants), and
// can run a pass traced: the traced pass makes the same calls into the
// program with spans around them, and must reproduce the untraced digest.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "engine/executor.hh"
#include "trace.hh"

namespace perfbench {

/// The default seed; its digests are recorded in perfbench/digests.txt.
inline constexpr std::uint64_t kDefaultSeed = 42;

struct Config {
  std::uint64_t seed = kDefaultSeed;
  /// Tiny inputs for the benchmark's own tests.
  bool smoke = false;
  /// Test hook: change one simulated statistic of every pass before it is
  /// digested, to show that the digest check catches it.
  bool perturb = false;
};

/// A digest as 16 hex digits.
std::string hex64(std::uint64_t value);

/// A value printed with its name and unit.
struct Named {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct PassResult {
  double seconds = 0.0;  // host wall time of the pass
  std::uint64_t ops = 0;
  /// Ops that failed an invariant check (the digest check is applied by
  /// the caller, which knows the reference digest).
  std::uint64_t failed_ops = 0;
  std::vector<std::string> problems;
  std::uint64_t digest = 0;
  /// Simulated (or virtual-time) headline values reported as the generic
  /// end-to-end metrics `sim_gain` (higher is better) and `sim_cost`
  /// (lower is better); see perfbench/README.md for each workload's
  /// definition.
  double sim_gain = 0.0;
  double sim_cost = 0.0;
  /// The same results under their workload-specific names, with units.
  std::vector<Named> named;
  /// Per-layer counts observed in this pass, keyed by ledger metric name.
  std::map<std::string, double> layer;
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Build the inputs; called once, before the first pass.
  virtual void setup(const re::engine::Executor& executor) = 0;
  /// One timed pass. With a tracer, spans are recorded around the calls
  /// into the program, under one root span per pass.
  virtual PassResult pass(const re::engine::Executor& executor,
                          Tracer* tracer) = 0;
  /// The operation a pass counts, for the report ("run", "request").
  virtual const char* op_name() const = 0;
};

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        const Config& config);

const std::vector<std::string>& workload_names();

}  // namespace perfbench
