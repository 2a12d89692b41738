// The per-layer ledger of the traced run: micro measurements of single
// layers (cursor, caches, sampler, executor dispatch), a walk over the
// engine's optimize stages, and the metrics derived from the spans of the
// traced pass. Layers are named by the repository's modules. A traced run
// measures the layers its workload exercises; the rest read 0.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "engine/executor.hh"
#include "passes.hh"
#include "trace.hh"

namespace perfbench {

struct MetricDef {
  std::string name;
  std::string unit;
  /// The workloads whose traced run measures this metric.
  std::vector<std::string> workloads;

  bool measured_on(const std::string& workload) const;
};

/// Every per-layer metric the traced run prints, in print order.
const std::vector<MetricDef>& ledger_metrics();

struct LedgerChecks {
  std::uint64_t ops = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> problems;
};

/// Whether the traced run of `workload` measures the named metric.
bool measured_on(const std::string& metric, const std::string& workload);

/// The cursor, cache, sampler and executor-dispatch micro measurements
/// that the traced run of `workload` reports.
void measure_layers(const std::string& workload, const Config& config,
                    const re::engine::Executor& executor,
                    std::map<std::string, double>& metrics,
                    LedgerChecks& checks);

/// Walk optimize_graph().stages() over the suite models with a span per
/// stage, and check each walk's report against run_optimize; also check
/// that walking a serve family reproduces the engine solver's plans.
void measure_stages(const Config& config, const re::engine::Executor& executor,
                    Tracer& tracer, std::map<std::string, double>& metrics,
                    LedgerChecks& checks);

/// Metrics computed from the spans of a traced pass. `layer` holds the
/// counts that pass reported.
void span_metrics(const Tracer& tracer, int workers,
                  const std::map<std::string, double>& layer,
                  std::map<std::string, double>& metrics);

}  // namespace perfbench
