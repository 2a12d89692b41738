#include "core/pipeline.hh"

// The optimization entry points declared in this header are stage-graph
// configurations since PR 5; their definitions live in engine/pipeline.cc
// (re_engine). Only the baseline Δ probe remains here: it is the one piece
// phase detection (core/phases.cc) needs, and it must not drag the engine
// into re_core.

namespace re::core {

double cycles_per_memop(const sim::RunResult& run) {
  if (run.apps.empty() || run.apps[0].references == 0) return 1.0;
  return static_cast<double>(run.apps[0].cycles) /
         static_cast<double>(run.apps[0].references);
}

double measure_cycles_per_memop(const workloads::Program& program,
                                const sim::MachineConfig& machine) {
  return cycles_per_memop(
      sim::run_single(machine, program, /*hw_prefetch=*/false));
}

}  // namespace re::core
