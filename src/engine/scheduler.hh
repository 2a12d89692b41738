// The fork-join dispatcher behind the deterministic executor.
//
// One shared claim counter walks a seeded permutation of [0, n); each
// worker claims the next unit and runs it, until the permutation is
// exhausted. The contract — every unit runs exactly once, artifacts are
// byte-identical at any worker count (ordered reduction: units write only
// their own slots), and among failing units the lowest-indexed exception
// wins — is the executor's (engine/executor.hh).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>

#include "engine/cancel.hh"

namespace re::engine {

/// Kept only for perfbench, which prints the backend name in its
/// provenance line; fork-join is the one dispatcher.
enum class SchedulerBackend : std::uint8_t { kForkJoin };

/// Kept only for perfbench: always "forkjoin".
const char* scheduler_backend_name(SchedulerBackend backend);

using TaskFn = std::function<void(std::size_t)>;

struct SchedulerConfig {
  std::size_t workers = 1;  // >= 2 (the serial path lives in Executor)
  std::uint64_t seed = 0;
};

/// Run fn(i) for every i in [0, n) across config.workers threads (the
/// calling thread is worker 0). Exactly-once; deterministic error
/// selection (lowest-indexed unit that threw); cooperative cancellation
/// (armed token stops new units, in-flight units drain, Cancelled is
/// thrown unless a unit error outranks it).
void run_parallel(const SchedulerConfig& config, std::size_t n,
                  const TaskFn& fn, const CancelToken* cancel);

/// Worker index of the calling thread within a live fan-out, -1 outside.
int current_worker();

}  // namespace re::engine
