// Exact-trace replay hook.
//
// Every consumer of a workload's full (unsampled) access stream — the
// sampling profiler, the phase fingerprinter, and the differential
// verification oracle (src/verify/) — iterates the same ProgramCursor.
// Routing them through one entry point guarantees that "the trace" means
// the identical (pc, addr) sequence everywhere: an estimator validated by
// verify::ExactLruModel is validated against the very stream it sampled.
//
// The replay is a template over the observer, so the per-reference call
// inlines instead of going through a std::function.
#pragma once

#include <cstdint>

#include "support/types.hh"
#include "workloads/cursor.hh"
#include "workloads/program.hh"

namespace re::core {

/// Replay one full run of `program` (optionally capped at `max_refs`
/// references), calling `observer(pc, addr)` for every access, in program
/// order. Returns the number of references replayed.
template <typename Observer>
std::uint64_t replay_program(const workloads::Program& program,
                             Observer&& observer,
                             std::uint64_t max_refs = ~std::uint64_t{0}) {
  workloads::ProgramCursor cursor(program);
  std::uint64_t refs = 0;
  while (refs < max_refs) {
    const auto event = cursor.next();
    if (!event) break;
    observer(event->inst->pc, event->addr);
    ++refs;
  }
  return refs;
}

}  // namespace re::core
