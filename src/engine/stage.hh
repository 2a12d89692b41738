// Stage-graph core: named stages over a typed artifact set.
//
// The paper's framework is one fixed dataflow — sampling → StatStack →
// MDDLI → stride/distance → bypass → insertion — but the repo had grown
// five hand-rolled copies of that chain. A StageGraph makes the chain a
// value: each pipeline step is a named Stage that reads and writes declared
// slots of an artifact struct, and every entry point (offline optimize,
// windowed refinement, differential verification, experiment drivers) is a
// *configuration* — a selection of stages over the same artifact type —
// instead of a re-plumbing.
//
// Stages run in declared order on the calling thread; parallelism lives
// *inside* stages (fan-out over independent units via EngineContext's
// Executor, with ordered reduction), never between them. That keeps the
// determinism contract trivially checkable: a graph's output is a pure
// function of its bound inputs, at any worker count.
#pragma once

#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "engine/executor.hh"
#include "engine/store.hh"

namespace re::engine {

/// Shared execution resources threaded through every stage. All members
/// are optional: null executor = serial, null store = fresh allocations,
/// null cancel = the solve runs to completion.
struct EngineContext {
  const Executor* executor = nullptr;
  ArtifactStore* store = nullptr;
  /// Cooperative cancellation: checked before every stage and before every
  /// fanned-out unit; an armed token unwinds the solve with Cancelled.
  const CancelToken* cancel = nullptr;

  /// Throw Cancelled when the bound token (if any) has been requested.
  void check_cancel() const {
    if (cancel != nullptr && cancel->requested()) throw Cancelled();
  }

  /// Fan out `n` independent units, or run them inline when no executor is
  /// bound. Units must only write state they own; reductions happen by
  /// index afterwards.
  void for_each(std::size_t n, const std::function<void(std::size_t)>& fn)
      const {
    if (executor != nullptr) {
      executor->for_each(n, fn, cancel);
    } else {
      for (std::size_t i = 0; i < n; ++i) {
        check_cancel();
        fn(i);
      }
    }
  }
};

/// One named pipeline step over artifact set `A`. `inputs`/`outputs` name
/// the artifact slots the stage reads/writes — they are the graph's
/// self-description (rendered by describe() and DESIGN.md §11's table),
/// kept next to the code they document.
template <typename A>
struct Stage {
  std::string name;
  std::string inputs;
  std::string outputs;
  /// Optional gate: a stage may be skipped based on upstream artifacts
  /// (e.g. everything after `validate` when the profile is unusable).
  std::function<bool(const A&)> enabled;
  std::function<void(A&, const EngineContext&)> run;
};

/// A linear pipeline of stages, run in declared order.
template <typename A>
class StageGraph {
 public:
  StageGraph& add(Stage<A> stage) {
    stages_.push_back(std::move(stage));
    return *this;
  }

  void run(A& artifacts, const EngineContext& ctx) const {
    for (const Stage<A>& stage : stages_) {
      ctx.check_cancel();
      if (stage.enabled && !stage.enabled(artifacts)) continue;
      stage.run(artifacts, ctx);
    }
  }

  const std::vector<Stage<A>>& stages() const { return stages_; }

  /// "name(inputs -> outputs)" per line; the graph's self-description.
  std::string describe() const {
    std::string out;
    for (const Stage<A>& stage : stages_) {
      out += stage.name + "(" + stage.inputs + " -> " + stage.outputs + ")\n";
    }
    return out;
  }

 private:
  std::vector<Stage<A>> stages_;
};

}  // namespace re::engine
