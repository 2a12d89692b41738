// Sequential walker over a trace program.
//
// ProgramCursor yields one memory access per next() call, in program order,
// driving one compiled AddressGenerator per static instruction. Both the
// profiler (functional iteration) and the simulator's core model (timed
// execution) drive a cursor, so the two always observe the identical access
// stream.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "support/types.hh"
#include "workloads/generator.hh"
#include "workloads/program.hh"

namespace re::workloads {

/// One dynamic memory access produced by the cursor.
struct AccessEvent {
  const StaticInst* inst = nullptr;
  Addr addr = 0;
};

class ProgramCursor {
 public:
  explicit ProgramCursor(const Program& program);
  // The cursor keeps a reference to the program; binding a temporary would
  // dangle as soon as the full-expression ends.
  explicit ProgramCursor(Program&&) = delete;

  /// Next access of the current run; std::nullopt when one full run (all
  /// loops times outer_reps) has completed. After nullopt, the cursor
  /// automatically rewinds so the next call starts a fresh run. A program
  /// with no instructions to run, or outer_reps == 0, yields only nullopt.
  std::optional<AccessEvent> next() {
    if (finished_) {
      reset();
      return std::nullopt;
    }
    const AccessEvent event{insts_[inst_], generators_[inst_].next()};
    ++refs_done_;
    if (++inst_ == loops_[loop_].end) end_of_body();
    return event;
  }

  /// Restart from the beginning (fresh pattern state).
  void reset();

  /// Dynamic references completed in the current run.
  std::uint64_t references_done() const { return refs_done_; }

  const Program& program() const { return *program_; }

 private:
  /// A loop with a non-empty body and at least one iteration: its
  /// instructions are [begin, end) of the flat arrays.
  struct LoopSpan {
    std::size_t begin = 0;
    std::size_t end = 0;
    std::uint64_t iterations = 0;
  };

  /// Wrap to the loop body's start, or move to the next loop or rep.
  void end_of_body();

  const Program* program_;
  std::vector<const StaticInst*> insts_;      // program order, all loops
  std::vector<AddressGenerator> generators_;  // parallel to insts_
  std::vector<LoopSpan> loops_;
  std::uint64_t rep_ = 0;
  std::size_t loop_ = 0;
  std::uint64_t iter_ = 0;
  std::size_t inst_ = 0;
  std::uint64_t refs_done_ = 0;
  bool finished_ = false;
};

}  // namespace re::workloads
