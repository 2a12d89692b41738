#include "workloads/cursor.hh"

namespace re::workloads {

ProgramCursor::ProgramCursor(const Program& program) : program_(&program) {
  for (const Loop& loop : program.loops) {
    if (loop.body.empty() || loop.iterations == 0) continue;
    LoopSpan span;
    span.begin = insts_.size();
    span.iterations = loop.iterations;
    for (const StaticInst& inst : loop.body) {
      insts_.push_back(&inst);
      // Distinct seed per instruction so pointer chases over the same
      // footprint do not follow identical paths.
      generators_.emplace_back(
          inst.pattern,
          mix64(program.seed ^ (inst.pc * 0x9e3779b97f4a7c15ULL)));
    }
    span.end = insts_.size();
    loops_.push_back(span);
  }
  reset();
}

void ProgramCursor::end_of_body() {
  const LoopSpan& loop = loops_[loop_];
  inst_ = loop.begin;
  if (++iter_ < loop.iterations) return;
  iter_ = 0;
  if (++loop_ == loops_.size()) {
    loop_ = 0;
    finished_ = ++rep_ >= program_->outer_reps;
  }
  inst_ = loops_[loop_].begin;
}

void ProgramCursor::reset() {
  for (AddressGenerator& generator : generators_) generator.reset();
  rep_ = 0;
  loop_ = 0;
  iter_ = 0;
  inst_ = loops_.empty() ? 0 : loops_[0].begin;
  refs_done_ = 0;
  finished_ = loops_.empty() || program_->outer_reps == 0;
}

}  // namespace re::workloads
