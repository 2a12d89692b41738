#include "workloads/program.hh"

#include <type_traits>
#include <utility>

namespace re::workloads {

bool pattern_is_regular(const AccessPattern& pattern) {
  return std::visit(
      [](const auto& p) -> bool {
        using T = std::decay_t<decltype(p)>;
        if constexpr (std::is_same_v<T, StreamPattern> ||
                      std::is_same_v<T, HotBufferPattern>) {
          return true;
        } else if constexpr (std::is_same_v<T, StridedPattern>) {
          return p.irregular_ppm < 300000;  // dominant stride survives jumps
        } else if constexpr (std::is_same_v<T, ShortStreamPattern>) {
          return p.stream_len >= 4;  // intra-run stride dominates
        } else {
          return false;
        }
      },
      pattern);
}

std::uint64_t pattern_footprint(const AccessPattern& pattern) {
  return std::visit([](const auto& p) -> std::uint64_t { return p.footprint; },
                    pattern);
}

std::uint64_t Program::total_references() const {
  std::uint64_t refs = 0;
  for (const Loop& loop : loops) {
    refs += loop.iterations * loop.body.size();
  }
  return refs * outer_reps;
}

std::uint64_t Program::executions_of(Pc pc) const {
  std::uint64_t count = 0;
  for (const Loop& loop : loops) {
    for (const StaticInst& inst : loop.body) {
      if (inst.pc == pc) count += loop.iterations;
    }
  }
  return count * outer_reps;
}

const StaticInst* Program::find(Pc pc) const {
  for (const Loop& loop : loops) {
    for (const StaticInst& inst : loop.body) {
      if (inst.pc == pc) return &inst;
    }
  }
  return nullptr;
}

StaticInst* Program::find(Pc pc) {
  return const_cast<StaticInst*>(std::as_const(*this).find(pc));
}

std::size_t Program::static_instruction_count() const {
  std::size_t count = 0;
  for (const Loop& loop : loops) count += loop.body.size();
  return count;
}

}  // namespace re::workloads
