// Naive reference for workloads::ProgramCursor: the per-pattern address
// formulas evaluated from the iteration index, and a cursor that walks the
// loop nest with plain counters.
//
// Production compiles every pattern into an incremental AddressGenerator
// (workloads/generator.hh). This model keeps the closed forms it replaces
// — e.g. base + (stride x i) mod footprint — evaluated in 128-bit
// arithmetic so no product wraps, and the cursor differential test holds
// the compiled generators to it reference by reference.
#pragma once

#include <cstdint>
#include <optional>

#include "support/types.hh"
#include "workloads/cursor.hh"
#include "workloads/program.hh"

namespace re::verify {

/// Iteration state of one static instruction under the naive formulas.
struct ReferencePatternState {
  std::uint64_t iteration = 0;
  std::uint64_t walk_state = 0;  // PointerChase walk / Strided origin
};

/// Generate the next address of `pattern`, advancing `state`. `seed`
/// decorrelates instructions that share a pattern type.
Addr reference_address(const workloads::AccessPattern& pattern,
                       ReferencePatternState& state, std::uint64_t seed);

/// Walks a program like ProgramCursor (same event order, auto-rewind after
/// the nullopt that ends a run, same per-instruction seeds and initial
/// walk state), generating addresses with reference_address.
class ReferenceCursor {
 public:
  explicit ReferenceCursor(const workloads::Program& program);
  explicit ReferenceCursor(workloads::Program&&) = delete;

  std::optional<workloads::AccessEvent> next();
  void reset();

 private:
  const workloads::Program* program_;
  std::vector<std::vector<ReferencePatternState>> state_;  // [loop][inst]
  bool has_work_ = false;
  std::uint64_t rep_ = 0;
  std::size_t loop_ = 0;
  std::uint64_t iter_ = 0;
  std::size_t inst_ = 0;
};

}  // namespace re::verify
