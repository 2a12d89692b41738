// Text format for trace programs ("assembler level" representation).
//
// The paper's framework operates on assembler output so optimizations apply
// without source access. The analogue here is a small text DSL: any
// workload can be dumped to text, edited, re-parsed and optimized; the
// optimizer's output can be printed as an annotated listing showing the
// inserted `prefetch{t0,nta} distance(base)` operations.
//
//   # stream benchmark
//   program demo seed=42 reps=4
//   loop 22000 {
//     pc1: stream base=0x4000000 stride=16 footprint=768K compute=2
//     pc2: chase  base=0x8000000 footprint=640K node=64 compute=3 serial
//     pc3: gather base=0xC000000 footprint=2K element=8 compute=2
//   }
//
// Pattern forms:
//   stream      base stride footprint
//   strided     base stride footprint irregular(=ppm)
//   chase       base footprint node
//   gather      base footprint element
//   shortstream base stride len footprint
//   hot         base stride footprint
//   blocked     base stride block footprint revisits
// Optional per-instruction suffixes: `serial`, `store`, and an attached
// prefetch
//   `; prefetcht0 +256` / `; prefetchnta -128`.
// Sizes accept K/M suffixes; addresses accept 0x hex.
//
// Domain checks (DslParseError, never a truncated or wrapped value):
// footprint, node, element and len must be positive; irregular, node,
// element, len, revisits and compute must fit in 32 bits; the program's
// reference count (reps x loop iterations x body size) must not exceed
// kMaxProgramReferences.
//
// The reference budget does two jobs. It bounds the work of any parsed
// program (`repf run` on it ends), and it bounds every pattern's iteration
// index i below 2^32. The compiled generators (generator.hh) never
// multiply: each linear offset advances by (stride mod footprint) with one
// conditional subtract, which equals (stride x i) mod footprint exactly,
// with no int64 overflow in either the counters or the offsets, for every
// i the budget admits.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>

#include "workloads/program.hh"

namespace re::workloads {

/// Most dynamic references one parsed program may make in a full run:
/// 2^32, over 4000x the suite's largest model (~10^6 references).
inline constexpr std::uint64_t kMaxProgramReferences = std::uint64_t{1}
                                                        << 32;

/// Parse error with 1-based line number context.
class DslParseError : public std::runtime_error {
 public:
  DslParseError(int line, const std::string& message)
      : std::runtime_error("line " + std::to_string(line) + ": " + message),
        line_(line) {}
  int line() const { return line_; }

 private:
  int line_;
};

/// Parse a program from DSL text. Throws DslParseError on malformed input.
Program parse_program(const std::string& text);

/// Render a program as DSL text; parse_program(print_program(p)) is
/// structurally identical to p (round-trip property).
std::string print_program(const Program& program);

}  // namespace re::workloads
