// Trace-program intermediate representation.
//
// A workload is modeled as a loop-nest program over *static* memory
// instructions. Each static instruction owns a deterministic address
// generator (its "access pattern"). This IR serves three purposes:
//
//  1. The simulator executes it (sim::CoreRunner) to produce timing.
//  2. The profiler iterates it functionally to feed the sampler.
//  3. The optimizer *rewrites* it by attaching prefetch operations to
//     individual static instructions — the simulator analogue of the paper's
//     assembler/binary-level `prefetch[nta] distance(base)` insertion.
//
// Patterns are deterministic functions of (per-instruction seed, iteration
// state), so re-running a program always produces the identical access
// stream, and "input sets" are just different generator parameters.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "support/types.hh"

namespace re::workloads {

// ---------------------------------------------------------------------------
// Access patterns
// ---------------------------------------------------------------------------

/// Sequential streaming: addr = base + (stride * i) % footprint.
/// Classic libquantum/lbm behaviour; perfectly stride-prefetchable.
struct StreamPattern {
  Addr base = 0;
  std::int64_t stride = 8;
  std::uint64_t footprint = 1 << 20;  // bytes; wraps around
};

/// Mostly-regular stride with occasional pseudo-random jumps.
/// `irregular_ppm` accesses per million restart the stream at a new origin.
struct StridedPattern {
  Addr base = 0;
  std::int64_t stride = 8;
  std::uint64_t footprint = 1 << 20;
  std::uint32_t irregular_ppm = 0;  // jumps per million accesses
};

/// Pointer chasing: each address is a pseudo-random function of the previous
/// one (xorshift walk over the footprint). No regular stride exists, which is
/// exactly what makes mcf/omnetpp hard to prefetch.
struct PointerChasePattern {
  Addr base = 0;
  std::uint64_t footprint = 1 << 20;
  std::uint32_t node_size = 64;  // alignment of node addresses
};

/// Uniformly pseudo-random accesses over the footprint (hash of the
/// iteration index). Models gather-style sparse access.
struct GatherPattern {
  Addr base = 0;
  std::uint64_t footprint = 1 << 20;
  std::uint32_t element_size = 8;
};

/// Many short streams: runs of `stream_len` strided accesses, each run
/// starting at a pseudo-random origin. Models cigar's short-lived strided
/// accesses that trick hardware stream prefetchers into overfetching.
struct ShortStreamPattern {
  Addr base = 0;
  std::int64_t stride = 8;
  std::uint32_t stream_len = 16;
  std::uint64_t footprint = 1 << 22;
};

/// Strided sweep over a small working set that fits in some cache level:
/// addr = base + (stride * i) % footprint, identical to StreamPattern but
/// kept distinct so workloads can tag "hot" structures for readability.
struct HotBufferPattern {
  Addr base = 0;
  std::int64_t stride = 8;
  std::uint64_t footprint = 32 << 10;
};

/// Tiled (cache-blocked) traversal: the footprint is split into consecutive
/// blocks of `block_bytes`; each block is swept `revisits` times in
/// stride-sized steps before the walk advances to the next block (wrapping
/// at the footprint). Models blocked kernels whose data reuse lives at the
/// block size, not the footprint — the classic reason an MRC has a knee.
struct BlockedPattern {
  Addr base = 0;
  std::int64_t stride = 64;
  std::uint64_t block_bytes = 16 << 10;
  std::uint64_t footprint = 1 << 20;
  std::uint32_t revisits = 4;  // sweeps per block before advancing
};

/// One static instruction's address pattern. AddressGenerator
/// (workloads/generator.hh) compiles it into the stream of addresses.
using AccessPattern =
    std::variant<StreamPattern, StridedPattern, PointerChasePattern,
                 GatherPattern, ShortStreamPattern, HotBufferPattern,
                 BlockedPattern>;

/// True if the pattern has a dominant compile-time-ish stride (used only by
/// tests to cross-check the stride analysis, never by the optimizer).
bool pattern_is_regular(const AccessPattern& pattern);

/// Bytes touched by the pattern (footprint), for documentation/stats.
std::uint64_t pattern_footprint(const AccessPattern& pattern);

// ---------------------------------------------------------------------------
// Program structure
// ---------------------------------------------------------------------------

/// x86 prefetch hint levels. T0 fills every level (the paper's ordinary
/// "prefetch"); T1/T2 fill from the L2/LLC down, leaving upper levels
/// untouched; NTA fills the L1 only and never pollutes the shared levels
/// (the paper's PREFETCHNTA cache bypassing).
enum class PrefetchHint : std::uint8_t { T0, T1, T2, NTA };

/// A software prefetch attached to a static load by the optimizer.
/// Semantics: after the load executes with address A, issue
/// `prefetch{t0,t1,t2,nta} (A + distance_bytes)` at a cost of one cycle.
struct PrefetchOp {
  std::int64_t distance_bytes = 0;
  PrefetchHint hint = PrefetchHint::T0;

  bool non_temporal() const { return hint == PrefetchHint::NTA; }
};

/// One static memory instruction inside a loop body.
struct StaticInst {
  Pc pc = 0;
  AccessPattern pattern;
  /// Non-memory work (cycles) the core performs after this access; models
  /// the compute portion of the loop body.
  std::uint32_t compute_cycles = 0;
  /// True for loads on a serial dependence chain (pointer chasing): the
  /// core cannot overlap their miss latency with other work.
  bool serial_dependent = false;
  /// True for stores: write-allocate, marks the line dirty; dirty evictions
  /// cost writeback bandwidth on the shared channel.
  bool is_store = false;
  /// Filled in by the prefetch-insertion pass; absent in original programs.
  std::optional<PrefetchOp> prefetch;
};

/// A loop: its body executes `iterations` times, instructions in order.
struct Loop {
  std::vector<StaticInst> body;
  std::uint64_t iterations = 0;
};

/// A whole workload: loops run in sequence; the sequence repeats
/// `outer_reps` times (modeling an outer timestep/phase loop).
struct Program {
  std::string name;
  std::vector<Loop> loops;
  std::uint64_t outer_reps = 1;
  /// Seed decorrelating this program's pseudo-random patterns.
  std::uint64_t seed = 1;

  /// Total dynamic memory references of one full run.
  std::uint64_t total_references() const;

  /// Total dynamic executions of the given static instruction per full run.
  std::uint64_t executions_of(Pc pc) const;

  /// Pointer to the instruction with this PC (nullptr if absent).
  const StaticInst* find(Pc pc) const;
  StaticInst* find(Pc pc);

  /// Number of static memory instructions.
  std::size_t static_instruction_count() const;
};

/// Deterministic 64-bit mix hash used by the pattern generators.
constexpr std::uint64_t mix64(std::uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  x ^= x >> 33;
  return x;
}

}  // namespace re::workloads
