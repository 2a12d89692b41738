// Data-reuse and stride sampler (paper Section III).
//
// The real system samples a native run with hardware watchpoints and
// performance counters (Sembrant et al., CGO'12) at 1 in 100,000 references
// for <30 % overhead. Here the sampler hooks the simulated access stream
// instead; the produced (reuse distance, stride, recurrence) tuples are
// identical in kind. Because our workload models execute ~10^6 references
// instead of SPEC's ~10^11, the default period is scaled so the *number of
// samples per static instruction* lands in the same regime as the paper.
//
// The per-reference cost is what makes the premise (near-free sampling)
// hold, so a reference with no open watch touches no hash table:
//  - Execution counts are dense. Each PC is interned once, to an index
//    into a per-PC state array; a direct-mapped memo in front of the
//    intern table turns the per-reference lookup into one multiply, one
//    compare and one increment. A window's counts are inserted into
//    `Profile::pc_execution_counts` in first-execution order, so the map's
//    iteration order, which downstream analyses walk, depends only on the
//    window's reference stream.
//  - A stride breakpoint lives in its PC's dense state, so testing for one
//    is a flag read on the state the count already loaded.
//  - Line watchpoints stay in a hash map, since finish() and harvest()
//    walk it in its own order, but a counting filter sits in front of it:
//    per hash slot, the number of open watches whose line maps there. A
//    reference whose slot counts zero has no watch and skips the lookup.
#pragma once

#include <array>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "core/profile.hh"
#include "support/rng.hh"
#include "support/types.hh"
#include "workloads/program.hh"

namespace re::core {

struct SamplerConfig {
  /// Mean references between samples (geometrically distributed, so sample
  /// points are memoryless like the hardware framework's).
  std::uint64_t sample_period = 1000;
  std::uint64_t seed = 42;
};

class Sampler {
 public:
  explicit Sampler(const SamplerConfig& config);

  /// Feed one memory reference, in program order.
  void observe(Pc pc, Addr addr);

  /// Flush outstanding watchpoints (dangling = infinite reuse distance) and
  /// return the profile. The sampler can be reused afterwards.
  Profile finish();

  /// Emit the current window's profile WITHOUT resetting the reuse clock:
  /// open watchpoints survive, so a hot reuse that happens to straddle the
  /// window boundary closes later at its true distance instead of becoming
  /// a phantom cold miss. Watches older than `watch_timeout_refs` flush as
  /// dangling into this window — streaming lines are never re-touched, and
  /// without the timeout their cold-miss evidence would never materialize.
  /// Sample positions (`at_ref`) are window-relative; distances and
  /// recurrences are true global differences, so they may exceed the window
  /// length (the profile validator bounds them against the accumulated
  /// profile they are merged into).
  Profile harvest(std::uint64_t watch_timeout_refs);

  /// Flush every open watchpoint now: line watches become dangling counts
  /// in `*into` (pass nullptr to drop them), stride breakpoints are
  /// dropped. Used at phase switches, where an open watch belongs to the
  /// regime that armed it, not the one that is starting.
  void flush_open_watches(Profile* into);

 private:
  struct LineWatch {
    Pc first_pc = 0;
    std::uint64_t start_ref = 0;
  };
  /// Everything kept per interned PC.
  struct PcState {
    Pc pc = 0;
    bool watched = false;  // a stride breakpoint is open
    std::uint64_t executions = 0;  // in the current window
    Addr last_addr = 0;            // breakpoint: the armed execution's
    std::uint64_t start_ref = 0;   // address and reference number
  };
  using LineWatches = std::unordered_map<Addr, LineWatch>;
  struct PcMemoSlot {
    Pc pc = 0;
    std::uint32_t index = 0;
  };
  static constexpr int kPcMemoBits = 8;
  static constexpr int kLineFilterBits = 12;

  static std::size_t memo_slot(Pc pc) {
    return (pc * 0x9E3779B1u) >> (32 - kPcMemoBits);
  }
  static std::size_t filter_slot(Addr line) {
    return (line * 0x9E3779B97F4A7C15ull) >> (64 - kLineFilterBits);
  }

  /// The index of `pc`'s state, interning it on first sight.
  std::uint32_t index_of(Pc pc) {
    PcMemoSlot& slot = pc_memo_[memo_slot(pc)];
    if (slot.pc != pc) [[unlikely]] {
      slot = PcMemoSlot{pc, intern(pc)};
    }
    return slot.index;
  }
  std::uint32_t intern(Pc pc);

  /// Close the watch on `line`, if one is open (filter slot non-zero).
  void close_line_watch(Addr line, Pc pc);
  LineWatches::iterator erase_line_watch(LineWatches::iterator it);
  void clear_watches();
  /// Move the window's execution counts and totals into profile_ and hand
  /// it out, leaving an empty profile.
  Profile take_window();

  SamplerConfig config_;
  Rng rng_;
  Profile profile_;
  std::uint64_t ref_count_ = 0;
  std::uint64_t window_start_ref_ = 0;  // harvest() rebases positions here
  std::uint64_t next_sample_at_ = 0;
  LineWatches line_watches_;
  // Open line watches per filter_slot().
  std::vector<std::uint32_t> line_filter_ =
      std::vector<std::uint32_t>(std::size_t{1} << kLineFilterBits);
  // Interned PCs: state by index, the index of each PC, a memo of recent
  // lookups and the indices counted this window in first-execution order.
  // PC 0 is interned at construction so every memo slot starts valid.
  std::vector<PcState> pcs_;
  std::unordered_map<Pc, std::uint32_t> pc_index_;
  std::array<PcMemoSlot, std::size_t{1} << kPcMemoBits> pc_memo_{};
  std::vector<std::uint32_t> window_pcs_;
};

/// Profile one full run of `program` (optionally capped at `max_refs`).
Profile profile_program(const workloads::Program& program,
                        const SamplerConfig& config,
                        std::uint64_t max_refs = ~std::uint64_t{0});

}  // namespace re::core
