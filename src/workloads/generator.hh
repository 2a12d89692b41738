// Compiled address generators: the one production implementation of the
// access patterns declared in program.hh.
//
// ProgramCursor compiles each StaticInst's AccessPattern once, at
// construction, into a flat AddressGenerator record: the pattern kind, its
// base, the stride reduced modulo the footprint, the slot count with its
// power-of-two mask, the per-instruction seed and the iteration state. Each
// reference then advances the record through one switch with no division:
//   - linear offsets ((stride x i) mod footprint) take one add and one
//     conditional subtract;
//   - ShortStream and Blocked keep position and run counters instead of
//     dividing the iteration index;
//   - Gather and Chase reduce their hash with a mask when the slot count is
//     a power of two.
// verify/reference_cursor.hh keeps the naive per-pattern formulas; the
// cursor differential test holds this generator to them.
#pragma once

#include <cstdint>

#include "support/types.hh"
#include "workloads/program.hh"

namespace re::workloads {

class AddressGenerator {
 public:
  /// Compile `pattern`; `seed` decorrelates instructions that share a
  /// pattern type and seeds the walk state (`seed | 1`). A zero ShortStream
  /// run length or Blocked revisit count counts as one.
  AddressGenerator(const AccessPattern& pattern, std::uint64_t seed);

  /// The next address of the stream.
  Addr next() {
    switch (kind_) {
      case Kind::kLinear: {
        const Addr addr = base_ + offset_;
        offset_ = advance(offset_, step_, room_);
        return addr;
      }
      case Kind::kStrided: {
        const std::uint64_t i = i_++;
        if (ppm_ != 0 &&
            mix64(seed_ ^ (i * 0x9e3779b97f4a7c15ULL)) % 1000000 < ppm_) {
          // Restart the stream at a pseudo-random origin in the footprint.
          walk_ = modulus_ ? mix64(seed_ ^ i) % modulus_ : 0;
        }
        const Addr addr = base_ + walk_ + offset_;
        offset_ = advance(offset_, step_, room_);
        return addr;
      }
      case Kind::kChase: {
        std::uint64_t x = walk_ ^ seed_;
        // xorshift64 walk; every step lands on a node-aligned slot.
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        walk_ = x;
        return base_ + slot(x) * scale_;
      }
      case Kind::kGather:
        return base_ + slot(mix64(seed_ ^ i_++)) * scale_;
      case Kind::kShortStream: {
        const Addr addr = base_ + origin_ + offset_;
        if (++pos_ == period_) {
          pos_ = 0;
          offset_ = 0;
          origin_ = run_origin(++run_);
        } else {
          offset_ = advance(offset_, step_, room_);
        }
        return addr;
      }
      case Kind::kBlocked: {
        const Addr addr = base_ + origin_ + offset_;
        if (++pos_ == period_) {
          pos_ = 0;
          offset_ = 0;
          if (++run_ == revisits_) {
            run_ = 0;
            origin_ = advance(origin_, block_step_, block_room_);
          }
        } else {
          offset_ = advance(offset_, step_, room_);
        }
        return addr;
      }
    }
    return base_;
  }

  /// Rewind to the first address (fresh iteration state).
  void reset();

 private:
  enum class Kind : std::uint8_t {
    kLinear,  // Stream and HotBuffer
    kStrided,
    kChase,
    kGather,
    kShortStream,
    kBlocked,
  };

  /// (offset + step) mod m for offset, step < m, where room = m - step:
  /// one compare and one add or subtract, never an overflow.
  static std::uint64_t advance(std::uint64_t offset, std::uint64_t step,
                               std::uint64_t room) {
    return offset >= room ? offset - room : offset + step;
  }

  /// `hash` reduced to a slot index (mask when the count is a power of
  /// two; a zero slot count compiles to mask 0, i.e. always slot 0).
  std::uint64_t slot(std::uint64_t hash) const {
    return pow2_ ? hash & mask_ : hash % slots_;
  }

  /// Origin of ShortStream run `run`.
  std::uint64_t run_origin(std::uint64_t run) const {
    return modulus_ ? mix64(seed_ ^ (run * 0x2545f4914f6cdd1dULL)) % modulus_
                    : 0;
  }

  // Compiled once.
  Kind kind_ = Kind::kLinear;
  bool pow2_ = true;
  std::uint32_t ppm_ = 0;          // Strided jumps per million
  Addr base_ = 0;
  std::uint64_t seed_ = 0;
  std::uint64_t modulus_ = 0;      // wrap of offset_: footprint (Blocked: block)
  std::uint64_t step_ = 0;         // stride mod modulus_ (Euclidean)
  std::uint64_t room_ = 0;         // modulus_ - step_
  std::uint64_t slots_ = 0;        // Chase nodes / Gather elements
  std::uint64_t mask_ = 0;         // slots_ - 1 when pow2_
  std::uint64_t scale_ = 0;        // node or element size in bytes
  std::uint64_t period_ = 1;       // ShortStream run length / Blocked sweep
  std::uint64_t revisits_ = 1;     // Blocked sweeps per block
  std::uint64_t block_step_ = 0;   // Blocked: block size mod footprint
  std::uint64_t block_room_ = 0;   // footprint - block_step_

  // Iteration state.
  std::uint64_t i_ = 0;       // references generated (Strided, Gather)
  std::uint64_t walk_ = 0;    // Chase xorshift state / Strided origin
  std::uint64_t offset_ = 0;  // linear offset, < modulus_
  std::uint64_t pos_ = 0;     // position in the run / sweep
  std::uint64_t run_ = 0;     // ShortStream run / Blocked sweep in block
  std::uint64_t origin_ = 0;  // ShortStream run origin / Blocked block
};

}  // namespace re::workloads
