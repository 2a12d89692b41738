#include "verify/reference_cursor.hh"

#include <algorithm>
#include <variant>

namespace re::verify {

namespace {

using workloads::mix64;
using Wide = __int128;
using UWide = unsigned __int128;

std::uint64_t instruction_seed(const workloads::Program& program, Pc pc) {
  return mix64(program.seed ^ (pc * 0x9e3779b97f4a7c15ULL));
}

/// base + (offset mod footprint), Euclidean so negative offsets walk
/// backwards; a zero footprint pins the base.
Addr wrap(Addr base, Wide offset, std::uint64_t footprint) {
  if (footprint == 0) return base;
  Wide m = offset % static_cast<Wide>(footprint);
  if (m < 0) m += static_cast<Wide>(footprint);
  return base + static_cast<Addr>(m);
}

Wide times(std::int64_t stride, std::uint64_t i) {
  return static_cast<Wide>(stride) * static_cast<Wide>(i);
}

struct Formula {
  ReferencePatternState& state;
  std::uint64_t seed;

  Addr operator()(const workloads::StreamPattern& p) const {
    const std::uint64_t i = state.iteration++;
    return wrap(p.base, times(p.stride, i), p.footprint);
  }

  Addr operator()(const workloads::HotBufferPattern& p) const {
    const std::uint64_t i = state.iteration++;
    return wrap(p.base, times(p.stride, i), p.footprint);
  }

  Addr operator()(const workloads::StridedPattern& p) const {
    const std::uint64_t i = state.iteration++;
    if (p.irregular_ppm > 0 &&
        mix64(seed ^ (i * 0x9e3779b97f4a7c15ULL)) % 1000000 <
            p.irregular_ppm) {
      state.walk_state = mix64(seed ^ i) % (p.footprint ? p.footprint : 1);
    }
    return wrap(p.base + state.walk_state, times(p.stride, i), p.footprint);
  }

  Addr operator()(const workloads::PointerChasePattern& p) const {
    ++state.iteration;
    std::uint64_t x = state.walk_state ^ seed;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    state.walk_state = x;
    const std::uint64_t slots = p.footprint / (p.node_size ? p.node_size : 1);
    if (slots == 0) return p.base;
    return p.base + (x % slots) * p.node_size;
  }

  Addr operator()(const workloads::GatherPattern& p) const {
    const std::uint64_t i = state.iteration++;
    const std::uint64_t slots =
        p.footprint / (p.element_size ? p.element_size : 1);
    if (slots == 0) return p.base;
    return p.base + (mix64(seed ^ i) % slots) * p.element_size;
  }

  Addr operator()(const workloads::ShortStreamPattern& p) const {
    const std::uint64_t i = state.iteration++;
    const std::uint64_t len = std::max<std::uint64_t>(1, p.stream_len);
    const std::uint64_t run = i / len;
    const std::uint64_t pos = i % len;
    const std::uint64_t origin =
        p.footprint ? mix64(seed ^ (run * 0x2545f4914f6cdd1dULL)) % p.footprint
                    : 0;
    return wrap(p.base + origin, times(p.stride, pos), p.footprint);
  }

  Addr operator()(const workloads::BlockedPattern& p) const {
    const std::uint64_t i = state.iteration++;
    const std::uint64_t stride_mag =
        p.stride < 0 ? 0 - static_cast<std::uint64_t>(p.stride)
                     : static_cast<std::uint64_t>(p.stride);
    const std::uint64_t elems =
        stride_mag ? std::max<std::uint64_t>(1, p.block_bytes / stride_mag)
                   : 1;
    const std::uint64_t pos = i % elems;
    const std::uint64_t sweep = i / elems;
    const std::uint64_t block =
        sweep / std::max<std::uint32_t>(1, p.revisits);
    const Addr block_off =
        p.footprint ? static_cast<Addr>(static_cast<UWide>(block) *
                                        p.block_bytes % p.footprint)
                    : 0;
    return wrap(p.base + block_off, times(p.stride, pos), p.block_bytes);
  }
};

}  // namespace

Addr reference_address(const workloads::AccessPattern& pattern,
                       ReferencePatternState& state, std::uint64_t seed) {
  return std::visit(Formula{state, seed}, pattern);
}

ReferenceCursor::ReferenceCursor(const workloads::Program& program)
    : program_(&program) {
  for (const workloads::Loop& loop : program.loops) {
    has_work_ = has_work_ || (!loop.body.empty() && loop.iterations > 0);
  }
  reset();
}

std::optional<workloads::AccessEvent> ReferenceCursor::next() {
  const auto& loops = program_->loops;
  while (true) {
    if (!has_work_ || rep_ >= program_->outer_reps) {
      reset();
      return std::nullopt;
    }
    if (loop_ == loops.size()) {
      ++rep_;
      loop_ = 0;
      continue;
    }
    const workloads::Loop& loop = loops[loop_];
    if (iter_ >= loop.iterations || loop.body.empty()) {
      ++loop_;
      iter_ = 0;
      continue;
    }
    const workloads::StaticInst& inst = loop.body[inst_];
    const Addr addr =
        reference_address(inst.pattern, state_[loop_][inst_],
                          instruction_seed(*program_, inst.pc));
    if (++inst_ == loop.body.size()) {
      inst_ = 0;
      ++iter_;
    }
    return workloads::AccessEvent{&inst, addr};
  }
}

void ReferenceCursor::reset() {
  state_.clear();
  for (const workloads::Loop& loop : program_->loops) {
    std::vector<ReferencePatternState> states(loop.body.size());
    for (std::size_t i = 0; i < loop.body.size(); ++i) {
      states[i].walk_state = instruction_seed(*program_, loop.body[i].pc) | 1;
    }
    state_.push_back(std::move(states));
  }
  rep_ = 0;
  loop_ = 0;
  iter_ = 0;
  inst_ = 0;
}

}  // namespace re::verify
