#include "workloads/generator.hh"

#include <algorithm>
#include <type_traits>
#include <variant>

namespace re::workloads {

namespace {

std::uint64_t magnitude(std::int64_t stride) {
  // Negate in unsigned arithmetic so INT64_MIN does not overflow.
  return stride < 0 ? 0 - static_cast<std::uint64_t>(stride)
                    : static_cast<std::uint64_t>(stride);
}

/// Euclidean `stride mod m` (0 for m == 0): negative strides walk
/// backwards through the footprint.
std::uint64_t euclid_mod(std::int64_t stride, std::uint64_t m) {
  if (m == 0) return 0;
  const std::uint64_t r = magnitude(stride) % m;
  return stride < 0 && r != 0 ? m - r : r;
}

bool is_pow2(std::uint64_t x) { return x != 0 && (x & (x - 1)) == 0; }

}  // namespace

AddressGenerator::AddressGenerator(const AccessPattern& pattern,
                                   std::uint64_t seed)
    : seed_(seed) {
  const auto linear = [this](std::int64_t stride, std::uint64_t modulus) {
    modulus_ = modulus;
    step_ = euclid_mod(stride, modulus);
    room_ = modulus - step_;
  };
  const auto slots = [this](std::uint64_t footprint, std::uint64_t size) {
    slots_ = footprint / (size ? size : 1);
    scale_ = size;
    pow2_ = slots_ == 0 || is_pow2(slots_);
    mask_ = slots_ == 0 ? 0 : slots_ - 1;
  };
  std::visit(
      [&](const auto& p) {
        using T = std::decay_t<decltype(p)>;
        base_ = p.base;
        if constexpr (std::is_same_v<T, StreamPattern> ||
                      std::is_same_v<T, HotBufferPattern>) {
          kind_ = Kind::kLinear;
          linear(p.stride, p.footprint);
        } else if constexpr (std::is_same_v<T, StridedPattern>) {
          kind_ = Kind::kStrided;
          linear(p.stride, p.footprint);
          ppm_ = p.irregular_ppm;
        } else if constexpr (std::is_same_v<T, PointerChasePattern>) {
          kind_ = Kind::kChase;
          slots(p.footprint, p.node_size);
        } else if constexpr (std::is_same_v<T, GatherPattern>) {
          kind_ = Kind::kGather;
          slots(p.footprint, p.element_size);
        } else if constexpr (std::is_same_v<T, ShortStreamPattern>) {
          kind_ = Kind::kShortStream;
          linear(p.stride, p.footprint);
          period_ = std::max<std::uint64_t>(1, p.stream_len);
        } else {
          static_assert(std::is_same_v<T, BlockedPattern>);
          kind_ = Kind::kBlocked;
          // Offsets wrap at the block; the block origin wraps at the
          // footprint.
          linear(p.stride, p.block_bytes);
          const std::uint64_t stride_mag = magnitude(p.stride);
          period_ = stride_mag ? std::max<std::uint64_t>(
                                     1, p.block_bytes / stride_mag)
                               : 1;
          revisits_ = std::max<std::uint32_t>(1, p.revisits);
          block_step_ = p.footprint ? p.block_bytes % p.footprint : 0;
          block_room_ = p.footprint - block_step_;
        }
      },
      pattern);
  reset();
}

void AddressGenerator::reset() {
  i_ = 0;
  walk_ = seed_ | 1;
  offset_ = 0;
  pos_ = 0;
  run_ = 0;
  origin_ = kind_ == Kind::kShortStream ? run_origin(0) : 0;
}

}  // namespace re::workloads
