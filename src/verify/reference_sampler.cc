#include "verify/reference_sampler.hh"

namespace re::verify {

ReferenceSampler::ReferenceSampler(const core::SamplerConfig& config)
    : config_(config), rng_(config.seed) {
  next_sample_at_ = rng_.geometric_gap(
      static_cast<double>(config_.sample_period));
}

void ReferenceSampler::observe(Pc pc, Addr addr) {
  ++ref_count_;
  const Addr line = line_of(addr);

  // Watchpoint on the sampled cache line: first re-access closes the
  // reuse sample.
  if (!line_watches_.empty()) {
    auto it = line_watches_.find(line);
    if (it != line_watches_.end()) {
      profile_.reuse_samples.push_back(
          core::ReuseSample{it->second.first_pc, pc,
                            ref_count_ - it->second.start_ref - 1,
                            ref_count_ - window_start_ref_});
      line_watches_.erase(it);
    }
  }

  // Breakpoint on the sampled instruction: next execution closes the
  // stride/recurrence sample.
  if (!pc_watches_.empty()) {
    auto it = pc_watches_.find(pc);
    if (it != pc_watches_.end()) {
      profile_.stride_samples.push_back(core::StrideSample{
          pc,
          static_cast<std::int64_t>(addr) -
              static_cast<std::int64_t>(it->second.last_addr),
          ref_count_ - it->second.start_ref - 1,
          ref_count_ - window_start_ref_});
      pc_watches_.erase(it);
    }
  }

  ++profile_.pc_execution_counts[pc];

  if (ref_count_ >= next_sample_at_) {
    // This reference is the randomly selected sample point: arm a
    // watchpoint on its line and a breakpoint on its instruction (unless
    // either is already being monitored).
    line_watches_.emplace(line, LineWatch{pc, ref_count_});
    pc_watches_.emplace(pc, PcWatch{addr, ref_count_});
    next_sample_at_ =
        ref_count_ +
        rng_.geometric_gap(static_cast<double>(config_.sample_period));
  }
}

core::Profile ReferenceSampler::finish() {
  profile_.dangling_reuse_samples += line_watches_.size();
  for (const auto& [line, watch] : line_watches_) {
    (void)line;
    ++profile_.dangling_by_pc[watch.first_pc];
  }
  profile_.total_references = ref_count_ - window_start_ref_;
  profile_.sample_period = config_.sample_period;
  line_watches_.clear();
  pc_watches_.clear();

  core::Profile out = std::move(profile_);
  profile_ = core::Profile{};
  ref_count_ = 0;
  window_start_ref_ = 0;
  // Re-arm the sampling clock so a reused sampler's next window does not
  // inherit the previous window's residual gap.
  next_sample_at_ =
      rng_.geometric_gap(static_cast<double>(config_.sample_period));
  return out;
}

core::Profile ReferenceSampler::harvest(std::uint64_t watch_timeout_refs) {
  for (auto it = line_watches_.begin(); it != line_watches_.end();) {
    if (ref_count_ - it->second.start_ref >= watch_timeout_refs) {
      ++profile_.dangling_reuse_samples;
      ++profile_.dangling_by_pc[it->second.first_pc];
      it = line_watches_.erase(it);
    } else {
      ++it;
    }
  }
  for (auto it = pc_watches_.begin(); it != pc_watches_.end();) {
    if (ref_count_ - it->second.start_ref >= watch_timeout_refs) {
      // A stride breakpoint whose PC was not re-executed for a whole
      // timeout carries no closable sample; drop it silently.
      it = pc_watches_.erase(it);
    } else {
      ++it;
    }
  }
  profile_.total_references = ref_count_ - window_start_ref_;
  profile_.sample_period = config_.sample_period;

  core::Profile out = std::move(profile_);
  profile_ = core::Profile{};
  window_start_ref_ = ref_count_;
  return out;
}

void ReferenceSampler::flush_open_watches(core::Profile* into) {
  if (into != nullptr) {
    into->dangling_reuse_samples += line_watches_.size();
    for (const auto& [line, watch] : line_watches_) {
      (void)line;
      ++into->dangling_by_pc[watch.first_pc];
    }
  }
  line_watches_.clear();
  pc_watches_.clear();
}

}  // namespace re::verify
