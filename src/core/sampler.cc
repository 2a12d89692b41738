#include "core/sampler.hh"

#include <algorithm>

#include "core/trace_replay.hh"

namespace re::core {

Sampler::Sampler(const SamplerConfig& config)
    : config_(config), rng_(config.seed) {
  next_sample_at_ = rng_.geometric_gap(
      static_cast<double>(config_.sample_period));
  intern(0);  // the memo's initial slots all name PC 0
}

std::uint32_t Sampler::intern(Pc pc) {
  const auto [it, inserted] =
      pc_index_.emplace(pc, static_cast<std::uint32_t>(pcs_.size()));
  if (inserted) pcs_.push_back(PcState{pc});
  return it->second;
}

void Sampler::observe(Pc pc, Addr addr) {
  ++ref_count_;
  const Addr line = line_of(addr);

  // Watchpoint on the sampled cache line: first re-access closes the
  // reuse sample.
  if (line_filter_[filter_slot(line)] != 0) close_line_watch(line, pc);

  // Breakpoint on the sampled instruction: next execution closes the
  // stride/recurrence sample.
  const std::uint32_t index = index_of(pc);
  PcState& state = pcs_[index];
  if (state.watched) {
    profile_.stride_samples.push_back(StrideSample{
        pc,
        static_cast<std::int64_t>(addr) -
            static_cast<std::int64_t>(state.last_addr),
        ref_count_ - state.start_ref - 1, ref_count_ - window_start_ref_});
    state.watched = false;
  }

  if (state.executions++ == 0) {
    window_pcs_.push_back(index);
  }

  if (ref_count_ >= next_sample_at_) {
    // This reference is the randomly selected sample point: arm a
    // watchpoint on its line and a breakpoint on its instruction (unless
    // either is already being monitored).
    if (line_watches_.emplace(line, LineWatch{pc, ref_count_}).second) {
      ++line_filter_[filter_slot(line)];
    }
    if (!state.watched) {
      state.watched = true;
      state.last_addr = addr;
      state.start_ref = ref_count_;
    }
    next_sample_at_ =
        ref_count_ +
        rng_.geometric_gap(static_cast<double>(config_.sample_period));
  }
}

void Sampler::close_line_watch(Addr line, Pc pc) {
  const auto it = line_watches_.find(line);
  if (it == line_watches_.end()) return;
  profile_.reuse_samples.push_back(
      ReuseSample{it->second.first_pc, pc,
                  ref_count_ - it->second.start_ref - 1,
                  ref_count_ - window_start_ref_});
  erase_line_watch(it);
}

Sampler::LineWatches::iterator Sampler::erase_line_watch(
    LineWatches::iterator it) {
  --line_filter_[filter_slot(it->first)];
  return line_watches_.erase(it);
}

void Sampler::clear_watches() {
  line_watches_.clear();
  std::fill(line_filter_.begin(), line_filter_.end(), 0);
  for (PcState& state : pcs_) state.watched = false;
}

Profile Sampler::take_window() {
  for (const std::uint32_t index : window_pcs_) {
    PcState& state = pcs_[index];
    profile_.pc_execution_counts.emplace(state.pc, state.executions);
    state.executions = 0;
  }
  window_pcs_.clear();
  profile_.total_references = ref_count_ - window_start_ref_;
  profile_.sample_period = config_.sample_period;
  Profile out = std::move(profile_);
  profile_ = Profile{};
  return out;
}

Profile Sampler::finish() {
  profile_.dangling_reuse_samples += line_watches_.size();
  for (const auto& [line, watch] : line_watches_) {
    (void)line;
    ++profile_.dangling_by_pc[watch.first_pc];
  }
  clear_watches();

  Profile out = take_window();
  ref_count_ = 0;
  window_start_ref_ = 0;
  // Re-arm the sampling clock: without this a reused sampler would start
  // its next window with the previous window's residual gap (offset by the
  // old ref count), displacing every sample point.
  next_sample_at_ =
      rng_.geometric_gap(static_cast<double>(config_.sample_period));
  return out;
}

Profile Sampler::harvest(std::uint64_t watch_timeout_refs) {
  for (auto it = line_watches_.begin(); it != line_watches_.end();) {
    if (ref_count_ - it->second.start_ref >= watch_timeout_refs) {
      ++profile_.dangling_reuse_samples;
      ++profile_.dangling_by_pc[it->second.first_pc];
      it = erase_line_watch(it);
    } else {
      ++it;
    }
  }
  for (PcState& state : pcs_) {
    // A stride breakpoint whose PC was not re-executed for a whole
    // timeout carries no closable sample; drop it silently.
    if (state.watched && ref_count_ - state.start_ref >= watch_timeout_refs) {
      state.watched = false;
    }
  }
  Profile out = take_window();
  window_start_ref_ = ref_count_;
  // ref clock, open watches and the sampling gap all continue untouched.
  return out;
}

void Sampler::flush_open_watches(Profile* into) {
  if (into != nullptr) {
    into->dangling_reuse_samples += line_watches_.size();
    for (const auto& [line, watch] : line_watches_) {
      (void)line;
      ++into->dangling_by_pc[watch.first_pc];
    }
  }
  clear_watches();
}

Profile profile_program(const workloads::Program& program,
                        const SamplerConfig& config, std::uint64_t max_refs) {
  Sampler sampler(config);
  replay_program(
      program, [&](Pc pc, Addr addr) { sampler.observe(pc, addr); },
      max_refs);
  return sampler.finish();
}

}  // namespace re::core
