// Naive reference model of core::Sampler: open watchpoints and per-PC
// execution counts kept in hash maps, probed on every reference.
//
// Production counts executions in a dense per-PC array and filters the
// watch probes (core/sampler.hh). This model keeps the plain map-based
// sampler it replaced — every reference bumps `pc_execution_counts[pc]`
// and looks its line and PC up in the watch maps — so a differential test
// can hold every reuse and stride sample, dangling count and execution
// count of the production sampler to it.
#pragma once

#include <cstdint>
#include <unordered_map>

#include "core/profile.hh"
#include "core/sampler.hh"
#include "support/rng.hh"
#include "support/types.hh"

namespace re::verify {

class ReferenceSampler {
 public:
  explicit ReferenceSampler(const core::SamplerConfig& config);

  /// Same contracts as the core::Sampler members of the same name.
  void observe(Pc pc, Addr addr);
  core::Profile finish();
  core::Profile harvest(std::uint64_t watch_timeout_refs);
  void flush_open_watches(core::Profile* into);

 private:
  struct LineWatch {
    Pc first_pc = 0;
    std::uint64_t start_ref = 0;
  };
  struct PcWatch {
    Addr last_addr = 0;
    std::uint64_t start_ref = 0;
  };

  core::SamplerConfig config_;
  Rng rng_;
  core::Profile profile_;
  std::uint64_t ref_count_ = 0;
  std::uint64_t window_start_ref_ = 0;
  std::uint64_t next_sample_at_ = 0;
  std::unordered_map<Addr, LineWatch> line_watches_;
  std::unordered_map<Pc, PcWatch> pc_watches_;
};

}  // namespace re::verify
