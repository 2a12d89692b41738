// Online adaptive prefetch controller — the closed loop.
//
// The offline framework decides once, before execution; this controller
// decides continuously, during it. Per sampling window (a few thousand
// references) it:
//
//   1. samples reuse/stride behaviour piggybacked on execution
//      (OnlineSampler, reusing core::Sampler),
//   2. fingerprints the window and tracks the current execution phase with
//      hysteresis (PhaseDetector, reusing core::PhaseSignature math),
//   3. on a phase change, hot-swaps the phase's cached plan set (PlanCache)
//      or — for a novel phase with enough accumulated evidence — runs the
//      full StatStack -> MDDLI -> stride -> bypass pipeline on that phase's
//      windowed sub-profile and caches the result,
//   4. refines stale plans in place: when the measured Δ has diverged from
//      the Δ the active plans were sized with (installing prefetches changes
//      the very cycles-per-memop that prefetch distances divide by), or when
//      the phase's profile has grown several-fold past the evidence the
//      plans were built from, the phase is re-optimized and the cache entry
//      replaced,
//   5. lets the BandwidthGovernor demote plans to non-temporal or suppress
//      them outright while the shared DRAM channel is saturated.
//
// Decisions reach the simulated core through a sim::PlanOverlay (see
// sim/adaptive.hh): the program itself is never rewritten, so every swap is
// O(plan set) and takes effect at the next reference.
//
// The controller manages a single core. Multicore mixes attach one
// controller per core (sim::run_mix_adaptive); each watches the shared
// DRAM stats through its own window clock, which is exactly what a per-core
// governor on real hardware would observe.
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <unordered_set>

#include "core/fault_injection.hh"
#include "core/pipeline.hh"
#include "engine/delta.hh"
#include "runtime/governor.hh"
#include "runtime/online_sampler.hh"
#include "runtime/phase_detector.hh"
#include "runtime/plan_cache.hh"
#include "sim/adaptive.hh"
#include "sim/config.hh"
#include "workloads/program.hh"

namespace re::runtime {

struct AdaptiveOptions {
  /// References per adaptation window. Smaller = faster reaction, noisier
  /// fingerprints.
  std::uint64_t window_refs = 8192;
  /// Online sampling config. The default period is denser than the offline
  /// profiler's (100 vs 1000) so a single window still yields enough
  /// samples per hot PC to clear the pipeline's evidence gates.
  core::SamplerConfig sampler{100, 42};
  PhaseDetectorOptions phases;
  PlanCacheOptions cache;
  GovernorOptions governor;
  /// Options for the incremental re-optimization of novel phases.
  core::OptimizerOptions optimizer;
  /// References a phase must accumulate before its first re-optimization
  /// (evidence floor; until then the previous plans stay active).
  std::uint64_t min_reoptimize_refs = 16384;
  /// Cap on accumulated per-phase profile references (bounds memory on
  /// long runs; windows beyond the cap no longer grow the sub-profile).
  std::uint64_t max_phase_profile_refs = 1 << 17;
  /// Windows to let the Δ EWMA settle after a plan install before judging
  /// the install against fresh measurements (0.7^8 leaves ~6 % of the
  /// pre-install regime in the average).
  std::uint64_t refine_settle_windows = 8;
  /// Re-optimize the active phase when measured Δ and the Δ its plans were
  /// computed with differ by this factor in either direction. Prefetch
  /// distances are latency / Δ, so a plan sized on unprefetched windows is
  /// under-distanced the moment it starts working. <= 1 disables.
  double refine_divergence_ratio = 1.2;
  /// Re-optimize when the phase's accumulated profile holds this many times
  /// the references the active plans were built from (early plans come from
  /// sparse evidence and miss cold PCs). Also fires once at the profile
  /// cap. <= 1 disables.
  double refine_growth_factor = 4.0;
  /// Optional engine executor for the per-window re-optimizations (fans out
  /// per-PC MRC construction and per-load analysis). Non-owning; must
  /// outlive the controller. Null = serial.
  const engine::Executor* executor = nullptr;
};

struct AdaptiveStats {
  std::uint64_t windows = 0;
  std::uint64_t reoptimizations = 0;  // full pipeline runs (incl. refines)
  std::uint64_t refinements = 0;      // re-runs on stale Δ / grown evidence
  std::uint64_t hot_swaps = 0;        // plan installs served from the cache
  int phases = 0;
  std::uint64_t phase_switches = 0;
  double measured_cycles_per_memop = 0.0;  // EWMA of the online Δ
  PlanCacheStats cache;
  GovernorStats governor;
};

class AdaptiveController final : public sim::CoreAgent {
 public:
  AdaptiveController(const workloads::Program& program,
                     const sim::MachineConfig& machine,
                     const AdaptiveOptions& options = {});

  // sim::CoreAgent:
  void on_reference(int core, Pc pc, Addr addr, Cycle now,
                    sim::MemorySystem& memory) override;
  const sim::PlanOverlay* overlay(int core) const override {
    (void)core;
    return &overlay_;
  }

  /// Aggregated statistics (cache and governor stats folded in).
  AdaptiveStats stats() const;

  /// The plan cache; assign a snapshot loaded via PlanCache::from_json to
  /// warm-start the controller, or serialize it after a run to persist the
  /// learned plans.
  PlanCache& plan_cache() { return cache_; }
  const PlanCache& plan_cache() const { return cache_; }

  const PhaseDetector& phase_detector() const { return detector_; }
  const BandwidthGovernor& governor() const { return governor_; }
  const std::vector<core::PrefetchPlan>& active_plans() const {
    return active_plans_;
  }

  /// Cheap heartbeat counter for supervision: windows closed so far.
  std::uint64_t windows_closed() const { return stats_.windows; }
  /// Δ EWMA as currently measured (the supervisor's sanity probe).
  double measured_cycles_per_memop() const { return delta_ewma_.value(); }

  // Chaos/fault-injection seams (runtime/chaos.hh). Production runs leave
  // both null; the injector and stats must outlive their installation.
  //
  /// Corrupt every subsequently closed window's sub-profile through the
  /// given injector before the controller consumes it (mid-run profile
  /// corruption — the online analogue of PR 1's offline fault models).
  void set_window_fault_injector(const core::FaultInjector* injector) {
    window_fault_injector_ = injector;
  }
  /// Feed the governor the given (frozen) DRAM stats instead of the live
  /// channel telemetry — models loss of the bandwidth signal.
  void set_dram_override(const sim::DramStats* stats) {
    dram_override_ = stats;
  }

 private:
  void close_window(const WindowProfile& window, Cycle now,
                    sim::MemorySystem& memory);
  void reoptimize(int phase);
  void rebuild_overlay();

  const workloads::Program* program_;
  sim::MachineConfig machine_;
  AdaptiveOptions opts_;

  OnlineSampler sampler_;
  PhaseDetector detector_;
  PlanCache cache_;
  BandwidthGovernor governor_;
  sim::PlanOverlay overlay_;

  std::vector<core::PrefetchPlan> active_plans_;
  bool plans_valid_ = false;  // false until the first install (warm-up)
  int active_phase_ = -1;     // phase the active plans belong to
  int last_raw_phase_ = -1;   // raw phase of the previous window
  GovernorMode applied_mode_ = GovernorMode::Normal;
  engine::DeltaEwma delta_ewma_;  // measured cycles/memop (online Δ)

  // Refinement bookkeeping for the active plans: the Δ and profile size
  // they were computed with (0 = unknown, e.g. hot-swapped from the cache;
  // the Δ baseline is then armed from measurement once the EWMA settles).
  double plan_cpm_ = 0.0;
  std::uint64_t plan_refs_ = 0;
  std::uint64_t windows_since_plan_change_ = 0;

  /// Accumulated windowed sub-profile per detected phase.
  std::unordered_map<int, core::Profile> phase_profiles_;

  const core::FaultInjector* window_fault_injector_ = nullptr;
  const sim::DramStats* dram_override_ = nullptr;

  AdaptiveStats stats_;
};

}  // namespace re::runtime
