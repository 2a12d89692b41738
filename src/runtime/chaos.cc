#include "runtime/chaos.hh"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <fstream>

#include "runtime/plan_cache.hh"
#include "support/rng.hh"

namespace re::runtime {

namespace {

/// Golden-ratio mix for deriving per-episode injector seeds: deterministic
/// in (schedule seed, core, episode start), independent across episodes.
constexpr std::uint64_t kSeedMix = 0x9E3779B97F4A7C15ull;

}  // namespace

const char* chaos_fault_name(ChaosFaultKind kind) {
  switch (kind) {
    case ChaosFaultKind::WindowDrop: return "window-drop";
    case ChaosFaultKind::ClockSkew: return "clock-skew";
    case ChaosFaultKind::GovernorBlackout: return "governor-blackout";
    case ChaosFaultKind::ProfileCorruption: return "profile-corruption";
  }
  return "unknown";
}

ChaosSchedule ChaosSchedule::generate(const ChaosConfig& config) {
  ChaosSchedule schedule;
  schedule.config_ = config;
  if (config.fault_rate <= 0.0 || config.cores <= 0 ||
      config.horizon_refs == 0) {
    return schedule;
  }
  const double rate = std::min(config.fault_rate, 0.95);
  const double active_fraction =
      std::min(std::max(config.active_fraction, 0.0), 1.0);
  const std::uint64_t active_limit = static_cast<std::uint64_t>(
      static_cast<double>(config.horizon_refs) * active_fraction);
  const double mean_len = static_cast<double>(
      std::max<std::uint64_t>(config.mean_episode_refs, 1));
  // Gap length chosen so episodes cover ~`rate` of the active span:
  // len / (len + gap) = rate.
  const double mean_gap = mean_len * (1.0 - rate) / rate;

  Rng master(config.seed);
  for (int core = 0; core < config.cores; ++core) {
    Rng rng(master.fork());
    std::uint64_t pos = static_cast<std::uint64_t>(
        mean_gap * (0.5 + rng.uniform()));
    while (pos < active_limit) {
      ChaosEpisode episode;
      episode.core = core;
      episode.kind = static_cast<ChaosFaultKind>(
          rng.next(static_cast<std::uint64_t>(kChaosFaultKinds)));
      episode.begin_ref = pos;
      const std::uint64_t len = std::max<std::uint64_t>(
          static_cast<std::uint64_t>(mean_len * (0.5 + rng.uniform())), 1);
      episode.end_ref = std::min(pos + len, active_limit);
      switch (episode.kind) {
        case ChaosFaultKind::ClockSkew: {
          // Cycle drift per reference, far beyond any sane cycles/memop so
          // one window suffices to cross the supervisor's Δ bound.
          const std::int64_t drift =
              static_cast<std::int64_t>(rng.range(4000, 40000));
          episode.magnitude = rng.chance(0.5) ? drift : -drift;
          break;
        }
        case ChaosFaultKind::ProfileCorruption:
          episode.magnitude = static_cast<std::int64_t>(rng.range(20, 80));
          break;
        case ChaosFaultKind::WindowDrop:
        case ChaosFaultKind::GovernorBlackout:
          episode.magnitude = 0;
          break;
      }
      if (episode.end_ref > episode.begin_ref) {
        schedule.episodes_.push_back(episode);
      }
      pos = episode.end_ref + std::max<std::uint64_t>(
                static_cast<std::uint64_t>(mean_gap * (0.5 + rng.uniform())),
                1);
    }
  }
  return schedule;
}

ChaosSchedule ChaosSchedule::from_episodes(const ChaosConfig& config,
                                           std::vector<ChaosEpisode> episodes) {
  ChaosSchedule schedule;
  schedule.config_ = config;
  schedule.episodes_ = std::move(episodes);
  std::sort(schedule.episodes_.begin(), schedule.episodes_.end(),
            [](const ChaosEpisode& a, const ChaosEpisode& b) {
              return a.core != b.core ? a.core < b.core
                                      : a.begin_ref < b.begin_ref;
            });
  return schedule;
}

std::uint64_t ChaosSchedule::last_faulted_ref(int core) const {
  std::uint64_t last = 0;
  for (const ChaosEpisode& episode : episodes_) {
    if (episode.core == core) last = std::max(last, episode.end_ref);
  }
  return last;
}

std::string ChaosSchedule::to_string() const {
  char buf[192];
  std::snprintf(buf, sizeof(buf),
                "chaos seed=%" PRIu64 " rate=%.3f horizon=%" PRIu64
                " active=%.2f cores=%d episodes=%zu\n",
                config_.seed, config_.fault_rate, config_.horizon_refs,
                config_.active_fraction, config_.cores, episodes_.size());
  std::string out = buf;
  for (const ChaosEpisode& episode : episodes_) {
    std::snprintf(buf, sizeof(buf),
                  "  core=%d kind=%s begin=%" PRIu64 " end=%" PRIu64
                  " magnitude=%" PRId64 "\n",
                  episode.core, chaos_fault_name(episode.kind),
                  episode.begin_ref, episode.end_ref, episode.magnitude);
    out += buf;
  }
  return out;
}

ChaosInjector::ChaosInjector(ChaosSchedule schedule)
    : schedule_(std::move(schedule)) {
  int cores = schedule_.config().cores;
  for (const ChaosEpisode& episode : schedule_.episodes()) {
    cores = std::max(cores, episode.core + 1);
  }
  cursors_.resize(static_cast<std::size_t>(std::max(cores, 1)));
  for (const ChaosEpisode& episode : schedule_.episodes()) {
    cursors_[static_cast<std::size_t>(episode.core)].episodes.push_back(
        episode);
  }
  for (CoreCursor& cursor : cursors_) {
    std::sort(cursor.episodes.begin(), cursor.episodes.end(),
              [](const ChaosEpisode& a, const ChaosEpisode& b) {
                return a.begin_ref < b.begin_ref;
              });
  }
}

RefChaos ChaosInjector::advance(int core, std::uint64_t ref_index) {
  RefChaos out;
  if (core < 0 || static_cast<std::size_t>(core) >= cursors_.size()) {
    return out;
  }
  CoreCursor& cursor = cursors_[static_cast<std::size_t>(core)];
  while (cursor.next < cursor.episodes.size() &&
         cursor.episodes[cursor.next].begin_ref <= ref_index) {
    cursor.active.push_back(cursor.episodes[cursor.next]);
    ++cursor.next;
  }
  cursor.active.erase(
      std::remove_if(cursor.active.begin(), cursor.active.end(),
                     [ref_index](const ChaosEpisode& episode) {
                       return episode.end_ref <= ref_index;
                     }),
      cursor.active.end());

  const ChaosEpisode* corruption = nullptr;
  for (const ChaosEpisode& episode : cursor.active) {
    switch (episode.kind) {
      case ChaosFaultKind::WindowDrop:
        out.drop = true;
        break;
      case ChaosFaultKind::ClockSkew:
        out.clock_skew += episode.magnitude *
                          static_cast<std::int64_t>(ref_index -
                                                    episode.begin_ref);
        break;
      case ChaosFaultKind::GovernorBlackout:
        out.governor_blackout = true;
        break;
      case ChaosFaultKind::ProfileCorruption:
        corruption = &episode;
        break;
    }
  }

  if (corruption != nullptr) {
    if (!cursor.injector.has_value()) {
      const std::uint64_t seed =
          schedule_.config().seed ^
          (kSeedMix * (static_cast<std::uint64_t>(core) + 1)) ^
          corruption->begin_ref;
      cursor.injector.emplace(core::FaultConfig::uniform(
          static_cast<double>(corruption->magnitude) / 100.0, seed));
    }
    out.profile_injector = &cursor.injector.value();
  } else {
    cursor.injector.reset();
  }
  return out;
}

workloads::Program chaos_mix_program(std::uint64_t core,
                                     std::uint64_t iterations) {
  workloads::Program p;
  p.name = "chaos-app-" + std::to_string(core);
  p.seed = 42 + core;
  workloads::StaticInst a, b;
  a.pc = 1;
  a.pattern = workloads::StreamPattern{core << 36, 64, 4 << 20};
  b.pc = 2;
  b.pattern = workloads::HotBufferPattern{(core + 8) << 36, 64, 16 << 10};
  p.loops.push_back(workloads::Loop{{a, b}, iterations});
  p.outer_reps = 2;
  return p;
}

SupervisorOptions chaos_supervisor_options(std::uint64_t seed) {
  SupervisorOptions opts;
  opts.adaptive.window_refs = 1024;
  opts.adaptive.sampler = core::SamplerConfig{50, 42};
  opts.adaptive.phases.hysteresis_windows = 1;
  opts.adaptive.min_reoptimize_refs = 8192;
  opts.heartbeat_grace_windows = 4;
  opts.backoff_base_windows = 2;
  opts.half_open_probe_windows = 2;
  // Back-to-back episodes chain trips before a probe completes; the budget
  // is sized to the densest (50 %) schedule in the sweep.
  opts.max_trips = 8;
  opts.seed = seed;
  return opts;
}

ChaosRunResult run_chaos_mix(
    const sim::MachineConfig& machine,
    const std::vector<const workloads::Program*>& programs, bool hw_prefetch,
    const ChaosConfig& config, const SupervisorOptions& options) {
  ChaosRunResult out;
  ChaosConfig adjusted = config;
  adjusted.cores = static_cast<int>(programs.size());
  out.schedule = ChaosSchedule::generate(adjusted);

  out.baseline = sim::run_mix(machine, programs, hw_prefetch);
  {
    Supervisor supervisor(programs, machine, options);
    std::vector<sim::CoreAgent*> agents(programs.size(), &supervisor);
    out.clean = sim::run_mix_adaptive(machine, programs, hw_prefetch, agents);
  }
  {
    Supervisor supervisor(programs, machine, options);
    ChaosInjector injector(out.schedule);
    supervisor.set_chaos(&injector);
    std::vector<sim::CoreAgent*> agents(programs.size(), &supervisor);
    out.chaotic =
        sim::run_mix_adaptive(machine, programs, hw_prefetch, agents);
    for (int core = 0; core < supervisor.cores(); ++core) {
      out.domains.push_back(supervisor.domain_stats(core));
    }
    out.any_open = supervisor.any_open();
    out.total_trips = supervisor.total_trips();
  }

  for (std::size_t i = 0;
       i < out.chaotic.apps.size() && i < out.clean.apps.size(); ++i) {
    if (out.clean.apps[i].cycles == 0) continue;
    const double slowdown =
        static_cast<double>(out.chaotic.apps[i].cycles) /
        static_cast<double>(out.clean.apps[i].cycles);
    out.worst_slowdown = std::max(out.worst_slowdown, slowdown);
  }
  for (std::size_t i = 0;
       i < out.chaotic.apps.size() && i < out.baseline.apps.size(); ++i) {
    if (out.baseline.apps[i].cycles == 0) continue;
    const double slowdown =
        static_cast<double>(out.chaotic.apps[i].cycles) /
        static_cast<double>(out.baseline.apps[i].cycles);
    out.worst_vs_baseline = std::max(out.worst_vs_baseline, slowdown);
  }
  for (const DomainStats& domain : out.domains) {
    if (domain.state == DomainState::Open) ++out.open_domains;
    out.total_rollbacks += domain.rollbacks;
    out.total_recoveries += domain.recoveries;
    if (domain.recoveries > 0) {
      out.worst_recovery_windows =
          std::max(out.worst_recovery_windows, domain.last_recovery_windows);
    }
  }
  return out;
}

std::string CacheCrashReport::to_string() const {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "trials=%zu clean=%zu degraded=%zu failed=%zu "
                "entries/trial=%zu recovered=%" PRIu64
                " accounting_errors=%zu torn_write_survives=%s",
                trials, clean_loads, degraded_loads, failed_loads,
                entries_per_trial, entries_recovered, accounting_errors,
                survives_torn_write ? "yes" : "no");
  return buf;
}

namespace {

/// Deterministic cache for the crash sweep: a handful of entries with
/// distinct signatures and plans.
PlanCache make_crash_check_cache(const PlanCacheOptions& options,
                                 std::size_t entries) {
  PlanCache cache(options);
  for (std::size_t i = 0; i < entries; ++i) {
    core::PhaseSignature signature;
    const Pc base = static_cast<Pc>(0x1000 + 0x100 * i);
    signature[base] = 0.5;
    signature[base + 4] = 0.3;
    signature[base + 8] = 0.2;
    std::vector<core::PrefetchPlan> plans;
    for (std::size_t p = 0; p < 3; ++p) {
      core::PrefetchPlan plan;
      plan.pc = static_cast<Pc>(base + 16 * p);
      plan.distance_bytes = static_cast<std::int64_t>(64 * (i + 1) * (p + 1));
      plan.hint = p % 2 == 0 ? workloads::PrefetchHint::T0
                             : workloads::PrefetchHint::NTA;
      plans.push_back(plan);
    }
    cache.insert(signature, std::move(plans));
  }
  return cache;
}

}  // namespace

CacheCrashReport chaos_cache_crash_check(std::uint64_t seed,
                                         std::size_t trials,
                                         const std::string& scratch_path) {
  CacheCrashReport report;
  report.trials = trials;
  report.entries_per_trial = 8;

  PlanCacheOptions options;
  options.capacity = 12;
  const PlanCache cache =
      make_crash_check_cache(options, report.entries_per_trial);
  const std::string journal = cache.to_journal();
  const std::size_t header_end = journal.find('\n') + 1;

  Rng rng(seed);
  for (std::size_t trial = 0; trial < trials; ++trial) {
    std::string damaged = journal;
    // Corrupt strictly past the header: the contract is that body damage
    // quarantines entries but never refuses the load.
    const std::size_t offset =
        header_end + rng.next(std::max<std::size_t>(
                         damaged.size() - header_end, std::size_t{1}));
    switch (rng.next(3)) {
      case 0:  // bit rot: flip one byte
        damaged[offset] = static_cast<char>(
            static_cast<unsigned char>(damaged[offset]) ^
            static_cast<unsigned char>(1 + rng.next(255)));
        break;
      case 1:  // torn tail: truncate mid-entry
        damaged.resize(offset);
        break;
      default: {  // zeroed span: a hole punched by a failed sector write
        const std::size_t span =
            std::min<std::size_t>(rng.range(1, 64), damaged.size() - offset);
        for (std::size_t i = 0; i < span; ++i) damaged[offset + i] = '\0';
        break;
      }
    }

    Expected<PlanCache::LoadReport> loaded =
        PlanCache::load(damaged, options);
    if (!loaded.has_value()) {
      ++report.failed_loads;
      continue;
    }
    const PlanCache::LoadReport& result = loaded.value();
    report.entries_recovered += result.loaded;
    if (result.degraded()) {
      ++report.degraded_loads;
    } else {
      ++report.clean_loads;
    }
    if (result.loaded + result.quarantined + result.missing !=
        report.entries_per_trial) {
      ++report.accounting_errors;
    }
  }

  // Kill mid-write: the previous snapshot was committed by rename; the
  // killed writer leaves only a stray .tmp behind. Reloading the target must
  // recover every entry.
  report.survives_torn_write = false;
  if (cache.save(scratch_path).ok()) {
    {
      std::ofstream torn(scratch_path + ".tmp",
                         std::ios::binary | std::ios::trunc);
      torn << journal.substr(0, journal.size() / 2);
    }
    Expected<PlanCache::LoadReport> reloaded =
        PlanCache::load_file(scratch_path, options);
    report.survives_torn_write =
        reloaded.has_value() && !reloaded.value().degraded() &&
        reloaded.value().loaded == report.entries_per_trial;
  }
  std::remove((scratch_path + ".tmp").c_str());
  std::remove(scratch_path.c_str());

  return report;
}

}  // namespace re::runtime
