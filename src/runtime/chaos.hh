// Deterministic chaos harness for the supervised adaptive runtime.
//
// Robustness claims are worthless if the faults that back them cannot be
// replayed. The harness turns a (seed, fault-rate) pair into a fixed
// *schedule* of fault episodes — which core, which fault, which reference
// span — generated once up front from support/rng.hh and applied verbatim
// during the run. Two runs with the same seed see byte-identical fault
// timelines; a failing seed from CI reproduces locally with one flag.
//
// Fault models (per episode, per core):
//
//   WindowDrop        — references are swallowed before they reach the
//                       controller; the sampler starves and the supervisor's
//                       heartbeat watchdog must notice the silence.
//   ClockSkew         — the clock the controller reads drifts by a fixed
//                       number of cycles per reference (positive or
//                       negative); negative drift also breaks monotonicity.
//   GovernorBlackout  — the controller's governor is fed frozen DRAM
//                       telemetry captured at episode start; the channel
//                       signal goes dark while the channel keeps moving.
//   ProfileCorruption — every window closed during the episode passes its
//                       sub-profile through a core::FaultInjector (PR 1's
//                       offline fault models, applied mid-run).
//
// The fifth chaos dimension — kill-and-restart of the plan-cache file — is
// file-shaped, not reference-shaped, so it lives in its own sweep:
// chaos_cache_crash_check() simulates kills mid-write and seeded corruption
// of the journal and checks the crash-consistency contract (old snapshot
// survives a torn write; corruption quarantines entries, never the cache).
//
// The injector only perturbs *inputs* at the supervision boundary. The
// supervisor is never told a fault is active; it must detect the symptoms.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/fault_injection.hh"
#include "runtime/supervisor.hh"
#include "sim/config.hh"
#include "sim/system.hh"
#include "workloads/program.hh"

namespace re::runtime {

enum class ChaosFaultKind : int {
  WindowDrop = 0,
  ClockSkew = 1,
  GovernorBlackout = 2,
  ProfileCorruption = 3,
};
constexpr int kChaosFaultKinds = 4;

const char* chaos_fault_name(ChaosFaultKind kind);

/// One contiguous fault episode on one core, in that core's reference
/// timeline ([begin_ref, end_ref), counted over references the core
/// *attempts* to deliver — dropped references still advance the clock).
struct ChaosEpisode {
  ChaosFaultKind kind = ChaosFaultKind::WindowDrop;
  int core = 0;
  std::uint64_t begin_ref = 0;
  std::uint64_t end_ref = 0;
  /// Kind-specific: ClockSkew = signed cycle drift per reference;
  /// ProfileCorruption = fault rate in percent (core::FaultConfig::uniform).
  std::int64_t magnitude = 0;
};

struct ChaosConfig {
  /// Target fraction of each core's horizon spent under some fault, in
  /// [0, 1). 0 generates an empty schedule.
  double fault_rate = 0.25;
  /// Per-core reference horizon the schedule covers.
  std::uint64_t horizon_refs = 1u << 20;
  /// Episodes are confined to the first `active_fraction` of the horizon so
  /// every run ends with a fault-free tail in which recovery can complete
  /// and be measured.
  double active_fraction = 0.7;
  /// Mean episode length in references.
  std::uint64_t mean_episode_refs = 16384;
  int cores = 4;
  std::uint64_t seed = 0xC4A05;
};

/// Immutable, fully pre-generated fault schedule.
class ChaosSchedule {
 public:
  static ChaosSchedule generate(const ChaosConfig& config);

  /// Build a schedule from hand-written episodes (targeted tests and
  /// repros). Episodes are sorted into (core, begin_ref) order.
  static ChaosSchedule from_episodes(const ChaosConfig& config,
                                     std::vector<ChaosEpisode> episodes);

  const std::vector<ChaosEpisode>& episodes() const { return episodes_; }
  const ChaosConfig& config() const { return config_; }
  /// Largest end_ref of any episode on `core` (0 = core unfaulted): after
  /// this reference the core runs clean and must recover.
  std::uint64_t last_faulted_ref(int core) const;

  /// Deterministic one-line-per-episode rendering (for --print-schedule and
  /// the byte-determinism check in CI).
  std::string to_string() const;

 private:
  ChaosConfig config_;
  std::vector<ChaosEpisode> episodes_;  // sorted by (core, begin_ref)
};

/// What the injector wants done to the current reference.
struct RefChaos {
  bool drop = false;              // swallow the reference entirely
  std::int64_t clock_skew = 0;    // cycles to add to the delivered clock
  bool governor_blackout = false; // freeze the controller's DRAM telemetry
  /// Non-null while a ProfileCorruption episode is active (stable for the
  /// episode's duration).
  const core::FaultInjector* profile_injector = nullptr;
};

/// Replays a ChaosSchedule reference by reference. advance() must be called
/// with a strictly increasing ref index per core (the supervisor's per-core
/// delivery counter).
class ChaosInjector {
 public:
  explicit ChaosInjector(ChaosSchedule schedule);

  RefChaos advance(int core, std::uint64_t ref_index);
  const ChaosSchedule& schedule() const { return schedule_; }

 private:
  struct CoreCursor {
    std::vector<ChaosEpisode> episodes;  // sorted by begin_ref
    std::size_t next = 0;
    std::vector<ChaosEpisode> active;
    std::optional<core::FaultInjector> injector;
  };

  ChaosSchedule schedule_;
  std::vector<CoreCursor> cursors_;
};

/// One full chaos experiment: a supervised mix run under a generated
/// schedule, plus a matching clean run of the same supervised setup for the
/// never-hurts comparison.
struct ChaosRunResult {
  ChaosSchedule schedule;
  sim::RunResult chaotic;           // run with faults injected
  sim::RunResult clean;             // same setup, no injector attached
  sim::RunResult baseline;          // unmanaged no-overlay run (never-hurts
                                    // reference: plain mix, no controllers)
  std::vector<DomainStats> domains; // per-core supervisor outcome (chaotic)
  /// Worst-core slowdown of the chaotic run vs the clean supervised run
  /// (1.0 = identical).
  double worst_slowdown = 0.0;
  /// Worst-core slowdown of the chaotic run vs the unmanaged baseline — the
  /// paper's never-hurts bound (<= 1 + epsilon): however hard the runtime is
  /// faulted, supervised prefetching must not lose to not prefetching.
  double worst_vs_baseline = 0.0;
  /// Largest last_recovery_windows across recovered domains.
  std::uint64_t worst_recovery_windows = 0;
  bool any_open = false;
  int total_trips = 0;
  /// Totals over the per-core domains.
  int open_domains = 0;
  std::uint64_t total_rollbacks = 0;
  std::uint64_t total_recoveries = 0;
};

/// Run the chaos experiment. `programs` supplies one core per entry (the
/// schedule's `cores` is clamped to it).
ChaosRunResult run_chaos_mix(const sim::MachineConfig& machine,
                             const std::vector<const workloads::Program*>& programs,
                             bool hw_prefetch, const ChaosConfig& config,
                             const SupervisorOptions& options = {});

/// The synthetic mix `repf chaos` and bench_chaos_recovery replay schedules
/// against, one program per core: a stream plus a hot buffer in disjoint
/// address spaces — enough locality structure for the adaptive pipeline to
/// chew on, small enough that a sweep over four fault rates stays quick.
workloads::Program chaos_mix_program(std::uint64_t core,
                                     std::uint64_t iterations);

/// Supervisor settings for that mix, with schedule seed `seed`.
SupervisorOptions chaos_supervisor_options(std::uint64_t seed);

/// Crash-consistency sweep for the plan-cache journal. Builds a
/// deterministic cache, then per trial either simulates a kill mid-write
/// (tmp file present, target intact) or corrupts the journal at a seeded
/// offset (byte flip, truncation, zeroed span) and reloads. `scratch_path`
/// names a writable scratch file (removed afterwards).
struct CacheCrashReport {
  std::size_t trials = 0;
  std::size_t clean_loads = 0;     // every entry recovered
  std::size_t degraded_loads = 0;  // quarantined/missing but load succeeded
  std::size_t failed_loads = 0;    // header destroyed: load refused
  std::size_t entries_per_trial = 0;
  std::uint64_t entries_recovered = 0;
  /// Trials where loaded + quarantined + missing failed to account for
  /// every entry the snapshot held (must stay 0).
  std::size_t accounting_errors = 0;
  bool survives_torn_write = false;  // kill mid-write left old file intact

  std::string to_string() const;
};

CacheCrashReport chaos_cache_crash_check(std::uint64_t seed,
                                         std::size_t trials,
                                         const std::string& scratch_path);

}  // namespace re::runtime
