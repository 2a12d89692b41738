// Multi-tenant fairness isolation gate for the advisory service.
//
// Three seeded scenarios over the same well-behaved population (per-core
// independent arrival streams, so every scenario submits the identical
// request sequence for cores 0..N-1):
//
//   solo      — the well-behaved cores alone: the baseline p99/mix.
//   chatty    — plus one adversary submitting at 100x the base rate, cold
//               families only (every request is a solve). Its overflow must
//               be shed from its own quota (QuotaExceeded) before it can
//               touch a victim's deadline budget.
//   slowread  — plus one consumer that stops reading its bounded outbox.
//               Its responses pile up in its own outbox and its overflow is
//               rejected unanswered; nobody else's collection stalls.
//
// Isolation bound (DESIGN.md 14): for every well-behaved core,
//   p99(adversary run) <= p99(solo) + max(0.25 * p99(solo), 8 ticks)
//   degraded_rate(adversary run) <= degraded_rate(solo) + 0.02
// and the adversary absorbs its own overflow: victims see zero
// QuotaExceeded answers while the chatty core sheds > 0.
//
// Also gated here: byte-determinism of the chatty run (digest identical at
// --jobs 1, a jobs=1 replay, and --jobs 8) and the poisoned-warm-start
// sweep (serve_poison_check: bit-flipped / stale-fingerprint / truncated
// shard journals cost cache warmth only — zero stale-as-fresh, zero alien
// plans, zero lost acks, zero crashes).
//
// Reports victim/adversary metrics to BENCH_serve_fairness.json (with the
// reproducing seed). Exits non-zero on any violation — CI gate.
#include <algorithm>
#include <cstdio>
#include <string>

#include "bench_common.hh"
#include "engine/executor.hh"
#include "serve/harness.hh"
#include "serve/service.hh"
#include "support/text_table.hh"

namespace {

using namespace re;

constexpr std::uint64_t kSeed = 42;

using bench::check;
using bench::violations;

/// Worst-case victim regression vs the solo baseline, in p99 ticks and
/// degraded-rate percentage points, over well-behaved cores only.
struct VictimDelta {
  double max_p99_excess = 0.0;   // beyond the documented allowance
  double max_rate_excess = 0.0;  // beyond the 2pp allowance
  double worst_p99 = 0.0;
  double worst_rate = 0.0;
  std::uint64_t victim_quota_shed = 0;
};

VictimDelta victim_delta(const serve::FairnessRunResult& solo,
                         const serve::FairnessRunResult& adversarial,
                         int victim_cores) {
  VictimDelta d;
  for (int core = 0; core < victim_cores; ++core) {
    const serve::CoreMetrics& base =
        solo.per_core[static_cast<std::size_t>(core)];
    const serve::CoreMetrics& now =
        adversarial.per_core[static_cast<std::size_t>(core)];
    const double allowance = std::max(0.25 * base.p99, 8.0);
    d.max_p99_excess =
        std::max(d.max_p99_excess, now.p99 - (base.p99 + allowance));
    d.max_rate_excess = std::max(
        d.max_rate_excess, now.degraded_rate - (base.degraded_rate + 0.02));
    d.worst_p99 = std::max(d.worst_p99, now.p99);
    d.worst_rate = std::max(d.worst_rate, now.degraded_rate);
    d.victim_quota_shed += now.quota_shed;
  }
  return d;
}

}  // namespace

int main() {
  const bool smoke = bench::smoke_mode();
  const bool enforce = !smoke;
  bench::print_header(
      "Advisory-service fairness: chatty and slow-consumer tenants vs the "
      "isolation bound",
      "DRR dispatch, per-tenant token buckets, bounded outboxes, and the "
      "poisoned warm-start sweep");
  if (smoke) std::printf("[smoke mode: tiny runs, gates not enforced]\n\n");

  bench::JsonReport report("serve_fairness");

  serve::FairnessTraffic traffic;
  traffic.cores = smoke ? 4 : 8;
  traffic.ticks = smoke ? 128 : 1024;
  traffic.base_rate = 0.05;
  traffic.hot_fraction = 0.9;
  traffic.hot_families = 4;
  traffic.cold_families = smoke ? 16 : 64;
  traffic.seed = kSeed;

  serve::ServiceOptions sopts;
  sopts.solve_slots = 4;
  sopts.solve_cost_ticks = 8;
  sopts.deadline_ticks = 256;
  sopts.queue_capacity = 64;
  sopts.seed = kSeed ^ 0xAD115EEDull;
  sopts.fairness.enabled = true;
  sopts.fairness.quota_burst = 8;
  sopts.fairness.quota_rate_milli = 100;  // 0.1 requests/tick sustained
  sopts.fairness.per_core_queue_cap = 8;

  const std::vector<serve::Family> families =
      serve::make_families(traffic.hot_families, traffic.cold_families);
  const serve::AdvisoryService::Solver solver =
      serve::make_synthetic_solver(families);

  // Scenario 1+2: solo baseline, then the same victims plus a 100x chatty
  // adversary. Identical victim arrival streams (per-core Rngs) make the
  // comparison request-for-request.
  const serve::FairnessRunResult solo =
      serve::run_fairness_sim(traffic, sopts, solver, nullptr);

  serve::FairnessTraffic chatty = traffic;
  chatty.chatty = true;
  chatty.chatty_multiplier = 100.0;
  const serve::FairnessRunResult loud =
      serve::run_fairness_sim(chatty, sopts, solver, nullptr);
  const VictimDelta loud_delta = victim_delta(solo, loud, traffic.cores);
  const serve::CoreMetrics& chatty_core =
      loud.per_core[static_cast<std::size_t>(traffic.cores)];

  // Scenario 3: bounded outboxes, one consumer never reads until the end.
  // Its solo baseline is re-run with the same outbox config so the
  // comparison isolates the slow reader, not the outbox mechanism.
  serve::ServiceOptions oopts = sopts;
  oopts.fairness.outbox_capacity = 16;
  const serve::FairnessRunResult solo_outbox =
      serve::run_fairness_sim(traffic, oopts, solver, nullptr);

  serve::FairnessTraffic slow = traffic;
  slow.slow_consumer = true;
  slow.slow_collect_per_tick = 0;  // never reads during the run
  const serve::FairnessRunResult held =
      serve::run_fairness_sim(slow, oopts, solver, nullptr);
  const VictimDelta held_delta =
      victim_delta(solo_outbox, held, traffic.cores);

  // Determinism: the chatty scenario re-run (jobs=1 replay) and on an
  // 8-worker executor must produce the identical response digest.
  const serve::FairnessRunResult replay =
      serve::run_fairness_sim(chatty, sopts, solver, nullptr);
  const engine::Executor wide(8);
  const serve::FairnessRunResult jobs8 =
      serve::run_fairness_sim(chatty, sopts, solver, &wide);

  TextTable table({"scenario", "victim p99", "victim degr", "adv p99",
                   "adv degr", "quota shed", "stale-fresh"});
  const auto pct = [](double v) { return format_percent(v); };
  const auto victim_row = [&](const char* label,
                              const serve::FairnessRunResult& r,
                              const VictimDelta& d,
                              const serve::CoreMetrics* adversary) {
    table.add_row(
        {label, format_double(d.worst_p99, 1), pct(d.worst_rate),
         adversary ? format_double(adversary->p99, 1) : std::string("-"),
         adversary ? pct(adversary->degraded_rate) : std::string("-"),
         std::to_string(r.stats.shed_quota),
         std::to_string(r.stats.stale_fresh_violations)});
  };
  {
    VictimDelta base = victim_delta(solo, solo, traffic.cores);
    victim_row("solo", solo, base, nullptr);
    victim_row("chatty 100x", loud, loud_delta, &chatty_core);
    VictimDelta base_outbox =
        victim_delta(solo_outbox, solo_outbox, traffic.cores);
    victim_row("solo (outbox)", solo_outbox, base_outbox, nullptr);
    victim_row("slow consumer", held, held_delta, nullptr);
  }
  std::fputs(table.render().c_str(), stdout);
  std::printf("chatty digests: jobs=1 %016llx | replay %016llx | jobs=8 "
              "%016llx\n",
              static_cast<unsigned long long>(loud.digest),
              static_cast<unsigned long long>(replay.digest),
              static_cast<unsigned long long>(jobs8.digest));
  std::printf("slow consumer: %llu rejected unanswered, outbox high-water "
              "bounded\n\n",
              static_cast<unsigned long long>(
                  held.stats.shed_slow_consumer));

  // Poisoned warm-start sweep rides along: fairness and warm-start are the
  // two halves of the same trust boundary.
  const serve::PoisonReport poison = serve::serve_poison_check(
      kSeed, smoke ? 3 : 12, "bench_serve_fairness_scratch");
  std::printf("poisoned warm-start: %s\n\n", poison.to_string().c_str());

  report.set("seed", kSeed);
  report.set("victim_cores", static_cast<std::uint64_t>(traffic.cores));
  report.set("solo_victim_p99",
             victim_delta(solo, solo, traffic.cores).worst_p99);
  report.set("chatty_victim_p99", loud_delta.worst_p99);
  report.set("chatty_victim_degraded_rate", loud_delta.worst_rate);
  report.set("chatty_adversary_p99", chatty_core.p99);
  report.set("chatty_quota_shed", loud.stats.shed_quota);
  report.set("chatty_breaker_trips", loud.stats.quota_breaker_trips);
  report.set("slow_victim_p99", held_delta.worst_p99);
  report.set("slow_shed_unanswered", held.stats.shed_slow_consumer);
  report.set("stale_fresh_violations",
             solo.stats.stale_fresh_violations +
                 loud.stats.stale_fresh_violations +
                 held.stats.stale_fresh_violations);
  report.set("digest", loud.digest);
  report.set("poison_trials", static_cast<std::uint64_t>(poison.trials));
  report.set("poison_quarantined", poison.warm_entries_quarantined);
  report.set("poison_files_rejected", poison.warm_files_rejected);
  report.set("poison_ok", poison.ok() ? std::string("true")
                                      : std::string("false"));

  if (enforce) {
    check(solo.gates_ok() && loud.gates_ok() && solo_outbox.gates_ok() &&
              held.gates_ok(),
          "a robustness gate (bounded queue / stale-as-fresh / degraded-"
          "safe) failed in a fairness scenario");
    check(loud_delta.max_p99_excess <= 0.0,
          "chatty adversary pushed a victim's p99 past the isolation bound "
          "(solo + max(25%, 8 ticks))");
    check(loud_delta.max_rate_excess <= 0.0,
          "chatty adversary pushed a victim's degraded mix more than 2pp "
          "past its solo baseline");
    check(loud_delta.victim_quota_shed == 0,
          "a well-behaved victim was shed under QuotaExceeded");
    check(chatty_core.quota_shed > 0 && loud.stats.shed_quota > 0,
          "the chatty adversary was never quota-shed (bench mis-sized: not "
          "actually overloading its bucket)");
    check(held_delta.max_p99_excess <= 0.0,
          "slow consumer pushed a victim's p99 past the isolation bound");
    check(held_delta.max_rate_excess <= 0.0,
          "slow consumer pushed a victim's degraded mix past the 2pp bound");
    check(held.stats.shed_slow_consumer > 0,
          "the slow consumer was never backpressured (bench mis-sized: "
          "outbox never filled)");
    check(replay.digest == loud.digest && jobs8.digest == loud.digest,
          "fairness response stream diverged across replay/--jobs "
          "(determinism contract broken)");
    check(poison.ok(),
          "poisoned warm-start leaked: stale-as-fresh, alien plan, lost "
          "ack, or recovery failure");
  }

  report.write();

  if (violations > 0) {
    std::printf("FAILED: %d fairness invariant violation(s) (reproduce "
                "with seed %llu)\n",
                violations, static_cast<unsigned long long>(kSeed));
    return 1;
  }
  std::printf("All fairness isolation and warm-start trust invariants "
              "hold.\n");
  return 0;
}
