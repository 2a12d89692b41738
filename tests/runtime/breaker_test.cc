#include "runtime/breaker.hh"

#include <gtest/gtest.h>

#include <cstdint>

#include "support/rng.hh"
#include "testutil.hh"

namespace re::runtime {
namespace {

BreakerOptions no_jitter() {
  BreakerOptions opts;
  opts.backoff_base = 2;
  opts.max_backoff = 8;
  opts.tick_scale = 1;
  opts.jitter = 0.0;  // exact penalties: the arithmetic is the test subject
  opts.half_open_probes = 2;
  opts.max_trips = 3;
  return opts;
}

TEST(Breaker, StartsArmedWithNoPenalty) {
  const Breaker breaker(no_jitter(), 1);
  EXPECT_TRUE(breaker.armed());
  EXPECT_FALSE(breaker.down());
  EXPECT_EQ(breaker.consecutive_trips(), 0);
  EXPECT_EQ(breaker.backoff_remaining(), 0u);
}

TEST(Breaker, TripEntersBackoffWithExponentialPenalty) {
  Breaker breaker(no_jitter(), 1);
  breaker.trip();
  EXPECT_EQ(breaker.state(), BreakerState::Backoff);
  EXPECT_TRUE(breaker.down());
  EXPECT_EQ(breaker.backoff_remaining(), 2u);  // base << 0

  // Serve out the penalty, fault again during probation: penalty doubles.
  EXPECT_FALSE(breaker.tick(1));
  EXPECT_TRUE(breaker.tick(1));
  EXPECT_EQ(breaker.state(), BreakerState::HalfOpen);
  breaker.trip();
  EXPECT_EQ(breaker.backoff_remaining(), 4u);  // base << 1
}

TEST(Breaker, BackoffIsCappedAtMaxBackoff) {
  BreakerOptions opts = no_jitter();
  opts.max_trips = 0;  // never open: let the exponent run past the cap
  Breaker breaker(opts, 1);
  for (int t = 0; t < 6; ++t) {
    breaker.trip();
    if (t < 5) {
      while (!breaker.tick(1)) {
      }
    }
  }
  EXPECT_EQ(breaker.backoff_remaining(), 8u);  // clamped to max_backoff
}

TEST(Breaker, TickScaleStretchesThePenalty) {
  BreakerOptions opts = no_jitter();
  opts.tick_scale = 10;
  Breaker breaker(opts, 1);
  breaker.trip();
  EXPECT_EQ(breaker.backoff_remaining(), 20u);  // 2 units x 10 ticks
}

TEST(Breaker, TickReturnsTrueExactlyOnceAtExpiry) {
  Breaker breaker(no_jitter(), 1);
  breaker.trip();
  EXPECT_TRUE(breaker.tick(100));  // over-consume: saturating
  EXPECT_EQ(breaker.state(), BreakerState::HalfOpen);
  EXPECT_FALSE(breaker.tick(1));  // no-op outside Backoff
}

TEST(Breaker, CompletedProbationReArmsAndResetsTripCount) {
  Breaker breaker(no_jitter(), 1);
  breaker.trip();
  breaker.trip();  // Backoff trip chains the count without re-arming
  EXPECT_EQ(breaker.consecutive_trips(), 2);
  EXPECT_TRUE(breaker.tick(100));

  EXPECT_FALSE(breaker.probe_ok());  // 1 of 2
  EXPECT_TRUE(breaker.probe_ok());   // probation complete
  EXPECT_TRUE(breaker.armed());
  EXPECT_EQ(breaker.consecutive_trips(), 0);

  // The reset matters: the next trip pays the *base* penalty again, so a
  // component that keeps proving health never escalates toward Open.
  breaker.trip();
  EXPECT_EQ(breaker.backoff_remaining(), 2u);
}

TEST(Breaker, OpensAtMaxConsecutiveTripsAndStaysOpen) {
  Breaker breaker(no_jitter(), 1);
  breaker.trip();
  breaker.trip();
  breaker.trip();  // max_trips = 3
  EXPECT_TRUE(breaker.open());
  EXPECT_TRUE(breaker.down());

  // Terminal: neither time nor further faults move it.
  EXPECT_FALSE(breaker.tick(1000));
  EXPECT_FALSE(breaker.probe_ok());
  breaker.trip();
  EXPECT_TRUE(breaker.open());
  EXPECT_EQ(breaker.consecutive_trips(), 3);
}

TEST(Breaker, MaxTripsZeroNeverOpens) {
  BreakerOptions opts = no_jitter();
  opts.max_trips = 0;
  Breaker breaker(opts, 1);
  for (int t = 0; t < 50; ++t) breaker.trip();
  EXPECT_EQ(breaker.state(), BreakerState::Backoff);
  EXPECT_FALSE(breaker.open());
}

TEST(Breaker, JitterIsSeededAndBounded) {
  BreakerOptions opts = no_jitter();
  opts.jitter = 0.25;
  opts.backoff_base = 100;
  opts.max_backoff = 100;

  Breaker a(opts, 7);
  Breaker b(opts, 7);
  a.trip();
  b.trip();
  // Same seed, same draw order: identical penalties (the determinism the
  // chaos and serve harnesses rely on).
  EXPECT_EQ(a.backoff_remaining(), b.backoff_remaining());
  // Stretched by [1 - jitter, 1 + jitter], never below one tick.
  EXPECT_GE(a.backoff_remaining(), 75u);
  EXPECT_LE(a.backoff_remaining(), 125u);

  Breaker c(opts, 8);
  c.trip();
  EXPECT_GE(c.backoff_remaining(), 75u);
  EXPECT_LE(c.backoff_remaining(), 125u);
}

// Property sweep: seeded random event sequences (trip / tick / probe_ok in
// any order) against a shadow model of the documented state machine. The
// breaker must never reach an undeclared state, never leave Open, and only
// enter Open after exactly max_trips consecutive trips.
TEST(Breaker, RandomEventSequencesNeverLeaveTheDeclaredMachine) {
  const std::uint64_t seed = re::testing::test_seed();
  for (int round = 0; round < 64; ++round) {
    BreakerOptions opts;
    Rng rng(seed + static_cast<std::uint64_t>(round) * 0x9E3779B97F4A7C15ull);
    opts.backoff_base = 1 + rng.next(8);
    opts.max_backoff = opts.backoff_base + rng.next(32);
    opts.tick_scale = 1 + rng.next(4);
    opts.jitter = 0.25 * static_cast<double>(rng.next(3));  // 0 / .25 / .5
    opts.half_open_probes = 1 + static_cast<int>(rng.next(4));
    opts.max_trips = static_cast<int>(rng.next(6));  // 0 = never opens
    Breaker breaker(opts, seed ^ static_cast<std::uint64_t>(round));

    // Shadow model: what the header's diagram promises.
    int shadow_trips = 0;
    bool shadow_open = false;

    const std::uint64_t max_penalty_ticks = static_cast<std::uint64_t>(
        static_cast<double>(opts.max_backoff * opts.tick_scale) *
            (1.0 + opts.jitter) +
        1.0);
    for (int event = 0; event < 512; ++event) {
      const BreakerState before = breaker.state();
      switch (rng.next(4)) {
        case 0:
          breaker.trip();
          if (!shadow_open) {
            ++shadow_trips;
            if (opts.max_trips > 0 && shadow_trips >= opts.max_trips) {
              shadow_open = true;
            }
          }
          break;
        case 1:
          breaker.tick(1);
          break;
        case 2:
          breaker.tick(1 + rng.next(2 * max_penalty_ticks));
          break;
        default:
          if (breaker.probe_ok()) shadow_trips = 0;
          break;
      }
      const BreakerState state = breaker.state();

      // 1. Only declared states, and stable names for each.
      ASSERT_TRUE(state == BreakerState::Armed ||
                  state == BreakerState::Backoff ||
                  state == BreakerState::HalfOpen ||
                  state == BreakerState::Open)
          << "round " << round << " event " << event;
      ASSERT_NE(breaker_state_name(state), nullptr);

      // 2. Open is absorbing and reached only at max_trips consecutive
      //    trips (never with max_trips <= 0).
      if (before == BreakerState::Open) {
        ASSERT_EQ(state, BreakerState::Open);
      }
      ASSERT_EQ(breaker.open(), shadow_open)
          << "round " << round << " event " << event << " trips "
          << breaker.consecutive_trips();
      if (opts.max_trips <= 0) {
        ASSERT_FALSE(breaker.open());
      }

      // 3. down() is exactly Backoff-or-Open; accessors stay in range.
      ASSERT_EQ(breaker.down(), state == BreakerState::Backoff ||
                                    state == BreakerState::Open);
      ASSERT_LE(breaker.consecutive_trips(),
                opts.max_trips > 0 ? opts.max_trips : 512 + 1);
      ASSERT_GE(breaker.consecutive_trips(), 0);
      if (state == BreakerState::Backoff) {
        ASSERT_GE(breaker.backoff_remaining(), 1u);
        ASSERT_LE(breaker.backoff_remaining(), max_penalty_ticks);
      }
      // 4. Bookkeeping mirrors the shadow's consecutive-trip count.
      if (!shadow_open) {
        ASSERT_EQ(breaker.consecutive_trips(), shadow_trips);
      }
    }
  }
}

TEST(Breaker, StateNamesAreStable) {
  EXPECT_STREQ(breaker_state_name(BreakerState::Armed), "armed");
  EXPECT_STREQ(breaker_state_name(BreakerState::Backoff), "backoff");
  EXPECT_STREQ(breaker_state_name(BreakerState::HalfOpen), "half-open");
  EXPECT_STREQ(breaker_state_name(BreakerState::Open), "open");
}

}  // namespace
}  // namespace re::runtime
