// Deterministic-executor unit tests: ordered reduction, seeded
// work-splitting that never leaks into results, inline nesting, and
// deterministic exception propagation.
#include "engine/executor.hh"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "testutil.hh"

namespace re::engine {
namespace {

TEST(Executor, JobsClampedToAtLeastOne) {
  EXPECT_EQ(Executor(0).jobs(), 1);
  EXPECT_EQ(Executor(-3).jobs(), 1);
  EXPECT_EQ(Executor(4).jobs(), 4);
}

TEST(Executor, ForEachVisitsEveryUnitExactlyOnce) {
  // 257 units is not a multiple of any worker count; the last case is a
  // claim storm — tiny units, 16 workers, 8 rounds of maximal contention
  // on the shared claim counter. Any double-run or drop shows up in the
  // per-unit counters.
  struct Case {
    int jobs;
    std::size_t units;
    int rounds;
  };
  for (const Case c : {Case{1, 257, 1}, Case{2, 257, 1}, Case{7, 257, 1},
                       Case{16, 257, 1}, Case{16, 2048, 8}}) {
    const Executor executor(c.jobs);
    for (int round = 0; round < c.rounds; ++round) {
      std::vector<std::atomic<int>> visits(c.units);
      std::atomic<std::uint64_t> sum{0};
      executor.for_each(c.units, [&](std::size_t i) {
        ++visits[i];
        sum.fetch_add(i, std::memory_order_relaxed);
      });
      for (std::size_t i = 0; i < c.units; ++i) {
        ASSERT_EQ(visits[i].load(), 1)
            << "unit " << i << " at jobs " << c.jobs << " round " << round;
      }
      EXPECT_EQ(sum.load(), c.units * (c.units - 1) / 2)
          << "jobs " << c.jobs << " round " << round;
    }
  }
}

TEST(Executor, MapReturnsResultsInIndexOrder) {
  const auto unit = [](std::size_t i) { return i * i + 1; };
  const Executor serial(1);
  const std::vector<std::size_t> expected = serial.map(100, unit);
  for (const int jobs : {2, 7, 16}) {
    const Executor executor(jobs);
    EXPECT_EQ(executor.map(100, unit), expected) << "jobs " << jobs;
  }
}

TEST(Executor, SeedNeverAffectsResults) {
  const auto unit = [](std::size_t i) { return std::to_string(i * 3); };
  const Executor a(4, /*seed=*/1);
  const Executor b(4, /*seed=*/0xDEADBEEF);
  EXPECT_EQ(a.map(64, unit), b.map(64, unit));
}

TEST(Executor, SerialRethrowsFirstExceptionInIndexOrder) {
  const Executor executor(1);
  try {
    executor.for_each(100, [](std::size_t i) {
      if (i == 17 || i == 42 || i == 91) {
        throw std::runtime_error("unit " + std::to_string(i));
      }
    });
    FAIL() << "expected a rethrow";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "unit 17");
  }
}

TEST(Executor, SingleFailingUnitIsRethrownAtAnyJobs) {
  for (const int jobs : {2, 7, 16}) {
    const Executor executor(jobs);
    try {
      executor.for_each(100, [](std::size_t i) {
        if (i == 42) throw std::runtime_error("unit 42");
      });
      FAIL() << "expected a rethrow at jobs " << jobs;
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "unit 42") << "jobs " << jobs;
    }
  }
}

TEST(Executor, ParallelRethrowComesFromAFailingUnit) {
  // After the first failure the pool drains fast (not-yet-started units are
  // skipped), so the guarantee is: the rethrown exception belongs to the
  // lowest-indexed unit *that threw* — always one of the failing units.
  for (const int jobs : {7, 16}) {
    const Executor executor(jobs);
    try {
      executor.for_each(100, [](std::size_t i) {
        if (i == 17 || i == 42 || i == 91) {
          throw std::runtime_error("unit " + std::to_string(i));
        }
      });
      FAIL() << "expected a rethrow at jobs " << jobs;
    } catch (const std::runtime_error& e) {
      const std::string what = e.what();
      EXPECT_TRUE(what == "unit 17" || what == "unit 42" || what == "unit 91")
          << what << " at jobs " << jobs;
    }
  }
}

TEST(Executor, NestedFanOutRunsInlineOnWorkers) {
  const Executor outer(4);
  const Executor inner(4);
  std::atomic<int> nested_on_worker{0};
  const std::vector<int> sums = outer.map(8, [&](std::size_t i) {
    // A nested fan-out must not deadlock the fixed pool; it runs inline on
    // the claiming worker.
    int sum = 0;
    std::vector<int> parts(16, 0);
    inner.for_each(16, [&](std::size_t j) {
      if (Executor::in_worker()) ++nested_on_worker;
      parts[j] = static_cast<int>(i * 100 + j);
    });
    for (const int p : parts) sum += p;
    return sum;
  });
  for (std::size_t i = 0; i < sums.size(); ++i) {
    int expected = 0;
    for (int j = 0; j < 16; ++j) expected += static_cast<int>(i) * 100 + j;
    EXPECT_EQ(sums[i], expected);
  }
  EXPECT_GT(nested_on_worker.load(), 0);
}

TEST(Executor, MapHandlesNonDefaultConstructibleResults) {
  // map() must not require R() — results land in optional slots and are
  // moved out in index order.
  struct Tagged {
    explicit Tagged(std::size_t v) : value(v) {}
    Tagged(const Tagged&) = delete;
    Tagged& operator=(const Tagged&) = delete;
    Tagged(Tagged&&) = default;
    Tagged& operator=(Tagged&&) = default;
    std::size_t value;
  };
  static_assert(!std::is_default_constructible_v<Tagged>);
  for (const int jobs : {1, 2, 7, 16}) {
    const Executor executor(jobs);
    const std::vector<Tagged> results =
        executor.map(50, [](std::size_t i) { return Tagged(i * 2 + 1); });
    ASSERT_EQ(results.size(), 50u) << "jobs " << jobs;
    for (std::size_t i = 0; i < results.size(); ++i) {
      EXPECT_EQ(results[i].value, i * 2 + 1) << "jobs " << jobs;
    }
  }
}

TEST(Executor, ZeroUnitsIsANoOp) {
  const Executor executor(4);
  bool ran = false;
  executor.for_each(0, [&](std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
  EXPECT_TRUE(executor.map(0, [](std::size_t i) { return i; }).empty());
}

// Cooperative cancellation: a token armed before the fan-out stops every
// unit from starting; a token armed mid-flight stops the not-yet-started
// tail. Cancellation is only ever observed *between* units — a running
// unit always completes.

TEST(Executor, PreArmedTokenCancelsBeforeAnyUnitRuns) {
  for (const int jobs : {1, 4}) {
    const Executor executor(jobs);
    CancelToken cancel;
    cancel.request();
    std::atomic<int> ran{0};
    EXPECT_THROW(
        executor.for_each(64, [&](std::size_t) { ++ran; }, &cancel),
        Cancelled);
    EXPECT_EQ(ran.load(), 0) << "jobs " << jobs;
  }
}

TEST(Executor, MidFlightCancellationSkipsTheTail) {
  // Units already running when the token arms drain before the throw
  // propagates: the counter never moves after for_each returns.
  for (const int jobs : {1, 2, 4, 7, 16}) {
    const Executor executor(jobs);
    CancelToken cancel;
    std::atomic<int> ran{0};
    EXPECT_THROW(executor.for_each(
                     256,
                     [&](std::size_t) {
                       if (++ran == 3) cancel.request();
                     },
                     &cancel),
                 Cancelled);
    const int after_throw = ran.load();
    EXPECT_GE(after_throw, 3) << "jobs " << jobs;
    EXPECT_LT(after_throw, 256) << "jobs " << jobs;
    EXPECT_EQ(ran.load(), after_throw) << "jobs " << jobs;
  }
}

TEST(Executor, NullTokenAndUnarmedTokenAreHarmless) {
  const Executor executor(4);
  CancelToken cancel;
  std::atomic<int> ran{0};
  executor.for_each(32, [&](std::size_t) { ++ran; }, nullptr);
  executor.for_each(32, [&](std::size_t) { ++ran; }, &cancel);
  EXPECT_EQ(ran.load(), 64);
}

TEST(Executor, UnitErrorsOutrankCancellation) {
  // When a unit throws and the token is also armed, callers see the unit's
  // error (the root cause), not the cancellation it triggered.
  for (const int jobs : {1, 4, 16}) {
    const Executor executor(jobs);
    CancelToken cancel;
    try {
      executor.for_each(
          64,
          [&](std::size_t i) {
            if (i == 5) {
              cancel.request();
              throw std::runtime_error("unit 5");
            }
          },
          &cancel);
      FAIL() << "expected a rethrow at jobs " << jobs;
    } catch (const Cancelled&) {
      FAIL() << "cancellation masked the unit error at jobs " << jobs;
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "unit 5") << "jobs " << jobs;
    }
  }
}

TEST(Executor, TokenResetMakesItReusable) {
  const Executor executor(1);
  CancelToken cancel;
  cancel.request();
  EXPECT_THROW(executor.for_each(4, [](std::size_t) {}, &cancel), Cancelled);
  cancel.reset();
  int ran = 0;
  executor.for_each(4, [&](std::size_t) { ++ran; }, &cancel);
  EXPECT_EQ(ran, 4);
}

TEST(DescribeExecutor, NamesEveryConfigField) {
  const Executor executor(5, /*seed=*/0xABC);
  EXPECT_EQ(describe_executor(executor), "jobs=5 seed=0x0000000000000abc");
}

}  // namespace
}  // namespace re::engine
