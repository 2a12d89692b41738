// Dispatcher contract tests: exactly-once dispatch, byte-equal results at
// any worker count, inline nesting, drain-style cancellation and
// lowest-index error selection. The suite keeps the StealScheduler name
// from when a work-stealing backend had to honour these same contracts;
// they now pin the one fork-join dispatcher at the worker counts and
// contention levels that backend was tested under.
#include "engine/scheduler.hh"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "engine/executor.hh"
#include "testutil.hh"

namespace re::engine {
namespace {

TEST(StealScheduler, VisitsEveryUnitExactlyOnce) {
  // Not a multiple of any worker count, so the tail gets exercised.
  constexpr std::size_t kUnits = 337;
  for (const int jobs : {1, 2, 7, 16}) {
    std::vector<std::atomic<int>> visits(kUnits);
    const Executor executor(jobs);
    executor.for_each(kUnits, [&](std::size_t i) { ++visits[i]; });
    for (std::size_t i = 0; i < kUnits; ++i) {
      ASSERT_EQ(visits[i].load(), 1) << "unit " << i << " at jobs " << jobs;
    }
  }
}

TEST(StealScheduler, ResultsMatchForkJoinAndSerialAtAnyJobs) {
  // The property test of the determinism contract: every worker count
  // produces the byte-identical result vector of the serial path.
  const auto unit = [](std::size_t i) {
    return std::to_string(i * 31 + 7) + "/" + std::to_string(i % 5);
  };
  const std::vector<std::string> expected = Executor(1).map(333, unit);
  for (const int jobs : {1, 2, 7, 16}) {
    EXPECT_EQ(Executor(jobs).map(333, unit), expected) << "jobs " << jobs;
  }
}

TEST(StealScheduler, SeedNeverAffectsResults) {
  const auto unit = [](std::size_t i) { return i * i; };
  const Executor a(7, /*seed=*/1);
  const Executor b(7, /*seed=*/0xDEADBEEF);
  EXPECT_EQ(a.map(200, unit), b.map(200, unit));
}

TEST(StealScheduler, StealStormIsExactlyOnce) {
  // Claim storm: tiny units, many workers, many rounds — maximal
  // contention on the shared claim counter. Any double-run or drop shows
  // up in the per-unit counters.
  constexpr std::size_t kUnits = 2048;
  const Executor executor(16);
  for (int round = 0; round < 8; ++round) {
    std::vector<std::atomic<int>> visits(kUnits);
    std::atomic<std::uint64_t> sum{0};
    executor.for_each(kUnits, [&](std::size_t i) {
      ++visits[i];
      sum.fetch_add(i, std::memory_order_relaxed);
    });
    for (std::size_t i = 0; i < kUnits; ++i) {
      ASSERT_EQ(visits[i].load(), 1) << "unit " << i << " round " << round;
    }
    EXPECT_EQ(sum.load(), kUnits * (kUnits - 1) / 2) << "round " << round;
  }
}

TEST(StealScheduler, NestedFanOutRunsInlineOnWorkers) {
  const Executor outer(4);
  const Executor inner(4);
  std::atomic<int> nested_on_worker{0};
  const std::vector<int> sums = outer.map(8, [&](std::size_t i) {
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

TEST(StealScheduler, MidStealCancellationDrainsInFlight) {
  // A token armed mid-fan-out stops new units from starting; units already
  // running finish (the counter never moves after the throw propagates).
  for (const int jobs : {1, 2, 7, 16}) {
    const Executor executor(jobs);
    CancelToken cancel;
    std::atomic<int> ran{0};
    EXPECT_THROW(executor.for_each(
                     1024,
                     [&](std::size_t) {
                       if (++ran == 5) cancel.request();
                     },
                     &cancel),
                 Cancelled)
        << "jobs " << jobs;
    const int after_throw = ran.load();
    EXPECT_GE(after_throw, 5) << "jobs " << jobs;
    EXPECT_LT(after_throw, 1024) << "jobs " << jobs;
    EXPECT_EQ(ran.load(), after_throw) << "jobs " << jobs;
  }
}

TEST(StealScheduler, LowestIndexErrorOutranksCancelled) {
  // Property test at every contract job count: when units throw *and* the
  // token arms, the winner is always a unit error — and at jobs=1 (fully
  // ordered claims) it is exactly the lowest-indexed thrower.
  for (const int jobs : {1, 2, 7, 16}) {
    const Executor executor(jobs);
    CancelToken cancel;
    try {
      executor.for_each(
          256,
          [&](std::size_t i) {
            if (i == 9 || i == 40 || i == 200) {
              cancel.request();
              throw std::runtime_error("unit " + std::to_string(i));
            }
          },
          &cancel);
      FAIL() << "expected a rethrow at jobs " << jobs;
    } catch (const Cancelled&) {
      FAIL() << "cancellation masked the unit error at jobs " << jobs;
    } catch (const std::runtime_error& e) {
      const std::string what = e.what();
      EXPECT_TRUE(what == "unit 9" || what == "unit 40" || what == "unit 200")
          << what << " at jobs " << jobs;
    }
  }
  // The serial path runs every unit in index order, so the lowest-indexed
  // thrower is reproducible run to run.
  const Executor serial(1);
  try {
    serial.for_each(256, [](std::size_t i) {
      if (i == 9 || i == 40 || i == 200) {
        throw std::runtime_error("unit " + std::to_string(i));
      }
    });
    FAIL() << "expected a rethrow";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "unit 9");
  }
}

}  // namespace
}  // namespace re::engine
