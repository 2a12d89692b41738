// Simulator-golden enforcement: the committed cycles, DRAM lines and
// prefetch counters of every suite run and golden mix must match what the
// timed simulator produces today. A reviewed simulator change re-blesses
// via `tools/check.sh verify --bless`; anything else that moves a simulated
// number is a regression this test names line by line.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "engine/executor.hh"
#include "sim/config.hh"
#include "verify/golden.hh"

#ifndef RE_SOURCE_DIR
#error "RE_SOURCE_DIR must point at the repository root"
#endif

namespace re::verify {
namespace {

void expect_matches_snapshot(const sim::MachineConfig& machine) {
  const engine::Executor executor(2);
  const std::string actual = render_sim_golden(
      compute_sim_golden(machine, &executor), machine.name);
  const std::string path = std::string(RE_SOURCE_DIR) + "/tests/golden/" +
                           sim_golden_filename(machine.name);
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "missing golden file " << path
                         << " — bless with tools/check.sh verify --bless";
  std::ostringstream expected;
  expected << in.rdbuf();
  EXPECT_EQ(diff_golden(expected.str(), actual), "")
      << "simulated statistics drifted from tests/golden/"
      << sim_golden_filename(machine.name)
      << " — if intentional, re-bless with tools/check.sh verify --bless";
}

TEST(GoldenSim, AmdMatchesCommittedSnapshot) {
  expect_matches_snapshot(sim::amd_phenom_ii());
}

TEST(GoldenSim, IntelMatchesCommittedSnapshot) {
  expect_matches_snapshot(sim::intel_sandybridge());
}

TEST(GoldenSim, FilenameIsSlugged) {
  EXPECT_EQ(sim_golden_filename("AMD Phenom II"), "sim_amd_phenom_ii.golden");
  EXPECT_EQ(sim_golden_filename("Intel i7-2600K"),
            "sim_intel_i7_2600k.golden");
}

}  // namespace
}  // namespace re::verify
