#include "core/phases.hh"

#include <gtest/gtest.h>

#include "testutil.hh"

#include "sim/system.hh"
#include "workloads/suite.hh"

namespace re::core {
namespace {

using workloads::GatherPattern;
using workloads::Loop;
using workloads::Program;
using workloads::StaticInst;
using workloads::StreamPattern;

/// A program with two starkly different alternating phases: a streaming
/// phase (pc 1-2) and a gather phase (pc 3-4).
Program two_phase_program(std::uint64_t reps = 4) {
  Program p;
  p.name = "two-phase";
  p.seed = re::testing::test_seed();
  StaticInst s1, s2;
  s1.pc = 1;
  s1.pattern = StreamPattern{0, 16, 1 << 20};
  s2.pc = 2;
  s2.pattern = StreamPattern{1ULL << 32, 16, 1 << 20};
  p.loops.push_back(Loop{{s1, s2}, 100000});
  StaticInst g1, g2;
  g1.pc = 3;
  g1.pattern = GatherPattern{2ULL << 32, 1 << 20, 8};
  g2.pc = 4;
  g2.pattern = GatherPattern{3ULL << 32, 1 << 14, 8};
  p.loops.push_back(Loop{{g1, g2}, 50000});
  p.outer_reps = reps;
  return p;
}

TEST(Phases, DetectsTheTwoPhases) {
  const PhasedProfile phased =
      profile_with_phases(two_phase_program(), SamplerConfig{500, 7});
  // Two real phases; windows straddling a loop transition may form a third
  // "transition" phase (they mix both signatures).
  EXPECT_GE(phased.num_phases, 2);
  EXPECT_LE(phased.num_phases, 3);
  // 4 reps x 2 loops alternate: at least 8 segments.
  EXPECT_GE(phased.segments.size(), 8u);
  // Mid-loop positions land in distinct phases.
  EXPECT_NE(phased.phase_at(100000), phased.phase_at(250000));
}

TEST(Phases, SegmentsTileTheRunContiguously) {
  const PhasedProfile phased =
      profile_with_phases(two_phase_program(), SamplerConfig{500, 7});
  std::uint64_t expected_start = 0;
  for (const PhaseSegment& seg : phased.segments) {
    EXPECT_EQ(seg.begin_ref, expected_start);
    EXPECT_GT(seg.end_ref, seg.begin_ref);
    expected_start = seg.end_ref;
  }
  EXPECT_EQ(expected_start, phased.full.total_references);
}

TEST(Phases, UniformProgramIsOnePhase) {
  const PhasedProfile phased = profile_with_phases(
      workloads::make_benchmark("milc"), SamplerConfig{1000, 7});
  EXPECT_EQ(phased.num_phases, 1);
  EXPECT_EQ(phased.segments.size(), 1u);
}

TEST(Phases, PhaseProfilesSeparateThePcs) {
  const PhasedProfile phased =
      profile_with_phases(two_phase_program(), SamplerConfig{200, 7});
  // Identify phases by mid-loop positions (boundary windows may belong to
  // a separate transition phase).
  const int stream_phase = phased.phase_at(100000);
  const int gather_phase = phased.phase_at(250000);
  ASSERT_NE(stream_phase, gather_phase);

  // Window granularity blurs loop boundaries slightly (an 80/20 window
  // joins the majority phase), so require dominant — not perfect —
  // separation.
  auto share_of = [&](const Profile& profile, Pc a, Pc b) {
    if (profile.stride_samples.empty()) return 1.0;
    std::size_t matching = 0;
    for (const StrideSample& s : profile.stride_samples) {
      if (s.pc == a || s.pc == b) ++matching;
    }
    return static_cast<double>(matching) /
           static_cast<double>(profile.stride_samples.size());
  };
  EXPECT_GT(share_of(phased.phase_profile(stream_phase), 1, 2), 0.85);
  EXPECT_GT(share_of(phased.phase_profile(gather_phase), 3, 4), 0.85);
}

TEST(Phases, PhaseReferencesSumToTotal) {
  const PhasedProfile phased =
      profile_with_phases(two_phase_program(), SamplerConfig{500, 7});
  std::uint64_t sum = 0;
  for (int p = 0; p < phased.num_phases; ++p) {
    sum += phased.phase_references(p);
  }
  EXPECT_EQ(sum, phased.full.total_references);
}

TEST(Phases, RespectsMaxRefs) {
  const PhasedProfile phased = profile_with_phases(
      two_phase_program(), SamplerConfig{500, 7}, PhaseOptions{}, 100000);
  EXPECT_EQ(phased.full.total_references, 100000u);
}

TEST(Phases, SignatureDistanceIsAManhattanMetric) {
  const PhaseSignature a{{1, 0.5}, {2, 0.5}};
  const PhaseSignature b{{1, 0.5}, {3, 0.5}};
  const PhaseSignature c{{4, 1.0}};
  EXPECT_DOUBLE_EQ(signature_distance(a, a), 0.0);
  EXPECT_DOUBLE_EQ(signature_distance(a, b), 1.0);  // pc 2 vs pc 3 swap
  EXPECT_DOUBLE_EQ(signature_distance(a, c), 2.0);  // fully disjoint
  EXPECT_DOUBLE_EQ(signature_distance(a, b), signature_distance(b, a));
  EXPECT_DOUBLE_EQ(signature_distance(a, PhaseSignature{}), 1.0);
}

TEST(Phases, AssignPhaseTakesTheNearestCentroidStrictlyUnderThreshold) {
  std::vector<PhaseSignature> centroids{
      {{1, 1.0}}, {{1, 0.5}, {2, 0.5}}, {{1, 0.5}, {3, 0.5}}};
  // Distance 0.5 to centroids 0 and 1, 1.0 to centroid 2.
  const PhaseSignature between{{1, 0.75}, {2, 0.25}};
  EXPECT_EQ(assign_phase(between, centroids, 0.6), 0);  // first minimum wins
  EXPECT_EQ(assign_phase(centroids[2], centroids, 0.6), 2);
  ASSERT_EQ(centroids.size(), 3u);
  // A distance equal to the threshold does not match: a new phase is born.
  EXPECT_EQ(assign_phase(between, centroids, 0.5), 3);
  ASSERT_EQ(centroids.size(), 4u);
  EXPECT_DOUBLE_EQ(signature_distance(centroids[3], between), 0.0);
}

TEST(Phases, NormalizeSignatureDividesByTotal) {
  const std::unordered_map<Pc, std::uint64_t> counts{{1, 30}, {2, 10}};
  const PhaseSignature sig = normalize_signature(counts, 40);
  EXPECT_DOUBLE_EQ(sig.at(1), 0.75);
  EXPECT_DOUBLE_EQ(sig.at(2), 0.25);
  EXPECT_TRUE(normalize_signature(counts, 0).empty());
}

TEST(Phases, PhaseAtBoundariesAndPastTheEnd) {
  PhasedProfile phased;
  phased.segments = {PhaseSegment{0, 0, 100}, PhaseSegment{1, 100, 250},
                     PhaseSegment{0, 250, 300}};
  phased.num_phases = 2;
  // begin_ref is inclusive, end_ref exclusive.
  EXPECT_EQ(phased.phase_at(0), 0);
  EXPECT_EQ(phased.phase_at(99), 0);
  EXPECT_EQ(phased.phase_at(100), 1);
  EXPECT_EQ(phased.phase_at(249), 1);
  EXPECT_EQ(phased.phase_at(250), 0);
  EXPECT_EQ(phased.phase_at(299), 0);
  // Past the end of the profiled stream the last segment's phase wins (a
  // longer run would most plausibly continue it).
  EXPECT_EQ(phased.phase_at(300), 0);
  EXPECT_EQ(phased.phase_at(1u << 30), 0);
}

TEST(Phases, PhaseAtWithNoSegmentsIsPhaseZero) {
  const PhasedProfile phased;
  EXPECT_EQ(phased.phase_at(0), 0);
  EXPECT_EQ(phased.phase_at(12345), 0);
}

TEST(Phases, PhaseProfileScalesDanglingCountsByReferenceShare) {
  PhasedProfile phased;
  phased.segments = {PhaseSegment{0, 0, 750}, PhaseSegment{1, 750, 1000}};
  phased.num_phases = 2;
  phased.full.total_references = 1000;
  phased.full.sample_period = 100;
  phased.full.dangling_reuse_samples = 40;
  phased.full.dangling_by_pc[7] = 40;
  phased.full.pc_execution_counts[7] = 500;

  // Phase 0 covers 75 % of references -> 75 % of the dangling mass.
  const Profile p0 = phased.phase_profile(0);
  EXPECT_EQ(p0.total_references, 750u);
  EXPECT_EQ(p0.dangling_reuse_samples, 30u);
  EXPECT_EQ(p0.dangling_by_pc.at(7), 30u);
  EXPECT_EQ(p0.sample_period, 100u);

  const Profile p1 = phased.phase_profile(1);
  EXPECT_EQ(p1.total_references, 250u);
  EXPECT_EQ(p1.dangling_reuse_samples, 10u);
  EXPECT_EQ(p1.dangling_by_pc.at(7), 10u);
}

TEST(Phases, PhaseProfilePartitionsPositionedSamples) {
  PhasedProfile phased;
  phased.segments = {PhaseSegment{0, 0, 500}, PhaseSegment{1, 500, 1000}};
  phased.num_phases = 2;
  phased.full.total_references = 1000;
  phased.full.sample_period = 100;
  phased.full.reuse_samples = {ReuseSample{1, 1, 10, 100},
                               ReuseSample{2, 2, 10, 600}};
  phased.full.stride_samples = {StrideSample{1, 64, 5, 499},
                                StrideSample{2, 8, 5, 500}};

  const Profile p0 = phased.phase_profile(0);
  ASSERT_EQ(p0.reuse_samples.size(), 1u);
  EXPECT_EQ(p0.reuse_samples[0].first_pc, 1u);
  ASSERT_EQ(p0.stride_samples.size(), 1u);
  EXPECT_EQ(p0.stride_samples[0].pc, 1u);

  const Profile p1 = phased.phase_profile(1);
  ASSERT_EQ(p1.reuse_samples.size(), 1u);
  EXPECT_EQ(p1.reuse_samples[0].first_pc, 2u);
  ASSERT_EQ(p1.stride_samples.size(), 1u);
  EXPECT_EQ(p1.stride_samples[0].pc, 2u);
}

TEST(Phases, PhaseProfilePositionsArePhaseLocal) {
  PhasedProfile phased;
  phased.segments = {PhaseSegment{0, 0, 500}, PhaseSegment{1, 500, 1000},
                     PhaseSegment{0, 1000, 1500}};
  phased.num_phases = 2;
  phased.full.total_references = 1500;
  phased.full.sample_period = 100;
  // The last reuse and stride samples span more than phase 1's 500
  // references.
  phased.full.reuse_samples = {ReuseSample{1, 1, 10, 1200},
                               ReuseSample{2, 2, 10, 600},
                               ReuseSample{3, 3, 600, 700}};
  phased.full.stride_samples = {StrideSample{1, 64, 5, 1500},
                                StrideSample{3, 64, 600, 700}};

  const Profile p0 = phased.phase_profile(0);
  EXPECT_EQ(p0.total_references, 1000u);
  ASSERT_EQ(p0.reuse_samples.size(), 1u);
  EXPECT_EQ(p0.reuse_samples[0].at_ref, 700u);  // 500 + (1200 - 1000)
  ASSERT_EQ(p0.stride_samples.size(), 1u);
  EXPECT_EQ(p0.stride_samples[0].at_ref, 1000u);  // the run's last position

  const Profile p1 = phased.phase_profile(1);
  EXPECT_EQ(p1.total_references, 500u);
  ASSERT_EQ(p1.reuse_samples.size(), 1u);
  EXPECT_EQ(p1.reuse_samples[0].at_ref, 100u);
  // A reuse longer than the phase's window dangles in it; a stride sample
  // that long is dropped.
  EXPECT_TRUE(p1.stride_samples.empty());
  EXPECT_EQ(p1.dangling_reuse_samples, 1u);
  EXPECT_EQ(p1.dangling_by_pc.at(3), 1u);
}

TEST(Phases, PhaseProfilesPassTheValidator) {
  // Every phase profile of a real run is internally consistent: the
  // validator discards no sample as corrupt.
  const PhasedProfile phased =
      profile_with_phases(two_phase_program(), SamplerConfig{});
  ASSERT_GE(phased.num_phases, 2);
  const ProfileValidator validator;
  for (int phase = 0; phase < phased.num_phases; ++phase) {
    DegradationLog log;
    const Expected<Profile> sanitized =
        validator.sanitize(phased.phase_profile(phase), &log);
    EXPECT_TRUE(sanitized.has_value()) << "phase " << phase;
    EXPECT_EQ(log.count(DegradationReason::kCorruptReuseSample), 0u)
        << "phase " << phase << ": " << log.to_string();
    EXPECT_EQ(log.count(DegradationReason::kCorruptStrideSample), 0u)
        << "phase " << phase << ": " << log.to_string();
  }
}

TEST(Phases, DegenerateSinglePhaseProfileCoversEverything) {
  // A single-loop program: one phase, one segment, and the phase profile
  // must be the full profile (no samples lost to partitioning).
  const Program p = [] {
    Program q;
    q.name = "uniform";
    StaticInst s;
    s.pc = 1;
    s.pattern = StreamPattern{0, 16, 1 << 20};
    q.loops.push_back(Loop{{s}, 200000});
    return q;
  }();
  const PhasedProfile phased = profile_with_phases(p, SamplerConfig{500, 7});
  EXPECT_EQ(phased.num_phases, 1);
  ASSERT_EQ(phased.segments.size(), 1u);
  EXPECT_EQ(phased.phase_references(0), phased.full.total_references);

  const Profile sub = phased.phase_profile(0);
  EXPECT_EQ(sub.reuse_samples.size(), phased.full.reuse_samples.size());
  EXPECT_EQ(sub.stride_samples.size(), phased.full.stride_samples.size());
  EXPECT_EQ(sub.dangling_reuse_samples, phased.full.dangling_reuse_samples);
  EXPECT_EQ(sub.total_references, phased.full.total_references);
}

TEST(PhaseAwareOptimize, FindsTheStreamLoads) {
  const auto machine = sim::amd_phenom_ii();
  const PhasedOptimizationReport report =
      phase_aware_optimize(two_phase_program(), machine);
  bool pc1 = false, pc2 = false;
  for (const PrefetchPlan& plan : report.merged.plans) {
    if (plan.pc == 1) pc1 = true;
    if (plan.pc == 2) pc2 = true;
    EXPECT_NE(plan.pc, 3u);  // gathers are never prefetchable
    EXPECT_NE(plan.pc, 4u);
  }
  EXPECT_TRUE(pc1);
  EXPECT_TRUE(pc2);
}

TEST(PhaseAwareOptimize, OptimizedProgramIsFaster) {
  const auto machine = sim::amd_phenom_ii();
  const Program program = two_phase_program();
  const PhasedOptimizationReport report =
      phase_aware_optimize(program, machine);
  const auto base = sim::run_single(machine, program, false);
  const auto opt = sim::run_single(machine, report.merged.optimized, false);
  EXPECT_LT(opt.apps[0].cycles, base.apps[0].cycles);
}

TEST(PhaseAwareOptimize, MatchesGlobalPipelineOnSinglePhasePrograms) {
  const auto machine = sim::amd_phenom_ii();
  const auto program = workloads::make_benchmark("milc");
  const PhasedOptimizationReport phased =
      phase_aware_optimize(program, machine);
  const OptimizationReport global = optimize_program(program, machine);
  // Same loads chosen (distances may differ slightly through phase window
  // truncation of execution counts).
  ASSERT_EQ(phased.merged.plans.size(), global.plans.size());
  for (std::size_t i = 0; i < global.plans.size(); ++i) {
    const Pc pc = global.plans[i].pc;
    EXPECT_TRUE(std::any_of(
        phased.merged.plans.begin(), phased.merged.plans.end(),
        [&](const PrefetchPlan& p) { return p.pc == pc; }));
  }
}

TEST(PhaseAwareOptimize, AssumedDeltaIsTheMergedDelta) {
  const auto machine = sim::amd_phenom_ii();
  OptimizerOptions options;
  options.assumed_cycles_per_memop = 3.25;
  const PhasedOptimizationReport report =
      phase_aware_optimize(two_phase_program(), machine, options);
  EXPECT_DOUBLE_EQ(report.merged.cycles_per_memop, 3.25);
}

TEST(PhaseAwareOptimize, PerPhasePlansAreTheEngineSolveOfEachPhase) {
  // Each phase runs the one analysis chain (optimize_with_profile) over its
  // phase profile, with the run's Δ assumed.
  const auto machine = sim::amd_phenom_ii();
  const Program program = two_phase_program();
  const PhasedOptimizationReport report =
      phase_aware_optimize(program, machine);
  OptimizerOptions options;
  options.assumed_cycles_per_memop = report.merged.cycles_per_memop;
  ASSERT_EQ(report.per_phase_plans.size(),
            static_cast<std::size_t>(report.phases.num_phases));
  for (int phase = 0; phase < report.phases.num_phases; ++phase) {
    const OptimizationReport solve = optimize_with_profile(
        program, report.phases.phase_profile(phase), machine, options);
    const auto& plans =
        report.per_phase_plans[static_cast<std::size_t>(phase)];
    ASSERT_EQ(plans.size(), solve.plans.size()) << "phase " << phase;
    for (std::size_t i = 0; i < plans.size(); ++i) {
      EXPECT_EQ(plans[i].pc, solve.plans[i].pc);
      EXPECT_EQ(plans[i].distance_bytes, solve.plans[i].distance_bytes);
      EXPECT_EQ(plans[i].hint, solve.plans[i].hint);
    }
  }
}

TEST(PhaseAwareOptimize, PerPhasePlansAreRecorded) {
  const auto machine = sim::amd_phenom_ii();
  const PhasedOptimizationReport report =
      phase_aware_optimize(two_phase_program(), machine);
  ASSERT_EQ(report.per_phase_plans.size(),
            static_cast<std::size_t>(report.phases.num_phases));
  // The stream phase must carry plans for the stream loads.
  const int stream_phase = report.phases.phase_at(100000);
  const auto& stream_plans =
      report.per_phase_plans[static_cast<std::size_t>(stream_phase)];
  EXPECT_FALSE(stream_plans.empty());
  for (const PrefetchPlan& plan : stream_plans) {
    EXPECT_TRUE(plan.pc == 1 || plan.pc == 2);
  }
}

}  // namespace
}  // namespace re::core
