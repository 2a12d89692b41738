#include "core/statstack.hh"

#include <algorithm>
#include <cmath>
#include <limits>

#include "engine/executor.hh"
#include "engine/store.hh"

namespace re::core {

StackDistanceSolver::StackDistanceSolver(const Histogram& finite,
                                         double dangling_count) {
  const auto sorted = finite.sorted();
  total_ = finite.total() + dangling_count;
  if (total_ <= 0.0) {
    // No samples at all: stack distance is identically zero.
    start_ = {0};
    survival_ = {0.0};
    integral_ = {0.0};
    total_ = 0.0;
    return;
  }

  // Survival S(j) = P(reuse distance > j) is a right-continuous step
  // function dropping at each observed key; dangling samples never drop.
  // Build segments [start_i, start_{i+1}) of constant survival together
  // with the running integral SD(start_i) = sum_{j<start_i} S(j).
  start_.reserve(sorted.size() + 1);
  survival_.reserve(sorted.size() + 1);
  integral_.reserve(sorted.size() + 1);

  start_.push_back(0);
  survival_.push_back(1.0);
  integral_.push_back(0.0);

  double cumulative = 0.0;
  for (const auto& [key, count] : sorted) {
    cumulative += count;
    // count_le(j) includes `key` once j >= key, so survival changes at
    // j = key: a new segment starts there.
    const RefCount seg_start = key;
    const double new_survival = (total_ - cumulative) / total_;
    if (seg_start == start_.back()) {
      // First key is 0: overwrite the initial segment in place.
      survival_.back() = new_survival;
    } else {
      const double seg_integral =
          integral_.back() +
          static_cast<double>(seg_start - start_.back()) * survival_.back();
      start_.push_back(seg_start);
      survival_.push_back(new_survival);
      integral_.push_back(seg_integral);
    }
  }
}

double StackDistanceSolver::stack_distance(RefCount reuse_distance) const {
  if (total_ <= 0.0 || reuse_distance == 0) return 0.0;
  if (reuse_distance == kInfiniteDistance) {
    return std::numeric_limits<double>::infinity();
  }
  // Find the segment containing j = reuse_distance - 1 ... but since the
  // integral is over [0, D), locate the last segment starting at or before D
  // and extend linearly.
  auto it = std::upper_bound(start_.begin(), start_.end(), reuse_distance);
  const std::size_t i = static_cast<std::size_t>(it - start_.begin()) - 1;
  return integral_[i] +
         static_cast<double>(reuse_distance - start_[i]) * survival_[i];
}

RefCount StackDistanceSolver::reuse_distance_for(double stack_distance) const {
  if (stack_distance <= 0.0) return 0;
  if (total_ <= 0.0) return kInfiniteDistance;

  // Find the first segment whose end-integral reaches the target, then
  // solve within it. The final segment extends to infinity with slope equal
  // to the terminal survival (dangling fraction).
  for (std::size_t i = 0; i < start_.size(); ++i) {
    const bool last = i + 1 == start_.size();
    const double seg_end_integral =
        last ? std::numeric_limits<double>::infinity()
             : integral_[i + 1];
    if (stack_distance <= seg_end_integral) {
      if (survival_[i] <= 0.0) {
        if (last) return kInfiniteDistance;
        continue;  // zero-slope segment cannot reach a larger target
      }
      const double offset = (stack_distance - integral_[i]) / survival_[i];
      return start_[i] + static_cast<RefCount>(std::ceil(offset));
    }
  }
  return kInfiniteDistance;
}

MissRatioCurve::MissRatioCurve(
    std::vector<RefCount> sorted_reuse_distances, double dangling,
    std::shared_ptr<const StackDistanceSolver> solver)
    : reuse_distances_(std::move(sorted_reuse_distances)),
      dangling_(dangling),
      solver_(std::move(solver)) {
  samples_ = static_cast<double>(reuse_distances_.size()) + dangling_;
}

double MissRatioCurve::miss_ratio_lines(std::uint64_t cache_lines) const {
  if (samples_ <= 0.0) return 0.0;
  const RefCount threshold =
      solver_->reuse_distance_for(static_cast<double>(cache_lines));
  double misses = dangling_;
  if (threshold != kInfiniteDistance) {
    auto it = std::lower_bound(reuse_distances_.begin(),
                               reuse_distances_.end(), threshold);
    misses += static_cast<double>(reuse_distances_.end() - it);
  }
  return misses / samples_;
}

StatStack::StatStack(const Profile& profile)
    : StatStack(profile, nullptr, nullptr) {}

StatStack::StatStack(const Profile& profile,
                     const engine::Executor* executor,
                     engine::ArtifactStore* store) {
  Histogram finite;
  for (const ReuseSample& s : profile.reuse_samples) {
    finite.add(s.distance);
  }
  solver_ = std::make_shared<StackDistanceSolver>(
      finite, static_cast<double>(profile.dangling_reuse_samples));

  // Group reuse distances by the reusing (second) PC: each sample is an
  // unbiased observation of one execution of that PC. With a store, hot
  // PCs keep their dense index across windowed solves and the grouping
  // buffers keep their capacity — steady-state windows allocate nothing.
  engine::ArtifactStore local;
  engine::ArtifactStore& scratch = store != nullptr ? *store : local;
  scratch.clear();
  engine::PcInterner& table = scratch.pc_table();

  for (const ReuseSample& s : profile.reuse_samples) {
    table.intern(s.second_pc);
  }
  // Dangling samples join the curve of their sampled PC (see
  // Profile::dangling_by_pc); PCs with only dangling samples still get a
  // curve (pure streaming with no observed reuse at all).
  for (const auto& [pc, count] : profile.dangling_by_pc) {
    (void)count;
    table.intern(pc);
  }
  std::vector<std::vector<RefCount>>& groups =
      scratch.reuse_groups(table.size());
  std::vector<std::uint32_t>& touched = scratch.touched_pcs();

  std::vector<RefCount> all;
  all.reserve(profile.reuse_samples.size());
  for (const ReuseSample& s : profile.reuse_samples) {
    const std::uint32_t id = table.index_of(s.second_pc);
    if (groups[id].empty()) touched.push_back(id);
    groups[id].push_back(s.distance);
    all.push_back(s.distance);
  }

  std::sort(all.begin(), all.end());
  application_ = MissRatioCurve(
      std::move(all), static_cast<double>(profile.dangling_reuse_samples),
      solver_);

  pcs_.reserve(touched.size() + profile.dangling_by_pc.size());
  for (const std::uint32_t id : touched) pcs_.push_back(table.pc_of(id));
  for (const auto& [pc, count] : profile.dangling_by_pc) {
    (void)count;
    if (groups[table.index_of(pc)].empty()) pcs_.push_back(pc);
  }
  std::sort(pcs_.begin(), pcs_.end());

  // Per-PC curve construction is embarrassingly parallel: unit i owns
  // exactly pcs_[i]'s group and curves[i], and the serial emplace below
  // runs in sorted-PC order — the model is byte-identical at any worker
  // count.
  std::vector<MissRatioCurve> curves(pcs_.size());
  const auto build = [&](std::size_t i) {
    const Pc pc = pcs_[i];
    std::vector<RefCount>& distances = groups[table.index_of(pc)];
    std::sort(distances.begin(), distances.end());
    double dangling = 0.0;
    auto it = profile.dangling_by_pc.find(pc);
    if (it != profile.dangling_by_pc.end()) {
      dangling = static_cast<double>(it->second);
    }
    curves[i] = MissRatioCurve(distances, dangling, solver_);
  };
  if (executor != nullptr) {
    executor->for_each(pcs_.size(), build);
  } else {
    for (std::size_t i = 0; i < pcs_.size(); ++i) build(i);
  }

  per_pc_.reserve(pcs_.size());
  for (std::size_t i = 0; i < pcs_.size(); ++i) {
    per_pc_.emplace(pcs_[i], std::move(curves[i]));
  }
}

const MissRatioCurve& StatStack::pc_mrc(Pc pc) const {
  auto it = per_pc_.find(pc);
  return it == per_pc_.end() ? empty_ : it->second;
}

double StatStack::estimated_misses(Pc pc, std::uint64_t cache_lines,
                                   const Profile& profile) const {
  return pc_mrc(pc).miss_ratio_lines(cache_lines) *
         static_cast<double>(profile.executions_of(pc));
}

}  // namespace re::core
