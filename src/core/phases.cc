#include "core/phases.hh"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "core/sampler.hh"
#include "workloads/cursor.hh"

namespace re::core {

double signature_distance(const PhaseSignature& a, const PhaseSignature& b) {
  double distance = 0.0;
  for (const auto& [pc, freq] : a) {
    auto it = b.find(pc);
    distance += std::fabs(freq - (it == b.end() ? 0.0 : it->second));
  }
  for (const auto& [pc, freq] : b) {
    if (!a.count(pc)) distance += freq;
  }
  return distance;
}

PhaseSignature normalize_signature(
    const std::unordered_map<Pc, std::uint64_t>& counts,
    std::uint64_t total) {
  PhaseSignature sig;
  if (total == 0) return sig;
  for (const auto& [pc, count] : counts) {
    sig[pc] = static_cast<double>(count) / static_cast<double>(total);
  }
  return sig;
}

int assign_phase(const PhaseSignature& signature,
                 std::vector<PhaseSignature>& centroids, double threshold) {
  int best = -1;
  double best_distance = threshold;
  for (std::size_t i = 0; i < centroids.size(); ++i) {
    const double d = signature_distance(signature, centroids[i]);
    if (d < best_distance) {
      best_distance = d;
      best = static_cast<int>(i);
    }
  }
  if (best >= 0) return best;
  centroids.push_back(signature);
  return static_cast<int>(centroids.size()) - 1;
}

int PhasedProfile::phase_at(std::uint64_t ref) const {
  int id = segments.empty() ? 0 : segments.back().phase_id;
  for (const PhaseSegment& seg : segments) {
    if (ref >= seg.begin_ref && ref < seg.end_ref) return seg.phase_id;
  }
  return id;
}

Profile PhasedProfile::phase_profile(int phase_id) const {
  // The phase profile is a window of the phase's own references: a
  // position counts the phase's references before it. A span longer than
  // the whole window (it ran through other phases' segments) is not
  // observable inside it: such a reuse dangles, as a watch still open at
  // the end of a sampling window does, and such a stride sample is
  // dropped, as an unclosed breakpoint is.
  const std::uint64_t window = phase_references(phase_id);
  const auto local_ref = [&](std::uint64_t ref) {
    std::uint64_t local = 0;
    for (const PhaseSegment& seg : segments) {
      if (seg.phase_id != phase_id || ref <= seg.begin_ref) continue;
      local += std::min(ref, seg.end_ref) - seg.begin_ref;
    }
    return local;
  };

  Profile out;
  out.sample_period = full.sample_period;
  out.total_references = window;
  // Dangling samples have no closing position; attribute them to every
  // phase proportionally to its share of references (they mostly belong to
  // streaming loads that execute in the long phases anyway).
  const double share = full.total_references
                           ? static_cast<double>(window) /
                                 static_cast<double>(full.total_references)
                           : 0.0;
  out.dangling_reuse_samples = static_cast<std::uint64_t>(
      std::llround(static_cast<double>(full.dangling_reuse_samples) * share));
  for (const auto& [pc, count] : full.dangling_by_pc) {
    const auto scaled = static_cast<std::uint64_t>(
        std::llround(static_cast<double>(count) * share));
    if (scaled > 0) out.dangling_by_pc[pc] = scaled;
  }

  for (ReuseSample s : full.reuse_samples) {
    if (phase_at(s.at_ref) != phase_id) continue;
    if (s.distance >= window) {
      ++out.dangling_reuse_samples;
      ++out.dangling_by_pc[s.first_pc];
      continue;
    }
    s.at_ref = local_ref(s.at_ref);
    out.reuse_samples.push_back(s);
  }
  for (StrideSample s : full.stride_samples) {
    if (phase_at(s.at_ref) != phase_id || s.recurrence >= window) continue;
    s.at_ref = local_ref(s.at_ref);
    out.stride_samples.push_back(s);
  }
  // Execution counts stay the full run's: per-phase counts are not recorded,
  // and the full counts are a conservative upper bound for loop caps.
  out.pc_execution_counts = full.pc_execution_counts;
  return out;
}

std::uint64_t PhasedProfile::phase_references(int phase_id) const {
  std::uint64_t refs = 0;
  for (const PhaseSegment& seg : segments) {
    if (seg.phase_id == phase_id) refs += seg.end_ref - seg.begin_ref;
  }
  return refs;
}

PhasedProfile profile_with_phases(const workloads::Program& program,
                                  const SamplerConfig& sampler_config,
                                  const PhaseOptions& phase_options,
                                  std::uint64_t max_refs) {
  Sampler sampler(sampler_config);
  workloads::ProgramCursor cursor(program);

  PhasedProfile out;
  std::vector<PhaseSignature> centroids;

  std::unordered_map<Pc, std::uint64_t> window_counts;
  std::uint64_t window_start = 0;
  std::uint64_t refs = 0;

  auto close_window = [&](std::uint64_t end_ref) {
    if (end_ref == window_start) return;
    const int best = assign_phase(
        normalize_signature(window_counts, end_ref - window_start), centroids,
        phase_options.similarity_threshold);
    if (!out.segments.empty() && out.segments.back().phase_id == best &&
        out.segments.back().end_ref == window_start) {
      out.segments.back().end_ref = end_ref;  // extend the current segment
    } else {
      out.segments.push_back(PhaseSegment{best, window_start, end_ref});
    }
    window_counts.clear();
    window_start = end_ref;
  };

  while (refs < max_refs) {
    auto event = cursor.next();
    if (!event) break;
    ++refs;
    sampler.observe(event->inst->pc, event->addr);
    ++window_counts[event->inst->pc];
    if (refs - window_start >= phase_options.window_refs) close_window(refs);
  }
  close_window(refs);

  out.full = sampler.finish();
  out.num_phases = static_cast<int>(centroids.size());
  return out;
}

}  // namespace re::core
