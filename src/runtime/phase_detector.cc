#include "runtime/phase_detector.hh"

namespace re::runtime {

PhaseDetector::PhaseDetector(const PhaseDetectorOptions& options)
    : opts_(options) {
  if (opts_.hysteresis_windows < 1) opts_.hysteresis_windows = 1;
}

PhaseDecision PhaseDetector::observe(const core::PhaseSignature& signature) {
  ++windows_;
  PhaseDecision decision;

  const std::size_t known = centroids_.size();
  const int best = core::assign_phase(signature, centroids_,
                                      opts_.similarity_threshold);
  decision.novel = centroids_.size() > known;
  decision.raw_phase = best;

  if (current_ < 0) {
    // First window: commit immediately, not a "switch".
    current_ = best;
  } else if (best == current_) {
    candidate_ = -1;
    candidate_streak_ = 0;
  } else {
    if (best == candidate_) {
      ++candidate_streak_;
    } else {
      candidate_ = best;
      candidate_streak_ = 1;
    }
    if (candidate_streak_ >= opts_.hysteresis_windows) {
      current_ = best;
      candidate_ = -1;
      candidate_streak_ = 0;
      decision.switched = true;
      ++switches_;
    }
  }

  decision.phase = current_;
  return decision;
}

}  // namespace re::runtime
