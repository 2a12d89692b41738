// Shared helpers for the paper-reproduction bench binaries.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "sim/config.hh"
#include "support/atomic_file.hh"
#include "support/json.hh"
#include "support/numbers.hh"

namespace re::bench {

/// True when RE_BENCH_SMOKE is set: benches shrink to tiny iteration counts
/// so the CI smoke lane (tools/check.sh bench) can execute every binary
/// quickly without letting them rot.
inline bool smoke_mode() { return std::getenv("RE_BENCH_SMOKE") != nullptr; }

/// A positive count from environment variable `name`, capped at `max`;
/// `fallback` when the variable is unset or not a positive integer.
inline int env_count(const char* name, int fallback, int max) {
  const char* env = std::getenv(name);
  const Expected<std::uint64_t> count = support::parse_uint64(env ? env : "");
  if (!count.has_value() || *count == 0) return fallback;
  return static_cast<int>(std::min<std::uint64_t>(*count, max));
}

/// Engine worker count for benches that fan out over the deterministic
/// executor. RE_BENCH_JOBS overrides (capped at 256); default 1 keeps
/// every bench's default output byte-identical to the serial path.
inline int bench_jobs() { return env_count("RE_BENCH_JOBS", 1, 256); }

/// Mixes per mixed-workload study; RE_MIX_COUNT overrides for quick runs.
inline int mix_count(int fallback) {
  return env_count("RE_MIX_COUNT", fallback, 1'000'000);
}

/// Gates failed so far; a CI-gate bench exits non-zero when any did.
inline int violations = 0;

/// Record gate `what`, printing it when it failed.
inline void check(bool ok, const char* what) {
  if (!ok) {
    std::printf("VIOLATION: %s\n", what);
    ++violations;
  }
}

/// Machine-readable bench output: collects headline metrics and writes them
/// as `BENCH_<name>.json` in the working directory, giving the repo a
/// tracked perf trajectory alongside the human-readable tables.
class JsonReport {
 public:
  explicit JsonReport(std::string bench_name) : name_(std::move(bench_name)) {}

  void set(const std::string& key, double value) {
    metrics_.emplace_back(key, value);
  }
  /// Integers are held and printed exactly (a seed does not survive a
  /// round trip through double).
  void set(const std::string& key, std::uint64_t value) {
    metrics_.emplace_back(key, value);
  }
  void set(const std::string& key, const std::string& value) {
    metrics_.emplace_back(key, value);
  }

  /// Write BENCH_<name>.json; prints a warning and returns false on I/O
  /// failure (benches should not fail CI over a report file). The name is
  /// sanitized for the filename (a bench name is free text and must not be
  /// able to escape the working directory or produce an unopenable path),
  /// and the write goes through the shared atomic temp-file + rename helper
  /// (support/atomic_file.hh) so a crashed or concurrent bench never leaves
  /// a truncated report behind.
  bool write() const {
    const std::string path = "BENCH_" + filename_slug(name_) + ".json";
    std::string doc = "{\"bench\": \"" + json::escape(name_) +
                      "\", \"metrics\": {";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      if (i) doc += ", ";
      doc += '"' + json::escape(metrics_[i].first) +
             "\": " + json::encode(metrics_[i].second);
    }
    doc += "}}\n";
    const Status status = support::write_file_atomic(path, doc);
    if (!status.ok()) {
      std::fprintf(stderr, "warning: %s\n", status.to_string().c_str());
      return false;
    }
    return true;
  }

 private:
  /// Keep [A-Za-z0-9._-]; any other byte (separators, spaces, shell
  /// metacharacters) becomes '_'. Leading dots are also replaced so the
  /// report can never be a hidden file or a ".." path component.
  static std::string filename_slug(const std::string& name) {
    std::string slug;
    slug.reserve(name.size());
    for (char c : name) {
      const bool safe = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                        (c >= '0' && c <= '9') || c == '-' || c == '_' ||
                        (c == '.' && !slug.empty());
      slug.push_back(safe ? c : '_');
    }
    return slug.empty() ? "unnamed" : slug;
  }

  std::string name_;
  std::vector<std::pair<std::string, json::Scalar>> metrics_;
};

/// Print the standard header: which paper artifact this binary regenerates
/// and the (scaled) machine configurations in Table II form.
inline void print_header(const std::string& artifact,
                         const std::string& description) {
  std::printf("================================================================\n");
  std::printf("%s\n%s\n", artifact.c_str(), description.c_str());
  std::printf("================================================================\n");
  for (const sim::MachineConfig& m :
       {sim::amd_phenom_ii(), sim::intel_sandybridge()}) {
    std::printf(
        "%-16s L1 %3llu kB  L2 %4llu kB  LLC %5llu kB  %.1f GHz  "
        "%.1f GB/s peak\n",
        m.name.c_str(),
        static_cast<unsigned long long>(m.l1.size_bytes >> 10),
        static_cast<unsigned long long>(m.l2.size_bytes >> 10),
        static_cast<unsigned long long>(m.llc.size_bytes >> 10),
        m.freq_ghz, m.peak_bandwidth_gbps());
  }
  std::printf("(geometries scaled from the paper's Table II; see DESIGN.md)\n\n");
}

}  // namespace re::bench
