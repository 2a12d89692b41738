// In-memory span recorder for the traced benchmark run.
//
// Spans are recorded by the benchmark around its calls into the program's
// layers (the program itself is never instrumented). Each span has a name,
// a layer (the module it measures), start and end times, the id of the
// span that caused it, and a group id shared by every span of one pass,
// mix or request. Spans stay in memory until the run ends; write_chrome()
// then emits them as Chrome trace-event JSON, readable in any trace viewer.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct SpanRecord {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0 = root
  std::uint64_t group = 0;
  std::string name;
  std::string layer;
  std::int64_t start_ns = 0;  // since the tracer's epoch
  std::int64_t end_ns = 0;
  int thread = 0;

  double seconds() const { return static_cast<double>(end_ns - start_ns) * 1e-9; }
};

class Tracer {
 public:
  Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  std::uint64_t next_id();
  std::int64_t now_ns() const;
  /// Record a finished span. Thread-safe.
  void record(SpanRecord span);

  /// Spans recorded so far, in completion order.
  std::vector<SpanRecord> spans() const;

  /// Self time of every span (its duration minus the part of that interval
  /// its children cover), summed per name.
  std::map<std::string, double> self_seconds_by_name() const;

  /// Chrome trace-event JSON ("X" complete events, microsecond times).
  bool write_chrome(const std::string& path) const;

 private:
  Clock::time_point epoch_;
  mutable std::mutex mutex_;  // guards spans_ and next_id_
  std::vector<SpanRecord> spans_;
  std::uint64_t next_id_ = 1;
};

/// RAII span. With a null tracer it does nothing. The parent defaults to
/// the innermost open span on this thread; pass one explicitly for work
/// that runs on another thread (executor units, solver callbacks).
class Span {
 public:
  Span(Tracer* tracer, const char* name, const char* layer,
       std::uint64_t group, std::uint64_t parent = kInheritParent);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  std::uint64_t id() const { return record_.id; }
  /// End the span now instead of at scope exit.
  void end();

  static constexpr std::uint64_t kInheritParent = ~std::uint64_t{0};

 private:
  Tracer* tracer_;
  SpanRecord record_;
  std::uint64_t saved_current_ = 0;
  bool open_ = false;
};

}  // namespace perfbench
