#include "trace.hh"

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cstdio>
#include <unordered_map>
#include <utility>

namespace perfbench {

namespace {

thread_local std::uint64_t t_current_span = 0;

int thread_index() {
  static std::atomic<int> next{1};
  thread_local const int index = next.fetch_add(1);
  return index;
}

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

}  // namespace

Tracer::Tracer() : epoch_(Clock::now()) {}

std::uint64_t Tracer::next_id() {
  std::lock_guard<std::mutex> lock(mutex_);
  return next_id_++;
}

std::int64_t Tracer::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              epoch_)
      .count();
}

void Tracer::record(SpanRecord span) {
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(std::move(span));
}

std::vector<SpanRecord> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

std::map<std::string, double> Tracer::self_seconds_by_name() const {
  const std::vector<SpanRecord> all = spans();
  std::unordered_map<std::uint64_t, std::vector<const SpanRecord*>> children;
  for (const SpanRecord& span : all) {
    if (span.parent != 0) children[span.parent].push_back(&span);
  }
  std::map<std::string, double> self;
  std::vector<std::pair<std::int64_t, std::int64_t>> covered;
  for (const SpanRecord& span : all) {
    std::int64_t busy = 0;
    auto it = children.find(span.id);
    if (it != children.end()) {
      // Children may run concurrently on other threads: subtract the union
      // of their intervals, clipped to this span, not their sum.
      covered.clear();
      for (const SpanRecord* child : it->second) {
        const std::int64_t lo = std::max(child->start_ns, span.start_ns);
        const std::int64_t hi = std::min(child->end_ns, span.end_ns);
        if (lo < hi) covered.emplace_back(lo, hi);
      }
      std::sort(covered.begin(), covered.end());
      std::int64_t reach = span.start_ns;
      for (const auto& [lo, hi] : covered) {
        const std::int64_t from = std::max(lo, reach);
        if (hi > from) {
          busy += hi - from;
          reach = hi;
        }
      }
    }
    self[span.name] += static_cast<double>(span.end_ns - span.start_ns - busy) *
                       1e-9;
  }
  return self;
}

bool Tracer::write_chrome(const std::string& path) const {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  std::fputs("{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n", file);
  const std::vector<SpanRecord> all = spans();
  for (std::size_t i = 0; i < all.size(); ++i) {
    const SpanRecord& s = all[i];
    std::fprintf(file,
                 "%s{\"name\": %s, \"cat\": %s, \"ph\": \"X\", \"pid\": 1, "
                 "\"tid\": %d, \"ts\": %.3f, \"dur\": %.3f, \"args\": "
                 "{\"id\": %" PRIu64 ", \"parent\": %" PRIu64
                 ", \"group\": %" PRIu64 "}}",
                 i == 0 ? "" : ",\n", json_string(s.name).c_str(),
                 json_string(s.layer).c_str(), s.thread,
                 static_cast<double>(s.start_ns) * 1e-3,
                 static_cast<double>(s.end_ns - s.start_ns) * 1e-3, s.id,
                 s.parent, s.group);
  }
  std::fputs("\n]}\n", file);
  return std::fclose(file) == 0;
}

Span::Span(Tracer* tracer, const char* name, const char* layer,
           std::uint64_t group, std::uint64_t parent)
    : tracer_(tracer) {
  if (tracer_ == nullptr) return;
  record_.id = tracer_->next_id();
  record_.parent = parent == kInheritParent ? t_current_span : parent;
  record_.group = group;
  record_.name = name;
  record_.layer = layer;
  record_.thread = thread_index();
  saved_current_ = t_current_span;
  t_current_span = record_.id;
  open_ = true;
  record_.start_ns = tracer_->now_ns();
}

void Span::end() {
  if (!open_) return;
  record_.end_ns = tracer_->now_ns();
  open_ = false;
  t_current_span = saved_current_;
  tracer_->record(record_);
}

Span::~Span() { end(); }

}  // namespace perfbench
