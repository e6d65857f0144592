// In-memory span recorder for the traced benchmark run.
//
// Each span records its name, start, end, the span that was open when it
// began (its parent), the model and job it belongs to, and the counts
// taken at the same boundary (bytes parsed, events simulated, ...).
// Spans stay in memory until the run ends; to_chrome_json() then writes
// them as Chrome trace-event JSON that Perfetto and chrome://tracing
// load.  The recorder is single-threaded: the traced run calls into the
// library from one thread, and a multi-threaded library call (a
// BatchRunner::run) is one span.
//
// prophet::obs::TraceLog cannot serve here: its spans carry no arguments
// and its to_chrome_json() writes none, so the parent, model and job ids
// and the counts would not reach the trace file that perfbench/run.py
// derives self times and per-layer metrics from.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

class SpanLog {
 public:
  struct Span {
    const char* name = "";
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    int parent = -1;
    int model = -1;
    std::int64_t job = -1;
    std::vector<std::pair<const char*, double>> counts;
  };

  SpanLog() : epoch_(std::chrono::steady_clock::now()) {}

  /// While disabled every call is a no-op and begin() returns -1.
  void set_enabled(bool enabled) { enabled_ = enabled; }

  /// Opens a span under the innermost open span; returns its id.
  int begin(const char* name, int model = -1, std::int64_t job = -1) {
    if (!enabled_) {
      return -1;
    }
    Span span;
    span.name = name;
    span.parent = open_.empty() ? -1 : open_.back();
    span.model = model;
    span.job = job;
    span.start_ns = now_ns();
    spans_.push_back(std::move(span));
    const int id = static_cast<int>(spans_.size()) - 1;
    open_.push_back(id);
    return id;
  }

  /// Closes span `id`, which must be the innermost open span.
  void end(int id) {
    if (id < 0) {
      return;
    }
    spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
    open_.pop_back();
  }

  /// Attaches a count to span `id` (ignored for disabled spans).
  void count(int id, const char* key, double value) {
    if (id >= 0) {
      spans_[static_cast<std::size_t>(id)].counts.emplace_back(key, value);
    }
  }

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Chrome trace-event JSON: one complete ("X") event per span, with
  /// the span's id, parent, model, job and counts in `args`.
  [[nodiscard]] std::string to_chrome_json() const {
    std::string out = "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
    char buf[256];
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::snprintf(buf, sizeof buf,
                    "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                    "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                    "\"parent\":%d,\"model\":%d,\"job\":%lld",
                    i == 0 ? "" : ",", s.name,
                    static_cast<double>(s.start_ns) / 1e3,
                    static_cast<double>(s.end_ns - s.start_ns) / 1e3, i,
                    s.parent, s.model, static_cast<long long>(s.job));
      out += buf;
      for (const auto& [key, value] : s.counts) {
        std::snprintf(buf, sizeof buf, ",\"%s\":%.17g", key, value);
        out += buf;
      }
      out += "}}";
    }
    out += "\n]}\n";
    return out;
  }

 private:
  [[nodiscard]] std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
  }

  bool enabled_ = true;
  std::chrono::steady_clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span: begin() on construction, end() on destruction.
class Scope {
 public:
  Scope(SpanLog& log, const char* name, int model = -1,
        std::int64_t job = -1)
      : log_(log), id_(log.begin(name, model, job)) {}
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  ~Scope() { log_.end(id_); }

  void count(const char* key, double value) { log_.count(id_, key, value); }

 private:
  SpanLog& log_;
  int id_;
};

}  // namespace perfbench
