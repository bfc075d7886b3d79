// spans.h -- the traced run's span recorder.
//
// The benchmark records a span around each of its own calls into an agora
// layer (engine.consult, engine.apply, net.consult, sim.run, ...). A span
// has a name, a start, an end and a parent; every span of one request
// carries that request's id. Spans are appended to a per-thread log held in
// memory and written out once, when the run ends, so recording costs two
// clock reads and a vector append.
//
// A layer's self time is the duration of its spans minus the part covered
// by their child spans.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace agora::perf {

struct Span {
  std::uint64_t request = 0;  ///< id shared by every span of one request
  std::uint32_t id = 0;       ///< unique within the tracer
  std::uint32_t parent = 0;   ///< 0 for a root span
  const char* name = "";      ///< static string
  std::int64_t start_ns = 0;  ///< steady_clock, nanoseconds
  std::int64_t end_ns = 0;
};

/// One thread's spans. Not synchronized: each recording thread owns one.
class SpanLog {
 public:
  explicit SpanLog(std::uint32_t thread);
  std::uint32_t open(const char* name, std::uint64_t request, std::uint32_t parent);
  void close(std::uint32_t id);
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::uint32_t base_;
  std::vector<Span> spans_;
};

/// RAII span; a null log records nothing (the untraced run).
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, std::uint64_t request, std::uint32_t parent = 0)
      : log_(log), id_(log ? log->open(name, request, parent) : 0) {}
  ~ScopedSpan() {
    if (log_) log_->close(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  std::uint32_t id() const { return id_; }

 private:
  SpanLog* log_;
  std::uint32_t id_;
};

struct SelfTime {
  std::uint64_t spans = 0;
  double total_us = 0.0;  ///< summed span durations
  double self_us = 0.0;   ///< summed durations minus child-covered time
};

class Tracer {
 public:
  /// A new per-thread log. Call before the recording threads start; the
  /// returned log stays valid for the tracer's lifetime.
  SpanLog* add_log();

  /// Self time per span name, over every log.
  std::map<std::string, SelfTime> self_times() const;
  std::size_t span_count() const;

  /// Write every span as one JSON object per line. Returns false on I/O
  /// failure.
  bool write_jsonl(const std::string& path) const;

 private:
  std::vector<std::unique_ptr<SpanLog>> logs_;
};

}  // namespace agora::perf
