#include "spans.h"

#include <chrono>
#include <cstdio>
#include <unordered_map>

namespace agora::perf {

namespace {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

constexpr std::uint32_t kIdBits = 24;  ///< span ids per log before the thread bits

}  // namespace

SpanLog::SpanLog(std::uint32_t thread) : base_(thread << kIdBits) {
  spans_.reserve(std::size_t{1} << 16);
}

std::uint32_t SpanLog::open(const char* name, std::uint64_t request, std::uint32_t parent) {
  Span s;
  s.request = request;
  s.id = base_ + static_cast<std::uint32_t>(spans_.size()) + 1;
  s.parent = parent;
  s.name = name;
  s.start_ns = now_ns();
  spans_.push_back(s);
  return s.id;
}

void SpanLog::close(std::uint32_t id) {
  spans_[(id - base_) - 1].end_ns = now_ns();
}

SpanLog* Tracer::add_log() {
  logs_.push_back(std::make_unique<SpanLog>(static_cast<std::uint32_t>(logs_.size() + 1)));
  return logs_.back().get();
}

std::map<std::string, SelfTime> Tracer::self_times() const {
  std::map<std::string, SelfTime> out;
  for (const auto& log : logs_) {
    // Child-covered time per parent id; children never overlap each other
    // because one thread records them sequentially.
    std::unordered_map<std::uint32_t, double> covered_us;
    for (const Span& s : log->spans())
      if (s.parent != 0) covered_us[s.parent] += 1e-3 * static_cast<double>(s.end_ns - s.start_ns);
    for (const Span& s : log->spans()) {
      const double dur = 1e-3 * static_cast<double>(s.end_ns - s.start_ns);
      SelfTime& t = out[s.name];
      ++t.spans;
      t.total_us += dur;
      const auto it = covered_us.find(s.id);
      t.self_us += dur - (it == covered_us.end() ? 0.0 : it->second);
    }
  }
  return out;
}

std::size_t Tracer::span_count() const {
  std::size_t n = 0;
  for (const auto& log : logs_) n += log->spans().size();
  return n;
}

bool Tracer::write_jsonl(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  for (const auto& log : logs_)
    for (const Span& s : log->spans())
      std::fprintf(f,
                   "{\"request\":%llu,\"id\":%u,\"parent\":%u,\"name\":\"%s\","
                   "\"start_ns\":%lld,\"end_ns\":%lld}\n",
                   static_cast<unsigned long long>(s.request), s.id, s.parent, s.name,
                   static_cast<long long>(s.start_ns), static_cast<long long>(s.end_ns));
  return std::fclose(f) == 0;
}

}  // namespace agora::perf
