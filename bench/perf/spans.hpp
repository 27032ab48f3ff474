// In-memory span recorder for the benchmark's traced run.
//
// A span brackets one call into a framework layer (or one benchmark-side
// check) with steady_clock timestamps, the id of the operation it belongs
// to, and the span that encloses it. Spans stay in memory while the traced
// repetition runs and are written out afterwards, as Chrome trace-event JSON
// (chrome://tracing, ui.perfetto.dev) and as a per-name self-time table.
// Untraced repetitions pass a null Tracer, which makes a span one branch.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace sccft::perf {

struct Span {
  std::string name;
  std::int64_t start_ns = 0;  ///< since the tracer's epoch
  std::int64_t end_ns = 0;
  std::int64_t op = -1;       ///< operation id (-1: outside any operation)
  int parent = -1;            ///< index of the enclosing span, -1 at top level
};

/// Per-name totals over a set of spans.
struct SpanTotals {
  std::int64_t count = 0;
  double total_ms = 0.0;
  double self_ms = 0.0;  ///< total minus the time covered by child spans
};

class Tracer final {
 public:
  Tracer() : epoch_(std::chrono::steady_clock::now()) {}

  /// Opens a span nested in the innermost open one.
  void begin(std::string_view name, std::int64_t op) {
    Span span;
    span.name = name;
    span.op = op;
    span.parent = open_.empty() ? -1 : open_.back();
    span.start_ns = now_ns();
    spans_.push_back(std::move(span));
    open_.push_back(static_cast<int>(spans_.size()) - 1);
  }

  /// Closes the innermost open span.
  void end() {
    spans_[static_cast<std::size_t>(open_.back())].end_ns = now_ns();
    open_.pop_back();
  }

  [[nodiscard]] std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
  }

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Totals per span name; self time subtracts each span's direct children.
  [[nodiscard]] std::map<std::string, SpanTotals> totals() const {
    std::vector<std::int64_t> child_ns(spans_.size(), 0);
    for (const Span& span : spans_) {
      if (span.parent >= 0) {
        child_ns[static_cast<std::size_t>(span.parent)] += span.end_ns - span.start_ns;
      }
    }
    std::map<std::string, SpanTotals> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const std::int64_t dur = spans_[i].end_ns - spans_[i].start_ns;
      SpanTotals& t = out[spans_[i].name];
      ++t.count;
      t.total_ms += static_cast<double>(dur) / 1e6;
      t.self_ms += static_cast<double>(dur - child_ns[i]) / 1e6;
    }
    return out;
  }

  /// Wall time covered by top-level spans, in ms.
  [[nodiscard]] double top_level_ms() const {
    std::int64_t ns = 0;
    for (const Span& span : spans_) {
      if (span.parent < 0) ns += span.end_ns - span.start_ns;
    }
    return static_cast<double>(ns) / 1e6;
  }

  /// Chrome trace-event JSON: one complete ("X") event per span, times in us.
  [[nodiscard]] std::string chrome_json() const {
    std::string out = "{\"traceEvents\":[\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out += "{\"name\":\"" + s.name + "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":" +
             micros(s.start_ns) + ",\"dur\":" + micros(s.end_ns - s.start_ns) +
             ",\"args\":{\"op\":" + std::to_string(s.op) +
             ",\"parent\":" + std::to_string(s.parent) + "}}";
      out += i + 1 < spans_.size() ? ",\n" : "\n";
    }
    out += "],\"displayTimeUnit\":\"ms\"}\n";
    return out;
  }

 private:
  static std::string micros(std::int64_t ns) {
    return std::to_string(ns / 1000) + "." + std::to_string(ns % 1000 / 100);
  }

  std::chrono::steady_clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span: opens on construction when `tracer` is non-null, closes on
/// destruction. With a null tracer it does nothing, so workload code is
/// written once for traced and untraced repetitions.
class ScopedSpan final {
 public:
  ScopedSpan(Tracer* tracer, std::string_view name, std::int64_t op) : tracer_(tracer) {
    if (tracer_ != nullptr) tracer_->begin(name, op);
  }
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->end();
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
};

}  // namespace sccft::perf
