// Benchmark-side span recording. Spans are taken around calls into the
// engine's public entry points from the benchmark's own files, kept in
// memory, and written out as Chrome trace_event JSON when a traced run
// ends. The engine's own instrumentation stays at its defaults.

#ifndef XQBENCH_TRACE_H_
#define XQBENCH_TRACE_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace xqbench {

int64_t NowNs();

class SpanRecorder {
 public:
  static constexpr int64_t kNoParent = -1;

  struct Span {
    const char* name = "";
    uint64_t request = 0;  ///< Spans of one request share this id.
    int64_t parent = kNoParent;  ///< Index of the causing span.
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    uint32_t lane = 0;  ///< Client thread that recorded the span.
  };

  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}
  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  bool enabled() const { return enabled_; }
  uint64_t NewRequest();

  /// Opens a span (when enabled) and returns its index, or kNoParent.
  int64_t Open(const char* name, uint64_t request, int64_t parent,
               uint32_t lane = 0);
  void Close(int64_t index);

  /// Summed self time per span name, in milliseconds: each span's
  /// duration minus the part its child spans cover.
  std::map<std::string, double> SelfMs() const;
  size_t size() const;

  /// Writes the spans as Chrome trace_event JSON; false on I/O error.
  bool WriteChromeTrace(const std::string& path) const;

 private:
  const bool enabled_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  uint64_t next_request_ = 1;
};

/// Times one call: always measures (the workloads need the latency
/// untraced too) and records a span only when the recorder is enabled.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, const char* name, uint64_t request,
             int64_t parent = SpanRecorder::kNoParent, uint32_t lane = 0)
      : recorder_(recorder),
        index_(recorder->Open(name, request, parent, lane)),
        start_ns_(NowNs()) {}
  ~ScopedSpan() { End(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// Closes the span (idempotent) and returns its duration in ms.
  double End();
  int64_t index() const { return index_; }

 private:
  SpanRecorder* recorder_;
  int64_t index_;
  int64_t start_ns_;
  int64_t end_ns_ = -1;
};

}  // namespace xqbench

#endif  // XQBENCH_TRACE_H_
