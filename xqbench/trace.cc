#include "trace.h"

#include <chrono>
#include <fstream>

#include "bench.h"

namespace xqbench {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

uint64_t SpanRecorder::NewRequest() {
  if (!enabled_) return 0;
  std::lock_guard<std::mutex> lock(mu_);
  return next_request_++;
}

int64_t SpanRecorder::Open(const char* name, uint64_t request,
                           int64_t parent, uint32_t lane) {
  if (!enabled_) return kNoParent;
  const int64_t start = NowNs();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Span{name, request, parent, start, start, lane});
  return static_cast<int64_t>(spans_.size()) - 1;
}

void SpanRecorder::Close(int64_t index) {
  if (index < 0) return;
  const int64_t end = NowNs();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<size_t>(index)].end_ns = end;
}

size_t SpanRecorder::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

std::map<std::string, double> SpanRecorder::SelfMs() const {
  std::lock_guard<std::mutex> lock(mu_);
  // Children of one span run one after another on the parent's thread,
  // so their durations add up without overlap.
  std::vector<int64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_ns[static_cast<size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
  }
  std::map<std::string, double> self;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    self[s.name] += static_cast<double>(s.end_ns - s.start_ns - child_ns[i]) /
                    1e6;
  }
  return self;
}

bool SpanRecorder::WriteChromeTrace(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return false;
  const int64_t base = spans_.empty() ? 0 : spans_.front().start_ns;
  out << "{\"traceEvents\":[";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (i != 0) out << ",\n";
    out << "{\"name\":" << JsonString(s.name)
        << ",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.lane
        << ",\"ts\":" << JsonNumber((s.start_ns - base) / 1e3)
        << ",\"dur\":" << JsonNumber((s.end_ns - s.start_ns) / 1e3)
        << ",\"args\":{\"request\":" << s.request << ",\"span\":" << i
        << ",\"parent\":" << s.parent << "}}";
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

double ScopedSpan::End() {
  if (end_ns_ < 0) {
    end_ns_ = NowNs();
    recorder_->Close(index_);
  }
  return static_cast<double>(end_ns_ - start_ns_) / 1e6;
}

}  // namespace xqbench
