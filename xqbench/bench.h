// Shared pieces of the end-to-end benchmark: run options, the metric
// map every workload fills, sample statistics, and the failure tally.
// The benchmark drives XQB only through its public entry points
// (GenerateXMarkDocument/Xml, Engine, QueryService); see README.md.

#ifndef XQBENCH_BENCH_H_
#define XQBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace xqbench {

/// What one workload invocation is asked to do.
struct RunOptions {
  uint64_t seed = 1;
  /// Measuring time of the whole invocation, split over its phases.
  double seconds = 10;
  /// Add a traced phase (spans + ExecOptions::collect_stats) after the
  /// untraced one, and fill the per-layer metrics from it.
  bool traced = false;
  /// Short companion run that only fills per-layer metrics for a traced
  /// run of another workload: one setup, traced phase only.
  bool filler = false;
  /// Directory (inside the checkout) for durable stores and traces.
  std::string workdir;
};

struct Metric {
  double value = 0;
  std::string unit;
};
using MetricMap = std::map<std::string, Metric>;

/// Counts attempted and failed operations; keeps the first few failure
/// messages for the report. Thread-safe.
class Tally {
 public:
  void Fail(const std::string& what) { Add(false, what); }
  /// Records one operation; `ok == false` counts it as failed.
  void Check(bool ok, const std::string& what) { Add(ok, what); }

  int64_t attempted() const;
  int64_t failed() const;
  std::vector<std::string> messages() const;

 private:
  void Add(bool ok, const std::string& what);

  mutable std::mutex mu_;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
  std::vector<std::string> messages_;
};

/// Result of one workload invocation.
struct WorkloadResult {
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> failures;
  /// End-to-end metrics, from the untraced phase.
  MetricMap end_to_end;
  /// Per-layer metrics, from the traced phase (empty when untraced).
  MetricMap layers;
  /// Run context: one JSON object's members, already rendered.
  std::vector<std::pair<std::string, std::string>> context;

  void Absorb(const Tally& tally);
};

// ---- Sample statistics ----

double Quantile(std::vector<double> values, double q);
double Median(const std::vector<double>& values);
/// The highest quantile that still has at least ten samples beyond it,
/// capped at 0.99 (choosing-metrics: report a timing as a median and
/// the highest percentile with ten samples beyond it).
double HighQuantileLevel(size_t n);
/// Least-squares slope of log(y) over log(x).
double LogLogSlope(const std::vector<double>& x, const std::vector<double>& y);

// ---- Clocks and process state ----

inline double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}
double PeakRssMb();

// ---- JSON rendering ----

std::string JsonString(const std::string& s);
std::string JsonNumber(double v);
std::string JsonNumberList(const std::vector<double>& values);
std::string JsonObject(const std::map<std::string, double>& members);

/// Splits a seed into independent sub-seeds (SplitMix64).
uint64_t SubSeed(uint64_t seed, uint64_t stream);

// ---- Workloads ----

WorkloadResult RunXMarkScale(const RunOptions& options);
WorkloadResult RunServiceMixed(const RunOptions& options);
WorkloadResult RunXMarkUpdate(const RunOptions& options);

}  // namespace xqbench

#endif  // XQBENCH_BENCH_H_
