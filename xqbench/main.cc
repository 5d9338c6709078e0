// xqbench: the end-to-end benchmark binary (README.md).
//
//   xqbench --workload xmark_scale|service_mixed|xmark_update
//           --seed N --seconds S --trace 0|1 [--workdir DIR]
//
// Prints one context line, then as its last line one JSON object with
// the keys correct, attempted, failed and metrics. Untraced runs report
// the end-to-end metrics; traced runs the per-layer metrics.

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>

#include "bench.h"

namespace xqbench {
namespace {

struct Workload {
  const char* name;
  WorkloadResult (*run)(const RunOptions&);
  /// Measuring time of this workload's short traced companion run, which
  /// fills the per-layer metrics of layers another workload does not
  /// exercise.
  double filler_seconds;
};

const std::vector<Workload>& Workloads() {
  static const std::vector<Workload> kWorkloads = {
      {"xmark_scale", RunXMarkScale, 0},
      {"service_mixed", RunServiceMixed, 1.0},
      {"xmark_update", RunXMarkUpdate, 1.0},
  };
  return kWorkloads;
}

int Usage(const char* message) {
  std::fprintf(stderr,
               "xqbench: %s\nusage: xqbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--workdir DIR]\n",
               message);
  return 2;
}

std::string RenderContext(
    const std::vector<std::pair<std::string, std::string>>& members) {
  std::string out = "{";
  for (size_t i = 0; i < members.size(); ++i) {
    if (i != 0) out += ",";
    out += JsonString(members[i].first) + ":" + members[i].second;
  }
  return out + "}";
}

std::string RenderMetrics(const MetricMap& metrics) {
  std::string out = "{";
  bool first = true;
  for (const auto& [name, metric] : metrics) {
    if (!first) out += ", ";
    first = false;
    out += JsonString(name) + ": {\"value\": " + JsonNumber(metric.value) +
           ", \"unit\": " + JsonString(metric.unit) + "}";
  }
  return out + "}";
}

int Main(int argc, char** argv) {
  std::string workload;
  RunOptions options;
  options.workdir = ".bench_out";
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      workload = value;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = *end == '\0' && !value.empty();
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
      have_seconds = *end == '\0' && options.seconds > 0;
    } else if (arg == "--trace") {
      have_trace = value == "0" || value == "1";
      options.traced = value == "1";
    } else if (arg == "--workdir") {
      options.workdir = value;
    } else {
      return Usage(("unknown argument " + arg).c_str());
    }
  }
  if (!have_seed || !have_seconds || !have_trace) {
    return Usage("--seed, --seconds and --trace are required");
  }
  const Workload* selected = nullptr;
  for (const Workload& w : Workloads()) {
    if (workload == w.name) selected = &w;
  }
  if (selected == nullptr) return Usage("unknown --workload");
  std::error_code ec;
  std::filesystem::create_directories(options.workdir, ec);
  if (ec) return Usage(("cannot create workdir: " + ec.message()).c_str());

  WorkloadResult result = selected->run(options);

  std::vector<std::pair<std::string, std::string>> context = {
      {"workload", JsonString(selected->name)},
      {"seed", std::to_string(options.seed)},
      {"seconds", JsonNumber(options.seconds)},
      {"trace", options.traced ? "1" : "0"},
      {"nproc", std::to_string(std::thread::hardware_concurrency())},
      {"compiler", JsonString(XQBENCH_COMPILER)},
      {"build_type", JsonString(XQBENCH_BUILD_TYPE)},
  };
  for (auto& member : result.context) context.push_back(member);

  MetricMap metrics;
  if (options.traced) {
    // Layers the selected workload does not exercise are measured by a
    // short traced companion run of the workload that does.
    metrics = result.layers;
    std::string sources;
    for (const Workload& w : Workloads()) {
      if (&w == selected) continue;
      RunOptions filler = options;
      filler.filler = true;
      filler.seconds = w.filler_seconds;
      WorkloadResult companion = w.run(filler);
      result.attempted += companion.attempted;
      result.failed += companion.failed;
      for (const std::string& f : companion.failures) {
        result.failures.push_back(std::string(w.name) + ": " + f);
      }
      for (const auto& [name, metric] : companion.layers) {
        if (metrics.count(name) != 0) continue;
        metrics[name] = metric;
        sources += std::string(sources.empty() ? "" : ",") +
                   JsonString(name) + ":" + JsonString(w.name);
      }
    }
    context.emplace_back("filled_by_companion", "{" + sources + "}");
  } else {
    metrics = result.end_to_end;
    metrics["ok_ratio"] = {
        result.attempted == 0
            ? 0
            : static_cast<double>(result.attempted - result.failed) /
                  static_cast<double>(result.attempted),
        "ratio"};
    metrics["peak_rss_mb"] = {PeakRssMb(), "MB"};
  }
  if (!result.failures.empty()) {
    std::string list = "[";
    for (size_t i = 0; i < result.failures.size(); ++i) {
      list += (i ? "," : "") + JsonString(result.failures[i]);
    }
    context.emplace_back("failures", list + "]");
  }
  std::printf("%s\n", RenderContext(context).c_str());
  std::printf(
      "{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
      "\"metrics\": %s}\n",
      result.failed == 0 && result.attempted > 0 ? "true" : "false",
      static_cast<long long>(result.attempted),
      static_cast<long long>(result.failed), RenderMetrics(metrics).c_str());
  return 0;
}

}  // namespace
}  // namespace xqbench

int main(int argc, char** argv) { return xqbench::Main(argc, argv); }
