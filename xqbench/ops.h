// One end-to-end engine operation as the benchmark issues it: query
// text to serialized bytes through Engine::Prepare, Engine::Run and
// Engine::Serialize, each call timed and (when tracing) spanned.

#ifndef XQBENCH_OPS_H_
#define XQBENCH_OPS_H_

#include <string>

#include "base/exec_stats.h"
#include "core/engine.h"
#include "trace.h"

namespace xqbench {

struct OpResult {
  bool ok = false;
  std::string error;   ///< Status text when !ok.
  std::string output;  ///< Serialized result when ok.
  double total_ms = 0;
  double prepare_ms = 0;
  double run_ms = 0;
  double serialize_ms = 0;
  /// Engine::last_stats() after Serialize (detailed fields only when the
  /// options set collect_stats).
  xqb::ExecStats stats;
};

/// Runs `query` on `engine`. `span` names the enclosing request span;
/// its children are engine.prepare / engine.run / engine.serialize.
OpResult RunOp(xqb::Engine& engine, const std::string& query,
               const xqb::ExecOptions& options, SpanRecorder* spans,
               const char* span);

inline double Ms(int64_t ns) { return static_cast<double>(ns) / 1e6; }
inline double Us(int64_t ns) { return static_cast<double>(ns) / 1e3; }

}  // namespace xqbench

#endif  // XQBENCH_OPS_H_
