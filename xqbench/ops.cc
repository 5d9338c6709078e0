#include "ops.h"

namespace xqbench {

OpResult RunOp(xqb::Engine& engine, const std::string& query,
               const xqb::ExecOptions& options, SpanRecorder* spans,
               const char* span) {
  OpResult r;
  const uint64_t request = spans->NewRequest();
  ScopedSpan op(spans, span, request);
  xqb::Result<xqb::PreparedQuery> prepared = [&] {
    ScopedSpan s(spans, "engine.prepare", request, op.index());
    auto p = engine.Prepare(query, options.limits);
    r.prepare_ms = s.End();
    return p;
  }();
  if (!prepared.ok()) {
    r.error = "prepare: " + prepared.status().ToString();
    r.total_ms = op.End();
    return r;
  }
  xqb::Result<xqb::Sequence> result = [&] {
    ScopedSpan s(spans, "engine.run", request, op.index());
    auto v = engine.Run(*prepared, options);
    r.run_ms = s.End();
    return v;
  }();
  if (!result.ok()) {
    r.error = "run: " + result.status().ToString();
    r.stats = engine.last_stats();
    r.total_ms = op.End();
    return r;
  }
  {
    ScopedSpan s(spans, "engine.serialize", request, op.index());
    r.output = engine.Serialize(*result);
    r.serialize_ms = s.End();
  }
  r.total_ms = op.End();
  r.stats = engine.last_stats();
  r.ok = true;
  return r;
}

}  // namespace xqbench
