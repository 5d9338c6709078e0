// xmark_scale: one closed-loop client calling Engine directly over an
// XMark factor sweep (1, 2, 4, 8, 16), one engine per factor, documents
// generated straight into the store. Path navigation, document order,
// the evaluator, the worker pool and the algebra join do the work; the
// service, cache, Δ and WAL do none. See README.md.

#include <algorithm>
#include <memory>

#include "bench.h"
#include "core/engine.h"
#include "oracle.h"
#include "ops.h"
#include "xmark/generator.h"

namespace xqbench {
namespace {

using xqb::Engine;
using xqb::ExecOptions;
using xqb::XMarkParams;

constexpr double kFactors[] = {1, 2, 4, 8, 16};
constexpr size_t kFactorCount = sizeof(kFactors) / sizeof(kFactors[0]);
/// The exponent is fitted on the upper factors, where per-query fixed
/// cost (prepare, serialize, pool start-up) is negligible.
constexpr size_t kFitFrom = 2;  // Factors 4, 8, 16.
constexpr int kThreads = 4;
constexpr int kSetupReps = 5;
/// An untraced phase runs at least this many passes, so the ten slowest
/// operations beyond latency_p99_ms are always star queries at factor 16
/// and the percentile does not jump between query groups.
constexpr int kMinPasses = 11;

struct Query {
  const char* name;
  const char* text;
  bool optimize;
};

// The five XMark analogues pinned in tests/integration/
// xmark_queries_test.cc (Q2 returns its increase elements serialized
// instead of counting them) plus two pure path scans.
constexpr Query kSuite[] = {
    {"Q1",
     "for $b in doc('auction')/site/people/person[@id = 'person0'] "
     "return string($b/name)",
     false},
    {"Q2",
     "for $b in doc('auction')//open_auction return $b/bidder[1]/increase",
     false},
    {"Q5",
     "count(for $i in doc('auction')//closed_auction "
     "where $i/price >= 250 return $i/price)",
     false},
    // Interpreted, Q8 exceeds the default 50M-step budget from factor 4.
    {"Q8",
     "for $p in doc('auction')//person "
     "let $a := for $t in doc('auction')//closed_auction "
     "          where $t/buyer/@person = $p/@id return $t "
     "order by $p/@id "
     "return count($a)",
     true},
    {"Q20", "count(doc('auction')//person[profile/@income])", false},
    {"item", "count(doc('auction')//item)", false},
    {"star", "count(doc('auction')//*)", false},
};
constexpr size_t kQueryCount = sizeof(kSuite) / sizeof(kSuite[0]);
constexpr size_t kQ8 = 3;
constexpr size_t kItem = 5;
constexpr size_t kStar = 6;

// The complements of Q5 and Q20, run once per factor outside the timed
// phases to check the partition invariants through the evaluator too.
constexpr const char* kQ5Low =
    "count(for $i in doc('auction')//closed_auction "
    "where $i/price < 250 return $i/price)";
constexpr const char* kQ20Without =
    "count(doc('auction')//person[not(profile/@income)])";

std::string Expected(const XMarkFacts& f, size_t query) {
  switch (query) {
    case 0: return f.q1;
    case 1: return f.q2;
    case 2: return std::to_string(f.q5_high);
    case 3: return f.q8;
    case 4: return std::to_string(f.q20_with);
    case 5: return std::to_string(f.items.size());
    default: return std::to_string(f.elements);
  }
}

struct Instance {
  XMarkParams params;
  std::unique_ptr<Engine> engine;
  xqb::NodeId doc = xqb::kInvalidNode;
  XMarkFacts facts;
};

/// Samples of one phase, indexed [query][factor].
struct PhaseSamples {
  std::vector<double> pass_s;
  std::vector<double> op_ms;
  std::vector<double> total_ms[kQueryCount][kFactorCount];
  std::vector<double> run_ms[kQueryCount][kFactorCount];
  // Traced-only layer samples.
  std::vector<double> prepare_us, parse_us, normalize_us, static_check_us;
  std::vector<double> eval_ms, serialize_ms, compile_us, rewrite_us;
  double steps = 0, serialize_bytes = 0, ops = 0;
  double pool_busy_ms = 0, pool_idle_ms = 0, pool_jobs = 0, regions = 0;
  double group_joins = 0, q8_runs = 0;
  double busy_s = 0;
  /// One restart per pass, outside the pass time.
  std::vector<double> restart_s;
};

ExecOptions Options(bool optimize, bool traced) {
  ExecOptions o;
  o.threads = kThreads;
  o.optimize = optimize;
  o.collect_stats = traced;
  return o;
}

/// Restart: reloads every document from its XML text into a fresh
/// engine; returns the summed load time in seconds. With `check`, the
/// reloaded documents must serialize byte-identical to the live ones.
double Restart(const std::vector<std::string>& texts, bool check,
               SpanRecorder* spans, Tally* tally) {
  double total = 0;
  for (const std::string& text : texts) {
    Engine fresh;
    ScopedSpan span(spans, "engine.load", spans->NewRequest());
    auto loaded = fresh.LoadDocumentFromString("auction", text);
    total += span.End() / 1e3;
    if (!loaded.ok()) {
      tally->Fail("restart load: " + loaded.status().ToString());
    } else if (check) {
      tally->Check(fresh.Serialize({xqb::Item::Node(*loaded)}) == text,
                   "restart: reloaded document differs from the live one");
    }
  }
  return total;
}

/// Runs whole passes for `seconds` (at least `min_passes`). After each
/// pass, outside its time, one restart is timed, so the restarts sample
/// the machine over the same stretch as the passes.
void RunPhase(std::vector<Instance>& instances,
              const std::vector<std::string>& texts, double seconds,
              bool traced,
              int min_passes, SpanRecorder* spans, Tally* tally,
              PhaseSamples* s) {
  const double start = NowSeconds();
  for (int pass = 0;
       pass < min_passes || NowSeconds() - start < seconds; ++pass) {
    const double pass_start = NowSeconds();
    for (size_t fi = 0; fi < instances.size(); ++fi) {
      Instance& in = instances[fi];
      for (size_t qi = 0; qi < kQueryCount; ++qi) {
        const Query& q = kSuite[qi];
        OpResult r = RunOp(*in.engine, q.text, Options(q.optimize, traced),
                           spans, "xmark_scale.query");
        const std::string where = std::string(q.name) + " at factor " +
                                  std::to_string(kFactors[fi]);
        if (!r.ok) {
          tally->Fail(where + ": " + r.error);
          continue;
        }
        tally->Check(r.output == Expected(in.facts, qi),
                     where + ": wrong output");
        s->op_ms.push_back(r.total_ms);
        s->total_ms[qi][fi].push_back(r.total_ms);
        s->run_ms[qi][fi].push_back(r.run_ms);
        s->ops += 1;
        s->steps += static_cast<double>(r.stats.guard_steps);
        s->regions += static_cast<double>(r.stats.parallel_regions);
        s->serialize_bytes += static_cast<double>(r.output.size());
        if (!traced) continue;
        s->prepare_us.push_back(r.prepare_ms * 1e3);
        s->parse_us.push_back(Us(r.stats.parse_ns));
        s->normalize_us.push_back(Us(r.stats.normalize_ns));
        s->static_check_us.push_back(Us(r.stats.static_check_ns));
        s->eval_ms.push_back(Ms(r.stats.eval_ns));
        s->serialize_ms.push_back(r.serialize_ms);
        s->pool_busy_ms += Ms(r.stats.pool_busy_ns);
        s->pool_idle_ms += Ms(r.stats.pool_idle_ns);
        s->pool_jobs += static_cast<double>(r.stats.pool_jobs);
        if (qi == kQ8) {
          s->compile_us.push_back(Us(r.stats.compile_ns));
          s->rewrite_us.push_back(Us(r.stats.rewrite_ns));
          s->group_joins += static_cast<double>(r.stats.rw_group_joins);
          s->q8_runs += 1;
        }
      }
    }
    const double pass_s = NowSeconds() - pass_start;
    s->pass_s.push_back(pass_s);
    s->busy_s += pass_s;
    s->restart_s.push_back(Restart(texts, pass == 0, spans, tally));
  }
}

/// Per-query log-log slopes of median time over the upper factors.
std::vector<double> Slopes(
    const std::vector<double> (&ms)[kQueryCount][kFactorCount]) {
  std::vector<double> slopes;
  for (size_t qi = 0; qi < kQueryCount; ++qi) {
    std::vector<double> x, y;
    for (size_t fi = kFitFrom; fi < kFactorCount; ++fi) {
      x.push_back(kFactors[fi]);
      y.push_back(Median(ms[qi][fi]));
    }
    slopes.push_back(LogLogSlope(x, y));
  }
  return slopes;
}

}  // namespace

WorkloadResult RunXMarkScale(const RunOptions& options) {
  WorkloadResult result;
  Tally tally;
  SpanRecorder untraced(false);
  SpanRecorder traced(options.traced);
  const uint64_t doc_seed = SubSeed(options.seed, 1);

  // ---- Setup: generate every factor's document, several times. ----
  std::vector<Instance> instances;
  std::vector<double> setup_s, generate_ms;
  const int setup_reps = options.filler ? 1 : kSetupReps;
  for (int rep = 0; rep < setup_reps; ++rep) {
    instances.clear();
    SpanRecorder* spans = rep + 1 == setup_reps ? &traced : &untraced;
    const double t0 = NowSeconds();
    double gen_ms = 0;
    for (double factor : kFactors) {
      Instance in;
      in.params.factor = factor;
      in.params.seed = doc_seed;
      in.engine = std::make_unique<Engine>();
      ScopedSpan span(spans, "xmark.generate", spans->NewRequest());
      in.doc = GenerateXMarkDocument(&in.engine->store(), in.params);
      in.engine->RegisterDocument("auction", in.doc);
      gen_ms += span.End();
      instances.push_back(std::move(in));
    }
    setup_s.push_back(NowSeconds() - t0);
    generate_ms.push_back(gen_ms);
  }
  for (Instance& in : instances) {
    in.facts = WalkXMark(in.engine->store(), in.doc, in.params);
    tally.Check(in.facts.params_mismatch.empty(),
                "factor " + std::to_string(in.params.factor) + ": " +
                    in.facts.params_mismatch);
    // The partition invariants, through the evaluator.
    for (auto [text, want] :
         {std::pair<const char*, int64_t>{kQ5Low, in.facts.q5_low},
          {kQ20Without, in.facts.q20_without}}) {
      OpResult r = RunOp(*in.engine, text, Options(false, false), &untraced,
                         "check");
      tally.Check(r.ok && r.output == std::to_string(want),
                  std::string("invariant query ") + text + ": " + r.error +
                      r.output);
    }
  }

  // The restart texts: the live documents, serialized.
  std::vector<std::string> texts;
  double text_bytes = 0;
  for (Instance& in : instances) {
    texts.push_back(in.engine->Serialize({xqb::Item::Node(in.doc)}));
    text_bytes += static_cast<double>(texts.back().size());
  }

  // ---- Timed phases. ----
  PhaseSamples plain, deep;
  if (!options.filler) {
    const double seconds =
        options.traced ? options.seconds / 2 : options.seconds;
    RunPhase(instances, texts, seconds, false,
             options.traced ? 3 : kMinPasses, &untraced, &tally, &plain);
  }
  if (options.traced) {
    const double seconds = options.filler ? 0 : options.seconds / 2;
    RunPhase(instances, texts, seconds, true, options.filler ? 1 : 3,
             &traced, &tally, &deep);
  }

  result.Absorb(tally);
  const std::string factors = JsonNumberList(
      std::vector<double>(std::begin(kFactors), std::end(kFactors)));
  result.context = {
      {"factors", factors},
      {"clients", "1"},
      {"threads", std::to_string(kThreads)},
      {"document_seed", std::to_string(doc_seed)},
      {"queries", std::to_string(kQueryCount)},
      {"setup_reps", std::to_string(setup_reps)},
  };

  if (!options.traced) {  // End-to-end metrics come from untraced runs.
    const PhaseSamples& s = plain;
    const double high = HighQuantileLevel(s.op_ms.size());
    const std::vector<double> slopes = Slopes(s.total_ms);
    result.end_to_end = {
        {"setup_s", {Median(setup_s), "s"}},
        {"suite_s", {Median(s.pass_s), "s"}},
        {"scale_exponent", {*std::max_element(slopes.begin(), slopes.end()),
                            "slope"}},
        {"throughput_rps", {s.ops / s.busy_s, "1/s"}},
        {"latency_p50_ms", {Median(s.op_ms), "ms"}},
        {"latency_p99_ms", {Quantile(s.op_ms, high), "ms"}},
        {"recovery_s", {Median(s.restart_s), "s"}},
    };
    result.context.emplace_back("passes", std::to_string(s.pass_s.size()));
    result.context.emplace_back("operations", JsonNumber(s.ops));
    result.context.emplace_back("latency_high_quantile", JsonNumber(high));
    result.context.emplace_back("query_exponents", JsonNumberList(slopes));
    result.context.emplace_back("restart_s", JsonNumberList(s.restart_s));
  }
  if (options.traced) {
    const PhaseSamples& s = deep;
    MetricMap& m = result.layers;
    std::vector<double> star;
    for (size_t fi = 0; fi < kFactorCount; ++fi) {
      star.push_back(Median(s.run_ms[kStar][fi]));
      m["xdm.desc_star_ms.f" + std::to_string(static_cast<int>(kFactors[fi]))] =
          {star.back(), "ms"};
    }
    m["xdm.desc_star_exponent"] = {Slopes(s.run_ms)[kStar], "slope"};
    m["xdm.desc_item_ms.f16"] = {Median(s.run_ms[kItem][kFactorCount - 1]),
                                 "ms"};
    m["algebra.q8_ms.f16"] = {Median(s.run_ms[kQ8][kFactorCount - 1]), "ms"};
    m["algebra.compile_us"] = {Median(s.compile_us), "us"};
    m["algebra.rewrite_us"] = {Median(s.rewrite_us), "us"};
    m["algebra.group_joins"] = {s.group_joins / std::max(1.0, s.q8_runs),
                                "count"};
    const double passes = static_cast<double>(s.pass_s.size());
    const double pool_wall = s.pool_busy_ms + s.pool_idle_ms;
    m["core.pool_busy_share"] = {pool_wall > 0 ? s.pool_busy_ms / pool_wall : 0,
                                 "ratio"};
    m["core.pool_wall_ms"] = {pool_wall / passes, "ms"};
    m["core.pool_jobs"] = {s.pool_jobs / passes, "count"};
    m["core.parallel_regions"] = {s.regions / passes, "count"};
    m["core.eval_ms_p50"] = {Median(s.eval_ms), "ms"};
    m["core.steps_per_request"] = {s.steps / s.ops, "count"};
    m["frontend.prepare_us"] = {Median(s.prepare_us), "us"};
    m["frontend.parse_us"] = {Median(s.parse_us), "us"};
    m["core.normalize_us"] = {Median(s.normalize_us), "us"};
    m["analysis.static_check_us"] = {Median(s.static_check_us), "us"};
    m["xml.serialize_ms_p50"] = {Median(s.serialize_ms), "ms"};
    m["xml.serialize_bytes"] = {s.serialize_bytes / s.ops, "B"};
    m["xml.load_mb_per_s"] = {text_bytes / 1e6 / Median(s.restart_s),
                              "MB/s"};
    m["xmark.generate_ms"] = {Median(generate_ms), "ms"};
    double live = 0, slots = 0;
    for (const Instance& in : instances) {
      live += static_cast<double>(in.engine->store().live_node_count());
      slots += static_cast<double>(in.engine->store().slot_count());
    }
    m["xdm.live_nodes"] = {live, "count"};
    m["xdm.slot_ratio"] = {slots / live, "ratio"};
    if (!options.filler) {
      m["bench.untraced_suite_ms"] = {Median(plain.pass_s) * 1e3, "ms"};
      m["bench.trace_overhead_ratio"] = {
          Median(s.pass_s) / Median(plain.pass_s), "ratio"};
    }
    result.context.emplace_back("spans", std::to_string(traced.size()));
    result.context.emplace_back("span_self_ms", JsonObject(traced.SelfMs()));
    traced.WriteChromeTrace(options.workdir + "/trace-xmark_scale.json");
  }
  return result;
}

}  // namespace xqbench
