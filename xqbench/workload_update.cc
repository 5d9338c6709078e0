// xmark_update: one client calling Engine directly (threads = 1) on a
// factor-4 auction document loaded as XML text, with durability open
// (WAL sync mode "batch") in a directory inside the checkout. Each
// round runs the XMark update operations U1-U6 of tests/integration/
// xmark_updates_test.cc, each paired with an inverse so the document
// returns to its starting content; CollectGarbage runs after every
// round and Checkpoint after every pass of rounds. Δ construction, snap
// apply, conflict detection, WAL append, checkpoint and GC do the work.

#include <algorithm>
#include <filesystem>
#include <memory>

#include "bench.h"
#include "core/engine.h"
#include "oracle.h"
#include "ops.h"
#include "xmark/generator.h"

namespace xqbench {
namespace {

namespace fs = std::filesystem;
using xqb::Engine;
using xqb::ExecOptions;

constexpr double kFactor = 4;
/// Companion document for the growth exponent (same rounds, factor 1).
constexpr double kSmallFactor = 1;
/// "batch" (an fsync every 16 appends) rather than the default "always":
/// under "always" the slowest ops are fsync-bound, and fsync latency on
/// the shared disk swung latency_p99_ms by a quarter between runs.
constexpr xqb::SyncMode kSync = xqb::SyncMode::kBatch;
constexpr const char* kSyncName = "batch";
constexpr int kRoundsPerPass = 4;  ///< A checkpoint closes every pass.
constexpr int kSetupReps = 5;
/// Open auctions the U2 feed adds (and U2 then closes) each round.
constexpr int kFeed = 32;
/// Persons U6 bulk-appends (and its inverse deletes) each round.
constexpr int kBulk = 100;

struct Op {
  const char* name;
  std::string text;
};

/// One round. U1-U6 are the forward operations; each ".undo" restores
/// what its forward operation changed. U4 deletes every closed auction
/// (including U2's and U5's changes) and U4.undo restores them from the
/// archive document, so it undoes U2 and U5 as well.
std::vector<Op> Round() {
  std::string feed_auction =
      "<open_auction id=\"feed{$i}\"><initial>1.00</initial>";
  for (int b = 0; b < 3; ++b) {
    feed_auction +=
        "<bidder><date>02/02/2002</date><personref person=\"person1\"/>"
        "<increase>2.50</increase></bidder>";
  }
  feed_auction +=
      "<itemref item=\"item0\"/><seller person=\"person2\"/>"
      "<current>9.99</current></open_auction>";
  return {
      {"U1",
       "for $a in doc('auction')//open_auction return "
       "insert { <bidder><date>01/01/2001</date>"
       "<personref person=\"person0\"/>"
       "<increase>13.37</increase></bidder> } into { $a }"},
      {"U1.undo",
       "for $a in doc('auction')//open_auction return "
       "delete { $a/bidder[last()] }"},
      {"U2.feed",
       "let $oa := doc('auction')/site/open_auctions return "
       "for $i in 1 to " + std::to_string(kFeed) + " return insert { " +
           feed_auction + " } into { $oa }"},
      {"U2",
       "let $site := doc('auction')/site return "
       "for $a in $site/open_auctions/open_auction"
       "[count(bidder) >= 3] return ("
       "  insert { <closed_auction>"
       "    <seller person=\"{$a/seller/@person}\"/>"
       "    <buyer person=\"{$a/bidder[last()]/personref/@person}\"/>"
       "    <itemref item=\"{$a/itemref/@item}\"/>"
       "    <price>{string($a/current)}</price>"
       "  </closed_auction> } into { $site/closed_auctions }, "
       "  delete { $a } )"},
      {"U3",
       "for $i in doc('auction')//item return "
       "rename { $i } to { \"product\" }"},
      {"U3.undo",
       "for $i in doc('auction')//product return "
       "rename { $i } to { \"item\" }"},
      // replace expands to insert-after + delete of the same node, which
      // trips conflict rule R4 by construction (docs/LANGUAGE.md), so
      // under conflict-detection U5 swaps each price text as a delete
      // plus an insert into the price element.
      {"U5",
       "snap conflict-detection { "
       "for $p in doc('auction')//closed_auction/price return "
       "(delete { $p/text() }, "
       "insert { text { number($p) * 1.1 } } into { $p }) }"},
      {"U4", "snap delete { doc('auction')//closed_auction }"},
      {"U4.undo",
       "snap insert { doc('archive')/closed_auctions/closed_auction } "
       "into { doc('auction')/site/closed_auctions }"},
      {"U6",
       "let $people := doc('auction')/site/people return "
       "for $i in 1 to " + std::to_string(kBulk) + " return "
       "insert { <person id=\"new{$i}\">"
       "<name>Bulk Loaded</name></person> } into { $people }"},
      {"U6.undo",
       "snap delete { doc('auction')/site/people/person"
       "[starts-with(@id, 'new')] }"},
  };
}

/// Trims every open auction to at most two bids, once, during set-up:
/// from then on U2 closes exactly the fed auctions, and the auction
/// count U1 works on is the generator's, whatever the seed.
constexpr const char* kWarmUp =
    "for $a in doc('auction')/site/open_auctions/open_auction "
    "return delete { $a/bidder[position() > 2] }";

ExecOptions Options(bool traced) {
  ExecOptions o;
  o.threads = 1;
  o.collect_stats = traced;
  return o;
}

int64_t FileBytes(const std::string& dir, bool checkpoints) {
  int64_t total = 0;
  std::error_code ec;
  for (const auto& e : fs::directory_iterator(dir, ec)) {
    const bool is_checkpoint =
        e.path().filename().string().rfind("checkpoint-", 0) == 0;
    if (e.is_regular_file(ec) && is_checkpoint == checkpoints) {
      total += static_cast<int64_t>(e.file_size(ec));
    }
  }
  return total;
}

struct Instance {
  double factor = 0;
  std::string dir;
  std::unique_ptr<Engine> engine;
  xqb::NodeId doc = xqb::kInvalidNode;
  double xml_bytes = 0;  ///< Size of the loaded XML text.
  int64_t elements = 0;  ///< doc('auction') elements after warm-up.
  /// updates_applied of each op: from the tree walk where the count
  /// follows from it, else (-1) from the calibration round.
  std::vector<int64_t> expected_updates;
};

struct PhaseSamples {
  std::vector<double> pass_s;
  std::vector<double> op_ms;
  std::vector<std::vector<double>> per_op_ms;
  double busy_s = 0;
  // Traced-only.
  std::vector<double> prepare_us, parse_us, normalize_us, static_check_us;
  std::vector<double> eval_ms, apply_ms, serialize_ms, gc_ms, checkpoint_ms;
  double steps = 0, updates = 0, ops = 0, gc_freed = 0;
  double wal_bytes = 0, wal_updates = 0, wal_records = 0, rounds = 0;
  double checkpoint_bytes = 0;
  /// One restart per pass, outside the pass time.
  std::vector<double> recovery_s;
  double records_replayed = 0;
};

/// Serialized doc('auction') and doc('archive'), through the engine.
std::string Documents(Engine& engine, SpanRecorder* spans, Tally* tally) {
  std::string out;
  for (const char* q : {"doc('auction')", "doc('archive')"}) {
    OpResult r = RunOp(engine, q, Options(false), spans, "audit");
    tally->Check(r.ok, std::string("audit ") + q + ": " + r.error);
    out += r.output;
  }
  return out;
}

/// Restart: a fresh engine recovers `dir`; returns the OpenDurability
/// time in seconds. The recovered store must pass its integrity audit,
/// and, when `expected` is given, serialize both documents to it.
double Recover(const std::string& dir, const std::string* expected,
               SpanRecorder* spans, Tally* tally, double* replayed) {
  Engine fresh;
  xqb::RecoveryStats stats;
  ScopedSpan span(spans, "engine.open_durability", spans->NewRequest());
  xqb::Status st = fresh.OpenDurability(dir, kSync, &stats);
  const double seconds = span.End() / 1e3;
  *replayed = static_cast<double>(stats.wal_records_replayed);
  tally->Check(st.ok(), "recovery: " + st.ToString());
  if (!st.ok()) return seconds;
  xqb::Status audit = fresh.store().CheckIntegrity();
  tally->Check(audit.ok(), "recovered integrity: " + audit.ToString());
  if (expected != nullptr) {
    tally->Check(Documents(fresh, spans, tally) == *expected,
                 "recovered documents differ from the live engine's");
  }
  return seconds;
}

/// Expected updates_applied per op from a walk of the warmed-up tree;
/// -1 where the count is left to the calibration round.
std::vector<int64_t> ExpectedUpdates(const Instance& in,
                                     const std::vector<Op>& ops) {
  const xqb::Store& store = in.engine->store();
  const xqb::NodeId site = FirstChild(store, in.doc, "site");
  const int64_t open = static_cast<int64_t>(
      ChildElements(store, FirstChild(store, site, "open_auctions")).size());
  const int64_t closed = static_cast<int64_t>(
      ChildElements(store, FirstChild(store, site, "closed_auctions")).size());
  int64_t items = 0;
  for (xqb::NodeId region :
       ChildElements(store, FirstChild(store, site, "regions"))) {
    items += static_cast<int64_t>(ChildElements(store, region, "item").size());
  }
  const std::map<std::string, int64_t> known = {
      {"U1", open},         {"U1.undo", open},  {"U2.feed", kFeed},
      {"U2", 2 * kFeed},    {"U3", items},      {"U3.undo", items},
      {"U5", 2 * (closed + kFeed)},             {"U6", kBulk},
  };
  std::vector<int64_t> expected;
  for (const Op& op : ops) {
    auto it = known.find(op.name);
    expected.push_back(it == known.end() ? -1 : it->second);
  }
  return expected;
}

/// Runs one round and adds its op time to *round_ms. Every count the
/// tree walk does not fix is calibrated by the first round; later
/// rounds must repeat it exactly.
void RunRound(Instance& in, const std::vector<Op>& ops, bool traced,
              SpanRecorder* spans, Tally* tally, PhaseSamples* s,
              double* round_ms) {
  for (size_t i = 0; i < ops.size(); ++i) {
    OpResult r = RunOp(*in.engine, ops[i].text, Options(traced), spans,
                       ops[i].name);
    const std::string where = std::string(ops[i].name) + " at factor " +
                              std::to_string(in.factor);
    if (r.ok && in.expected_updates[i] < 0) {
      in.expected_updates[i] = r.stats.updates_applied;
    }
    if (!r.ok) {
      tally->Fail(where + ": " + r.error);
      continue;
    }
    tally->Check(r.output.empty() &&
                     r.stats.updates_applied == in.expected_updates[i],
                 where + ": " + std::to_string(r.stats.updates_applied) +
                     " updates applied, expected " +
                     std::to_string(in.expected_updates[i]));
    *round_ms += r.total_ms;
    if (s == nullptr) continue;
    s->op_ms.push_back(r.total_ms);
    s->per_op_ms.resize(ops.size());
    s->per_op_ms[i].push_back(r.total_ms);
    s->steps += static_cast<double>(r.stats.guard_steps);
    s->updates += static_cast<double>(r.stats.updates_applied);
    s->ops += 1;
    if (!traced) continue;
    s->prepare_us.push_back(r.prepare_ms * 1e3);
    s->parse_us.push_back(Us(r.stats.parse_ns));
    s->normalize_us.push_back(Us(r.stats.normalize_ns));
    s->static_check_us.push_back(Us(r.stats.static_check_ns));
    s->eval_ms.push_back(Ms(r.stats.eval_ns));
    s->apply_ms.push_back(Ms(r.stats.snap_apply_ns));
    s->serialize_ms.push_back(r.serialize_ms);
  }
  // The round returns the document to its starting node count.
  const int64_t elements = CountElements(in.engine->store(), in.doc);
  tally->Check(elements == in.elements,
               "round left " + std::to_string(elements) +
                   " elements at factor " + std::to_string(in.factor) +
                   ", expected " + std::to_string(in.elements));
}

/// One pass: kRoundsPerPass rounds, each followed by CollectGarbage, and
/// a closing Checkpoint. Its time is the sum of its calls (checks
/// excluded). With `restart`, a copy of the directory taken after the
/// pass's first round (the last checkpoint plus one round of WAL, as at
/// the end-of-run audit) is recovered outside the pass time, so the
/// restarts sample the machine over the same stretch as the passes; the
/// first one is checked against the live documents.
void RunPass(Instance& in, const std::vector<Op>& ops, bool traced,
             bool restart, SpanRecorder* spans, Tally* tally,
             PhaseSamples* s) {
  double pass_ms = 0;
  const double updates_before = s->updates;
  const uint64_t seq_before = in.engine->durability()->next_seq();
  for (int round = 0; round < kRoundsPerPass; ++round) {
    RunRound(in, ops, traced, spans, tally, s, &pass_ms);
    ScopedSpan gc(spans, "engine.collect_garbage", spans->NewRequest());
    const size_t freed = in.engine->CollectGarbage();
    const double gc_ms = gc.End();
    pass_ms += gc_ms;
    s->gc_ms.push_back(gc_ms);
    s->gc_freed += static_cast<double>(freed);
    s->rounds += 1;
    if (restart && round == 0) {
      const std::string copy = in.dir + ".restart";
      std::error_code ec;
      fs::remove_all(copy, ec);
      fs::copy(in.dir, copy, fs::copy_options::recursive, ec);
      tally->Check(!ec, "copy of the data directory: " + ec.message());
      std::string live;
      if (s->recovery_s.empty()) live = Documents(*in.engine, spans, tally);
      s->recovery_s.push_back(Recover(copy, live.empty() ? nullptr : &live,
                                      spans, tally, &s->records_replayed));
      fs::remove_all(copy, ec);
    }
  }
  s->wal_bytes += static_cast<double>(FileBytes(in.dir, false));
  s->wal_updates += s->updates - updates_before;
  s->wal_records +=
      static_cast<double>(in.engine->durability()->next_seq() - seq_before);
  ScopedSpan checkpoint(spans, "engine.checkpoint", spans->NewRequest());
  xqb::Status st = in.engine->Checkpoint();
  const double checkpoint_ms = checkpoint.End();
  tally->Check(st.ok() && in.engine->durability_error().ok(),
               "checkpoint: " + st.ToString() + " " +
                   in.engine->durability_error().ToString());
  pass_ms += checkpoint_ms;
  s->checkpoint_ms.push_back(checkpoint_ms);
  s->checkpoint_bytes = static_cast<double>(FileBytes(in.dir, true));
  s->pass_s.push_back(pass_ms / 1e3);
  s->busy_s += pass_ms / 1e3;
}

/// Runs passes for `seconds`, alternating between the lanes pass by pass
/// so that a drift in machine speed during the run affects every lane
/// alike.
void RunPhase(const std::vector<std::pair<Instance*, PhaseSamples*>>& lanes,
              const std::vector<Op>& ops, double seconds, int min_passes,
              bool traced, SpanRecorder* spans, Tally* tally) {
  const double start = NowSeconds();
  for (int pass = 0; pass < min_passes || NowSeconds() - start < seconds;
       ++pass) {
    for (const auto& [in, samples] : lanes) {
      RunPass(*in, ops, traced, samples == lanes.front().second, spans, tally,
              samples);
    }
  }
}

/// Generates, loads and prepares one durable instance (the timed set-up).
xqb::Status SetUp(Instance* in, uint64_t doc_seed, SpanRecorder* spans,
                  double* generate_ms, double* load_ms, Tally* tally) {
  // load_ms covers parsing plus logging the load to the WAL.
  std::error_code ec;
  fs::remove_all(in->dir, ec);
  fs::create_directories(fs::path(in->dir).parent_path(), ec);
  xqb::XMarkParams params;
  params.factor = in->factor;
  params.seed = doc_seed;
  const uint64_t request = spans->NewRequest();
  std::string xml;
  {
    ScopedSpan span(spans, "xmark.generate_xml", request);
    xml = xqb::GenerateXMarkXml(params);
    *generate_ms = span.End();
  }
  in->xml_bytes = static_cast<double>(xml.size());
  in->engine = std::make_unique<Engine>();
  {
    ScopedSpan span(spans, "engine.open_durability", request);
    XQB_RETURN_IF_ERROR(in->engine->OpenDurability(in->dir, kSync));
  }
  {
    ScopedSpan span(spans, "engine.load", request);
    auto loaded = in->engine->LoadDocumentFromString("auction", xml);
    *load_ms = span.End();
    if (!loaded.ok()) return loaded.status();
    in->doc = *loaded;
  }
  xqb::XMarkParams counts;
  counts.factor = in->factor;
  const XMarkFacts facts = WalkXMark(in->engine->store(), in->doc, counts);
  tally->Check(facts.params_mismatch.empty(), facts.params_mismatch);
  OpResult warm = RunOp(*in->engine, kWarmUp, Options(false), spans, "warm_up");
  if (!warm.ok) return xqb::Status::Internal("warm-up: " + warm.error);
  OpResult closed = RunOp(*in->engine, "doc('auction')/site/closed_auctions",
                          Options(false), spans, "archive");
  if (!closed.ok) return xqb::Status::Internal("archive: " + closed.error);
  {
    ScopedSpan span(spans, "engine.load", request);
    auto archive = in->engine->LoadDocumentFromString("archive", closed.output);
    if (!archive.ok()) return archive.status();
  }
  ScopedSpan span(spans, "engine.checkpoint", request);
  return in->engine->Checkpoint();
}

}  // namespace

WorkloadResult RunXMarkUpdate(const RunOptions& options) {
  WorkloadResult result;
  Tally tally;
  SpanRecorder spans(options.traced);
  SpanRecorder untraced(false);
  const uint64_t doc_seed = SubSeed(options.seed, 4);
  const bool companion = !options.traced && !options.filler;
  const std::vector<Op> ops = Round();
  const std::string root = options.workdir + "/xmark_update";

  // ---- Setup: generate, open durability, load, warm up, checkpoint. ----
  std::vector<double> factors = {kFactor};
  if (companion) factors.push_back(kSmallFactor);
  std::vector<Instance> instances;
  std::vector<double> setup_s, generate_ms, load_ms;
  const int setup_reps = options.filler ? 1 : kSetupReps;
  for (int rep = 0; rep < setup_reps; ++rep) {
    instances.clear();
    const double t0 = NowSeconds();
    for (double factor : factors) {
      Instance in;
      in.factor = factor;
      in.dir = root + "/f" + std::to_string(static_cast<int>(factor));
      double gen = 0, load = 0;
      xqb::Status st = SetUp(&in, doc_seed, &spans, &gen, &load, &tally);
      if (!st.ok()) {
        tally.Fail("set-up at factor " + std::to_string(factor) + ": " +
                   st.ToString());
        result.Absorb(tally);
        return result;
      }
      if (factor == kFactor) {
        generate_ms.push_back(gen);
        load_ms.push_back(load);
      }
      instances.push_back(std::move(in));
    }
    setup_s.push_back(NowSeconds() - t0);
  }
  for (Instance& in : instances) {
    in.elements = CountElements(in.engine->store(), in.doc);
    in.expected_updates = ExpectedUpdates(in, ops);
    double ignored = 0;
    RunRound(in, ops, false, &untraced, &tally, nullptr, &ignored);
  }
  Instance& main = instances.front();

  // ---- Timed phases. ----
  PhaseSamples plain, small, deep;
  if (!options.filler) {
    std::vector<std::pair<Instance*, PhaseSamples*>> lanes = {{&main, &plain}};
    if (companion) lanes.emplace_back(&instances.back(), &small);
    RunPhase(lanes, ops, options.traced ? options.seconds / 2 : options.seconds,
             3, false, &untraced, &tally);
  }
  if (options.traced) {
    RunPhase({{&main, &deep}}, ops,
             options.filler ? options.seconds : options.seconds / 2, 1, true,
             &spans, &tally);
  }

  // ---- Audit (untimed): one more round leaves a WAL tail past the last
  // checkpoint; the live store must pass its integrity audit, and a
  // fresh engine recovered from the directory must pass it too and
  // serialize both documents byte-identically. ----
  double tail_ms = 0;
  RunRound(main, ops, false, &untraced, &tally, nullptr, &tail_ms);
  xqb::Status integrity = main.engine->store().CheckIntegrity();
  tally.Check(integrity.ok(), "live integrity: " + integrity.ToString());
  const std::string live = Documents(*main.engine, &untraced, &tally);
  const double live_nodes =
      static_cast<double>(main.engine->store().live_node_count());
  const double slots = static_cast<double>(main.engine->store().slot_count());
  for (Instance& in : instances) in.engine.reset();  // Closes the WALs.
  double final_replayed = 0;
  const double final_recovery_s =
      Recover(main.dir, &live, &spans, &tally, &final_replayed);
  std::error_code ec;
  fs::remove_all(root, ec);

  result.Absorb(tally);
  result.context = {
      {"factor", JsonNumber(kFactor)},
      {"companion_factor", JsonNumber(kSmallFactor)},
      {"clients", "1"},
      {"threads", "1"},
      {"document_seed", std::to_string(doc_seed)},
      {"wal_sync", JsonString(kSyncName)},
      {"rounds_per_checkpoint", std::to_string(kRoundsPerPass)},
      {"gc_every_rounds", "1"},
      {"ops_per_round", std::to_string(ops.size())},
      {"feed_auctions", std::to_string(kFeed)},
      {"bulk_persons", std::to_string(kBulk)},
  };
  if (!options.traced) {  // End-to-end metrics come from untraced runs.
    const double high = HighQuantileLevel(plain.op_ms.size());
    std::vector<double> slopes, op_p50;
    for (size_t i = 0; i < ops.size(); ++i) {
      op_p50.push_back(Median(plain.per_op_ms[i]));
      slopes.push_back(LogLogSlope({kSmallFactor, kFactor},
                                   {Median(small.per_op_ms[i]), op_p50[i]}));
    }
    const double exponent = *std::max_element(slopes.begin(), slopes.end());
    result.end_to_end = {
        {"setup_s", {Median(setup_s), "s"}},
        {"suite_s", {Median(plain.pass_s), "s"}},
        {"scale_exponent", {exponent, "slope"}},
        {"throughput_rps", {plain.ops / plain.busy_s, "1/s"}},
        {"latency_p50_ms", {Median(plain.op_ms), "ms"}},
        {"latency_p99_ms", {Quantile(plain.op_ms, high), "ms"}},
        {"recovery_s", {Median(plain.recovery_s), "s"}},
    };
    result.context.emplace_back("operations", JsonNumber(plain.ops));
    result.context.emplace_back("passes",
                                std::to_string(plain.pass_s.size()));
    result.context.emplace_back("latency_high_quantile", JsonNumber(high));
    result.context.emplace_back("op_p50_ms", JsonNumberList(op_p50));
    result.context.emplace_back("op_exponents", JsonNumberList(slopes));
    result.context.emplace_back("recovery_s", JsonNumberList(plain.recovery_s));
    result.context.emplace_back("final_recovery_s",
                                JsonNumber(final_recovery_s));
    result.context.emplace_back("final_records_replayed",
                                JsonNumber(final_replayed));
  }
  if (options.traced) {
    const PhaseSamples& s = deep;
    MetricMap& m = result.layers;
    for (size_t i = 0; i < ops.size(); ++i) {
      const std::string name = ops[i].name;
      if (name.find('.') != std::string::npos) continue;  // Inverses.
      m["core.op_ms." + name] = {Median(s.per_op_ms[i]), "ms"};
    }
    m["core.snap_apply_ms_p50"] = {Median(s.apply_ms), "ms"};
    m["core.updates_per_op"] = {s.updates / s.ops, "count"};
    m["core.eval_ms_p50"] = {Median(s.eval_ms), "ms"};
    m["core.steps_per_request"] = {s.steps / s.ops, "count"};
    m["core.gc_ms"] = {Median(s.gc_ms), "ms"};
    m["core.gc_freed"] = {s.gc_freed / s.rounds, "count"};
    m["frontend.prepare_us"] = {Median(s.prepare_us), "us"};
    m["frontend.parse_us"] = {Median(s.parse_us), "us"};
    m["core.normalize_us"] = {Median(s.normalize_us), "us"};
    m["analysis.static_check_us"] = {Median(s.static_check_us), "us"};
    m["xml.serialize_ms_p50"] = {Median(s.serialize_ms), "ms"};
    m["store.wal_bytes_per_update"] = {s.wal_bytes / s.wal_updates, "B"};
    m["store.wal_records"] = {s.wal_records / s.rounds, "count"};
    m["store.checkpoint_ms"] = {Median(s.checkpoint_ms), "ms"};
    m["store.checkpoint_bytes"] = {s.checkpoint_bytes, "B"};
    m["store.recovery_records_replayed"] = {s.records_replayed, "count"};
    m["xdm.live_nodes"] = {live_nodes, "count"};
    m["xdm.slot_ratio"] = {slots / live_nodes, "ratio"};
    m["xml.load_mb_per_s"] = {
        main.xml_bytes / 1e3 / Median(load_ms), "MB/s"};
    m["xmark.generate_ms"] = {Median(generate_ms), "ms"};
    if (!options.filler) {
      m["bench.untraced_suite_ms"] = {Median(plain.pass_s) * 1e3, "ms"};
      m["bench.trace_overhead_ratio"] = {
          Median(s.pass_s) / Median(plain.pass_s), "ratio"};
    }
    result.context.emplace_back("span_self_ms", JsonObject(spans.SelfMs()));
    spans.WriteChromeTrace(options.workdir + "/trace-xmark_update.json");
  }
  return result;
}

}  // namespace xqbench
