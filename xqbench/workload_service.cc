// service_mixed: two closed-loop clients calling QueryService::Submit
// on one factor-4 auction document loaded as XML text, no durability.
// The request mix is seeded and Zipf-skewed over several thousand
// distinct query texts (point lookups, short child-axis aggregates,
// whole-subtree returns) with about one request in sixteen a small
// exclusive write. Prepare, the plan cache, the scheduler and
// serialization set the median latency, the id() lookups the high
// percentile; see README.md.

#include <algorithm>
#include <atomic>
#include <barrier>
#include <cmath>
#include <memory>
#include <random>
#include <thread>

#include "bench.h"
#include "core/engine.h"
#include "oracle.h"
#include "ops.h"
#include "service/service.h"
#include "xmark/generator.h"
#include "xml/serializer.h"

namespace xqbench {
namespace {

using xqb::Engine;
using xqb::NodeId;
using xqb::QueryService;

constexpr double kFactor = 4;
/// Companion document for the growth exponent (same mix, factor 1).
constexpr double kSmallFactor = 1;
/// Two, not four: on a 4-vCPU host, four clients left no CPU for the rest
/// of the system, and exclusive writers waiting behind 8-12 ms id()
/// reads made throughput flip between levels up to 2x apart from run to
/// run (spread 0.26-0.31 over ten seeds, against about 0.1 with two).
constexpr int kClients = 2;
constexpr int kRequestsPerClientPerPass = 128;
constexpr int kWriteOneIn = 16;
constexpr double kZipfS = 1.0;
/// The plan-cache budget as a share of the read population's footprint
/// (QueryCache::EntryCost summed over every distinct read text).
constexpr double kCacheBudgetShare = 0.05;
constexpr int kSetupReps = 5;

enum Class {
  kIdName,
  kPathName,
  kRegionCount,
  kBuyerCount,
  kSellerCount,
  kPersonSubtree,
  kItemSubtree,
  kWrite,
  kClassCount,
};
constexpr const char* kClassNames[kClassCount] = {
    "id_name",      "path_name",      "region_count", "buyer_count",
    "seller_count", "person_subtree", "item_subtree", "write"};
/// Fixed shares of the read classes, so every seed runs the same mix;
/// the seed picks which texts of a class are hot. The median request
/// falls inside seller_count. The id() classes, a tenth of the reads,
/// set the high percentile: fn:id rebuilds its index on every run.
constexpr double kClassShare[kWrite] = {0.04, 0.26, 0.14, 0.24,
                                        0.26, 0.03, 0.03};

struct Entry {
  std::string text;
  std::string expected;
  Class cls;
};

/// One document with its service and seeded request population.
struct Instance {
  double factor = 0;
  std::string xml;
  std::unique_ptr<Engine> engine;
  NodeId doc = xqb::kInvalidNode;
  std::unique_ptr<QueryService> service;
  /// Distinct read texts per class, in seeded order (position = rank).
  std::vector<Entry> population[kWrite];
  /// Cumulative Zipf weight of ranks 1..N, per class.
  std::vector<double> zipf_cdf[kWrite];
  size_t texts = 0;
  std::vector<std::string> auction_ids;
  size_t footprint_bytes = 0;
  size_t cache_budget = 0;
  std::string walk_mismatch;
};

std::string Quote(const std::string& s) { return "'" + s + "'"; }

/// Builds the distinct read texts with their expected serialized
/// answers from a walk of the loaded tree; each class is ordered by a
/// seeded shuffle (position = Zipf rank).
void BuildPopulation(Instance* in, uint64_t seed) {
  const xqb::Store& store = in->engine->store();
  xqb::XMarkParams params;
  params.factor = in->factor;
  const XMarkFacts f = WalkXMark(store, in->doc, params);
  in->walk_mismatch = f.params_mismatch;
  std::map<std::string, int64_t> bought, sold;
  for (NodeId t : f.closed_auctions) {
    ++bought[AttributeValue(store, FirstChild(store, t, "buyer"), "person")];
  }
  for (NodeId a : f.open_auctions) {
    ++sold[AttributeValue(store, FirstChild(store, a, "seller"), "person")];
    in->auction_ids.push_back(AttributeValue(store, a, "id"));
  }
  std::vector<Entry>* pop = in->population;
  auto add = [pop](Class cls, std::string text, std::string expected) {
    pop[cls].push_back({std::move(text), std::move(expected), cls});
  };
  for (NodeId p : f.persons) {
    const std::string pid = AttributeValue(store, p, "id");
    const std::string id = Quote(pid);
    const std::string name = store.StringValue(FirstChild(store, p, "name"));
    add(kIdName, "string(id(" + id + ", doc('auction'))/name)", name);
    add(kPathName,
        "string(doc('auction')/site/people/person[@id = " + id + "]/name)",
        name);
    add(kBuyerCount,
        "count(doc('auction')/site/closed_auctions/closed_auction"
        "[buyer/@person = " + id + "])",
        std::to_string(bought[pid]));
    add(kSellerCount,
        "count(doc('auction')/site/open_auctions/open_auction"
        "[seller/@person = " + id + "])",
        std::to_string(sold[pid]));
    add(kPersonSubtree, "id(" + id + ", doc('auction'))",
        xqb::SerializeNode(store, p));
  }
  for (NodeId item : f.items) {
    add(kItemSubtree,
        "id(" + Quote(AttributeValue(store, item, "id")) + ", doc('auction'))",
        xqb::SerializeNode(store, item));
  }
  for (NodeId region :
       ChildElements(store, FirstChild(store, f.site, "regions"))) {
    int64_t by_quantity[6] = {0, 0, 0, 0, 0, 0};
    for (NodeId item : ChildElements(store, region, "item")) {
      const int q = std::atoi(
          store.StringValue(FirstChild(store, item, "quantity")).c_str());
      if (q >= 1 && q <= 5) ++by_quantity[q];
    }
    for (int q = 1; q <= 5; ++q) {
      add(kRegionCount,
          "count(doc('auction')/site/regions/" +
              std::string(store.NameOf(region)) + "/item[quantity = " +
              std::to_string(q) + "])",
          std::to_string(by_quantity[q]));
    }
  }
  std::mt19937_64 rng(seed);
  for (int cls = 0; cls < kWrite; ++cls) {
    std::shuffle(pop[cls].begin(), pop[cls].end(), rng);
    double total = 0;
    for (size_t r = 1; r <= pop[cls].size(); ++r) {
      total += 1.0 / std::pow(static_cast<double>(r), kZipfS);
      in->zipf_cdf[cls].push_back(total);
      in->footprint_bytes += xqb::QueryCache::EntryCost(pop[cls][r - 1].text);
    }
    in->texts += pop[cls].size();
  }
  in->cache_budget =
      static_cast<size_t>(kCacheBudgetShare *
                          static_cast<double>(in->footprint_bytes));
}

xqb::QueryServiceOptions ServiceOptions(size_t cache_budget, bool traced) {
  xqb::QueryServiceOptions o;
  o.cache.max_bytes = cache_budget;
  o.scheduler.max_concurrent = kClients;
  o.scheduler.queue_capacity = 4 * kClients;  // Never sheds a client.
  o.exec.threads = 1;
  o.exec.collect_stats = traced;
  o.serialize_results = true;
  return o;
}

struct Sample {
  double ms = 0;
  Class cls = kIdName;
  /// Kept in traced phases only, so the samples of an untraced run stay
  /// small whatever its throughput.
  std::unique_ptr<xqb::ExecStats> stats;
  size_t bytes = 0;
};

/// A closed-loop client: its RNG and the auction holding its marked
/// bidder, if any, carry over from pass to pass.
struct Client {
  int id = 0;
  std::mt19937_64 rng;
  int outstanding = -1;
  std::vector<Sample> samples;
};

std::string WriteText(const Instance& in, const Client& c, int auction,
                      bool insert) {
  const std::string target =
      "doc('auction')/site/open_auctions/open_auction[@id = " +
      Quote(in.auction_ids[static_cast<size_t>(auction)]) + "]";
  const std::string mark = "c" + std::to_string(c.id);
  if (insert) {
    return "snap insert { <bidder><date>01/01/2001</date>"
           "<personref person=\"person0\"/><increase>0.01</increase>"
           "<mark client=\"" + mark + "\"/></bidder> } into { " + target +
           " }";
  }
  return "snap delete { " + target + "/bidder[mark/@client = " +
         Quote(mark) + "] }";
}

/// Issues one request and checks its answer against the walk.
/// A write must apply exactly one update.
void Issue(QueryService& service, const std::string& text,
           const std::string& expected, Class cls, SpanRecorder* spans,
           Client* c, Tally* tally) {
  ScopedSpan span(spans, "service.submit", spans->NewRequest(),
                  SpanRecorder::kNoParent, static_cast<uint32_t>(c->id));
  QueryService::Request request;
  request.query = text;
  QueryService::Response r = service.Submit(request);
  const double ms = span.End();
  if (!r.status.ok()) {
    tally->Fail(std::string(kClassNames[cls]) + ": " + r.status.ToString());
    return;
  }
  const bool ok = r.result_xml == expected &&
                  (cls != kWrite || r.stats.updates_applied == 1);
  tally->Check(ok, std::string(kClassNames[cls]) + ": wrong output for " +
                       text);
  Sample s;
  s.ms = ms;
  s.cls = cls;
  s.bytes = r.result_xml.size();
  if (spans->enabled()) s.stats = std::make_unique<xqb::ExecStats>(r.stats);
  c->samples.push_back(std::move(s));
}

/// A class by its fixed share, then a text of that class by Zipf rank.
const Entry& Pick(const Instance& in, std::mt19937_64* rng) {
  std::uniform_real_distribution<double> unit(0, 1);
  double u = unit(*rng);
  int cls = 0;
  while (cls + 1 < kWrite && u >= kClassShare[cls]) u -= kClassShare[cls++];
  const std::vector<double>& cdf = in.zipf_cdf[cls];
  const double w = unit(*rng) * cdf.back();
  const size_t rank = std::min<size_t>(
      std::upper_bound(cdf.begin(), cdf.end(), w) - cdf.begin(),
      cdf.size() - 1);
  return in.population[cls][rank];
}

void ClientPass(Instance& in, QueryService& service, SpanRecorder* spans,
                Client* c, Tally* tally) {
  for (int i = 0; i < kRequestsPerClientPerPass; ++i) {
    if (c->rng() % kWriteOneIn == 0) {
      const bool insert = c->outstanding < 0;
      if (insert) {
        c->outstanding =
            static_cast<int>(c->rng() % in.auction_ids.size());
      }
      Issue(service, WriteText(in, *c, c->outstanding, insert), "", kWrite,
            spans, c, tally);
      if (!insert) c->outstanding = -1;
      continue;
    }
    const Entry& e = Pick(in, &c->rng);
    Issue(service, e.text, e.expected, e.cls, spans, c, tally);
  }
}

struct PhaseResult {
  std::vector<double> pass_s;
  std::vector<Sample> samples;
  double busy_s = 0;
  /// One restart per pass, outside the pass time.
  std::vector<double> restart_s;
};

/// Restart: loads the document text into a fresh engine; returns the
/// load time in seconds. With `check`, the reloaded document must
/// serialize byte-identical to the text.
double Restart(const std::string& xml, bool check, SpanRecorder* spans,
               Tally* tally) {
  Engine fresh;
  ScopedSpan span(spans, "engine.load", spans->NewRequest());
  auto loaded = fresh.LoadDocumentFromString("auction", xml);
  const double seconds = span.End() / 1e3;
  if (!loaded.ok()) {
    tally->Fail("restart load: " + loaded.status().ToString());
  } else if (check) {
    tally->Check(fresh.Serialize({xqb::Item::Node(*loaded)}) == xml,
                 "restart: reloaded document differs from its text");
  }
  return seconds;
}

/// Deletes every client's outstanding marked bidder (outside timing),
/// so the document returns to its loaded content.
void Settle(Instance& in, QueryService& service, std::vector<Client>& clients,
            SpanRecorder* spans, Tally* tally) {
  for (Client& c : clients) {
    if (c.outstanding < 0) continue;
    Issue(service, WriteText(in, c, c.outstanding, false), "", kWrite, spans,
          &c, tally);
    c.outstanding = -1;
    c.samples.clear();
  }
}

/// One document's share of a phase: its service, its clients' state and
/// what they measured.
struct Lane {
  Instance* in = nullptr;
  QueryService* service = nullptr;
  std::vector<Client> clients;
  PhaseResult result;
};

/// Runs closed-loop passes on kClients persistent threads, alternating
/// between the lanes pass by pass so that a drift in machine speed
/// during the run affects every lane alike. A pass ends when every client
/// has issued its requests; CollectGarbage then reclaims the pass's
/// written-and-deleted bidders while no request is in flight, so the store
/// and the process size stay the same however many passes run. After each
/// pass of the first lane, outside its time, one restart is timed, so the
/// restarts sample the machine over the same stretch as the passes.
/// Afterwards each lane's writes are settled.
void RunPhase(const std::vector<Lane*>& lanes, double seconds, int min_passes,
              SpanRecorder* spans, Tally* tally) {
  std::atomic<bool> stop{false};
  Lane* current = nullptr;  // Published to the clients by the barrier.
  std::barrier sync(kClients + 1);
  std::vector<std::thread> threads;
  for (int i = 0; i < kClients; ++i) {
    threads.emplace_back([&, i] {
      for (;;) {
        sync.arrive_and_wait();  // Pass start.
        if (stop.load()) return;
        ClientPass(*current->in, *current->service, spans,
                   &current->clients[static_cast<size_t>(i)], tally);
        sync.arrive_and_wait();  // Pass end.
      }
    });
  }
  const double start = NowSeconds();
  for (int pass = 0; pass < min_passes || NowSeconds() - start < seconds;
       ++pass) {
    for (Lane* lane : lanes) {
      current = lane;
      const double t0 = NowSeconds();
      sync.arrive_and_wait();
      sync.arrive_and_wait();
      lane->in->engine->CollectGarbage();
      lane->result.pass_s.push_back(NowSeconds() - t0);
      lane->result.busy_s += lane->result.pass_s.back();
      if (lane == lanes.front()) {
        lane->result.restart_s.push_back(
            Restart(lane->in->xml, pass == 0, spans, tally));
      }
    }
  }
  stop.store(true);
  sync.arrive_and_wait();
  for (std::thread& t : threads) t.join();
  for (Lane* lane : lanes) {
    for (Client& c : lane->clients) {
      for (Sample& s : c.samples) lane->result.samples.push_back(std::move(s));
      c.samples.clear();
    }
    Settle(*lane->in, *lane->service, lane->clients, spans, tally);
  }
}

std::vector<Client> MakeClients(uint64_t seed) {
  std::vector<Client> clients(kClients);
  for (int i = 0; i < kClients; ++i) {
    clients[i].id = i;
    clients[i].rng.seed(SubSeed(seed, 100 + static_cast<uint64_t>(i)));
  }
  return clients;
}

std::vector<double> ClassMs(const std::vector<Sample>& samples, Class cls) {
  std::vector<double> ms;
  for (const Sample& s : samples) {
    if (s.cls == cls) ms.push_back(s.ms);
  }
  return ms;
}

}  // namespace

WorkloadResult RunServiceMixed(const RunOptions& options) {
  WorkloadResult result;
  Tally tally;
  SpanRecorder spans(options.traced);
  SpanRecorder untraced(false);
  const uint64_t doc_seed = SubSeed(options.seed, 2);
  const bool companion = !options.traced && !options.filler;

  // ---- Setup: generate the XML text, load it, start the service. ----
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
      xqb::XMarkParams params;
      params.factor = factor;
      params.seed = doc_seed;
      const uint64_t request = spans.NewRequest();
      {
        ScopedSpan span(&spans, "xmark.generate_xml", request);
        in.xml = xqb::GenerateXMarkXml(params);
        if (factor == kFactor) generate_ms.push_back(span.End());
      }
      in.engine = std::make_unique<Engine>();
      ScopedSpan span(&spans, "engine.load", request);
      auto loaded = in.engine->LoadDocumentFromString("auction", in.xml);
      if (factor == kFactor) load_ms.push_back(span.End());
      if (!loaded.ok()) {
        tally.Fail("load: " + loaded.status().ToString());
        result.Absorb(tally);
        return result;
      }
      in.doc = *loaded;
      instances.push_back(std::move(in));
    }
    setup_s.push_back(NowSeconds() - t0);
  }
  // The reference answers and the cache budget (outside setup timing).
  for (Instance& in : instances) {
    BuildPopulation(&in, SubSeed(options.seed, 3));
    tally.Check(in.walk_mismatch.empty(), in.walk_mismatch);
    in.service = std::make_unique<QueryService>(
        in.engine.get(), ServiceOptions(in.cache_budget, false));
  }
  Instance& main = instances.front();

  // ---- Timed phases. ----
  Lane plain{&main, main.service.get(), MakeClients(options.seed), {}};
  Lane small, deep;
  if (!options.filler) {
    std::vector<Lane*> lanes = {&plain};
    if (companion) {
      small = {&instances.back(), instances.back().service.get(),
               MakeClients(options.seed), {}};
      lanes.push_back(&small);
    }
    RunPhase(lanes, options.traced ? options.seconds / 2 : options.seconds, 3,
             &untraced, &tally);
  }
  QueryService::Counters before{}, after{};
  if (options.traced) {
    // A second service over the same engine: collect_stats is a
    // construction-time option. Its cache starts cold.
    QueryService traced_service(main.engine.get(),
                                ServiceOptions(main.cache_budget, true));
    before = traced_service.counters();
    deep = {&main, &traced_service, MakeClients(options.seed), {}};
    RunPhase({&deep}, options.filler ? options.seconds : options.seconds / 2,
             2, &spans, &tally);
    after = traced_service.counters();
  }

  // ---- Audit: the document is back to its loaded text. ----
  for (Instance& in : instances) {
    const std::string live = in.engine->Serialize({xqb::Item::Node(in.doc)});
    tally.Check(live == in.xml,
                "factor " + std::to_string(in.factor) +
                    ": document differs from its loaded text after the run");
  }
  result.Absorb(tally);
  result.context = {
      {"factor", JsonNumber(kFactor)},
      {"companion_factor", JsonNumber(kSmallFactor)},
      {"clients", std::to_string(kClients)},
      {"threads", "1"},
      {"document_seed", std::to_string(doc_seed)},
      {"text_population", std::to_string(main.texts)},
      {"text_population_bytes", std::to_string(main.footprint_bytes)},
      {"cache_budget_bytes", std::to_string(main.cache_budget)},
      {"zipf_s", JsonNumber(kZipfS)},
      {"classes", [] {
         std::string names;
         for (const char* n : kClassNames) {
           names += (names.empty() ? "[" : ",") + JsonString(n);
         }
         return names + "]";
       }()},
      {"class_share", JsonNumberList(std::vector<double>(
                          std::begin(kClassShare), std::end(kClassShare)))},
      {"write_one_in", std::to_string(kWriteOneIn)},
      {"durability", "\"off\""},
  };

  if (!options.traced) {  // End-to-end metrics come from untraced runs.
    std::vector<double> ms;
    for (const Sample& s : plain.result.samples) ms.push_back(s.ms);
    const double high = HighQuantileLevel(ms.size());
    std::vector<double> slopes, class_p50;
    for (int cls = 0; cls < kClassCount; ++cls) {
      class_p50.push_back(Median(ClassMs(plain.result.samples, Class(cls))));
      if (cls == kWrite) break;
      slopes.push_back(LogLogSlope(
          {kSmallFactor, kFactor},
          {Median(ClassMs(small.result.samples, Class(cls))), class_p50[cls]}));
    }
    const double exponent = *std::max_element(slopes.begin(), slopes.end());
    result.end_to_end = {
        {"setup_s", {Median(setup_s), "s"}},
        {"suite_s", {Median(plain.result.pass_s), "s"}},
        {"scale_exponent", {exponent, "slope"}},
        {"throughput_rps",
         {static_cast<double>(ms.size()) / plain.result.busy_s, "1/s"}},
        {"latency_p50_ms", {Median(ms), "ms"}},
        {"latency_p99_ms", {Quantile(ms, high), "ms"}},
        {"recovery_s", {Median(plain.result.restart_s), "s"}},
    };
    result.context.emplace_back("requests", std::to_string(ms.size()));
    result.context.emplace_back("class_p50_ms", JsonNumberList(class_p50));
    result.context.emplace_back("class_exponents", JsonNumberList(slopes));
    result.context.emplace_back("restart_s",
                                JsonNumberList(plain.result.restart_s));
    result.context.emplace_back("passes",
                                std::to_string(plain.result.pass_s.size()));
    result.context.emplace_back("latency_high_quantile", JsonNumber(high));
    const auto counters = main.service->counters();
    const double lookups =
        static_cast<double>(counters.cache.hits + counters.cache.misses);
    result.context.emplace_back(
        "cache_miss_share",
        JsonNumber(static_cast<double>(counters.cache.misses) / lookups));
  }
  if (options.traced) {
    MetricMap& m = result.layers;
    std::vector<double> queue_ms, eval_ms, prepare_us, parse_us, normalize_us,
        static_us, apply_ms;
    double steps = 0, bytes = 0, updates = 0, writes = 0;
    for (const Sample& s : deep.result.samples) {
      const xqb::ExecStats& st = *s.stats;
      queue_ms.push_back(Ms(st.queue_wait_ns));
      eval_ms.push_back(Ms(st.eval_ns));
      steps += static_cast<double>(st.guard_steps);
      bytes += static_cast<double>(s.bytes);
      if (st.cache_misses != 0) {
        parse_us.push_back(Us(st.parse_ns));
        normalize_us.push_back(Us(st.normalize_ns));
        static_us.push_back(Us(st.static_check_ns));
        prepare_us.push_back(parse_us.back() + normalize_us.back() +
                             static_us.back());
      }
      if (s.cls == kWrite) {
        apply_ms.push_back(Ms(st.snap_apply_ns));
        updates += static_cast<double>(st.updates_applied);
        writes += 1;
      }
    }
    const double requests = static_cast<double>(deep.result.samples.size());
    const double hits =
        static_cast<double>(after.cache.hits - before.cache.hits);
    const double lookups =
        hits + static_cast<double>(after.cache.misses - before.cache.misses);
    m["service.requests"] = {requests, "count"};
    m["service.cache_lookups"] = {lookups, "count"};
    m["service.cache_hit_ratio"] = {lookups > 0 ? hits / lookups : 0, "ratio"};
    m["service.cache_evictions"] = {
        static_cast<double>(after.cache.evictions - before.cache.evictions),
        "count"};
    m["service.queue_wait_p50_ms"] = {Median(queue_ms), "ms"};
    m["service.queue_wait_p99_ms"] = {
        Quantile(queue_ms, HighQuantileLevel(queue_ms.size())), "ms"};
    m["service.exclusive_runs"] = {
        static_cast<double>(after.scheduler.exclusive_runs -
                            before.scheduler.exclusive_runs),
        "count"};
    m["service.shed"] = {static_cast<double>(after.shed - before.shed),
                         "count"};
    m["core.eval_ms_p50"] = {Median(eval_ms), "ms"};
    m["core.steps_per_request"] = {steps / requests, "count"};
    m["frontend.prepare_us"] = {Median(prepare_us), "us"};
    m["frontend.parse_us"] = {Median(parse_us), "us"};
    m["core.normalize_us"] = {Median(normalize_us), "us"};
    m["analysis.static_check_us"] = {Median(static_us), "us"};
    m["core.snap_apply_ms_p50"] = {Median(apply_ms), "ms"};
    m["core.updates_per_op"] = {writes > 0 ? updates / writes : 0, "count"};
    m["xml.serialize_bytes"] = {bytes / requests, "B"};
    m["xml.load_mb_per_s"] = {static_cast<double>(main.xml.size()) / 1e3 /
                                  Median(load_ms),
                              "MB/s"};
    m["xmark.generate_ms"] = {Median(generate_ms), "ms"};
    const xqb::Store& store = main.engine->store();
    m["xdm.live_nodes"] = {static_cast<double>(store.live_node_count()),
                           "count"};
    m["xdm.slot_ratio"] = {static_cast<double>(store.slot_count()) /
                               static_cast<double>(store.live_node_count()),
                           "ratio"};
    if (!options.filler) {
      m["bench.untraced_suite_ms"] = {Median(plain.result.pass_s) * 1e3, "ms"};
      m["bench.trace_overhead_ratio"] = {
          Median(deep.result.pass_s) / Median(plain.result.pass_s), "ratio"};
    }
    result.context.emplace_back("span_self_ms", JsonObject(spans.SelfMs()));
    spans.WriteChromeTrace(options.workdir + "/trace-service_mixed.json");
  }
  return result;
}

}  // namespace xqbench
