// `serve`: an in-process PebbleServer on loopback serving two targets, the
// T3-shaped stress output and the D3 output, each registered as
// ServedDataset{output, store} with the store loaded from its snapshot.
// Two closed-loop client connections (callers wait for each reply, as
// audit tools do) send 95% queries and 5% pings with no think time,
// spread zipf over 4 tenants. Questions are drawn zipf (s = 1.0) from a
// population several times the answer cache's 64-entry default, so the
// hot head stays cached and the tail misses. Loads net/wire, server and
// the cache; idles engine, capture and io.
//
// Latency is timed at the client from send to reply. Sheds and transport
// errors count as failed operations. The measured phase is cut into
// one-second slices, each with its own latency quantiles and queries per
// CPU second; a figure is the value of the quarter of slices least
// disturbed by the host, whose neighbours slow memory-bound code by a fifth
// or more for tens of seconds at a time, CPU time included. For the same
// reason the snapshot loads are spread over the run: the measured phase
// runs in chunks, and between chunks, with no request in flight, every
// served snapshot is loaded once more.

#include <algorithm>
#include <iterator>
#include <limits>
#include <mutex>
#include <set>
#include <thread>

#include "bench.h"
#include "core/provenance_io.h"
#include "core/query_cache.h"
#include "server/client.h"
#include "server/server.h"
#include "workload/scenarios.h"

namespace perfbench {
namespace {

using namespace pebble;
using server::PebbleClient;
using server::QueryRequest;
using server::QueryResponse;
using server::RequestOp;

constexpr int kSetupRepeats = 3;
constexpr int kClients = 2;
constexpr int kTenants = 4;
constexpr double kPingShare = 0.05;
constexpr double kZipfS = 1.0;
constexpr int kSliceMs = 200;  // traced run: alternating traced slices
constexpr int kChunks = 6;
constexpr auto kMeasureSlice = std::chrono::seconds(1);

struct ServedQuestion {
  std::string target;
  Question question;
};

/// Orders the population for zipf ranks: sorted by reference answer size,
/// then taken in base-2 radical-inverse order of size quantile (median,
/// quartiles, octiles, ...). Every seed's hot head then holds questions of
/// typical size, so the cost mix does not swing with which questions a
/// seed happens to rank first.
std::vector<ServedQuestion> StratifiedRanks(std::vector<ServedQuestion> by_size) {
  std::stable_sort(by_size.begin(), by_size.end(),
                   [](const ServedQuestion& a, const ServedQuestion& b) {
                     return a.question.reference.size() <
                            b.question.reference.size();
                   });
  const size_t n = by_size.size();
  std::vector<bool> taken(n, false);
  std::vector<ServedQuestion> ranked;
  for (uint32_t k = 1; ranked.size() < n; ++k) {
    double quantile = 0;
    double bit = 0.5;
    for (uint32_t v = k; v != 0; v >>= 1, bit /= 2) {
      if (v & 1) quantile += bit;
    }
    size_t i = std::min(n - 1, static_cast<size_t>(quantile * n));
    while (taken[i]) i = (i + 1) % n;
    taken[i] = true;
    ranked.push_back(std::move(by_size[i]));
  }
  return ranked;
}

struct Deployment {
  std::vector<ServedQuestion> population;
  std::unique_ptr<server::PebbleServer> server;
  std::vector<std::string> snapshots;  // one per served target
  std::vector<double> load_ms;         // CPU time of each snapshot's load
  double snapshot_bytes = 0;
  double input_items = 0;
};

/// Loads every served snapshot once, keeping each one's fastest CPU time.
void TimeLoads(const Deployment& d, std::vector<double>* fastest_ms) {
  for (size_t t = 0; t < d.snapshots.size(); ++t) {
    const double start = ProcessCpuMs();
    ValueOrDie(LoadProvenanceStore(d.snapshots[t]), "snapshot load");
    (*fastest_ms)[t] = std::min((*fastest_ms)[t], ProcessCpuMs() - start);
  }
}

Deployment Setup(const Args& args, const std::string& dir) {
  ResetDir(dir);
  Deployment d;
  TwitterGenOptions twitter_options;
  twitter_options.seed = args.seed * 7919 + 17;
  twitter_options.num_tweets = args.toy ? 300 : 3000;
  TwitterGenerator twitter(twitter_options);
  DblpGenOptions dblp_options;
  dblp_options.seed = args.seed * 7919 + 19;
  dblp_options.num_records = args.toy ? 1000 : 10000;
  DblpGenerator dblp(dblp_options);
  std::vector<Scenario> scenarios;
  scenarios.push_back(ValueOrDie(
      MakeTwitterScenario(3, twitter, twitter.Generate()), "T3 scenario"));
  scenarios.push_back(ValueOrDie(
      MakeDblpScenario(3, dblp, dblp.Generate()), "D3 scenario"));
  d.input_items = static_cast<double>(twitter_options.num_tweets +
                                      dblp_options.num_records);

  server::ServerOptions options;
  options.workers = 2;
  options.match_threads = 1;
  d.server = std::make_unique<server::PebbleServer>(options);

  // At least 4x the cache's 64-entry default, split over the targets.
  const size_t per_target = args.toy ? 32 : 160;
  Rng rng(args.seed * 31 + 3);
  for (Scenario& scenario : scenarios) {
    ExecutionResult run = ValueOrDie(
        Executor(ExecOptions(CaptureMode::kStructural, 4, 2))
            .Run(scenario.pipeline),
        "capture " + scenario.name);
    const std::string path = dir + "/" + scenario.name + ".pprov";
    CheckOk(SaveProvenanceStore(*run.provenance, path), "snapshot save");
    d.snapshot_bytes += static_cast<double>(FileBytes(path));
    const double load_start = ProcessCpuMs();
    std::shared_ptr<const ProvenanceStore> store =
        ValueOrDie(LoadProvenanceStore(path), "snapshot load");
    d.load_ms.push_back(ProcessCpuMs() - load_start);
    d.snapshots.push_back(path);
    server::ServedDataset served;
    served.output = run.output;
    served.store = std::move(store);
    CheckOk(d.server->RegisterDataset(scenario.name, std::move(served)),
            "register");
    for (Question& q :
         MakeQuestions(run, scenario.query, per_target, &rng)) {
      if (q.reference.size() >= options.max_answer_bytes) continue;
      d.population.push_back({scenario.name, std::move(q)});
    }
  }
  d.population = StratifiedRanks(std::move(d.population));
  CheckOk(d.server->Start(), "server start");
  return d;
}

struct ClientResult {
  Tracer tracer{false};
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<double> query_us, ping_us;
  std::vector<Clock::time_point> query_sent;  // send time of each query_us
  std::vector<double> first_us, repeat_us;
  std::vector<double> traced_us, untraced_us;
  std::string mismatch;
};

/// Shared record of which (tenant, question) pairs were already asked, so
/// first asks (cache misses by construction) and repeats separate.
class SeenPairs {
 public:
  bool FirstAsk(int tenant, size_t question) {
    std::lock_guard<std::mutex> lock(mu_);
    return seen_.insert({tenant, question}).second;
  }

 private:
  std::mutex mu_;
  std::set<std::pair<int, size_t>> seen_;
};

/// One closed-loop client. With `out` null it sends `warmup` untimed
/// requests; otherwise it sends until `end`, recording into `out`.
/// `stream` picks the random request sequence (one per chunk).
void RunClient(const Args& args, const Deployment& d, uint16_t port, int id,
               uint64_t stream, size_t warmup, Clock::time_point start,
               Clock::time_point end, SeenPairs* seen, ClientResult* out) {
  server::ClientOptions options;
  options.port = port;
  PebbleClient client(options);
  Rng rng(args.seed * 1000003 + static_cast<uint64_t>(id) * 64 + stream);
  Tracer untraced(false);
  Tracer* tracer = out == nullptr ? &untraced : &out->tracer;
  uint64_t request_id = (static_cast<uint64_t>(id) << 40) | (stream << 32);
  for (size_t n = 0;; ++n) {
    const auto now = Clock::now();
    if (out == nullptr ? n >= warmup : now >= end) break;
    const auto slice =
        std::chrono::duration_cast<std::chrono::milliseconds>(now - start)
            .count() /
        kSliceMs;
    tracer->set_enabled(args.trace && out != nullptr && slice % 2 == 0);

    QueryRequest request;
    const int tenant = static_cast<int>(rng.NextZipf(kTenants, kZipfS));
    request.tenant = "tenant" + std::to_string(tenant);
    const bool ping = rng.NextBool(kPingShare);
    size_t q = 0;
    if (ping) {
      request.op = RequestOp::kPing;
    } else {
      q = rng.NextZipf(d.population.size(), kZipfS);
      request.op = RequestOp::kQuery;
      request.target = d.population[q].target;
      request.pattern = d.population[q].question.text;
    }
    QueryResponse response;
    const auto sent = Clock::now();
    Status status;
    {
      Scoped span(tracer, ping ? "serve.ping" : "serve.query", ++request_id);
      status = client.Call(request, &response);
      if (status.ok() && tracer->enabled()) {
        tracer->Count("wire.response_bytes",
                      static_cast<double>(
                          server::EncodeResponse(response).size()));
      }
    }
    const double us = MsSince(sent) * 1e3;
    const bool first = !ping && seen->FirstAsk(tenant, q);
    if (out == nullptr) continue;

    ++out->attempted;
    if (!status.ok() || response.code != StatusCode::kOk) {
      ++out->failed;
      continue;
    }
    if (ping) {
      out->ping_us.push_back(us);
      continue;
    }
    out->query_us.push_back(us);
    out->query_sent.push_back(sent);
    (first ? out->first_us : out->repeat_us).push_back(us);
    (tracer->enabled() ? out->traced_us : out->untraced_us).push_back(us);
    if (response.answer != d.population[q].question.reference &&
        out->mismatch.empty()) {
      out->mismatch = request.target + " '" + request.pattern +
                      "' answer differs from its reference";
    }
  }
}

/// A one-second measurement slice: its wall-clock window and the process
/// CPU time at its ends. Server and clients share this process, so the CPU
/// time covers both ends of every request.
struct Slice {
  Clock::time_point begin, end;
  double cpu_begin_ms = 0;
  double cpu_end_ms = 0;
  std::vector<double> query_us;
};

}  // namespace

Outcome RunServe(const Args& args) {
  Outcome outcome;
  const std::string dir = args.work_dir + "/serve";
  std::vector<double> setup_s;
  std::vector<double> fastest_load_ms;
  Deployment d;
  for (int i = 0; i < kSetupRepeats; ++i) {
    if (d.server != nullptr) d.server->Shutdown();
    d = Deployment();
    const double start = ProcessCpuMs();
    d = Setup(args, dir);
    setup_s.push_back((ProcessCpuMs() - start) / 1e3);
    fastest_load_ms.resize(d.load_ms.size(),
                           std::numeric_limits<double>::max());
    for (size_t t = 0; t < d.load_ms.size(); ++t) {
      fastest_load_ms[t] = std::min(fastest_load_ms[t], d.load_ms[t]);
    }
  }
  if (args.corrupt_reference) d.population[0].question.reference += "!";

  QueryAnswerCache& cache = QueryAnswerCache::Instance();
  SeenPairs seen;
  std::vector<ClientResult> results(kClients);
  std::vector<Slice> slices;
  auto run_clients = [&](uint64_t stream, size_t warmup,
                         Clock::time_point start, Clock::time_point end,
                         bool record) {
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back(RunClient, std::cref(args), std::cref(d),
                           d.server->port(), c, stream, warmup, start, end,
                           &seen, record ? &results[c] : nullptr);
    }
    double cpu = ProcessCpuMs();
    for (auto at = start; record && at + kMeasureSlice <= end;
         at += kMeasureSlice) {
      std::this_thread::sleep_until(at + kMeasureSlice);
      const double now = ProcessCpuMs();
      slices.push_back({at, at + kMeasureSlice, cpu, now, {}});
      cpu = now;
    }
    for (std::thread& t : clients) t.join();
  };
  // Untimed warm-up fills the cache's hot head before measuring.
  run_clients(0, args.toy ? 20 : 200, Clock::now(), Clock::now(), false);
  const server::ServerStats stats_before = d.server->stats();
  const QueryCacheStats cache_before = cache.stats();
  const auto chunk_length = std::chrono::microseconds(
      static_cast<int64_t>(args.seconds * 1e6 / kChunks));
  double measured_s = 0;
  for (int chunk = 0; chunk < kChunks; ++chunk) {
    const auto start = Clock::now();
    run_clients(chunk + 1, 0, start, start + chunk_length, true);
    measured_s += std::chrono::duration<double>(Clock::now() - start).count();
    TimeLoads(d, &fastest_load_ms);
  }
  const QueryCacheStats cache_after = cache.stats();
  const server::ServerStats stats_after = d.server->stats();
  d.server->Shutdown();
  RemoveDir(dir);

  ClientResult all;
  auto append = [](std::vector<double>* to, const std::vector<double>& from) {
    to->insert(to->end(), from.begin(), from.end());
  };
  for (ClientResult& r : results) {
    outcome.attempted += r.attempted;
    outcome.failed += r.failed;
    if (!r.mismatch.empty()) outcome.Mismatch(r.mismatch);
    append(&all.query_us, r.query_us);
    append(&all.ping_us, r.ping_us);
    append(&all.first_us, r.first_us);
    append(&all.repeat_us, r.repeat_us);
    append(&all.traced_us, r.traced_us);
    append(&all.untraced_us, r.untraced_us);
    all.tracer.Merge(r.tracer);
    for (size_t i = 0; i < r.query_us.size(); ++i) {
      // Slices are in time order; a query sent in a chunk's partial last
      // second falls in none.
      auto it = std::upper_bound(
          slices.begin(), slices.end(), r.query_sent[i],
          [](Clock::time_point t, const Slice& s) { return t < s.begin; });
      if (it != slices.begin() && r.query_sent[i] < std::prev(it)->end) {
        std::prev(it)->query_us.push_back(r.query_us[i]);
      }
    }
  }

  const double qps = static_cast<double>(all.query_us.size()) / measured_s;
  std::vector<double> slice_per_cpu_s, slice_p50_us, slice_p90_us;
  for (const Slice& s : slices) {
    slice_per_cpu_s.push_back(static_cast<double>(s.query_us.size()) /
                              ((s.cpu_end_ms - s.cpu_begin_ms) / 1e3));
    slice_p50_us.push_back(Median(s.query_us));
    slice_p90_us.push_back(Quantile(s.query_us, 0.9));
  }
  const double queries_per_cpu_s = Quantile(slice_per_cpu_s, 0.75);
  const double p50_us = Quantile(slice_p50_us, 0.25);
  const double p90_us = Quantile(slice_p90_us, 0.25);
  const double load_ms = Sum(fastest_load_ms);
  outcome.end_to_end = {
      {"setup_s", Median(setup_s)},
      {"peak_rss_mb", PeakRssMb()},
      {"throughput_per_cpu_s", queries_per_cpu_s},
      {"latency_ms_p50", p50_us / 1e3},
      // p90, not p99: on a shared VM the p99 follows hypervisor steal
      // more than the server (serve_query_us_p99 is still reported).
      {"latency_ms_tail", p90_us / 1e3},
      {"durable_bytes_per_item", d.snapshot_bytes / d.input_items},
  };
  outcome.report = {
      {"serve_qps", qps, "1/s"},
      {"serve_queries_per_cpu_s", queries_per_cpu_s, "1/s"},
      {"serve_query_us_p50", p50_us, "us"},
      {"serve_query_us_p90", p90_us, "us"},
      {"serve_query_us_p99", Quantile(all.query_us, 0.99), "us"},
      {"serve_ping_us_p50", Median(all.ping_us), "us"},
      {"serve_load_ms", load_ms, "ms"},
      {"serve_queries", static_cast<double>(all.query_us.size()), "count"},
      {"serve_slices", static_cast<double>(slices.size()), "count"},
      {"serve_population", static_cast<double>(d.population.size()),
       "count"},
  };

  if (args.trace) {
    const double hits =
        static_cast<double>(cache_after.hits - cache_before.hits);
    const double lookups =
        hits + static_cast<double>(cache_after.misses - cache_before.misses);
    const double responses = std::max<double>(
        1, all.tracer.Spans("serve.query") + all.tracer.Spans("serve.ping"));
    const double targets = std::max<double>(1, d.snapshots.size());
    outcome.per_layer = {
        {"io.load_ms", load_ms / targets},
        {"io.snapshot_bytes", d.snapshot_bytes / targets},
        {"cache.lookups", lookups},
        {"cache.hits", hits},
        {"cache.inserts",
         static_cast<double>(cache_after.inserts - cache_before.inserts)},
        {"cache.evictions",
         static_cast<double>(cache_after.evictions - cache_before.evictions)},
        {"cache.hit_ratio", lookups > 0 ? hits / lookups : 0},
        {"serve.first_ask_us_p50", Median(all.first_us)},
        {"serve.repeat_ask_us_p50", Median(all.repeat_us)},
        {"net.ping_us_p50", Median(all.ping_us)},
        {"wire.answer_bytes_mean",
         all.tracer.CountTotal("wire.response_bytes") / responses},
        {"server.admitted",
         static_cast<double>(stats_after.admitted - stats_before.admitted)},
        {"server.shed",
         static_cast<double>(
             (stats_after.shed_rate_limit - stats_before.shed_rate_limit) +
             (stats_after.shed_queue_full - stats_before.shed_queue_full) +
             (stats_after.shed_enqueue_fault -
              stats_before.shed_enqueue_fault) +
             (stats_after.shed_draining - stats_before.shed_draining))},
        {"server.queue_max_depth",
         static_cast<double>(stats_after.queue_max_depth)},
        {"trace.overhead_pct", OverheadPct(all.traced_us, all.untraced_us)},
        {"trace.spans", static_cast<double>(all.tracer.size())},
    };
    all.tracer.Write(args.work_dir + "/trace-serve.jsonl");
  }
  return outcome;
}

}  // namespace perfbench
