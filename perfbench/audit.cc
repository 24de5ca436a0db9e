// `audit`: offline provenance questions against durable stores. At set-up
// each of the ten paper scenarios is captured once, streaming into an
// uncompacted WAL directory while the in-memory store is saved as a v2
// snapshot. Each round reopens every store both ways (LoadProvenanceStore
// and RecoverStore), then asks every question once, alternating between
// the two stores, and renders each answer. Reopened stores get fresh
// uids, so every ask is a cold answer-cache miss; answers are still
// inserted. Loads decode, Validate, pattern, backtrace and render; idles
// engine, WAL append and server.
//
// Opens and asks are timed on the process CPU clock: they run on this
// thread alone, so CPU time is their wall time less the time the host gave
// to other guests.

#include <algorithm>
#include <limits>

#include "bench.h"
#include "core/provenance_io.h"
#include "core/provenance_wal.h"
#include "core/query_cache.h"
#include "workload/scenarios.h"

namespace perfbench {
namespace {

using namespace pebble;

constexpr int kSetupRepeats = 3;
constexpr size_t kVariants = 31;

struct Store {
  Scenario scenario;
  ExecutionResult run;
  std::string snapshot;
  std::string wal_dir;
  std::vector<Question> questions;
};

std::vector<Store> Setup(const Args& args, const std::string& dir) {
  ResetDir(dir);
  TwitterGenOptions twitter_options;
  twitter_options.seed = args.seed * 7919 + 11;
  twitter_options.num_tweets = args.toy ? 300 : 3000;
  TwitterGenerator twitter(twitter_options);
  DblpGenOptions dblp_options;
  dblp_options.seed = args.seed * 7919 + 13;
  dblp_options.num_records = args.toy ? 1000 : 10000;
  DblpGenerator dblp(dblp_options);
  auto tweets = twitter.Generate();
  auto records = dblp.Generate();

  Rng rng(args.seed * 31 + 7);
  std::vector<Store> stores;
  for (int i = 0; i < 10; ++i) {
    Store store;
    store.scenario = ValueOrDie(
        i < 5 ? MakeTwitterScenario(i + 1, twitter, tweets)
              : MakeDblpScenario(i - 4, dblp, records),
        "scenario");
    store.snapshot = dir + "/" + store.scenario.name + ".pprov";
    store.wal_dir = dir + "/" + store.scenario.name + ".wal";
    auto writer = std::shared_ptr<WalWriter>(
        ValueOrDie(WalWriter::Open(store.wal_dir), "wal open"));
    ExecOptions options(CaptureMode::kStructural, 4, 2);
    options.commit_sink = writer;
    store.run = ValueOrDie(Executor(options).Run(store.scenario.pipeline),
                           "capture " + store.scenario.name);
    CheckOk(writer->Close(), "wal close");
    CheckOk(SaveProvenanceStore(*store.run.provenance, store.snapshot),
            "snapshot save");
    store.questions = MakeQuestions(store.run, store.scenario.query,
                                    kVariants, &rng);
    stores.push_back(std::move(store));
  }
  return stores;
}

}  // namespace

Outcome RunAudit(const Args& args) {
  Outcome outcome;
  const std::string dir = args.work_dir + "/audit";
  std::vector<double> setup_s;
  std::vector<Store> stores;
  for (int i = 0; i < kSetupRepeats; ++i) {
    stores.clear();
    const double start = ProcessCpuMs();
    stores = Setup(args, dir);
    setup_s.push_back((ProcessCpuMs() - start) / 1e3);
  }
  if (args.corrupt_reference) stores[0].questions[0].reference += "!";
  double input_items = 0;
  double durable_bytes = 0;
  for (const Store& store : stores) {
    // Every scan of the scenario reads the scenario's input dataset.
    input_items += static_cast<double>(
        store.run.source_datasets.begin()->second.NumRows());
    durable_bytes += static_cast<double>(FileBytes(store.snapshot) +
                                         DirBytes(store.wal_dir));
  }

  QueryAnswerCache& cache = QueryAnswerCache::Instance();
  const QueryCacheStats cache_before = cache.stats();
  Tracer tracer(false);
  uint64_t request = 0;
  std::vector<double> load_ms, recover_ms;
  std::vector<double> ask_traced, ask_untraced;
  // Each question's fastest ask across rounds, indexed like `stores` and
  // their questions.
  std::vector<std::vector<double>> best_ask;
  for (const Store& store : stores) {
    best_ask.emplace_back(store.questions.size(),
                          std::numeric_limits<double>::max());
  }

  const auto measure_start = Clock::now();
  for (int round = 0;
       round == 0 || MsSince(measure_start) < args.seconds * 1e3; ++round) {
    // Odd rounds are traced, so the cold first round is an untraced one.
    tracer.set_enabled(args.trace && round % 2 == 1);
    Scoped round_span(&tracer, "audit.round", request);
    double round_load = 0;
    double round_recover = 0;
    std::vector<std::unique_ptr<ProvenanceStore>> loaded, recovered;
    for (const Store& store : stores) {
      double start = ProcessCpuMs();
      {
        Scoped span(&tracer, "io.load", ++request);
        tracer.Count("io.snapshot_bytes",
                     static_cast<double>(FileBytes(store.snapshot)));
        loaded.push_back(
            ValueOrDie(LoadProvenanceStore(store.snapshot), "snapshot load"));
      }
      round_load += ProcessCpuMs() - start;
      start = ProcessCpuMs();
      {
        Scoped span(&tracer, "wal.recover", request);
        RecoveredStore r =
            ValueOrDie(RecoverStore(store.wal_dir), "wal recovery");
        tracer.Count("wal.records_replayed",
                     static_cast<double>(r.info.records_replayed));
        recovered.push_back(std::move(r.store));
      }
      round_recover += ProcessCpuMs() - start;
      if (tracer.enabled()) {
        // Validate timed as its own call (the loaders also run it).
        Scoped span(&tracer, "store.validate", request);
        CheckOk(loaded.back()->Validate(), "validate");
      }
    }
    load_ms.push_back(round_load);
    recover_ms.push_back(round_recover);

    for (size_t s = 0; s < stores.size(); ++s) {
      const Store& store = stores[s];
      for (size_t q = 0; q < store.questions.size(); ++q) {
        const Question& question = store.questions[q];
        const ProvenanceStore& opened =
            (q + round) % 2 == 0 ? *loaded[s] : *recovered[s];
        ++outcome.attempted;
        ++request;
        std::string answer;
        const double start = ProcessCpuMs();
        {
          Scoped span(&tracer, "audit.ask", request);
          TreePattern pattern = [&] {
            Scoped parse(&tracer, "pattern.parse", request);
            return ValueOrDie(TreePattern::Parse(question.text), "parse");
          }();
          Result<ProvenanceQueryResult> result = [&] {
            Scoped query(&tracer, "query.library", request);
            return QueryStructuralProvenanceOffline(store.run.output, opened,
                                                    pattern, 1);
          }();
          if (!result.ok()) {
            ++outcome.failed;
            outcome.Mismatch(question.text + ": " +
                             result.status().ToString());
            continue;
          }
          Scoped render(&tracer, "render", request);
          answer = RenderAnswer(result->sources);
          tracer.Count("render.answer_bytes",
                       static_cast<double>(answer.size()));
        }
        const double elapsed = ProcessCpuMs() - start;
        best_ask[s][q] = std::min(best_ask[s][q], elapsed);
        (tracer.enabled() ? ask_traced : ask_untraced).push_back(elapsed);
        if (answer != question.reference) {
          outcome.Mismatch(store.scenario.name + " '" + question.text +
                           "' answer differs from its reference");
        }
        if (!tracer.enabled()) continue;

        // Traced only: the public calls the library call is made of, on
        // the same inputs. The composed answer must equal the library's.
        Scoped span(&tracer, "audit.decompose", request);
        TreePattern pattern =
            ValueOrDie(TreePattern::Parse(question.text), "parse");
        BacktraceStructure seed = [&] {
          Scoped match(&tracer, "pattern.match", request);
          BacktraceStructure m =
              ValueOrDie(pattern.Match(store.run.output, 1), "match");
          tracer.Count("pattern.seed_items", static_cast<double>(m.size()));
          return m;
        }();
        std::vector<SourceProvenance> sources = [&] {
          Scoped trace(&tracer, "backtrace", request);
          std::vector<SourceProvenance> out =
              ValueOrDie(Backtracer(&opened).Backtrace(seed), "backtrace");
          double items = 0;
          for (const SourceProvenance& src : out) items += src.items.size();
          tracer.Count("backtrace.source_items", items);
          return out;
        }();
        Scoped render(&tracer, "render.composed", request);
        if (RenderAnswer(sources) != answer) {
          outcome.Mismatch(store.scenario.name + " '" + question.text +
                           "' composed answer differs from the library's");
        }
      }
    }
  }
  const QueryCacheStats cache_after = cache.stats();
  RemoveDir(dir);

  // Every round repeats the same opens and asks, so each figure is its
  // fastest repetition: neighbours on a shared host slow memory-bound code
  // by a fifth or more for tens of seconds at a time, CPU time included,
  // and the fastest repetition is the one least disturbed.
  std::vector<double> ask_ms;
  for (const std::vector<double>& questions : best_ask) {
    for (double ms : questions) {
      // A question whose every ask failed has no time; the run is already
      // marked incorrect.
      if (ms < std::numeric_limits<double>::max()) ask_ms.push_back(ms);
    }
  }
  auto fastest = [](const std::vector<double>& values) {
    return *std::min_element(values.begin(), values.end());
  };
  outcome.end_to_end = {
      {"setup_s", Median(setup_s)},
      {"peak_rss_mb", PeakRssMb()},
      {"throughput_per_cpu_s", 1e3 * static_cast<double>(ask_ms.size()) /
                                   std::max(1e-9, Sum(ask_ms))},
      {"latency_ms_p50", Median(ask_ms)},
      {"latency_ms_tail", Quantile(ask_ms, 0.9)},
      {"durable_bytes_per_item", durable_bytes / input_items},
  };
  outcome.report = {
      {"audit_load_ms", fastest(load_ms), "ms"},
      {"audit_recover_ms", fastest(recover_ms), "ms"},
      {"audit_query_ms_p50", Median(ask_ms), "ms"},
      {"audit_query_ms_p90", Quantile(ask_ms, 0.9), "ms"},
      {"audit_rounds", static_cast<double>(load_ms.size()), "count"},
      {"audit_asks", static_cast<double>(outcome.attempted), "count"},
  };

  if (args.trace) {
    const double asks = std::max<double>(1, tracer.Spans("pattern.match"));
    const double opens = std::max<double>(1, tracer.Spans("io.load"));
    const double lookups = static_cast<double>(
        (cache_after.hits - cache_before.hits) +
        (cache_after.misses - cache_before.misses));
    const double hits =
        static_cast<double>(cache_after.hits - cache_before.hits);
    outcome.per_layer = {
        {"io.load_ms", tracer.SelfMs("io.load") / opens},
        {"io.snapshot_bytes", tracer.CountTotal("io.snapshot_bytes") / opens},
        {"store.validate_ms", tracer.SelfMs("store.validate") / opens},
        {"wal.recover_ms", tracer.SelfMs("wal.recover") / opens},
        {"wal.records_replayed",
         tracer.CountTotal("wal.records_replayed") / opens},
        {"pattern.parse_us", 1e3 * tracer.SelfMs("pattern.parse") /
                                 std::max<double>(
                                     1, tracer.Spans("pattern.parse"))},
        {"pattern.match_ms", tracer.SelfMs("pattern.match") / asks},
        {"pattern.seed_items", tracer.CountTotal("pattern.seed_items") / asks},
        {"backtrace.ms", tracer.SelfMs("backtrace") / asks},
        {"backtrace.source_items",
         tracer.CountTotal("backtrace.source_items") / asks},
        {"render.ms", tracer.SelfMs("render.composed") / asks},
        {"render.answer_bytes",
         tracer.CountTotal("render.answer_bytes") /
             std::max<double>(1, tracer.Spans("render"))},
        // The library call minus its parts: validation plus cache key,
        // lookup and insert.
        {"query.overhead_ms",
         (tracer.TotalMs("query.library") - tracer.SelfMs("pattern.match") -
          tracer.SelfMs("backtrace")) /
             asks},
        {"cache.lookups", lookups},
        {"cache.hits", hits},
        {"cache.inserts",
         static_cast<double>(cache_after.inserts - cache_before.inserts)},
        {"cache.evictions",
         static_cast<double>(cache_after.evictions - cache_before.evictions)},
        {"cache.hit_ratio", lookups > 0 ? hits / lookups : 0},
        {"trace.overhead_pct", OverheadPct(ask_traced, ask_untraced)},
        {"trace.spans", static_cast<double>(tracer.size())},
    };
    tracer.Write(args.work_dir + "/trace-audit.jsonl");
  }
  return outcome;
}

}  // namespace perfbench
