// `ingest`: the ten paper pipelines (T1-T5, D1-D5) run over a cycled pool
// of pre-generated batches at fig9 scale, each streaming its provenance
// into its own WAL (a WAL holds one topology). Loads engine, capture, WAL
// append and compaction; idles pattern, backtrace, cache and server.
//
// A run is a sequence of episodes, each starting from empty WAL
// directories and running a fixed number of rounds (one batch through all
// ten pipelines), so compaction cycles land on the same batch every run
// and per-episode throughput is comparable across runs. Twelve rounds keep
// every WAL clear of a compaction threshold for typical seeds: the largest
// (D3) compacts once per episode, the others not at all, so one more or
// one fewer cycle never swings a run. After the last episode every WAL is
// recovered, validated and checked against the id rows its runs logged.
//
// Timings are CPU time of the process. Every pipeline run ends in an fsync
// (a run boundary is a WAL durability point), so a round's wall time is
// mostly the shared disk's fsync latency, which swings by more than the
// program's own cost between runs on a shared host.

#include <algorithm>
#include <limits>
#include <map>
#include <memory>

#include "bench.h"
#include "core/compactor.h"
#include "core/provenance_wal.h"
#include "workload/scenarios.h"

namespace perfbench {
namespace {

using namespace pebble;

constexpr int kSetupRepeats = 3;
constexpr int kPoolBatches = 6;
constexpr int kRoundsPerEpisode = 12;
constexpr uint64_t kGroupCommitBytes = 4ull << 20;

struct Pool {
  // scenarios[b][s]: pipeline s (T1..T5, D1..D5) over batch b.
  std::vector<std::vector<Scenario>> scenarios;
  std::vector<size_t> items;  // input items per pipeline s
};

Pool MakePool(const Args& args) {
  const size_t tweets = args.toy ? 300 : 3000;
  const size_t records = args.toy ? 1000 : 10000;
  Pool pool;
  for (int b = 0; b < kPoolBatches; ++b) {
    TwitterGenOptions twitter_options;
    twitter_options.seed = args.seed * 7919 + b;
    twitter_options.num_tweets = tweets;
    TwitterGenerator twitter(twitter_options);
    DblpGenOptions dblp_options;
    dblp_options.seed = args.seed * 7919 + 101 + b;
    dblp_options.num_records = records;
    DblpGenerator dblp(dblp_options);
    auto tweet_data = twitter.Generate();
    auto dblp_data = dblp.Generate();
    std::vector<Scenario> batch;
    for (int id = 1; id <= 5; ++id) {
      batch.push_back(ValueOrDie(MakeTwitterScenario(id, twitter, tweet_data),
                                 "twitter scenario"));
    }
    for (int id = 1; id <= 5; ++id) {
      batch.push_back(
          ValueOrDie(MakeDblpScenario(id, dblp, dblp_data), "dblp scenario"));
    }
    pool.scenarios.push_back(std::move(batch));
  }
  pool.items.assign(5, tweets);
  pool.items.resize(10, records);
  return pool;
}

/// Times every executor commit hook as a "wal.commit" span: the self time
/// of the writer's append, group commit and fsync work.
class TimedSink final : public ProvenanceCommitSink {
 public:
  TimedSink(std::shared_ptr<WalWriter> writer, Tracer* tracer)
      : writer_(std::move(writer)), tracer_(tracer) {}

  Status OnRunBegin(const ProvenanceStore& store,
                    int64_t first_item_id) override {
    Scoped span(tracer_, "wal.commit", request_);
    tracer_->Count("wal.commits", 1);
    return writer_->OnRunBegin(store, first_item_id);
  }
  Status OnOperatorCommit(const ProvenanceStore& store, int oid) override {
    Scoped span(tracer_, "wal.commit", request_);
    tracer_->Count("wal.commits", 1);
    return writer_->OnOperatorCommit(store, oid);
  }
  Status OnRunEnd(const ProvenanceStore& store,
                  int64_t next_item_id) override {
    Scoped span(tracer_, "wal.commit", request_);
    tracer_->Count("wal.commits", 1);
    return writer_->OnRunEnd(store, next_item_id);
  }

  void set_request(uint64_t request) { request_ = request; }

 private:
  std::shared_ptr<WalWriter> writer_;
  Tracer* tracer_;
  uint64_t request_ = 0;
};

struct Stream {
  std::string dir;
  std::shared_ptr<WalWriter> writer;
  std::shared_ptr<TimedSink> sink;
  int64_t next_id = 1;
  uint64_t id_rows = 0;
  int compactions = 0;
  // Final size of every segment file seen (seq -> bytes).
  std::map<uint64_t, uint64_t> segment_bytes;
};

void SampleSegments(Stream* stream) {
  auto segments = ListWalSegments(stream->dir);
  if (!segments.ok()) return;
  for (const auto& [seq, path] : *segments) {
    uint64_t& bytes = stream->segment_bytes[seq];
    bytes = std::max(bytes, FileBytes(path));
  }
}

struct EpisodeStats {
  double wall_ms = 0;
  double items = 0;
  int max_stream_compactions = 0;  // cycles on the most compacted WAL
  std::vector<double> round_cpu_ms;
};

}  // namespace

Outcome RunIngest(const Args& args) {
  Outcome outcome;
  const std::string base_dir = args.work_dir + "/ingest";
  const uint64_t compact_threshold = BackgroundCompactorOptions{}.threshold_bytes;

  std::vector<double> setup_s;
  Pool pool;
  for (int i = 0; i < kSetupRepeats; ++i) {
    pool = Pool();
    const double start = ProcessCpuMs();
    pool = MakePool(args);
    ResetDir(base_dir);
    setup_s.push_back((ProcessCpuMs() - start) / 1e3);
  }

  ExecOptions exec(CaptureMode::kStructural, /*partitions=*/4,
                   /*threads=*/2);
  ExecOptions exec_off(CaptureMode::kOff, 4, 2);
  Executor executor_off(exec_off);
  WalOptions wal;
  wal.group_commit_bytes = kGroupCommitBytes;
  wal.sync = true;

  Tracer tracer(false);
  uint64_t request = 0;
  std::vector<double> run_ms_traced;
  std::vector<double> run_ms_untraced;
  std::vector<EpisodeStats> episodes;
  double compactions = 0;
  double compact_bytes = 0;  // snapshot bytes the compactions wrote
  double segment_bytes = 0;  // WAL segment bytes written

  std::vector<Stream> streams;
  const auto measure_start = Clock::now();
  for (int episode = 0;
       episode == 0 || MsSince(measure_start) < args.seconds * 1e3;
       ++episode) {
    // Only the last episode's WALs are kept, for the recovery check.
    const std::string episode_dir = base_dir + "/episode";
    ResetDir(episode_dir);
    EpisodeStats stats;
    streams.assign(10, Stream());
    const auto episode_start = Clock::now();
    for (size_t s = 0; s < streams.size(); ++s) {
      Stream& stream = streams[s];
      stream.dir = episode_dir + "/" + pool.scenarios[0][s].name;
      stream.writer = ValueOrDie(WalWriter::Open(stream.dir, wal), "wal open");
      stream.sink = std::make_shared<TimedSink>(stream.writer, &tracer);
    }
    // The traced run alternates traced and untraced episodes; the
    // difference between their pipeline-run times is the tracing overhead.
    tracer.set_enabled(args.trace && episode % 2 == 0);
    for (int round = 0; round < kRoundsPerEpisode; ++round) {
      const std::vector<Scenario>& batch =
          pool.scenarios[round % kPoolBatches];
      const double round_cpu = ProcessCpuMs();
      Scoped round_span(&tracer, "ingest.round", request);
      for (size_t s = 0; s < streams.size(); ++s) {
        Stream& stream = streams[s];
        ++request;
        stream.sink->set_request(request);
        ExecOptions options = exec;
        options.commit_sink = stream.sink;
        options.first_item_id = stream.next_id;
        const uint64_t records_before = stream.writer->records_appended();
        const auto run_start = Clock::now();
        Result<ExecutionResult> run = [&] {
          Scoped span(&tracer, "engine.run", request);
          Result<ExecutionResult> r = Executor(options).Run(batch[s].pipeline);
          if (r.ok()) {
            tracer.Count("engine.rows_out",
                         static_cast<double>(r->output.NumRows()));
            tracer.Count("engine.task_attempts",
                         static_cast<double>(r->task_stats.attempts));
            tracer.Count("arena.bytes_reserved",
                         static_cast<double>(r->arena_stats.bytes_reserved));
            tracer.Count("arena.count", static_cast<double>(r->arena_count));
            tracer.Count("store.id_rows",
                         static_cast<double>(r->provenance->TotalIdRows()));
            tracer.Count(
                "store.logical_bytes",
                static_cast<double>(r->provenance->TotalLineageBytes() +
                                    r->provenance->TotalStructuralExtraBytes()));
            tracer.Count("wal.records_appended",
                         static_cast<double>(stream.writer->records_appended() -
                                             records_before));
          }
          return r;
        }();
        (tracer.enabled() ? run_ms_traced : run_ms_untraced)
            .push_back(MsSince(run_start));
        ++outcome.attempted;
        if (!run.ok()) {
          ++outcome.failed;
          outcome.Mismatch(batch[s].name + " run failed: " +
                           run.status().ToString());
          continue;
        }
        stream.next_id = run->next_item_id;
        stream.id_rows += run->provenance->TotalIdRows();
        stats.items += static_cast<double>(pool.items[s]);

        if (tracer.enabled()) {
          // The Fig. 6 denominator: the same batch without capture.
          Scoped span(&tracer, "engine.run_off", request);
          CheckOk(executor_off.Run(batch[s].pipeline).status(), "kOff run");
        }
        if (stream.writer->sealed_bytes() >= compact_threshold) {
          // Inline, so cycles land on the same batch every run. Compact()
          // flushes first anyway; flushing here lets the segment sizes be
          // sampled before the fold deletes the files.
          Scoped span(&tracer, "wal.compact", request);
          CheckOk(stream.writer->Flush(), "wal flush");
          SampleSegments(&stream);
          CheckOk(stream.writer->Compact(), "wal compact");
          ++compactions;
          ++stream.compactions;
          auto state = ReadWalShipState(stream.dir);
          if (state.ok() && !state->snapshot_file.empty()) {
            compact_bytes += static_cast<double>(
                FileBytes(stream.dir + "/" + state->snapshot_file));
          }
        }
      }
      stats.round_cpu_ms.push_back(ProcessCpuMs() - round_cpu);
    }
    for (Stream& stream : streams) {
      CheckOk(stream.writer->Close(), "wal close");
      stats.max_stream_compactions =
          std::max(stats.max_stream_compactions, stream.compactions);
    }
    stats.wall_ms = MsSince(episode_start);

    for (Stream& stream : streams) {
      SampleSegments(&stream);
      for (const auto& [seq, bytes] : stream.segment_bytes) {
        segment_bytes += static_cast<double>(bytes);
      }
    }
    tracer.set_enabled(false);
    episodes.push_back(std::move(stats));
  }

  // After the run, every WAL must recover to a Validate()-clean store
  // holding exactly the id rows its runs logged.
  tracer.set_enabled(args.trace);
  if (args.corrupt_reference) streams[0].id_rows += 1;
  double recover_ms = 0;
  for (size_t s = 0; s < streams.size(); ++s) {
    const Stream& stream = streams[s];
    const double recover_start = ProcessCpuMs();
    Result<RecoveredStore> recovered = [&] {
      Scoped span(&tracer, "wal.recover", ++request);
      Result<RecoveredStore> r = RecoverStore(stream.dir);
      if (r.ok()) {
        tracer.Count("wal.records_replayed",
                     static_cast<double>(r->info.records_replayed));
      }
      return r;
    }();
    recover_ms += ProcessCpuMs() - recover_start;
    if (!recovered.ok()) {
      outcome.Mismatch(stream.dir + " does not recover: " +
                       recovered.status().ToString());
      continue;
    }
    Status valid = [&] {
      Scoped span(&tracer, "store.validate", request);
      return recovered->store->Validate();
    }();
    if (!valid.ok()) {
      outcome.Mismatch(stream.dir + " fails Validate: " + valid.ToString());
    }
    if (recovered->store->TotalIdRows() != stream.id_rows) {
      outcome.Mismatch(stream.dir + " recovered " +
                       std::to_string(recovered->store->TotalIdRows()) +
                       " id rows, logged " + std::to_string(stream.id_rows));
    }
  }
  tracer.set_enabled(false);
  const double durable_bytes =
      static_cast<double>(DirBytes(base_dir + "/episode"));
  const double last_items = episodes.back().items;
  streams.clear();
  RemoveDir(base_dir);

  // Every episode repeats the same work (the same batches into empty
  // WALs), so each round's figure is its fastest time across episodes:
  // neighbours on a shared host slow memory-bound code by a fifth or more
  // for tens of seconds at a time, CPU time included, and the fastest
  // repetition is the one least disturbed. The compaction stall is the
  // slowest of these rounds; throughput is an episode's items over their
  // sum.
  std::vector<double> best_round(kRoundsPerEpisode,
                                 std::numeric_limits<double>::max());
  std::vector<double> wall_rate;
  for (const EpisodeStats& e : episodes) {
    wall_rate.push_back(e.items / (e.wall_ms / 1e3));
    for (size_t r = 0; r < e.round_cpu_ms.size(); ++r) {
      best_round[r] = std::min(best_round[r], e.round_cpu_ms[r]);
    }
  }
  const double items_per_cpu_s = last_items / (Sum(best_round) / 1e3);
  const double round_p50 = Median(best_round);
  const double stall =
      *std::max_element(best_round.begin(), best_round.end());
  outcome.end_to_end = {
      {"setup_s", Median(setup_s)},
      {"peak_rss_mb", PeakRssMb()},
      {"throughput_per_cpu_s", items_per_cpu_s},
      {"latency_ms_p50", round_p50},
      // Rounds per episode are too few for a high percentile; the tail is
      // the slowest round, the one the largest WAL's compaction stalls.
      {"latency_ms_tail", stall},
      {"durable_bytes_per_item", durable_bytes / last_items},
  };
  outcome.report = {
      {"ingest_items_per_cpu_s", items_per_cpu_s, "1/s"},
      {"ingest_items_per_s", Median(wall_rate), "1/s"},
      {"ingest_durable_bytes_per_item", durable_bytes / last_items, "B"},
      {"ingest_round_cpu_ms_p50", round_p50, "ms"},
      {"ingest_round_cpu_ms_max", stall, "ms"},
      {"ingest_recover_ms", recover_ms, "ms"},
      {"ingest_episodes", static_cast<double>(episodes.size()), "count"},
      {"ingest_compactions", compactions, "count"},
      {"ingest_max_wal_compactions_per_episode",
       static_cast<double>(episodes.front().max_stream_compactions), "count"},
  };

  if (args.trace) {
    const double all_runs = static_cast<double>(outcome.attempted);
    const double runs = std::max<double>(1, tracer.Spans("engine.run"));
    const double recovers = std::max<double>(1, tracer.Spans("wal.recover"));
    const double off_ms = tracer.TotalMs("engine.run_off");
    outcome.per_layer = {
        {"engine.kernel_ms", off_ms / runs},
        {"engine.run_self_ms", tracer.SelfMs("engine.run") / runs},
        {"engine.rows_out", tracer.CountTotal("engine.rows_out") / runs},
        {"engine.task_attempts",
         tracer.CountTotal("engine.task_attempts") / runs},
        {"arena.bytes_reserved",
         tracer.CountTotal("arena.bytes_reserved") / runs},
        {"arena.count", tracer.CountTotal("arena.count") / runs},
        {"capture.overhead_ratio",
         off_ms > 0 ? tracer.SelfMs("engine.run") / off_ms : 0},
        {"wal.commit_ms", tracer.SelfMs("wal.commit") / runs},
        {"wal.commits", tracer.CountTotal("wal.commits") / runs},
        {"wal.records_appended",
         tracer.CountTotal("wal.records_appended") / runs},
        {"wal.bytes_written", segment_bytes / std::max(1.0, all_runs)},
        {"wal.compact_ms",
         tracer.SelfMs("wal.compact") /
             std::max<double>(1, tracer.Spans("wal.compact"))},
        {"wal.compactions",
         compactions / static_cast<double>(episodes.size())},
        {"wal.compact_bytes", compact_bytes / std::max(1.0, compactions)},
        {"store.id_rows", tracer.CountTotal("store.id_rows") / runs},
        {"store.logical_bytes",
         tracer.CountTotal("store.logical_bytes") / runs},
        {"wal.recover_ms", tracer.SelfMs("wal.recover") / recovers},
        {"wal.records_replayed",
         tracer.CountTotal("wal.records_replayed") / recovers},
        {"store.validate_ms", tracer.SelfMs("store.validate") / recovers},
        {"trace.overhead_pct", OverheadPct(run_ms_traced, run_ms_untraced)},
        {"trace.spans", static_cast<double>(tracer.size())},
    };
    tracer.Write(args.work_dir + "/trace-ingest.jsonl");
  }
  return outcome;
}

}  // namespace perfbench
