// Shared pieces of the benchmark of record: command-line arguments, the
// span tracer of the traced run, order statistics, question generation and
// the result record every workload fills.

#ifndef PEBBLE_PERFBENCH_BENCH_H_
#define PEBBLE_PERFBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "core/query.h"
#include "core/tree_pattern.h"

namespace perfbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Toy inputs (a few hundred items) for the smoke run.
  bool toy = false;
  /// Alters one reference after set-up (an answer, or for ingest the id-row
  /// total a WAL must recover), so the check must fail (the smoke run's
  /// negative leg).
  bool corrupt_reference = false;
  /// Scratch directory for WALs, snapshots and the trace file.
  std::string work_dir = ".bench_build/work";
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// The metrics every workload reports, in BENCHMARK.json order: the
/// end-to-end ones with --trace 0, the per-layer ones with --trace 1.
extern const std::vector<MetricSpec> kEndToEndMetrics;
extern const std::vector<MetricSpec> kPerLayerMetrics;

/// What one workload run reports. `end_to_end` must name every end-to-end
/// metric; `per_layer` names the layer metrics the workload loads (the
/// layers it idles report 0). `report` holds the workload's figures under
/// their workload-specific names, printed before the result line.
struct Outcome {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::string first_mismatch;
  std::map<std::string, double> end_to_end;
  std::map<std::string, double> per_layer;
  std::vector<Metric> report;

  void Mismatch(const std::string& what);
};

using Clock = std::chrono::steady_clock;

inline double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

/// Nearest-rank-interpolated quantile (q in [0,1]); 0 for no samples.
double Quantile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}
double Sum(const std::vector<double>& values);
/// Tracing overhead in percent: the traced units' median time over the
/// untraced ones'; 0 when either side has no samples.
double OverheadPct(const std::vector<double>& traced,
                   const std::vector<double>& untraced);

/// CPU time this process has used so far, in ms: user plus system time of
/// all its threads. The kernel leaves out time the hypervisor gave to other
/// guests, so on a shared host it follows the program more closely than
/// wall time does.
double ProcessCpuMs();

/// Peak resident set size of this process, in MiB.
double PeakRssMb();

/// Total bytes of the regular files under `dir` (recursive; 0 if missing).
uint64_t DirBytes(const std::string& dir);
uint64_t FileBytes(const std::string& path);
/// Removes and recreates `dir`.
void ResetDir(const std::string& dir);
/// Removes `dir` and everything under it.
void RemoveDir(const std::string& dir);

/// Aborts the benchmark on a set-up error (no result line is printed).
void CheckOk(const pebble::Status& status, const std::string& what);
template <typename T>
T ValueOrDie(pebble::Result<T> result, const std::string& what) {
  CheckOk(result.status(), what);
  return std::move(result).value();
}

// ---------------------------------------------------------------------------
// Tracing. Spans are recorded by the benchmark around its calls into each
// layer; a Tracer belongs to one thread. Spans live in memory until the run
// ends. A layer's self time is its span's duration minus its child spans.

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }
  /// Toggles recording for later spans (the traced run alternates traced
  /// and untraced units to measure the tracing overhead).
  void set_enabled(bool enabled) { enabled_ = enabled; }

  /// Opens a span under the innermost open one; -1 when disabled.
  int Begin(const char* name, uint64_t request_id);
  void End(int span);
  /// Adds `value` to the named count and to the innermost open span.
  void Count(const char* name, double value);

  /// Sum of self times (ms) of spans named `name`.
  double SelfMs(const std::string& name) const;
  /// Sum of durations (ms) of spans named `name`.
  double TotalMs(const std::string& name) const;
  /// Number of spans named `name`.
  size_t Spans(const std::string& name) const;
  /// Total of a count.
  double CountTotal(const std::string& name) const;
  size_t size() const { return spans_.size(); }

  /// Appends `other`'s spans (another thread's tracer) to this one.
  void Merge(const Tracer& other);

  /// Writes every span as one JSON line (name, start/end us since the
  /// first span, parent index, request id, self us, counts).
  void Write(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    int64_t start_ns;
    int64_t end_ns;
    int parent;
    uint64_t request_id;
    std::vector<std::pair<const char*, double>> counts;
  };
  std::vector<int64_t> SelfNs() const;

  bool enabled_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span; a no-op when the tracer is disabled.
class Scoped {
 public:
  Scoped(Tracer* tracer, const char* name, uint64_t request_id)
      : tracer_(tracer), span_(tracer->Begin(name, request_id)) {}
  ~Scoped() { tracer_->End(span_); }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

 private:
  Tracer* tracer_;
  int span_;
};

// ---------------------------------------------------------------------------
// Questions.

/// Rendered answer: every source provenance concatenated, exactly as the
/// query server renders it.
std::string RenderAnswer(const std::vector<pebble::SourceProvenance>& sources);

struct Question {
  std::string text;
  std::string reference;  // RenderAnswer of the in-memory run's answer
};

/// The scenario's own question plus up to `variants` distinct variants
/// whose constants come from random output items; every variant matches at
/// least one item. References come from QueryStructuralProvenance on the
/// in-memory run.
std::vector<Question> MakeQuestions(const pebble::ExecutionResult& run,
                                    const pebble::TreePattern& base,
                                    size_t variants, pebble::Rng* rng);

// ---------------------------------------------------------------------------
// Workloads.

Outcome RunIngest(const Args& args);
Outcome RunAudit(const Args& args);
Outcome RunServe(const Args& args);

}  // namespace perfbench

#endif  // PEBBLE_PERFBENCH_BENCH_H_
