#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <limits>
#include <optional>
#include <set>

#include "bench.h"

namespace perfbench {

using pebble::Value;

const std::vector<MetricSpec> kEndToEndMetrics = {
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
    {"throughput_per_cpu_s", "1/s"},
    {"latency_ms_p50", "ms"},
    {"latency_ms_tail", "ms"},
    {"durable_bytes_per_item", "B"},
};

const std::vector<MetricSpec> kPerLayerMetrics = {
    {"engine.kernel_ms", "ms"},
    {"engine.run_self_ms", "ms"},
    {"engine.rows_out", "count"},
    {"engine.task_attempts", "count"},
    {"arena.bytes_reserved", "B"},
    {"arena.count", "count"},
    {"capture.overhead_ratio", "ratio"},
    {"wal.commit_ms", "ms"},
    {"wal.commits", "count"},
    {"wal.records_appended", "count"},
    {"wal.bytes_written", "B"},
    {"wal.compact_ms", "ms"},
    {"wal.compactions", "count"},
    {"wal.compact_bytes", "B"},
    {"store.id_rows", "count"},
    {"store.logical_bytes", "B"},
    {"io.load_ms", "ms"},
    {"io.snapshot_bytes", "B"},
    {"store.validate_ms", "ms"},
    {"wal.recover_ms", "ms"},
    {"wal.records_replayed", "count"},
    {"pattern.parse_us", "us"},
    {"pattern.match_ms", "ms"},
    {"pattern.seed_items", "count"},
    {"backtrace.ms", "ms"},
    {"backtrace.source_items", "count"},
    {"render.ms", "ms"},
    {"render.answer_bytes", "B"},
    {"query.overhead_ms", "ms"},
    {"cache.lookups", "count"},
    {"cache.hits", "count"},
    {"cache.inserts", "count"},
    {"cache.evictions", "count"},
    {"cache.hit_ratio", "ratio"},
    {"serve.first_ask_us_p50", "us"},
    {"serve.repeat_ask_us_p50", "us"},
    {"net.ping_us_p50", "us"},
    {"wire.answer_bytes_mean", "B"},
    {"server.admitted", "count"},
    {"server.shed", "count"},
    {"server.queue_max_depth", "count"},
    {"trace.overhead_pct", "%"},
    {"trace.spans", "count"},
};

void Outcome::Mismatch(const std::string& what) {
  if (correct) first_mismatch = what;
  correct = false;
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Sum(const std::vector<double>& values) {
  double total = 0;
  for (double v : values) total += v;
  return total;
}

double OverheadPct(const std::vector<double>& traced,
                   const std::vector<double>& untraced) {
  if (traced.empty() || untraced.empty()) return 0;
  return (Median(traced) / Median(untraced) - 1) * 100;
}

double ProcessCpuMs() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) / 1e6;
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

uint64_t DirBytes(const std::string& dir) {
  std::error_code ec;
  uint64_t total = 0;
  for (auto it = std::filesystem::recursive_directory_iterator(dir, ec);
       !ec && it != std::filesystem::recursive_directory_iterator();
       it.increment(ec)) {
    if (it->is_regular_file(ec)) total += it->file_size(ec);
  }
  return total;
}

uint64_t FileBytes(const std::string& path) {
  std::error_code ec;
  const uintmax_t size = std::filesystem::file_size(path, ec);
  return ec ? 0 : static_cast<uint64_t>(size);
}

void ResetDir(const std::string& dir) {
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    std::fprintf(stderr, "perfbench: cannot create %s: %s\n", dir.c_str(),
                 ec.message().c_str());
    std::exit(2);
  }
}

void RemoveDir(const std::string& dir) {
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

void CheckOk(const pebble::Status& status, const std::string& what) {
  if (status.ok()) return;
  std::fprintf(stderr, "perfbench: %s failed: %s\n", what.c_str(),
               status.ToString().c_str());
  std::exit(2);
}

// ---------------------------------------------------------------------------
// Tracer

namespace {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

}  // namespace

int Tracer::Begin(const char* name, uint64_t request_id) {
  if (!enabled_) return -1;
  const int parent = open_.empty() ? -1 : open_.back();
  spans_.push_back(Span{name, NowNs(), 0, parent, request_id, {}});
  const int index = static_cast<int>(spans_.size() - 1);
  open_.push_back(index);
  return index;
}

void Tracer::End(int span) {
  if (span < 0) return;
  spans_[span].end_ns = NowNs();
  // Spans close innermost first; tolerate a disabled toggle in between.
  while (!open_.empty()) {
    const int top = open_.back();
    open_.pop_back();
    if (top == span) break;
  }
}

void Tracer::Count(const char* name, double value) {
  if (!enabled_ || open_.empty()) return;
  spans_[open_.back()].counts.emplace_back(name, value);
}

std::vector<int64_t> Tracer::SelfNs() const {
  std::vector<int64_t> self(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    self[i] = spans_[i].end_ns - spans_[i].start_ns;
  }
  // Children of one thread's span are nested and sequential, so their
  // durations never overlap each other.
  for (const Span& span : spans_) {
    if (span.parent >= 0) self[span.parent] -= span.end_ns - span.start_ns;
  }
  return self;
}

double Tracer::SelfMs(const std::string& name) const {
  const std::vector<int64_t> self = SelfNs();
  int64_t total = 0;
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (name == spans_[i].name) total += self[i];
  }
  return static_cast<double>(total) / 1e6;
}

double Tracer::TotalMs(const std::string& name) const {
  int64_t total = 0;
  for (const Span& span : spans_) {
    if (name == span.name) total += span.end_ns - span.start_ns;
  }
  return static_cast<double>(total) / 1e6;
}

size_t Tracer::Spans(const std::string& name) const {
  size_t n = 0;
  for (const Span& span : spans_) n += name == span.name ? 1 : 0;
  return n;
}

double Tracer::CountTotal(const std::string& name) const {
  double total = 0;
  for (const Span& span : spans_) {
    for (const auto& [key, value] : span.counts) {
      if (name == key) total += value;
    }
  }
  return total;
}

void Tracer::Merge(const Tracer& other) {
  const int offset = static_cast<int>(spans_.size());
  for (Span span : other.spans_) {
    if (span.parent >= 0) span.parent += offset;
    spans_.push_back(std::move(span));
  }
}

void Tracer::Write(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return;
  const std::vector<int64_t> self = SelfNs();
  const int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  char buf[256];
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof(buf),
                  "{\"span\":%zu,\"name\":\"%s\",\"start_us\":%.3f,"
                  "\"end_us\":%.3f,\"parent\":%d,\"request\":%llu,"
                  "\"self_us\":%.3f",
                  i, s.name, (s.start_ns - origin) / 1e3,
                  (s.end_ns - origin) / 1e3, s.parent,
                  static_cast<unsigned long long>(s.request_id),
                  self[i] / 1e3);
    out << buf;
    for (const auto& [key, value] : s.counts) {
      std::snprintf(buf, sizeof(buf), ",\"%s\":%.17g", key, value);
      out << buf;
    }
    out << "}\n";
  }
}

// ---------------------------------------------------------------------------
// Questions

namespace {

/// Every scalar value of an attribute named `name` anywhere below `value`.
void CollectAttr(const Value& value, const std::string& name,
                 std::vector<const Value*>* out) {
  if (value.is_struct()) {
    for (const pebble::FieldRef& f : value.fields()) {
      if (f.value == nullptr) continue;
      if (f.name == name && !f.value->is_struct() &&
          !f.value->is_collection() && !f.value->is_null()) {
        out->push_back(f.value);
      }
      CollectAttr(*f.value, name, out);
    }
  } else if (value.is_collection()) {
    for (const pebble::ValuePtr& e : value.elements()) {
      if (e != nullptr) CollectAttr(*e, name, out);
    }
  }
}

/// Renders `node` in the Parse grammar with every equality constant
/// redrawn from `item`'s own values of the same attribute; false when the
/// item lacks one or the node has another kind of predicate.
bool RenderNode(const pebble::PatternNode& node, const Value& item,
                pebble::Rng* rng, std::string* out) {
  *out += node.is_descendant() ? "//" + node.name() : node.name();
  if (node.predicate_value() != nullptr) {
    std::vector<const Value*> candidates;
    CollectAttr(item, node.name(), &candidates);
    if (node.predicate_op() != pebble::CompareOp::kEq || candidates.empty()) {
      return false;
    }
    *out += "=" + candidates[rng->NextBounded(candidates.size())]->ToString();
  }
  if (node.min_count() != 1 ||
      node.max_count() != std::numeric_limits<int>::max()) {
    *out += "[" + std::to_string(node.min_count()) + "," +
            (node.max_count() == std::numeric_limits<int>::max()
                 ? std::string("*")
                 : std::to_string(node.max_count())) +
            "]";
  }
  if (!node.children().empty()) {
    *out += "(";
    for (size_t i = 0; i < node.children().size(); ++i) {
      if (i > 0) *out += ",";
      if (!RenderNode(node.children()[i], item, rng, out)) return false;
    }
    *out += ")";
  }
  return true;
}

std::optional<std::string> VariantText(const pebble::TreePattern& base,
                                       const Value& item, pebble::Rng* rng) {
  std::string out;
  for (size_t i = 0; i < base.roots().size(); ++i) {
    if (i > 0) out += ",";
    if (!RenderNode(base.roots()[i], item, rng, &out)) return std::nullopt;
  }
  return out;
}

}  // namespace

std::string RenderAnswer(
    const std::vector<pebble::SourceProvenance>& sources) {
  std::string answer;
  for (const pebble::SourceProvenance& source : sources) {
    answer += pebble::SourceProvenanceToString(source);
  }
  return answer;
}

std::vector<Question> MakeQuestions(const pebble::ExecutionResult& run,
                                    const pebble::TreePattern& base,
                                    size_t variants, pebble::Rng* rng) {
  std::vector<Question> out;
  std::set<std::string> seen;
  auto add = [&](const std::string& text, bool must_match) {
    if (!seen.insert(text).second) return;
    pebble::Result<pebble::TreePattern> parsed =
        pebble::TreePattern::Parse(text);
    if (!parsed.ok()) return;
    auto answer = pebble::QueryStructuralProvenance(run, *parsed, 1);
    CheckOk(answer.status(), "reference query '" + text + "'");
    if (must_match && answer->matched.empty()) return;
    out.push_back(Question{text, RenderAnswer(answer->sources)});
  };
  add(base.CanonicalText(), /*must_match=*/false);

  const std::vector<pebble::Row> rows = run.output.CollectRows();
  if (rows.empty()) return out;
  const size_t want = out.size() + variants;
  // Bounded: an output too small for `variants` distinct questions yields
  // fewer rather than looping forever.
  for (size_t attempt = 0; out.size() < want && attempt < variants * 20;
       ++attempt) {
    const pebble::Row& row = rows[rng->NextBounded(rows.size())];
    std::optional<std::string> text = VariantText(base, *row.value, rng);
    if (text) add(*text, /*must_match=*/true);
  }
  return out;
}

}  // namespace perfbench
