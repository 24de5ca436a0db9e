// Benchmark of record for pebble: three workloads (ingest, audit, serve)
// driven through the library's and the query server's public functions.
//
//   perfbench --workload <ingest|audit|serve> --seed N --seconds S
//             --trace <0|1> [--work-dir DIR] [--toy] [--corrupt-reference]
//
// Prints each metric as "metric <name> <value> <unit>" and, as the last
// line, one JSON object {correct, attempted, failed, metrics}: the
// end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
// Exits 1 when any answer differs from its reference, 2 on a set-up error.
// perfbench/README.md explains the workloads and metrics.

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <utility>

#include "bench.h"

namespace perfbench {
namespace {

/// Aggregate CPU time counters from /proc/stat: {steal, total} ticks.
std::pair<double, double> CpuTicks() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  stat >> cpu;
  double total = 0;
  double steal = 0;
  double value = 0;
  for (int field = 0; field < 8 && stat >> value; ++field) {
    total += value;
    if (field == 7) steal = value;
  }
  return {steal, total};
}

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<ingest|audit|serve> --seed N --seconds S --trace <0|1> "
               "[--work-dir DIR] [--toy] [--corrupt-reference]\n",
               why);
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
      return argv[++i];
    };
    if (flag == "--workload") {
      args.workload = value();
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atof(value().c_str());
    } else if (flag == "--trace") {
      args.trace = value() == "1";
    } else if (flag == "--work-dir") {
      args.work_dir = value();
    } else if (flag == "--toy") {
      args.toy = true;
    } else if (flag == "--corrupt-reference") {
      args.corrupt_reference = true;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (args.seconds <= 0) Usage("--seconds must be positive");
  return args;
}

void PrintResult(const Outcome& outcome, bool trace) {
  std::vector<Metric> metrics;
  for (const MetricSpec& spec : trace ? kPerLayerMetrics : kEndToEndMetrics) {
    const auto& values = trace ? outcome.per_layer : outcome.end_to_end;
    auto it = values.find(spec.name);
    if (it == values.end() && !trace) {
      std::fprintf(stderr, "perfbench: workload did not measure %s\n",
                   spec.name);
      std::exit(2);
    }
    metrics.push_back({spec.name, it == values.end() ? 0 : it->second,
                       spec.unit});
  }
  for (const Metric& m : outcome.report) {
    std::printf("report %s %.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  for (const Metric& m : metrics) {
    std::printf("metric %s %.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  if (!outcome.correct) {
    std::printf("MISMATCH %s\n", outcome.first_mismatch.c_str());
  }
  std::string json = "{\"correct\": ";
  json += outcome.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(outcome.attempted);
  json += ", \"failed\": " + std::to_string(outcome.failed);
  json += ", \"metrics\": {";
  char buf[128];
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, ",
                  i == 0 ? "" : ", ", metrics[i].name.c_str(),
                  metrics[i].value);
    json += buf;
    json += "\"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Args args = ParseArgs(argc, argv);
  Outcome outcome;
  const auto [steal_before, total_before] = CpuTicks();
  if (args.workload == "ingest") {
    outcome = RunIngest(args);
  } else if (args.workload == "audit") {
    outcome = RunAudit(args);
  } else if (args.workload == "serve") {
    outcome = RunServe(args);
  } else {
    Usage("unknown workload");
  }
  // CPU time the hypervisor gave to other guests during the run: a
  // machine-noise figure for reading the timings, not a metric.
  const auto [steal_after, total_after] = CpuTicks();
  outcome.report.push_back(
      {"cpu_steal_pct",
       total_after > total_before ? 100 * (steal_after - steal_before) /
                                        (total_after - total_before)
                                  : 0,
       "%"});
  PrintResult(outcome, args.trace);
  return outcome.correct ? 0 : 1;
}
