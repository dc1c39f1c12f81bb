// perfbench: one closed-loop workload of the on/off-chain node per process.
//
//   perfbench --workload ledger|games|calls --seed N --seconds S --trace 0|1
//             --workdir DIR [--spans FILE]
//   perfbench --selftest
//
// Prints the run's figures, one line each, then as its last line one JSON
// object {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics untraced, the per-layer metrics traced. Exits 1 when an output
// check failed.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "bench.h"
#include "checks.h"

namespace {

using perfbench::Options;
using perfbench::RunResult;

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload ledger|games|calls --seed N "
               "--seconds S --trace 0|1 --workdir DIR [--spans FILE]\n"
               "       perfbench --selftest\n");
  return 2;
}

void PrintJson(const RunResult& result) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              result.correct() ? "true" : "false",
              static_cast<unsigned long long>(result.ops.attempted()),
              static_cast<unsigned long long>(result.ops.failed()));
  for (size_t i = 0; i < result.metrics.size(); ++i) {
    const perfbench::Metric& m = result.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  std::string spans_path;
  bool have_workload = false, have_workdir = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--selftest") return perfbench::SelfTest() == 0 ? 0 : 1;
    if (i + 1 >= argc) return Usage();
    std::string value = argv[++i];
    if (arg == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(value.c_str(), nullptr);
    } else if (arg == "--trace") {
      options.trace = value == "1";
    } else if (arg == "--workdir") {
      options.workdir = value;
      have_workdir = true;
    } else if (arg == "--spans") {
      spans_path = value;
    } else {
      return Usage();
    }
  }
  if (!have_workload || !have_workdir || !(options.seconds > 0)) {
    return Usage();
  }
  void (*run)(const Options&, perfbench::SpanLog&, RunResult&) = nullptr;
  if (options.workload == "ledger") run = perfbench::RunLedger;
  if (options.workload == "games") run = perfbench::RunGames;
  if (options.workload == "calls") run = perfbench::RunCalls;
  if (run == nullptr) return Usage();

  std::filesystem::create_directories(options.workdir);
  perfbench::Parallelism par = perfbench::MeasureParallelism();
  std::printf("parallelism: hardware_concurrency=%u two_threads_over_one=%.3f\n",
              par.hardware_concurrency, par.two_over_one);

  perfbench::SpanLog spans(options.trace);
  RunResult result;
  run(options, spans, result);
  std::filesystem::remove_all(options.workdir);

  for (const auto& [kind, counts] : result.ops.kinds()) {
    std::printf("ops %-16s attempted=%llu failed=%llu\n", kind.c_str(),
                static_cast<unsigned long long>(counts.first),
                static_cast<unsigned long long>(counts.second));
  }
  for (const perfbench::Metric& m : result.report) {
    std::printf("%-36s %14.4f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  for (const perfbench::Metric& m : result.metrics) {
    if (!std::isfinite(m.value)) result.Error("metric " + m.name + " is not finite");
  }
  if (options.trace && !spans_path.empty()) {
    if (spans.WriteChromeTrace(spans_path)) {
      std::printf("spans: %zu written to %s\n", spans.size(), spans_path.c_str());
    } else {
      result.Error("cannot write spans to " + spans_path);
    }
  }
  for (const std::string& e : result.errors) {
    std::printf("CHECK FAILED: %s\n", e.c_str());
  }
  std::fflush(stdout);
  PrintJson(result);
  return result.correct() ? 0 : 1;
}
