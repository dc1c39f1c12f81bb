// Shared pieces of the end-to-end benchmark: options, a seeded generator,
// sample statistics, operation accounting, the result printer, the span
// log of the traced run, and readers of the program's metrics registry.
//
// The benchmark drives the node from outside, through its public headers
// only. Nothing here is linked into the program.

#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "support/u256.h"

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  // Scratch directory for node stores; created and removed by the run.
  std::string workdir;
};

// SplitMix64: the whole input of a run follows from --seed.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed * 0x9e3779b97f4a7c15ULL + 1) {}
  uint64_t Next();
  uint64_t Below(uint64_t n) { return Next() % n; }
  double Uniform() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }
  onoff::U256 Word();

 private:
  uint64_t state_;
};

inline double NowUs() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// A series of timings (or other values) with order statistics.
class Samples {
 public:
  void Add(double v) { values_.push_back(v); }
  size_t size() const { return values_.size(); }
  double Sum() const;
  // Linear interpolation between closest ranks; 0 when empty.
  double Quantile(double q) const;
  double Median() const { return Quantile(0.5); }
  // Every value times `factor` (µs -> ms and the like).
  Samples Scaled(double factor) const;

 private:
  std::vector<double> values_;
};

// Attempted and failed operations per kind ("tx_submitted", ...).
class OpCounts {
 public:
  void Count(const std::string& kind, bool ok);
  uint64_t attempted() const;
  uint64_t failed() const;
  const std::map<std::string, std::pair<uint64_t, uint64_t>>& kinds() const {
    return kinds_;
  }

 private:
  std::map<std::string, std::pair<uint64_t, uint64_t>> kinds_;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

// What a workload hands back to main(): the metrics of the final JSON line
// (end-to-end when untraced, per-layer when traced), the workload-specific
// figures printed above it, the operation counts, and the output checks.
struct RunResult {
  std::vector<Metric> metrics;
  std::vector<Metric> report;
  OpCounts ops;
  std::vector<std::string> errors;

  bool correct() const { return errors.empty(); }
  void Error(std::string message);
  // Checks `ok`; records `message` when it is false. Returns `ok`.
  bool Expect(bool ok, const std::string& message);
};

// Spans of the traced run: recorded in memory around calls into the
// program's modules, written out as a Chrome trace when the run ends.
class SpanLog {
 public:
  struct Span {
    const char* name;
    double start_us;
    double dur_us;
    int parent;
    uint64_t op;
  };

  // An open span; closes (and returns its duration) on Stop() or scope exit.
  class Scope {
   public:
    Scope(SpanLog* log, const char* name);
    ~Scope() { Stop(); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    double Stop();

   private:
    SpanLog* log_;
    int index_ = -1;
    double start_us_;
    double dur_us_ = -1;
  };

  explicit SpanLog(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }
  // The workload's current unit of work (block or game number).
  void set_op(uint64_t op) { op_ = op; }
  size_t size() const { return spans_.size(); }
  bool WriteChromeTrace(const std::string& path) const;

 private:
  bool enabled_;
  uint64_t op_ = 0;
  int open_ = -1;
  std::vector<Span> spans_;
};

// Times `fn` into `samples`, under a span when the log is enabled.
template <class F>
auto Timed(SpanLog& log, const char* name, Samples& samples, F&& fn) {
  SpanLog::Scope scope(&log, name);
  if constexpr (std::is_void_v<decltype(fn())>) {
    fn();
    samples.Add(scope.Stop());
  } else {
    auto out = fn();
    samples.Add(scope.Stop());
    return out;
  }
}

// Counter values and histogram sums of the program's global registry
// (obs::Registry::Global()->Snapshot()); empty when metrics are disabled.
struct RegistryView {
  std::map<std::string, uint64_t> counters;
  std::map<std::string, double> hist_sums;
  std::map<std::string, uint64_t> hist_counts;

  static RegistryView Take();
  uint64_t Counter(const std::string& name) const;
  double HistSum(const std::string& name) const;
  uint64_t HistCount(const std::string& name) const;
  // this - base, per instrument.
  RegistryView Minus(const RegistryView& base) const;
  RegistryView Plus(const RegistryView& other) const;
};

// Peak resident set of this process, MB.
double PeakRssMb();

// Effective parallelism: wall time of a busy loop on two threads at once
// over the same loop on one thread (≈ 1 with two free cores, ≈ 2 with one).
struct Parallelism {
  unsigned hardware_concurrency = 0;
  double two_over_one = 0;
};
Parallelism MeasureParallelism();

// Ratio with a defined value for an empty base.
inline double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

// The workloads. Each sets up (timing its set-up), runs closed-loop for
// options.seconds of timed work, checks its outputs into result.errors and
// fills result.metrics with the end-to-end or per-layer set.
void RunLedger(const Options& options, SpanLog& spans, RunResult& result);
void RunGames(const Options& options, SpanLog& spans, RunResult& result);
void RunCalls(const Options& options, SpanLog& spans, RunResult& result);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
