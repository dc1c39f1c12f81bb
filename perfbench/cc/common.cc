#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <thread>

#include "bench.h"

namespace perfbench {

uint64_t Rng::Next() {
  uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

onoff::U256 Rng::Word() {
  uint64_t a = Next(), b = Next(), c = Next(), d = Next();
  return onoff::U256(a, b, c, d);
}

double Samples::Sum() const {
  double total = 0;
  for (double v : values_) total += v;
  return total;
}

Samples Samples::Scaled(double factor) const {
  Samples out;
  out.values_.reserve(values_.size());
  for (double v : values_) out.values_.push_back(v * factor);
  return out;
}

double Samples::Quantile(double q) const {
  if (values_.empty()) return 0;
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  double pos = q * static_cast<double>(sorted.size() - 1);
  size_t lo = static_cast<size_t>(std::floor(pos));
  size_t hi = std::min(lo + 1, sorted.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

void OpCounts::Count(const std::string& kind, bool ok) {
  auto& entry = kinds_[kind];
  ++entry.first;
  if (!ok) ++entry.second;
}

uint64_t OpCounts::attempted() const {
  uint64_t total = 0;
  for (const auto& [kind, counts] : kinds_) total += counts.first;
  return total;
}

uint64_t OpCounts::failed() const {
  uint64_t total = 0;
  for (const auto& [kind, counts] : kinds_) total += counts.second;
  return total;
}

void RunResult::Error(std::string message) {
  // Keep the first few; one broken invariant tends to repeat every round.
  if (errors.size() < 20) errors.push_back(std::move(message));
}

bool RunResult::Expect(bool ok, const std::string& message) {
  if (!ok) Error(message);
  return ok;
}

SpanLog::Scope::Scope(SpanLog* log, const char* name)
    : log_(log), start_us_(NowUs()) {
  if (log_->enabled_) {
    index_ = static_cast<int>(log_->spans_.size());
    log_->spans_.push_back({name, start_us_, 0, log_->open_, log_->op_});
    log_->open_ = index_;
  }
}

double SpanLog::Scope::Stop() {
  if (dur_us_ >= 0) return dur_us_;
  dur_us_ = NowUs() - start_us_;
  if (index_ >= 0) {
    Span& span = log_->spans_[index_];
    span.dur_us = dur_us_;
    log_->open_ = span.parent;
  }
  return dur_us_;
}

bool SpanLog::WriteChromeTrace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"traceEvents\":[");
  double origin = spans_.empty() ? 0 : spans_.front().start_us;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"op\":%llu,"
                 "\"parent\":%d}}",
                 i == 0 ? "" : ",", s.name, s.start_us - origin, s.dur_us,
                 static_cast<unsigned long long>(s.op), s.parent);
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

RegistryView RegistryView::Take() {
  RegistryView view;
  onoff::obs::Registry* registry = onoff::obs::Registry::Global();
  if (registry == nullptr) return view;
  onoff::obs::Registry::InstrumentSnapshot snap = registry->Snapshot();
  for (const auto& [name, value] : snap.counters) view.counters[name] = value;
  for (const auto& h : snap.histograms) {
    view.hist_sums[h.name] = h.data.sum;
    view.hist_counts[h.name] = h.data.count;
  }
  return view;
}

uint64_t RegistryView::Counter(const std::string& name) const {
  auto it = counters.find(name);
  return it == counters.end() ? 0 : it->second;
}

double RegistryView::HistSum(const std::string& name) const {
  auto it = hist_sums.find(name);
  return it == hist_sums.end() ? 0 : it->second;
}

uint64_t RegistryView::HistCount(const std::string& name) const {
  auto it = hist_counts.find(name);
  return it == hist_counts.end() ? 0 : it->second;
}

RegistryView RegistryView::Minus(const RegistryView& base) const {
  RegistryView out = *this;
  for (auto& [name, v] : out.counters) v -= base.Counter(name);
  for (auto& [name, v] : out.hist_sums) v -= base.HistSum(name);
  for (auto& [name, v] : out.hist_counts) v -= base.HistCount(name);
  return out;
}

RegistryView RegistryView::Plus(const RegistryView& other) const {
  RegistryView out = *this;
  for (const auto& [name, v] : other.counters) out.counters[name] += v;
  for (const auto& [name, v] : other.hist_sums) out.hist_sums[name] += v;
  for (const auto& [name, v] : other.hist_counts) out.hist_counts[name] += v;
  return out;
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

namespace {

// A fixed amount of dependent integer work; returns its wall time in µs.
double BusyLoopUs() {
  double start = NowUs();
  uint64_t x = 0x12345678;
  for (int i = 0; i < 20'000'000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  static std::atomic<uint64_t> sink{0};
  sink.fetch_xor(x, std::memory_order_relaxed);
  return NowUs() - start;
}

}  // namespace

Parallelism MeasureParallelism() {
  Parallelism p;
  p.hardware_concurrency = std::thread::hardware_concurrency();
  BusyLoopUs();  // warm up frequency scaling
  double one = BusyLoopUs();
  double start = NowUs();
  std::thread other([] { BusyLoopUs(); });
  BusyLoopUs();
  other.join();
  double two = NowUs() - start;
  p.two_over_one = Ratio(two, one);
  return p;
}

}  // namespace perfbench
