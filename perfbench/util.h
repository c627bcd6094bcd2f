#ifndef AUTOMC_PERFBENCH_UTIL_H_
#define AUTOMC_PERFBENCH_UTIL_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

// Command line of one benchmark run (see run.py).
struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string serve_bin;  // the automc_serve built next to the benchmark
  std::string work;       // scratch root inside the checkout
};

// What one run reports: the last stdout line is
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
// and the line before it carries the run's context (nproc, threads, seed).
struct RunResult {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  std::vector<Metric> metrics;
  std::map<std::string, std::string> context;  // printed, not gated
  std::vector<std::string> check_failures;

  void Add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  // Records a failed correctness check (the run reports correct=false).
  void Fail(const std::string& what) {
    correct = false;
    check_failures.push_back(what);
  }
};

double NowMs();  // steady clock, milliseconds

// Exact order statistics over raw samples (no histogram buckets).
double Median(std::vector<double> v);
// Nearest-rank percentile, q in (0, 1]: the ceil(q*n)-th smallest sample.
double Percentile(std::vector<double> v, double q);
double Max(const std::vector<double>& v);

// Flat view of a MetricsRegistry JSON snapshot (the local ToJson() or a
// kGetMetrics reply): counters and gauges by name, histograms as
// "<name>.sum" and "<name>.count". Missing names read as 0.
class MetricSnapshot {
 public:
  MetricSnapshot() = default;
  static MetricSnapshot Parse(std::string_view json);
  static MetricSnapshot Local();  // the benchmark process's own registry

  double Get(const std::string& name) const;
  // Sum of every value named "<prefix>*<suffix>", e.g. ("compress.",
  // ".ms.sum") for the time of all compression methods.
  double SumMatching(const std::string& prefix,
                     const std::string& suffix) const;
  void Accumulate(const MetricSnapshot& other);  // element-wise sum
  MetricSnapshot Minus(const MetricSnapshot& before) const;

 private:
  std::map<std::string, double> values_;
};

// Spans recorded by the benchmark around its calls into each layer: name,
// start, end and parent, kept in memory and written out once at the end.
class Tracer {
 public:
  int Begin(const std::string& name, int parent);
  void End(int id);
  double DurationMs(int id) const;
  // Duration minus the union of the direct children's intervals.
  double SelfMs(int id) const;
  // Share of the span covered by its direct children.
  double Coverage(int id) const;
  // Sum of the durations of every span with this name.
  double TotalMs(const std::string& name) const;
  std::string ToJson() const;

 private:
  struct Span {
    std::string name;
    int parent = -1;
    double start_ms = 0.0;
    double end_ms = 0.0;
  };
  std::vector<Span> spans_;
  double origin_ms_ = -1.0;
};

// RAII span; a null tracer records nothing.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const std::string& name, int parent = -1)
      : tracer_(tracer), id_(tracer ? tracer->Begin(name, parent) : -1) {}
  ~ScopedSpan() { End(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  void End() {
    if (tracer_ != nullptr && !ended_) tracer_->End(id_);
    ended_ = true;
  }
  int id() const { return id_; }

 private:
  Tracer* tracer_;
  int id_;
  bool ended_ = false;
};

std::string JsonString(std::string_view s);
// Full-precision JSON number, and a JSON array of them.
std::string JsonNumber(double v);
std::string JsonList(const std::vector<double>& v);

// CPU time (ms) of this process, and of every thread of process `pid`
// (from /proc/<pid>/task/*/schedstat). Both exclude time a virtual CPU was
// descheduled by the hypervisor (steal), which wall time does not.
double SelfCpuMs();
double ProcessCpuMs(int pid);

// Peak resident set of this process (MiB), from getrusage.
double SelfPeakRssMiB();

// Creates <root>/run-<pid> fresh; RemoveTree deletes it recursively.
std::string MakeRunDir(const std::string& root);
void RemoveTree(const std::string& path);

// Deterministic pseudo-random bytes (splitmix64 of `seed`).
std::string SeededBytes(uint64_t seed, size_t n);

}  // namespace perfbench

#endif  // AUTOMC_PERFBENCH_UTIL_H_
