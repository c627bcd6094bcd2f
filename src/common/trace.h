#ifndef AUTOMC_COMMON_TRACE_H_
#define AUTOMC_COMMON_TRACE_H_

#include <chrono>
#include <string>
#include <vector>

namespace automc {
namespace trace {

// One timed span. Spans nest: a ScopedTimer constructed while another is
// alive on the same thread becomes its child, so a search run yields a tree
// like  evaluator.commit_ms -> compress.NS.ms -> trainer.epoch_ms.
struct Span {
  std::string name;
  double ms = 0.0;
  std::vector<Span> children;
};

// Span collection is off by default (timers still feed histograms); enable
// with SetEnabled(true) or AUTOMC_TRACE=1 in the environment. Completed
// top-level spans accumulate in a bounded global list (oldest dropped).
bool Enabled();
void SetEnabled(bool on);

// Completed root spans recorded so far (copy).
std::vector<Span> Roots();
void ClearRoots();

// JSON array of the completed roots:
//   [{"name":"...","ms":1.25,"children":[...]}, ...]
std::string ToJson();
std::string SpanToJson(const Span& span);

// RAII wall-clock timer. On destruction it
//   1. observes the elapsed milliseconds in the histogram named `name`
//      (via metrics::Observe, subject to the metrics runtime switch), and
//   2. if tracing was enabled at construction, records a Span in the
//      current thread's trace tree.
class ScopedTimer {
 public:
  explicit ScopedTimer(std::string name);
  ~ScopedTimer();

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

  double ElapsedMs() const;

 private:
  std::string name_;
  std::chrono::steady_clock::time_point start_;
  bool tracing_ = false;
};

}  // namespace trace
}  // namespace automc

#ifndef AUTOMC_DISABLE_METRICS
#define AUTOMC_TRACE_CONCAT_INNER(a, b) a##b
#define AUTOMC_TRACE_CONCAT(a, b) AUTOMC_TRACE_CONCAT_INNER(a, b)
// Times the enclosing scope into histogram `name` (and the trace tree).
#define AUTOMC_SCOPED_TIMER(name)          \
  ::automc::trace::ScopedTimer AUTOMC_TRACE_CONCAT(automc_scoped_timer_, \
                                                   __LINE__)(name)
#else
#define AUTOMC_SCOPED_TIMER(name) ((void)0)
#endif

#endif  // AUTOMC_COMMON_TRACE_H_
