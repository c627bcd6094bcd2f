// The repository benchmark's main program; run.py builds and invokes it:
//   perfbench --serve-bin PATH --work DIR --workload NAME --seed N
//             --seconds S --trace 0|1
// Prints the run's context on one line, then the result object as the last
// line of stdout. Exit 0 when every output check passed, 1 when one failed,
// 2 on a usage error and 3 when a listed metric was not measured (no result
// printed).
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include "common/sha256.h"
#include "tensor/simd.h"
#include "workloads.h"

namespace perfbench {
namespace {

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --serve-bin PATH --work DIR "
               "--workload search_c10|serve_jobs|control_plane --seed N "
               "--seconds S --trace 0|1\n",
               why);
  std::exit(2);
}

bool ParseNumber(const std::string& text, double* out) {
  char* end = nullptr;
  *out = std::strtod(text.c_str(), &end);
  return !text.empty() && end != nullptr && *end == '\0';
}

Options ParseArgs(int argc, char** argv) {
  Options o;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const std::string v = argv[++i];
    double num = 0.0;
    if (flag == "--workload") {
      o.workload = v;
    } else if (flag == "--seed") {
      if (!ParseNumber(v, &num) || num < 0) Usage("bad --seed");
      o.seed = static_cast<uint64_t>(num);
      have_seed = true;
    } else if (flag == "--seconds") {
      if (!ParseNumber(v, &num) || !(num > 0 && num <= 600)) {
        Usage("bad --seconds");
      }
      o.seconds = num;
    } else if (flag == "--trace") {
      if (v != "0" && v != "1") Usage("--trace takes 0 or 1");
      o.trace = v == "1";
    } else if (flag == "--serve-bin") {
      o.serve_bin = v;
    } else if (flag == "--work") {
      o.work = v;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_seed) Usage("--seed is required");
  if (o.serve_bin.empty() || o.work.empty()) {
    Usage("--serve-bin and --work are required");
  }
  return o;
}

const char* SimdModeName() {
  switch (automc::tensor::simd::ActiveMode()) {
    case automc::tensor::simd::SimdMode::kAvx2:
      return "avx2";
    case automc::tensor::simd::SimdMode::kScalarHwFma:
      return "scalar-fma";
    default:
      return "scalar";
  }
}

}  // namespace

int ParallelLanes() {
  const unsigned n = std::thread::hardware_concurrency();
  return static_cast<int>(n == 0 ? 1 : (n < 4 ? n : 4));
}

void AddSearchLayerMetrics(const MetricSnapshot& d, RunResult* res) {
  res->Add("nn.train_steps", d.Get("trainer.steps"), "count");
  res->Add("nn.train_epoch_ms", d.Get("trainer.epoch_ms.sum"), "ms");
  res->Add("compress.invocations", d.SumMatching("compress.", ".invocations"),
           "count");
  res->Add("compress.ms", d.SumMatching("compress.", ".ms.sum"), "ms");
  res->Add("search.strategy_executions", d.Get("search.strategy_executions"),
           "count");
  res->Add("search.candidates_scored",
           d.SumMatching("search.", ".candidates_expanded"), "count");
  res->Add("search.eval_batch_ms", d.Get("eval.batch_ms.sum"), "ms");
  res->Add("search.cache_hits", d.Get("evaluator.cache_hits"), "count");
  res->Add("search.store_hits", d.Get("store.hits"), "count");
  res->Add("store.appends", d.Get("store.appends"), "count");
  res->Add("store.hits", d.Get("store.hits"), "count");
  res->Add("store.shared_hits", d.Get("store.shared_hits"), "count");
  res->Add("store.misses", d.Get("store.misses"), "count");
  res->Add("tensor.gemm_avx2_calls", d.Get("simd.gemm_avx2"), "count");
  res->Add("tensor.gemm_scalar_calls", d.Get("simd.gemm_scalar"), "count");
  res->Add("tensor.cow_materialized_bytes",
           d.Get("tensor.cow_materialized_bytes"), "bytes");
  for (const char* m : kCompressMethods) {
    res->Add(std::string("compress.") + m + ".ms",
             d.Get(std::string("compress.") + m + ".ms.sum"), "ms");
  }
}

void AddServerLayerMetrics(const MetricSnapshot& front, RunResult* res) {
  res->Add("server.requests", front.Get("server.requests"), "count");
  res->Add("server.model_bytes_sent", front.Get("server.model_bytes_sent"),
           "bytes");
  res->Add("server.backpressure_stalls",
           front.Get("server.backpressure_stalls"), "count");
}

double Sha256MiBPerS(const std::string& bytes) {
  const double mib = static_cast<double>(bytes.size()) / (1024.0 * 1024.0);
  std::vector<double> rate;
  for (int i = 0; i < 5; ++i) {
    const double t = NowMs();
    (void)automc::Sha256::Hash(bytes);
    rate.push_back(mib / ((NowMs() - t) / 1000.0));
  }
  return Median(rate);
}

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Options opts = ParseArgs(argc, argv);
  RunResult res;
  if (opts.workload == "search_c10") {
    res = RunSearchC10(opts);
  } else if (opts.workload == "serve_jobs") {
    res = RunServeJobs(opts);
  } else if (opts.workload == "control_plane") {
    res = RunControlPlane(opts);
  } else {
    Usage(("unknown workload '" + opts.workload + "'").c_str());
  }
  for (const std::string& f : res.check_failures) {
    std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", f.c_str());
  }

  // The result line holds exactly the mode's BENCHMARK.json metrics; every
  // other figure the workload measured goes to the context line's "detail".
  const MetricName* wanted = opts.trace ? kPerLayerMetrics : kEndToEndMetrics;
  const size_t n_wanted = opts.trace ? std::size(kPerLayerMetrics)
                                     : std::size(kEndToEndMetrics);
  std::vector<const RunResult::Metric*> result;
  std::string detail;
  for (size_t w = 0; w < n_wanted; ++w) {
    const RunResult::Metric* found = nullptr;
    for (const RunResult::Metric& m : res.metrics) {
      if (m.name == wanted[w].name) found = &m;
    }
    if (found == nullptr && res.correct) {
      std::fprintf(stderr, "perfbench: %s did not measure %s\n",
                   opts.workload.c_str(), wanted[w].name);
      return 3;
    }
    if (found != nullptr && found->unit != wanted[w].unit) {
      std::fprintf(stderr, "perfbench: %s is in %s, not %s\n", wanted[w].name,
                   found->unit.c_str(), wanted[w].unit);
      return 3;
    }
    if (found != nullptr) result.push_back(found);
  }
  for (const RunResult::Metric& m : res.metrics) {
    bool listed = false;
    for (size_t w = 0; w < n_wanted; ++w) listed |= m.name == wanted[w].name;
    if (listed) continue;
    detail += (detail.empty() ? "" : ",") + JsonString(m.name) +
              ":{\"value\":" + JsonNumber(m.value) +
              ",\"unit\":" + JsonString(m.unit) + "}";
  }

  // Context line: what a reader needs to compare two result sets.
  std::string ctx = "{\"context\":{\"workload\":" + JsonString(opts.workload) +
                    ",\"seed\":" + std::to_string(opts.seed) +
                    ",\"seconds\":" + JsonNumber(opts.seconds) +
                    ",\"trace\":" + (opts.trace ? "1" : "0") +
                    ",\"nproc\":" +
                    std::to_string(std::thread::hardware_concurrency()) +
                    ",\"simd\":" +
                    JsonString(SimdModeName()) +
                    ",\"attempted\":" + std::to_string(res.attempted) +
                    ",\"failed\":" + std::to_string(res.failed);
  for (const auto& [k, v] : res.context) ctx += "," + JsonString(k) + ":" + v;
  std::printf("%s,\"detail\":{%s}}}\n", ctx.c_str(), detail.c_str());

  std::string out = std::string("{\"correct\": ") +
                    (res.correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(res.attempted) +
                    ", \"failed\": " + std::to_string(res.failed) +
                    ", \"metrics\": {";
  for (size_t i = 0; i < result.size(); ++i) {
    const RunResult::Metric& m = *result[i];
    out += (i ? ", " : "") + JsonString(m.name) + ": {\"value\": " +
           JsonNumber(m.value) + ", \"unit\": " + JsonString(m.unit) + "}";
  }
  std::printf("%s}}\n", out.c_str());
  std::fflush(stdout);
  return res.correct ? 0 : 1;
}
