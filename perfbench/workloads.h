#ifndef AUTOMC_PERFBENCH_WORKLOADS_H_
#define AUTOMC_PERFBENCH_WORKLOADS_H_

#include "util.h"

namespace perfbench {

// Each workload runs whole rounds until opts.seconds have elapsed (for
// control_plane: sends its schedule for opts.seconds), checks
// its outputs, and fills the end-to-end metrics (opts.trace == false) or the
// per-layer metrics of a traced run of the same inputs (opts.trace == true).
RunResult RunSearchC10(const Options& opts);
RunResult RunServeJobs(const Options& opts);
RunResult RunControlPlane(const Options& opts);

// The metrics BENCHMARK.json lists. Every workload reports every one of its
// mode's list, so the names are shared: each workload has a primary and a
// secondary operation (README.md, "End-to-end metrics"). Whatever else a
// workload measures under its own names goes to the context line.
struct MetricName {
  const char* name;
  const char* unit;
};
inline constexpr MetricName kEndToEndMetrics[] = {
    {"setup_s", "s"},
    {"peak_rss_mib", "MiB"},
    {"primary_op_ms", "ms"},
    {"primary_op_cpu_ms", "ms"},
    {"secondary_op_ms", "ms"},
    {"secondary_op_cpu_ms", "ms"},
};
inline constexpr MetricName kPerLayerMetrics[] = {
    {"nn.train_steps", "count"},
    {"nn.train_epoch_ms", "ms"},
    {"compress.invocations", "count"},
    {"compress.ms", "ms"},
    {"search.strategy_executions", "count"},
    {"search.candidates_scored", "count"},
    {"search.eval_batch_ms", "ms"},
    {"search.cache_hits", "count"},
    {"search.store_hits", "count"},
    {"store.appends", "count"},
    {"store.hits", "count"},
    {"store.shared_hits", "count"},
    {"store.misses", "count"},
    {"tensor.gemm_avx2_calls", "count"},
    {"tensor.gemm_scalar_calls", "count"},
    {"tensor.cow_materialized_bytes", "bytes"},
    {"pool.tasks", "count"},
    {"pool.steal_count", "count"},
    {"common.sha256_mib_per_s", "MiB/s"},
    {"server.requests", "count"},
    {"server.model_bytes_sent", "bytes"},
    {"server.backpressure_stalls", "count"},
};

// The per-layer metrics of the code a search runs (nn, compress, search,
// store, tensor), from registry deltas `d` over the searches: the
// benchmark's own registry (search_c10) or the workers' summed registries.
// pool.* is added by each workload, over the work that uses the pool.
void AddSearchLayerMetrics(const MetricSnapshot& d, RunResult* res);
// The coordinator's server.* counters, from a delta of its registry; zero
// where no server runs.
void AddServerLayerMetrics(const MetricSnapshot& front, RunResult* res);
// Throughput of Sha256::Hash over `bytes` (MiB/s, median of five hashes).
double Sha256MiBPerS(const std::string& bytes);

// The compression methods whose compress.<M>.ms histograms the registry
// keeps (compress/factory.cc).
inline constexpr const char* kCompressMethods[] = {"LMA", "LeGR", "NS", "SFP",
                                                   "HOS", "LFB", "QT"};

// min(4, nproc): the parallel search and the load generator's connections.
int ParallelLanes();

}  // namespace perfbench

#endif  // AUTOMC_PERFBENCH_WORKLOADS_H_
