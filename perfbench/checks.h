#ifndef AUTOMC_PERFBENCH_CHECKS_H_
#define AUTOMC_PERFBENCH_CHECKS_H_

#include <array>
#include <cstdint>
#include <string>
#include <string_view>

#include "common/status.h"
#include "data/dataset.h"
#include "nn/model.h"
#include "search/searcher.h"

namespace perfbench {

// Output checks shared by the workloads. Each checks a property of the
// method or a value the benchmark recomputes itself, never a stored copy of
// an earlier run's output; each returns OK or a FailedPrecondition naming
// what disagreed. checks_test.cc feeds every one a broken input.

// `a` and `b` are byte-identical (outcomes, fetched artifacts).
automc::Status CheckBytesEqual(const std::string& what, std::string_view a,
                               std::string_view b);

// Every Pareto point has pr >= gamma, and no point dominates another in
// (acc up, params down).
automc::Status CheckParetoFront(const automc::search::SearchOutcome& outcome,
                                double gamma);

// `bytes` hash to the SHA-256 digest the server announced.
automc::Status CheckDigest(std::string_view bytes,
                           const std::array<uint8_t, 32>& announced);

// Re-evaluating `model` on `test` reproduces the recorded accuracy and its
// EffectiveParamCount the recorded parameter count.
automc::Status CheckReevaluation(automc::nn::Model* model,
                                 const automc::data::Dataset& test, double acc,
                                 int64_t params);

}  // namespace perfbench

#endif  // AUTOMC_PERFBENCH_CHECKS_H_
