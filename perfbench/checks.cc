#include "checks.h"

#include <cstdio>
#include <utility>

#include "common/sha256.h"
#include "nn/trainer.h"
#include "search/pareto.h"

namespace perfbench {

using automc::Status;

Status CheckBytesEqual(const std::string& what, std::string_view a,
                       std::string_view b) {
  if (a == b) return Status::OK();
  size_t at = 0;
  while (at < a.size() && at < b.size() && a[at] == b[at]) ++at;
  return Status::FailedPrecondition(
      what + ": " + std::to_string(a.size()) + " vs " +
      std::to_string(b.size()) + " bytes, first difference at byte " +
      std::to_string(at));
}

Status CheckParetoFront(const automc::search::SearchOutcome& outcome,
                        double gamma) {
  const auto& pts = outcome.pareto_points;
  if (pts.empty() || pts.size() != outcome.pareto_schemes.size()) {
    return Status::FailedPrecondition("empty or ragged pareto front");
  }
  for (size_t i = 0; i < pts.size(); ++i) {
    if (pts[i].pr < gamma) {
      return Status::FailedPrecondition(
          "pareto point " + std::to_string(i) + " has pr " +
          std::to_string(pts[i].pr) + " below gamma " + std::to_string(gamma));
    }
    for (size_t j = 0; j < pts.size(); ++j) {
      const std::pair<double, double> x{pts[i].acc,
                                        -static_cast<double>(pts[i].params)};
      const std::pair<double, double> y{pts[j].acc,
                                        -static_cast<double>(pts[j].params)};
      if (i != j && automc::search::Dominates(x, y)) {
        return Status::FailedPrecondition("pareto point " + std::to_string(i) +
                                          " dominates point " +
                                          std::to_string(j));
      }
    }
  }
  return Status::OK();
}

Status CheckDigest(std::string_view bytes,
                   const std::array<uint8_t, 32>& announced) {
  const automc::Sha256Digest got = automc::Sha256::Hash(bytes);
  if (got == announced) return Status::OK();
  return Status::FailedPrecondition("SHA-256 " + automc::HexDigest(got) +
                                    " != announced " +
                                    automc::HexDigest(announced));
}

Status CheckReevaluation(automc::nn::Model* model,
                         const automc::data::Dataset& test, double acc,
                         int64_t params) {
  const double got_acc = automc::nn::Trainer::Evaluate(model, test);
  const int64_t got_params = model->EffectiveParamCount();
  if (got_acc == acc && got_params == params) return Status::OK();
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "re-evaluation gives acc %.6f params %lld, recorded acc %.6f "
                "params %lld",
                got_acc, static_cast<long long>(got_params), acc,
                static_cast<long long>(params));
  return Status::FailedPrecondition(buf);
}

}  // namespace perfbench
