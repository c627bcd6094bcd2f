// Every output check of the benchmark, fed a broken input, must reject it
// (and accept the unbroken one): a check that cannot fail shows nothing.
#include "checks.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/sha256.h"
#include "nn/trainer.h"

namespace perfbench {
namespace {

namespace as = automc::search;

as::EvalPoint Point(double acc, int64_t params, double pr) {
  as::EvalPoint p;
  p.acc = acc;
  p.params = params;
  p.pr = pr;
  return p;
}

as::SearchOutcome Front(std::vector<as::EvalPoint> points) {
  as::SearchOutcome o;
  for (size_t i = 0; i < points.size(); ++i) {
    o.pareto_schemes.push_back({static_cast<int>(i)});
  }
  o.pareto_points = std::move(points);
  return o;
}

TEST(ChecksTest, BytesEqualRejectsAnyDifference) {
  EXPECT_TRUE(CheckBytesEqual("x", "abcdef", "abcdef").ok());
  EXPECT_FALSE(CheckBytesEqual("x", "abcdef", "abcdeF").ok());
  EXPECT_FALSE(CheckBytesEqual("x", "abcdef", "abcde").ok());
}

TEST(ChecksTest, ParetoFrontRejectsDominatedAndBelowGammaPoints) {
  const double gamma = 0.3;
  EXPECT_TRUE(
      CheckParetoFront(Front({Point(0.9, 100, 0.4), Point(0.8, 50, 0.7)}),
                       gamma)
          .ok());
  // Equal points: neither dominates.
  EXPECT_TRUE(
      CheckParetoFront(Front({Point(0.9, 100, 0.4), Point(0.9, 100, 0.4)}),
                       gamma)
          .ok());
  // Dominated: same params, lower accuracy.
  EXPECT_FALSE(
      CheckParetoFront(Front({Point(0.9, 100, 0.4), Point(0.8, 100, 0.4)}),
                       gamma)
          .ok());
  // Below gamma.
  EXPECT_FALSE(CheckParetoFront(Front({Point(0.9, 100, 0.2)}), gamma).ok());
  EXPECT_FALSE(CheckParetoFront(Front({}), gamma).ok());
}

TEST(ChecksTest, DigestRejectsAFlippedByte) {
  std::string model(5000, 'm');
  for (size_t i = 0; i < model.size(); ++i) model[i] = static_cast<char>(i * 7);
  const automc::Sha256Digest announced = automc::Sha256::Hash(model);
  EXPECT_TRUE(CheckDigest(model, announced).ok());
  model[1234] ^= 0x01;
  EXPECT_FALSE(CheckDigest(model, announced).ok());
}

TEST(ChecksTest, ReevaluationRejectsAccuracyOrParamsThatDisagree) {
  automc::data::SyntheticTaskConfig cfg;
  cfg.num_classes = 3;
  cfg.train_per_class = 4;
  cfg.test_per_class = 4;
  cfg.seed = 5;
  automc::data::TaskData data = automc::data::MakeSyntheticTask(cfg);
  automc::nn::ModelSpec spec;
  spec.family = "resnet";
  spec.depth = 20;
  spec.base_width = 4;
  spec.num_classes = data.train.num_classes;
  automc::Rng rng(3);
  auto model = automc::nn::BuildModel(spec, &rng);
  ASSERT_TRUE(model.ok());
  const double acc = automc::nn::Trainer::Evaluate(model->get(), data.test);
  const int64_t params = (*model)->EffectiveParamCount();
  EXPECT_TRUE(CheckReevaluation(model->get(), data.test, acc, params).ok());
  EXPECT_FALSE(
      CheckReevaluation(model->get(), data.test, acc + 0.25, params).ok());
  EXPECT_FALSE(
      CheckReevaluation(model->get(), data.test, acc, params + 1).ok());
}

}  // namespace
}  // namespace perfbench
