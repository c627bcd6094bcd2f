// Bitwise-identity and tuner-cache coverage for the SIMD GEMM substrate
// (tensor/simd.h, tensor/tune.h). The microkernel contract promises that
// the AVX2 path, the scalar fallback, every tile/pack parameter choice, and
// every AUTOMC_SIMD setting produce bit-identical results — so every
// comparison here is EXPECT_EQ on float bits, never EXPECT_NEAR.
#include <unistd.h>

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/rng.h"
#include "gtest/gtest.h"
#include "nn/trainer.h"
#include "tensor/ops.h"
#include "tensor/simd.h"
#include "tensor/tensor.h"
#include "tensor/tune.h"
#include "test_util.h"

namespace automc {
namespace tensor {
namespace {

using simd::GemmOp;
using simd::PackedB;
using simd::TileParams;

bool Avx2Available() {
  return simd::KernelsCompiled() && simd::HardwareOk();
}

std::vector<float> RandomVec(int64_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<float> v(static_cast<size_t>(n));
  for (float& x : v) x = static_cast<float>(rng.Normal());
  return v;
}

// Reference result via the scalar kernel (full rows, full columns).
std::vector<float> ScalarResult(GemmOp op, const std::vector<float>& a,
                                const std::vector<float>& b, int64_t m,
                                int64_t k, int64_t n, uint64_t cseed) {
  std::vector<float> c = RandomVec(m * n, cseed);  // accumulate into noise
  simd::GemmRowsScalar(op, a.data(), b.data(), c.data(), m, k, n, 0, m);
  return c;
}

std::vector<float> Avx2Result(GemmOp op, const TileParams& p,
                              const std::vector<float>& a,
                              const std::vector<float>& b, int64_t m,
                              int64_t k, int64_t n, uint64_t cseed) {
  std::vector<float> c = RandomVec(m * n, cseed);
  PackedB pb = simd::PackB(op, b.data(), k, n, p.nv);
  simd::GemmRowsAvx2(op, p, a.data(), pb, b.data(), c.data(), m, k, n, 0, m);
  return c;
}

void ExpectBitwiseEqual(const std::vector<float>& x,
                        const std::vector<float>& y, const std::string& tag) {
  ASSERT_EQ(x.size(), y.size()) << tag;
  for (size_t i = 0; i < x.size(); ++i) {
    ASSERT_EQ(x[i], y[i]) << tag << " element " << i;
    // NaN-safe bit check on top of value equality.
    uint32_t xb, yb;
    std::memcpy(&xb, &x[i], 4);
    std::memcpy(&yb, &y[i], 4);
    ASSERT_EQ(xb, yb) << tag << " bits at " << i;
  }
}

// Randomized shapes — including n % 8 tails, m % mr tails, k == 1, and
// single-panel widths — must be bitwise identical between the scalar chain
// and the packed AVX2 kernels for every op and a spread of tilings.
TEST(SimdKernelTest, Avx2MatchesScalarBitwiseAcrossShapes) {
  if (!Avx2Available()) GTEST_SKIP() << "no AVX2+FMA at runtime";
  const struct {
    int64_t m, k, n;
  } kShapes[] = {{1, 1, 1},    {3, 5, 7},    {4, 27, 64},  {5, 9, 8},
                 {6, 16, 23},  {8, 72, 16},  {11, 13, 40}, {16, 144, 4},
                 {17, 31, 57}, {32, 288, 1}, {33, 29, 65}, {64, 64, 64}};
  const TileParams kTiles[] = {
      {1, 1, 0}, {4, 2, 0}, {4, 3, 7}, {5, 2, 16}, {6, 1, 3}, {6, 2, 0}};
  uint64_t seed = 1;
  for (GemmOp op : {GemmOp::kNormal, GemmOp::kTransposeA, GemmOp::kTransposeB}) {
    for (const auto& s : kShapes) {
      std::vector<float> a =
          RandomVec(s.m * s.k, seed++);  // layout superset: k*m == m*k
      std::vector<float> b = RandomVec(s.k * s.n, seed++);
      std::vector<float> ref =
          ScalarResult(op, a, b, s.m, s.k, s.n, /*cseed=*/99);
      for (const auto& p : kTiles) {
        std::vector<float> got =
            Avx2Result(op, p, a, b, s.m, s.k, s.n, /*cseed=*/99);
        ExpectBitwiseEqual(ref, got,
                           "op=" + std::to_string(static_cast<int>(op)) +
                               " m=" + std::to_string(s.m) +
                               " k=" + std::to_string(s.k) +
                               " n=" + std::to_string(s.n) +
                               " mr=" + std::to_string(p.mr) +
                               " nv=" + std::to_string(p.nv) +
                               " kc=" + std::to_string(p.kc));
      }
    }
  }
}

// The dispatched entry points (what layers actually call) must not depend
// on which tile the tuner picked: force different tilings through the
// override hook and compare full GEMM outputs bitwise.
TEST(SimdKernelTest, DispatchedGemmInvariantUnderTileOverride) {
  if (!Avx2Available()) GTEST_SKIP() << "no AVX2+FMA at runtime";
  Rng rng(17);
  Tensor a = Tensor::Randn({37, 29}, &rng);
  Tensor b = Tensor::Randn({29, 43}, &rng);
  auto run = [&](const TileParams& p) {
    simd::SetTileOverrideForTest(p);
    Tensor c = MatMul(a, b);
    simd::ClearTileOverrideForTest();
    return std::vector<float>(c.data(), c.data() + c.numel());
  };
  std::vector<float> base = run({4, 2, 0});
  for (const TileParams& p :
       {TileParams{1, 1, 0}, TileParams{4, 3, 8}, TileParams{6, 2, 13}}) {
    std::vector<float> other = run(p);
    ExpectBitwiseEqual(base, other, "tile override sweep");
  }
}

// COW buffers (and therefore every tensor's data()) must start on a cache
// line so the packed kernels' aligned loads are safe against buffer starts.
TEST(SimdKernelTest, TensorBuffersAre64ByteAligned) {
  for (int64_t n : {1, 7, 64, 1000}) {
    Tensor t({n});
    EXPECT_EQ(reinterpret_cast<uintptr_t>(t.data()) % 64, 0u) << n;
  }
}

int64_t CounterValue(const std::string& name) {
  return metrics::MetricsRegistry::Global().GetCounter(name).value();
}

class TuneCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!Avx2Available()) GTEST_SKIP() << "no AVX2+FMA at runtime";
    dir_ = std::make_unique<automc::testing::ScopedTempDir>("tune");
    cache_path_ = (dir_->path() / "tune.bin").string();
    ::setenv("AUTOMC_TUNE_CACHE", cache_path_.c_str(), 1);
    simd::ResetTunerForTest();
  }
  void TearDown() override {
    ::unsetenv("AUTOMC_TUNE_CACHE");
    simd::ResetTunerForTest();
  }

  std::unique_ptr<automc::testing::ScopedTempDir> dir_;
  std::string cache_path_;
};

TEST_F(TuneCacheTest, RoundTripSkipsProbesAndPreservesChoice) {
  int64_t probes0 = CounterValue("simd.tune_probes");
  TileParams first = simd::ChooseTile(GemmOp::kNormal, 40, 30, 50);
  int64_t probes1 = CounterValue("simd.tune_probes");
  EXPECT_GT(probes1, probes0);  // first touch benchmarks the grid
  ASSERT_TRUE(std::filesystem::exists(cache_path_));

  // Same shape class again in the same process: in-memory hit, no probes.
  int64_t hits0 = CounterValue("simd.tune_hits");
  TileParams again = simd::ChooseTile(GemmOp::kNormal, 41, 31, 51);
  EXPECT_EQ(CounterValue("simd.tune_probes"), probes1);
  EXPECT_GT(CounterValue("simd.tune_hits"), hits0);
  EXPECT_EQ(again.mr, first.mr);
  EXPECT_EQ(again.nv, first.nv);
  EXPECT_EQ(again.kc, first.kc);

  // Fresh tuner (a new process, in effect): the on-disk table answers and
  // the exact same tile comes back without re-probing.
  simd::ResetTunerForTest();
  TileParams loaded = simd::ChooseTile(GemmOp::kNormal, 40, 30, 50);
  EXPECT_EQ(CounterValue("simd.tune_probes"), probes1);
  EXPECT_EQ(loaded.mr, first.mr);
  EXPECT_EQ(loaded.nv, first.nv);
  EXPECT_EQ(loaded.kc, first.kc);
}

TEST_F(TuneCacheTest, CorruptAndTruncatedFilesAreIgnoredAndRewritten) {
  simd::ChooseTile(GemmOp::kTransposeB, 24, 36, 48);
  ASSERT_TRUE(std::filesystem::exists(cache_path_));

  // Flip a payload byte: CRC fails, loader ignores the file, tuner
  // re-probes and the next save writes a valid file again.
  {
    std::fstream f(cache_path_, std::ios::in | std::ios::out |
                                    std::ios::binary);
    f.seekp(9);
    char junk = 0x5a;
    f.write(&junk, 1);
  }
  simd::ResetTunerForTest();
  int64_t probes0 = CounterValue("simd.tune_probes");
  simd::ChooseTile(GemmOp::kTransposeB, 24, 36, 48);
  EXPECT_GT(CounterValue("simd.tune_probes"), probes0);

  // Truncate below the header: also ignored, no crash.
  std::filesystem::resize_file(cache_path_, 6);
  simd::ResetTunerForTest();
  probes0 = CounterValue("simd.tune_probes");
  simd::ChooseTile(GemmOp::kTransposeB, 24, 36, 48);
  EXPECT_GT(CounterValue("simd.tune_probes"), probes0);

  // The rewrite after recovery must round-trip.
  simd::ResetTunerForTest();
  probes0 = CounterValue("simd.tune_probes");
  simd::ChooseTile(GemmOp::kTransposeB, 24, 36, 48);
  EXPECT_EQ(CounterValue("simd.tune_probes"), probes0);
}

// A publish that cannot land costs later processes a re-probe and nothing
// else: no <cache>.tmp is left behind and the in-memory table keeps serving
// the tile it chose.
TEST_F(TuneCacheTest, FailedPublishLeavesNoTmpFile) {
  namespace fs = std::filesystem;
  // The cache path names a directory: rename(2) fails for any user.
  const fs::path blocked = dir_->path() / "blocked";
  fs::create_directory(blocked);
  ::setenv("AUTOMC_TUNE_CACHE", blocked.c_str(), 1);
  simd::ResetTunerForTest();
  TileParams first = simd::ChooseTile(GemmOp::kNormal, 20, 28, 36);
  EXPECT_TRUE(fs::is_directory(blocked));
  EXPECT_FALSE(fs::exists(blocked.string() + ".tmp"));
  const int64_t probes = CounterValue("simd.tune_probes");
  TileParams again = simd::ChooseTile(GemmOp::kNormal, 20, 28, 36);
  EXPECT_EQ(CounterValue("simd.tune_probes"), probes);
  EXPECT_EQ(again.mr, first.mr);
  EXPECT_EQ(again.nv, first.nv);
  EXPECT_EQ(again.kc, first.kc);

  // The cache path's directory is read-only. Without write permission on
  // it nothing can be created; a privileged user may still publish.
  const fs::path ro = dir_->path() / "ro";
  fs::create_directory(ro);
  fs::permissions(ro, fs::perms::owner_read | fs::perms::owner_exec);
  const std::string ro_cache = (ro / "tune.bin").string();
  ::setenv("AUTOMC_TUNE_CACHE", ro_cache.c_str(), 1);
  simd::ResetTunerForTest();
  simd::ChooseTile(GemmOp::kTransposeA, 20, 28, 36);
  EXPECT_FALSE(fs::exists(ro_cache + ".tmp"));
  if (::geteuid() != 0) {
    EXPECT_FALSE(fs::exists(ro_cache));
  }
  fs::permissions(ro, fs::perms::owner_all);
}

// Full training run (conv + linear forward/backward, every GEMM op) under
// AUTOMC_SIMD=0 vs =1: final loss, test accuracy, and every trained
// parameter must be bit-identical.
struct TrainResult {
  float loss = 0.0f;
  double acc = 0.0;
  std::vector<std::vector<float>> params;
};

TrainResult TrainSmallModel() {
  data::SyntheticTaskConfig cfg;
  cfg.num_classes = 3;
  cfg.train_per_class = 10;
  cfg.test_per_class = 4;
  cfg.seed = 91;
  data::TaskData task = data::MakeSyntheticTask(cfg);

  nn::ModelSpec spec;
  spec.family = "vgg";
  spec.depth = 13;
  spec.num_classes = 3;
  spec.base_width = 4;
  Rng rng(3);
  auto model = std::move(nn::BuildModel(spec, &rng)).value();

  nn::TrainConfig tc;
  tc.epochs = 2;
  tc.batch_size = 10;
  nn::Trainer trainer(tc);
  TrainResult r;
  AUTOMC_CHECK(
      trainer.Fit(model.get(), task.train, nullptr, nullptr, &r.loss).ok());
  r.acc = nn::Trainer::Evaluate(model.get(), task.test);
  for (nn::Param* p : model->Params()) {
    r.params.emplace_back(p->value.data(),
                          p->value.data() + p->value.numel());
  }
  return r;
}

TEST(SimdKernelTest, SimdEnvToggleIsBitwiseInvariantThroughTraining) {
  if (!Avx2Available()) {
    GTEST_SKIP() << "only one mode reachable at runtime";
  }
  ::setenv("AUTOMC_SIMD", "1", 1);
  simd::RefreshDispatch();
  ASSERT_EQ(simd::ActiveMode(), simd::SimdMode::kAvx2);
  TrainResult vec = TrainSmallModel();

  ::setenv("AUTOMC_SIMD", "0", 1);
  simd::RefreshDispatch();
  ASSERT_EQ(simd::ActiveMode(), simd::SimdMode::kScalarHwFma);
  TrainResult scal = TrainSmallModel();

  ::unsetenv("AUTOMC_SIMD");
  simd::RefreshDispatch();

  EXPECT_EQ(vec.loss, scal.loss);
  EXPECT_EQ(vec.acc, scal.acc);
  ASSERT_EQ(vec.params.size(), scal.params.size());
  for (size_t i = 0; i < vec.params.size(); ++i) {
    ExpectBitwiseEqual(vec.params[i], scal.params[i],
                       "param " + std::to_string(i));
  }
}

}  // namespace
}  // namespace tensor
}  // namespace automc
