#include <cmath>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common/thread_pool.h"
#include "gtest/gtest.h"
#include "nn/layers.h"
#include "nn/lowrank.h"
#include "nn/residual.h"
#include "nn/seqnet.h"
#include "tensor/simd.h"
#include "test_util.h"

namespace automc {
namespace nn {
namespace {

using automc::testing::ExpectGradientsMatch;
using automc::testing::Scalarize;
using automc::testing::ScalarizeWeights;
using tensor::Tensor;

// Runs input- and parameter-gradient finite difference checks for a layer.
void CheckLayerGradients(Layer* layer, Tensor x, uint64_t seed,
                         double tol = 2e-2) {
  // Discover output shape.
  Tensor y0 = layer->Forward(x, /*training=*/true);
  Tensor w = ScalarizeWeights(y0.shape(), seed);

  // Analytic gradients.
  for (Param* p : layer->Params()) p->ZeroGrad();
  layer->Forward(x, true);
  Tensor dx = layer->Backward(w);

  auto f = [&]() {
    Tensor out = layer->Forward(x, true);
    return Scalarize(out, w);
  };

  ExpectGradientsMatch(&x, f, dx, 1e-3, tol);
  for (Param* p : layer->Params()) {
    Tensor analytic = p->grad;
    ExpectGradientsMatch(&p->value, f, analytic, 1e-3, tol);
  }
}

// --------------------------------------------------------------------------
// Conv2d

struct ConvCase {
  int64_t in_c, out_c, kernel, stride, pad;
  bool bias;
};

class ConvGradTest : public ::testing::TestWithParam<ConvCase> {};

TEST_P(ConvGradTest, FiniteDifference) {
  ConvCase c = GetParam();
  Rng rng(42);
  Conv2d conv(c.in_c, c.out_c, c.kernel, c.stride, c.pad, c.bias, &rng);
  Tensor x = Tensor::Randn({2, c.in_c, 5, 5}, &rng);
  CheckLayerGradients(&conv, x, 17);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, ConvGradTest,
    ::testing::Values(ConvCase{2, 3, 3, 1, 1, false},
                      ConvCase{2, 3, 3, 2, 1, false},
                      ConvCase{3, 2, 1, 1, 0, false},
                      ConvCase{1, 4, 3, 1, 0, true},
                      ConvCase{2, 2, 5, 1, 2, true},
                      ConvCase{4, 1, 1, 2, 0, false}));

// Per-sample reference of Conv2d's passes: one im2col + GEMM per sample
// forward; per sample dW = dY * cols^T, dcols = W^T * dY and its col2im
// backward; the dW/db partials folded in ascending sample order. Conv2d's
// chunked panels must reproduce these bytes exactly.
struct ConvPasses {
  Tensor y, dx, dw, db;
};

ConvPasses PerSampleConv(Conv2d* conv, const Tensor& x, const Tensor& dy) {
  int64_t n = x.size(0), in_c = conv->in_channels(), out_c = conv->out_channels();
  tensor::ConvGeometry g{in_c, x.size(2), x.size(3), conv->kernel(),
                         conv->stride(), conv->pad()};
  int64_t ckk = in_c * conv->kernel() * conv->kernel();
  int64_t p = g.OutH() * g.OutW();
  int64_t image = in_c * g.in_h * g.in_w;
  Tensor wmat = conv->weight().value.Reshaped({out_c, ckk});
  const bool bias = conv->has_bias();

  ConvPasses r;
  r.y = Tensor({n, out_c, g.OutH(), g.OutW()});
  r.dx = Tensor(x.shape());
  r.dw = Tensor(conv->weight().value.shape());
  r.db = Tensor({bias ? out_c : 0});
  Tensor dw_sum({out_c, ckk});
  for (int64_t i = 0; i < n; ++i) {
    Tensor cols({ckk, p});
    tensor::Im2Col(x.data() + i * image, g, &cols);
    float* yi = r.y.MutableData() + i * out_c * p;
    if (bias) {
      for (int64_t f = 0; f < out_c; ++f) {
        std::fill(yi + f * p, yi + (f + 1) * p, conv->bias().value[f]);
      }
    }
    tensor::GemmAccumRaw(wmat.data(), cols.data(), yi, out_c, ckk, p);

    const float* dyi = dy.data() + i * out_c * p;
    Tensor dw_i({out_c, ckk});
    tensor::GemmTransposeBRaw(dyi, cols.data(), dw_i.MutableData(), out_c, p,
                              ckk);
    dw_sum.AddInPlace(dw_i);
    Tensor dcols({ckk, p});
    tensor::GemmTransposeARaw(wmat.data(), dyi, dcols.MutableData(), ckk,
                              out_c, p);
    tensor::Col2Im(dcols, g, r.dx.MutableData() + i * image);
    if (bias) {
      Tensor db_i({out_c});
      for (int64_t f = 0; f < out_c; ++f) {
        double s = 0.0;
        for (int64_t q = 0; q < p; ++q) s += dyi[f * p + q];
        db_i[f] += static_cast<float>(s);
      }
      r.db.AddInPlace(db_i);
    }
  }
  r.dw.AddInPlace(dw_sum.Reshaped(r.dw.shape()));
  return r;
}

void ExpectSameBytes(const Tensor& a, const Tensor& b, const std::string& what) {
  ASSERT_EQ(a.shape(), b.shape()) << what;
  EXPECT_EQ(0, std::memcmp(a.data(), b.data(),
                           static_cast<size_t>(a.numel()) * sizeof(float)))
      << what << " differs bytewise";
}

struct PanelCase {
  const char* name;
  int64_t n, in_c, out_c, hw, kernel, stride, pad;
};

// Panels hold ceil(64 / p) samples of p output positions each.
const PanelCase kPanelCases[] = {
    {"map2x2_p4", 20, 3, 5, 2, 3, 1, 1},        // 16-sample chunks, n % 16 != 0
    {"p9_not_dividing", 10, 2, 3, 3, 3, 1, 1},  // 8 samples -> 72 columns
    {"single_sample", 1, 3, 4, 5, 3, 1, 1},
    {"stride2", 6, 2, 4, 7, 3, 2, 1},  // 4x4 map, 4-sample chunks
    {"kernel1x1", 9, 4, 3, 4, 1, 1, 0},
    {"p64_one_per_chunk", 3, 2, 3, 8, 3, 1, 1},
};

class ConvPanelIdentityTest : public ::testing::TestWithParam<bool> {};

TEST_P(ConvPanelIdentityTest, MatchesPerSampleReferenceBytewise) {
  const bool bias = GetParam();
  for (const PanelCase& c : kPanelCases) {
    SCOPED_TRACE(c.name);
    Rng rng(7);
    Conv2d conv(c.in_c, c.out_c, c.kernel, c.stride, c.pad, bias, &rng);
    if (bias) conv.bias().value = Tensor::Randn({c.out_c}, &rng);
    Tensor x = Tensor::Randn({c.n, c.in_c, c.hw, c.hw}, &rng);
    int64_t o = (c.hw + 2 * c.pad - c.kernel) / c.stride + 1;
    Tensor dy = Tensor::Randn({c.n, c.out_c, o, o}, &rng);
    ThreadPool::ResetGlobal(1);
    const ConvPasses ref = PerSampleConv(&conv, x, dy);

    for (int threads : {1, 4}) {
      for (const char* simd_env : {"0", "1"}) {
        SCOPED_TRACE(std::string("threads=") + std::to_string(threads) +
                     " AUTOMC_SIMD=" + simd_env);
        ThreadPool::ResetGlobal(threads);
        ::setenv("AUTOMC_SIMD", simd_env, 1);
        tensor::simd::RefreshDispatch();
        for (Param* p : conv.Params()) p->ZeroGrad();
        Tensor y = conv.Forward(x, /*training=*/true);
        Tensor dx = conv.Backward(dy);
        ExpectSameBytes(y, ref.y, "y");
        ExpectSameBytes(dx, ref.dx, "dx");
        ExpectSameBytes(conv.weight().grad, ref.dw, "dW");
        if (bias) ExpectSameBytes(conv.bias().grad, ref.db, "db");
      }
    }
  }
  ::unsetenv("AUTOMC_SIMD");
  tensor::simd::RefreshDispatch();
  ThreadPool::ResetGlobal(1);
}

INSTANTIATE_TEST_SUITE_P(Bias, ConvPanelIdentityTest, ::testing::Bool());

TEST(Conv2dTest, OutputShape) {
  Rng rng(1);
  Conv2d conv(3, 8, 3, 2, 1, false, &rng);
  Tensor x({4, 3, 8, 8});
  Tensor y = conv.Forward(x, false);
  EXPECT_EQ(y.size(0), 4);
  EXPECT_EQ(y.size(1), 8);
  EXPECT_EQ(y.size(2), 4);
  EXPECT_EQ(y.size(3), 4);
}

TEST(Conv2dTest, FlopsCount) {
  Rng rng(1);
  Conv2d conv(2, 4, 3, 1, 1, false, &rng);
  Tensor x({1, 2, 4, 4});
  conv.Forward(x, false);
  // N * out_c * in_c*k*k * oh*ow = 1*4*18*16
  EXPECT_EQ(conv.FlopsLastForward(), 4 * 18 * 16);
}

TEST(Conv2dTest, KeepOutputFiltersShrinksWeights) {
  Rng rng(1);
  Conv2d conv(2, 4, 3, 1, 1, true, &rng);
  Tensor w_before = conv.weight().value;
  conv.KeepOutputFilters({1, 3});
  EXPECT_EQ(conv.out_channels(), 2);
  EXPECT_EQ(conv.weight().value.shape(),
            (std::vector<int64_t>{2, 2, 3, 3}));
  // First retained filter is old filter 1.
  for (int64_t i = 0; i < 2 * 3 * 3; ++i) {
    EXPECT_FLOAT_EQ(conv.weight().value[i], w_before[1 * 18 + i]);
  }
}

TEST(Conv2dTest, KeepInputChannelsMatchesSubsetForward) {
  Rng rng(1);
  Conv2d conv(3, 2, 3, 1, 1, false, &rng);
  Tensor x = Tensor::Randn({1, 3, 4, 4}, &rng);
  // Zero channel 1 of the input; pruning channel 1 must give same output.
  Tensor x_zeroed = x;
  for (int64_t i = 0; i < 16; ++i) x_zeroed[16 + i] = 0.0f;
  Tensor y_full = conv.Forward(x_zeroed, false);

  conv.KeepInputChannels({0, 2});
  Tensor x_sub({1, 2, 4, 4});
  for (int64_t i = 0; i < 16; ++i) {
    x_sub[i] = x[i];            // old channel 0
    x_sub[16 + i] = x[32 + i];  // old channel 2
  }
  Tensor y_sub = conv.Forward(x_sub, false);
  for (int64_t i = 0; i < y_full.numel(); ++i) {
    EXPECT_NEAR(y_full[i], y_sub[i], 1e-5);
  }
}

TEST(Conv2dTest, CloneIsDeepCopy) {
  Rng rng(1);
  Conv2d conv(2, 2, 3, 1, 1, false, &rng);
  auto copy = conv.Clone();
  auto* conv_copy = dynamic_cast<Conv2d*>(copy.get());
  ASSERT_NE(conv_copy, nullptr);
  conv_copy->weight().value.Fill(0.0f);
  EXPECT_NE(conv.weight().value.L2NormSquared(), 0.0f);
}

// --------------------------------------------------------------------------
// Linear

TEST(LinearGradTest, FiniteDifference) {
  Rng rng(4);
  Linear lin(6, 4, &rng);
  Tensor x = Tensor::Randn({3, 6}, &rng);
  CheckLayerGradients(&lin, x, 23);
}

TEST(LinearTest, KeepInputFeaturesGrouped) {
  Rng rng(4);
  Linear lin(8, 2, &rng);  // 4 channels * group 2
  Tensor w = lin.weight().value;
  lin.KeepInputFeatures({0, 3}, 2);
  EXPECT_EQ(lin.in_features(), 4);
  EXPECT_FLOAT_EQ(lin.weight().value.at(0, 0), w.at(0, 0));
  EXPECT_FLOAT_EQ(lin.weight().value.at(0, 2), w.at(0, 6));
}

// --------------------------------------------------------------------------
// BatchNorm2d

TEST(BatchNormGradTest, FiniteDifference) {
  Rng rng(5);
  BatchNorm2d bn(3);
  // Non-unit gamma/beta so their gradients are exercised.
  for (int64_t i = 0; i < 3; ++i) {
    bn.gamma().value[i] = 0.7f + 0.2f * static_cast<float>(i);
    bn.beta().value[i] = -0.1f * static_cast<float>(i);
  }
  Tensor x = Tensor::Randn({4, 3, 3, 3}, &rng);
  CheckLayerGradients(&bn, x, 31, /*tol=*/5e-2);
}

TEST(BatchNormTest, TrainingNormalizesBatch) {
  Rng rng(6);
  BatchNorm2d bn(2);
  Tensor x = Tensor::Randn({8, 2, 4, 4}, &rng, 3.0f);
  Tensor y = bn.Forward(x, true);
  // Per-channel mean ~0, var ~1.
  for (int64_t c = 0; c < 2; ++c) {
    double mean = 0.0, var = 0.0;
    int64_t cnt = 0;
    for (int64_t n = 0; n < 8; ++n) {
      for (int64_t k = 0; k < 16; ++k) {
        mean += y[(n * 2 + c) * 16 + k];
        ++cnt;
      }
    }
    mean /= cnt;
    for (int64_t n = 0; n < 8; ++n) {
      for (int64_t k = 0; k < 16; ++k) {
        double d = y[(n * 2 + c) * 16 + k] - mean;
        var += d * d;
      }
    }
    var /= cnt;
    EXPECT_NEAR(mean, 0.0, 1e-4);
    EXPECT_NEAR(var, 1.0, 1e-2);
  }
}

TEST(BatchNormTest, EvalUsesRunningStats) {
  Rng rng(6);
  BatchNorm2d bn(1);
  Tensor x = Tensor::Randn({16, 1, 2, 2}, &rng, 2.0f);
  // Train several times so running stats converge toward batch stats.
  for (int i = 0; i < 50; ++i) bn.Forward(x, true);
  Tensor y_train = bn.Forward(x, true);
  Tensor y_eval = bn.Forward(x, false);
  for (int64_t i = 0; i < y_train.numel(); ++i) {
    EXPECT_NEAR(y_train[i], y_eval[i], 0.15);
  }
}

TEST(BatchNormTest, KeepChannelsSelects) {
  BatchNorm2d bn(4);
  for (int64_t i = 0; i < 4; ++i) bn.gamma().value[i] = static_cast<float>(i);
  bn.KeepChannels({1, 3});
  EXPECT_EQ(bn.channels(), 2);
  EXPECT_FLOAT_EQ(bn.gamma().value[0], 1.0f);
  EXPECT_FLOAT_EQ(bn.gamma().value[1], 3.0f);
}

// --------------------------------------------------------------------------
// Activations

TEST(ReluGradTest, FiniteDifference) {
  Rng rng(7);
  ReLU relu;
  Tensor x = Tensor::Randn({2, 3, 4, 4}, &rng);
  CheckLayerGradients(&relu, x, 37);
}

TEST(ReluTest, ClampsNegative) {
  ReLU relu;
  Tensor x({4});
  x[0] = -1.0f;
  x[1] = 0.0f;
  x[2] = 2.0f;
  x[3] = -0.5f;
  Tensor y = relu.Forward(x, false);
  EXPECT_FLOAT_EQ(y[0], 0.0f);
  EXPECT_FLOAT_EQ(y[1], 0.0f);
  EXPECT_FLOAT_EQ(y[2], 2.0f);
  EXPECT_FLOAT_EQ(y[3], 0.0f);
}

class LmaSegmentsTest : public ::testing::TestWithParam<int64_t> {};

TEST_P(LmaSegmentsTest, InitApproximatesRelu) {
  int64_t segments = GetParam();
  LMAActivation lma(segments, 2.0f);
  float width = 4.0f / static_cast<float>(segments);
  // With an even segment count a breakpoint sits exactly at 0 and the init
  // reproduces ReLU; with an odd count the straddling segment makes the init
  // ReLU only up to one segment width.
  float tol = (segments % 2 == 0) ? 1e-5f : width;
  Tensor x({7});
  float vals[] = {-1.9f, -1.0f, -0.3f, 0.3f, 0.9f, 1.5f, 1.9f};
  for (int i = 0; i < 7; ++i) x[i] = vals[i];
  Tensor y = lma.Forward(x, false);
  for (int i = 0; i < 7; ++i) {
    EXPECT_NEAR(y[i], std::max(0.0f, vals[i]), tol) << "at x=" << vals[i];
  }
}

TEST_P(LmaSegmentsTest, FiniteDifference) {
  Rng rng(8);
  LMAActivation lma(GetParam(), 2.0f);
  // Perturb slopes away from the ReLU init so gradients are generic.
  for (int64_t i = 0; i < lma.segments(); ++i) {
    lma.Params()[0]->value[i] += static_cast<float>(rng.Normal(0.0, 0.3));
  }
  Tensor x = Tensor::Randn({2, 10}, &rng);
  CheckLayerGradients(&lma, x, 41, /*tol=*/5e-2);
}

INSTANTIATE_TEST_SUITE_P(Segments, LmaSegmentsTest,
                         ::testing::Values(2, 4, 5, 8));

TEST(LmaTest, ContinuousAcrossBoundaries) {
  Rng rng(9);
  LMAActivation lma(4, 2.0f);
  for (int64_t i = 0; i < 4; ++i) {
    lma.Params()[0]->value[i] = static_cast<float>(rng.Normal());
  }
  // Check continuity at each internal breakpoint.
  for (int b = 1; b < 4; ++b) {
    float bp = -2.0f + static_cast<float>(b) * 1.0f;
    Tensor lo({1}), hi({1});
    lo[0] = bp - 1e-4f;
    hi[0] = bp + 1e-4f;
    Tensor ylo = lma.Forward(lo, false);
    Tensor yhi = lma.Forward(hi, false);
    EXPECT_NEAR(ylo[0], yhi[0], 1e-2);
  }
}

// --------------------------------------------------------------------------
// Pooling / Flatten

TEST(MaxPoolGradTest, FiniteDifference) {
  Rng rng(10);
  MaxPool2d pool(2, 2);
  Tensor x = Tensor::Randn({2, 2, 4, 4}, &rng);
  CheckLayerGradients(&pool, x, 43);
}

TEST(MaxPoolTest, SelectsMaximum) {
  MaxPool2d pool(2, 2);
  Tensor x({1, 1, 2, 2});
  x[0] = 1.0f;
  x[1] = 5.0f;
  x[2] = -3.0f;
  x[3] = 2.0f;
  Tensor y = pool.Forward(x, false);
  EXPECT_EQ(y.numel(), 1);
  EXPECT_FLOAT_EQ(y[0], 5.0f);
}

TEST(GlobalAvgPoolGradTest, FiniteDifference) {
  Rng rng(11);
  GlobalAvgPool gap;
  Tensor x = Tensor::Randn({2, 3, 4, 4}, &rng);
  CheckLayerGradients(&gap, x, 47);
}

TEST(FlattenTest, RoundTrip) {
  Rng rng(12);
  Flatten fl;
  Tensor x = Tensor::Randn({2, 3, 2, 2}, &rng);
  Tensor y = fl.Forward(x, true);
  EXPECT_EQ(y.dim(), 2);
  EXPECT_EQ(y.size(1), 12);
  Tensor back = fl.Backward(y);
  EXPECT_EQ(back.shape(), x.shape());
  for (int64_t i = 0; i < x.numel(); ++i) EXPECT_FLOAT_EQ(back[i], x[i]);
}

// --------------------------------------------------------------------------
// Composite layers

TEST(SequentialGradTest, ConvBnReluStack) {
  Rng rng(13);
  auto seq = std::make_unique<Sequential>();
  seq->Add(std::make_unique<Conv2d>(2, 3, 3, 1, 1, false, &rng));
  seq->Add(std::make_unique<BatchNorm2d>(3));
  seq->Add(std::make_unique<ReLU>());
  Tensor x = Tensor::Randn({3, 2, 4, 4}, &rng);
  CheckLayerGradients(seq.get(), x, 53, /*tol=*/6e-2);
}

TEST(SequentialTest, ReplaceChild) {
  Rng rng(14);
  Sequential seq;
  seq.Add(std::make_unique<ReLU>());
  seq.Add(std::make_unique<Flatten>());
  auto old = seq.ReplaceChild(0, std::make_unique<GlobalAvgPool>());
  EXPECT_EQ(old->Name(), "ReLU");
  EXPECT_EQ(seq.Child(0)->Name(), "GlobalAvgPool");
}

class ResidualGradTest
    : public ::testing::TestWithParam<std::tuple<int, int64_t>> {};

TEST_P(ResidualGradTest, FiniteDifference) {
  auto [kind_i, stride] = GetParam();
  auto kind = kind_i == 0 ? ResidualBlock::Kind::kBasic
                          : ResidualBlock::Kind::kBottleneck;
  Rng rng(15);
  ResidualBlock block(kind, 4, 2, stride, &rng);
  Tensor x = Tensor::Randn({2, 4, 4, 4}, &rng);
  CheckLayerGradients(&block, x, 59, /*tol=*/8e-2);
}

INSTANTIATE_TEST_SUITE_P(Kinds, ResidualGradTest,
                         ::testing::Values(std::make_tuple(0, 1),
                                           std::make_tuple(0, 2),
                                           std::make_tuple(1, 1),
                                           std::make_tuple(1, 2)));

TEST(ResidualBlockTest, IdentityShortcutWhenShapesMatch) {
  Rng rng(16);
  ResidualBlock block(ResidualBlock::Kind::kBasic, 4, 4, 1, &rng);
  EXPECT_FALSE(block.has_downsample());
  ResidualBlock strided(ResidualBlock::Kind::kBasic, 4, 4, 2, &rng);
  EXPECT_TRUE(strided.has_downsample());
  ResidualBlock widened(ResidualBlock::Kind::kBasic, 4, 8, 1, &rng);
  EXPECT_TRUE(widened.has_downsample());
}

TEST(ResidualBlockTest, ReplaceActivationsSwapsToLma) {
  Rng rng(17);
  ResidualBlock block(ResidualBlock::Kind::kBasic, 2, 2, 1, &rng);
  LMAActivation proto(4);
  block.ReplaceActivations(proto);
  Tensor x = Tensor::Randn({1, 2, 3, 3}, &rng);
  Tensor y = block.Forward(x, false);  // must still run
  EXPECT_EQ(y.shape(), x.shape());
  // LMA slopes are trainable, so block params grew.
  bool has_lma_param = false;
  for (Param* p : block.Params()) {
    if (p->value.numel() == 4) has_lma_param = true;
  }
  EXPECT_TRUE(has_lma_param);
}

TEST(LowRankConvGradTest, FiniteDifference) {
  Rng rng(18);
  std::vector<std::unique_ptr<Conv2d>> stages;
  stages.push_back(std::make_unique<Conv2d>(3, 2, 3, 1, 1, false, &rng));
  stages.push_back(std::make_unique<Conv2d>(2, 4, 1, 1, 0, false, &rng));
  LowRankConv lr(std::move(stages));
  EXPECT_EQ(lr.in_channels(), 3);
  EXPECT_EQ(lr.out_channels(), 4);
  Tensor x = Tensor::Randn({2, 3, 4, 4}, &rng);
  CheckLayerGradients(&lr, x, 61, /*tol=*/5e-2);
}

// --------------------------------------------------------------------------
// GruCell / VecMlp

TEST(GruCellTest, FiniteDifferenceSingleStep) {
  Rng rng(19);
  GruCell cell(3, 4, &rng);
  Tensor x = Tensor::Randn({3}, &rng);
  Tensor h0 = Tensor::Randn({4}, &rng);
  Tensor w = ScalarizeWeights({4}, 67);

  for (Param* p : cell.Params()) p->ZeroGrad();
  GruCell::Cache cache;
  cell.Step(x, h0, &cache);
  auto [dx, dh0] = cell.BackwardStep(cache, w);

  auto f = [&]() {
    Tensor h = cell.Step(x, h0, nullptr);
    return Scalarize(h, w);
  };
  ExpectGradientsMatch(&x, f, dx, 1e-3, 3e-2);
  ExpectGradientsMatch(&h0, f, dh0, 1e-3, 3e-2);
  for (Param* p : cell.Params()) {
    Tensor analytic = p->grad;
    ExpectGradientsMatch(&p->value, f, analytic, 1e-3, 3e-2);
  }
}

TEST(GruCellTest, SequenceBackpropThroughTime) {
  Rng rng(20);
  GruCell cell(2, 3, &rng);
  std::vector<Tensor> xs;
  for (int t = 0; t < 3; ++t) xs.push_back(Tensor::Randn({2}, &rng));
  Tensor w = ScalarizeWeights({3}, 71);

  auto run = [&]() {
    Tensor h = cell.InitialState();
    for (const auto& x : xs) h = cell.Step(x, h, nullptr);
    return Scalarize(h, w);
  };

  // Analytic BPTT.
  for (Param* p : cell.Params()) p->ZeroGrad();
  std::vector<GruCell::Cache> caches(3);
  Tensor h = cell.InitialState();
  for (int t = 0; t < 3; ++t) h = cell.Step(xs[static_cast<size_t>(t)], h, &caches[static_cast<size_t>(t)]);
  Tensor dh = w;
  std::vector<Tensor> dxs(3);
  for (int t = 2; t >= 0; --t) {
    auto [dx, dh_prev] = cell.BackwardStep(caches[static_cast<size_t>(t)], dh);
    dxs[static_cast<size_t>(t)] = dx;
    dh = dh_prev;
  }

  for (int t = 0; t < 3; ++t) {
    ExpectGradientsMatch(&xs[static_cast<size_t>(t)], run, dxs[static_cast<size_t>(t)], 1e-3,
                         4e-2);
  }
  for (Param* p : cell.Params()) {
    Tensor analytic = p->grad;
    ExpectGradientsMatch(&p->value, run, analytic, 1e-3, 4e-2);
  }
}

TEST(VecMlpTest, FiniteDifference) {
  Rng rng(21);
  VecMlp mlp({4, 6, 2}, &rng);
  Tensor x = Tensor::Randn({4}, &rng);
  Tensor w = ScalarizeWeights({2}, 73);

  for (Param* p : mlp.Params()) p->ZeroGrad();
  VecMlp::Cache cache;
  mlp.Forward(x, &cache);
  Tensor dx = mlp.Backward(cache, w);

  auto f = [&]() {
    Tensor out = mlp.Forward(x, nullptr);
    return Scalarize(out, w);
  };
  ExpectGradientsMatch(&x, f, dx, 1e-3, 3e-2);
  for (Param* p : mlp.Params()) {
    Tensor analytic = p->grad;
    ExpectGradientsMatch(&p->value, f, analytic, 1e-3, 3e-2);
  }
}

TEST(VecMlpTest, OutputDims) {
  Rng rng(22);
  VecMlp mlp({5, 8, 8, 3}, &rng);
  EXPECT_EQ(mlp.input_dim(), 5);
  EXPECT_EQ(mlp.output_dim(), 3);
  Tensor y = mlp.Forward(Tensor::Zeros({5}), nullptr);
  EXPECT_EQ(y.numel(), 3);
}

}  // namespace
}  // namespace nn
}  // namespace automc
