#include "tensor/ops.h"

#include <algorithm>
#include <cmath>

#include "common/metrics.h"
#include "common/thread_pool.h"
#include "tensor/simd.h"
#include "tensor/tune.h"

namespace automc {
namespace tensor {

namespace {

// Minimum multiply-adds one ParallelFor chunk should amortize; below this
// the whole GEMM runs as a single chunk (i.e. serial).
constexpr int64_t kFlopsPerChunk = 1 << 17;

// Rows per chunk so each chunk carries ~kFlopsPerChunk multiply-adds,
// rounded up to a multiple of `round_to` so register-blocked row bands
// cover whole chunks. Depends only on the problem shape and tile choice,
// never on the thread count.
int64_t RowGrain(int64_t m, int64_t flops_per_row, int64_t round_to = 4) {
  if (flops_per_row <= 0) return m > 0 ? m : 1;
  int64_t rows = kFlopsPerChunk / flops_per_row;
  if (rows < 1) rows = 1;
  rows = (rows + round_to - 1) / round_to * round_to;
  if (rows > m && m > 0) rows = m;
  return rows;
}

}  // namespace

namespace {

// Per-thread dispatch counters, cached and keyed by the registry
// generation (same pattern as the COW counters in tensor.cc) so the GEMM
// hot path never takes the registry mutex.
struct GemmCounters {
  uint64_t generation = ~uint64_t{0};
  metrics::Counter* avx2 = nullptr;
  metrics::Counter* scalar = nullptr;
};

GemmCounters& DispatchCounters() {
  thread_local GemmCounters c;
  auto& reg = metrics::MetricsRegistry::Global();
  uint64_t gen = reg.generation();
  if (c.generation != gen) {
    c.avx2 = &reg.GetCounter("simd.gemm_avx2");
    c.scalar = &reg.GetCounter("simd.gemm_scalar");
    c.generation = gen;
  }
  return c;
}

// All three GEMM entry points funnel through here. The AVX2 path packs B
// once on the calling thread (the packed panels live in that thread's
// scratch, which stays valid while ParallelFor blocks on the chunks) and
// hands row ranges to the tiled microkernels; every other mode — and
// shapes too narrow to fill one 8-column panel — runs the scalar fma-chain
// kernel over the same row ranges. Both kernels honour the microkernel
// contract in simd.h, so which branch runs never changes the bits; chunk
// boundaries are a pure function of (m, grain), so neither does the thread
// count.
void GemmDispatch(simd::GemmOp op, const float* a, const float* b, float* c,
                  int64_t m, int64_t k, int64_t n) {
  if (simd::ActiveMode() == simd::SimdMode::kAvx2 && n >= 8) {
    if (metrics::Enabled()) DispatchCounters().avx2->Add(1);
    const simd::TileParams p = simd::ChooseTile(op, m, k, n);
    const simd::PackedB pb = simd::PackB(op, b, k, n, p.nv);
    automc::ParallelFor(m, RowGrain(m, k * n, p.mr),
                        [=](int64_t r0, int64_t r1) {
                          simd::GemmRowsAvx2(op, p, a, pb, b, c, m, k, n, r0,
                                             r1);
                        });
    return;
  }
  if (metrics::Enabled()) DispatchCounters().scalar->Add(1);
  automc::ParallelFor(m, RowGrain(m, k * n), [=](int64_t r0, int64_t r1) {
    simd::GemmRowsScalar(op, a, b, c, m, k, n, r0, r1);
  });
}

}  // namespace

void GemmAccumRaw(const float* a, const float* b, float* c, int64_t m,
                  int64_t k, int64_t n) {
  GemmDispatch(simd::GemmOp::kNormal, a, b, c, m, k, n);
}

void GemmTransposeARaw(const float* a, const float* b, float* c, int64_t m,
                       int64_t k, int64_t n) {
  GemmDispatch(simd::GemmOp::kTransposeA, a, b, c, m, k, n);
}

void GemmTransposeBRaw(const float* a, const float* b, float* c, int64_t m,
                       int64_t k, int64_t n) {
  GemmDispatch(simd::GemmOp::kTransposeB, a, b, c, m, k, n);
}

void MatMulAccumulate(const Tensor& a, const Tensor& b, Tensor* c) {
  AUTOMC_CHECK_EQ(a.dim(), 2);
  AUTOMC_CHECK_EQ(b.dim(), 2);
  AUTOMC_CHECK_EQ(c->dim(), 2);
  int64_t m = a.size(0), k = a.size(1), n = b.size(1);
  AUTOMC_CHECK_EQ(b.size(0), k);
  AUTOMC_CHECK_EQ(c->size(0), m);
  AUTOMC_CHECK_EQ(c->size(1), n);
  GemmAccumRaw(a.data(), b.data(), c->MutableData(), m, k, n);
}

Tensor MatMul(const Tensor& a, const Tensor& b) {
  Tensor c({a.size(0), b.size(1)});
  MatMulAccumulate(a, b, &c);
  return c;
}

Tensor MatMulTransposeA(const Tensor& a, const Tensor& b) {
  AUTOMC_CHECK_EQ(a.dim(), 2);
  AUTOMC_CHECK_EQ(b.dim(), 2);
  int64_t k = a.size(0), m = a.size(1), n = b.size(1);
  AUTOMC_CHECK_EQ(b.size(0), k);
  Tensor c({m, n});
  GemmTransposeARaw(a.data(), b.data(), c.MutableData(), m, k, n);
  return c;
}

Tensor MatMulTransposeB(const Tensor& a, const Tensor& b) {
  AUTOMC_CHECK_EQ(a.dim(), 2);
  AUTOMC_CHECK_EQ(b.dim(), 2);
  int64_t m = a.size(0), k = a.size(1), n = b.size(0);
  AUTOMC_CHECK_EQ(b.size(1), k);
  Tensor c({m, n});
  GemmTransposeBRaw(a.data(), b.data(), c.MutableData(), m, k, n);
  return c;
}

void Im2Col(const float* x, const ConvGeometry& g, float* cols, int64_t col0,
            int64_t ld) {
  int64_t oh = g.OutH(), ow = g.OutW();
  AUTOMC_CHECK(col0 >= 0 && col0 + oh * ow <= ld);
  for (int64_t c = 0; c < g.in_c; ++c) {
    const float* xc = x + c * g.in_h * g.in_w;
    for (int64_t ki = 0; ki < g.kernel; ++ki) {
      for (int64_t kj = 0; kj < g.kernel; ++kj) {
        float* row =
            cols + ((c * g.kernel + ki) * g.kernel + kj) * ld + col0;
        int64_t idx = 0;
        for (int64_t i = 0; i < oh; ++i) {
          int64_t src_i = i * g.stride + ki - g.pad;
          bool row_ok = src_i >= 0 && src_i < g.in_h;
          for (int64_t j = 0; j < ow; ++j, ++idx) {
            int64_t src_j = j * g.stride + kj - g.pad;
            row[idx] = (row_ok && src_j >= 0 && src_j < g.in_w)
                           ? xc[src_i * g.in_w + src_j]
                           : 0.0f;
          }
        }
      }
    }
  }
}

void Im2Col(const float* x, const ConvGeometry& g, Tensor* cols) {
  int64_t p = g.OutH() * g.OutW();
  AUTOMC_CHECK_EQ(cols->dim(), 2);
  AUTOMC_CHECK_EQ(cols->size(0), g.in_c * g.kernel * g.kernel);
  AUTOMC_CHECK_EQ(cols->size(1), p);
  // Every element (zero padding included) is written, so a shared cols
  // buffer is replaced, never copied.
  Im2Col(x, g, cols->MutableDataDiscard(), 0, p);
}

void Col2Im(const float* cols, int64_t col0, int64_t ld, const ConvGeometry& g,
            float* dx) {
  int64_t oh = g.OutH(), ow = g.OutW();
  AUTOMC_CHECK(col0 >= 0 && col0 + oh * ow <= ld);
  for (int64_t c = 0; c < g.in_c; ++c) {
    float* xc = dx + c * g.in_h * g.in_w;
    for (int64_t ki = 0; ki < g.kernel; ++ki) {
      for (int64_t kj = 0; kj < g.kernel; ++kj) {
        const float* row =
            cols + ((c * g.kernel + ki) * g.kernel + kj) * ld + col0;
        int64_t idx = 0;
        for (int64_t i = 0; i < oh; ++i) {
          int64_t src_i = i * g.stride + ki - g.pad;
          bool row_ok = src_i >= 0 && src_i < g.in_h;
          for (int64_t j = 0; j < ow; ++j, ++idx) {
            int64_t src_j = j * g.stride + kj - g.pad;
            if (row_ok && src_j >= 0 && src_j < g.in_w) {
              xc[src_i * g.in_w + src_j] += row[idx];
            }
          }
        }
      }
    }
  }
}

void Col2Im(const Tensor& cols, const ConvGeometry& g, float* dx) {
  int64_t p = g.OutH() * g.OutW();
  AUTOMC_CHECK_EQ(cols.dim(), 2);
  AUTOMC_CHECK_EQ(cols.size(0), g.in_c * g.kernel * g.kernel);
  AUTOMC_CHECK_EQ(cols.size(1), p);
  Col2Im(cols.data(), 0, p, g, dx);
}

Tensor LogSoftmax(const Tensor& logits) {
  AUTOMC_CHECK_EQ(logits.dim(), 2);
  int64_t n = logits.size(0), c = logits.size(1);
  Tensor out({n, c});
  const float* src = logits.data();
  float* dst = out.MutableData();
  automc::ParallelFor(n, RowGrain(n, 3 * c), [=](int64_t r0, int64_t r1) {
    for (int64_t i = r0; i < r1; ++i) {
      const float* row = src + i * c;
      float* orow = dst + i * c;
      float mx = row[0];
      for (int64_t j = 1; j < c; ++j) mx = std::max(mx, row[j]);
      double sum = 0.0;
      for (int64_t j = 0; j < c; ++j) {
        sum += std::exp(static_cast<double>(row[j]) - mx);
      }
      float lse = mx + static_cast<float>(std::log(sum));
      for (int64_t j = 0; j < c; ++j) orow[j] = row[j] - lse;
    }
  });
  return out;
}

}  // namespace tensor
}  // namespace automc
