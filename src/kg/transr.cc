#include "kg/transr.h"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace automc {
namespace kg {

using tensor::Tensor;

TransR::TransR(int64_t num_entities, int64_t num_relations,
               TransRConfig config)
    : config_(config), num_entities_(num_entities),
      num_relations_(num_relations) {
  AUTOMC_CHECK_GT(num_entities, 0);
  AUTOMC_CHECK_GT(num_relations, 0);
  Rng rng(config.seed);
  float escale = 1.0f / std::sqrt(static_cast<float>(config.entity_dim));
  float rscale = 1.0f / std::sqrt(static_cast<float>(config.relation_dim));
  entities_ = Tensor::Randn({num_entities, config.entity_dim}, &rng, escale);
  relations_ =
      Tensor::Randn({num_relations, config.relation_dim}, &rng, rscale);
  // Projections start near identity-ish random maps.
  proj_ = Tensor::Randn(
      {num_relations, config.relation_dim * config.entity_dim}, &rng, escale);
  for (int64_t r = 0; r < num_relations; ++r) {
    for (int64_t i = 0; i < std::min(config.relation_dim, config.entity_dim);
         ++i) {
      proj_[r * config.relation_dim * config.entity_dim +
            i * config.entity_dim + i] += 1.0f;
    }
  }
}

namespace {

// out_v = W e_v for kVecs (1 or 2) entity vectors through one relation's
// W [k, d]. Every output row is its own ascending-j double chain
// s += w[i][j] * e[j]; 8 / kVecs rows of every vector run interleaved, so
// each j step advances eight independent chains without reassociating any
// of them.
template <int kVecs>
void Project(const float* w, const float* const (&e)[kVecs], int64_t k,
             int64_t d, float* const (&out)[kVecs]) {
  constexpr int kRows = 8 / kVecs;
  int64_t i = 0;
  for (; i + kRows <= k; i += kRows) {
    double acc[kVecs][kRows] = {};
    for (int64_t j = 0; j < d; ++j) {
      for (int r = 0; r < kRows; ++r) {
        double wv = w[(i + r) * d + j];
        for (int v = 0; v < kVecs; ++v) acc[v][r] += wv * e[v][j];
      }
    }
    for (int v = 0; v < kVecs; ++v) {
      for (int r = 0; r < kRows; ++r) {
        out[v][i + r] = static_cast<float>(acc[v][r]);
      }
    }
  }
  for (; i < k; ++i) {
    double acc[kVecs] = {};
    for (int64_t j = 0; j < d; ++j) {
      double wv = w[i * d + j];
      for (int v = 0; v < kVecs; ++v) acc[v] += wv * e[v][j];
    }
    for (int v = 0; v < kVecs; ++v) out[v][i] = static_cast<float>(acc[v]);
  }
}

// Energy sum_i u_i^2 of the residual u = ph + er - pt (each u_i rounded to
// float, squared and summed in double); also stores u when `u` is set.
double Energy(const float* ph, const float* er, const float* pt, int64_t k,
              float* u) {
  double s = 0.0;
  for (int64_t i = 0; i < k; ++i) {
    float ui = ph[i] + er[i] - pt[i];
    if (u != nullptr) u[i] = ui;
    s += static_cast<double>(ui) * ui;
  }
  return s;
}

}  // namespace

double TransR::Score(const Triplet& t) const {
  int64_t d = config_.entity_dim, k = config_.relation_dim;
  const float* w = proj_.data() + t.relation * k * d;
  const float* er = relations_.data() + t.relation * k;
  std::vector<float> ph(static_cast<size_t>(k)), pt(static_cast<size_t>(k));
  Project<2>(w, {entities_.data() + t.head * d, entities_.data() + t.tail * d},
             k, d, {ph.data(), pt.data()});
  return Energy(ph.data(), er, pt.data(), k, nullptr);
}

void TransR::RenormalizeEntity(int64_t id) {
  int64_t d = config_.entity_dim;
  float* e = entities_.MutableData() + id * d;
  double n = 0.0;
  for (int64_t i = 0; i < d; ++i) n += static_cast<double>(e[i]) * e[i];
  n = std::sqrt(n);
  if (n > 1.0) {
    float inv = static_cast<float>(1.0 / n);
    for (int64_t i = 0; i < d; ++i) e[i] *= inv;
  }
}

double TransR::ScorePair(const Triplet& pos, const Triplet& neg) {
  int64_t d = config_.entity_dim, k = config_.relation_dim;
  const float* w = proj_.data() + pos.relation * k * d;
  const float* er = relations_.data() + pos.relation * k;
  const float* ent = entities_.data();
  Project<2>(w, {ent + pos.head * d, ent + pos.tail * d}, k, d,
             {ph_.data(), pt_.data()});
  // neg differs from pos in at most one side; the other side's projection
  // is pos's (nothing has been updated yet).
  const float* nh = ph_.data();
  const float* nt = pt_.data();
  if (neg.head != pos.head) {
    Project<1>(w, {ent + neg.head * d}, k, d, {nh_.data()});
    nh = nh_.data();
  }
  if (neg.tail != pos.tail) {
    Project<1>(w, {ent + neg.tail * d}, k, d, {nt_.data()});
    nt = nt_.data();
  }
  double d_pos = Energy(ph_.data(), er, pt_.data(), k, u_.data());
  double d_neg = Energy(nh, er, nt, k, nullptr);
  return config_.margin + d_pos - d_neg;
}

// Gradient of score d(h,r,t) wrt its pieces:
//   u = W e_h + e_r - W e_t  (in R^k)
//   dd/de_h = 2 W^T u ; dd/de_t = -2 W^T u ; dd/de_r = 2u ;
//   dd/dW = 2 u (e_h - e_t)^T.
void TransR::ApplyStep(const Triplet& t, const float* u, float sign) {
  int64_t d = config_.entity_dim, k = config_.relation_dim;
  float* w = proj_.MutableData() + t.relation * k * d;
  float* eh = entities_.MutableData() + t.head * d;
  float* et = entities_.MutableData() + t.tail * d;
  float* er = relations_.MutableData() + t.relation * k;
  float* wtu = wtu_.data();
  float* diff = diff_.data();
  // W^T u, ascending i per element.
  std::fill(wtu, wtu + d, 0.0f);
  for (int64_t i = 0; i < k; ++i) {
    float ui = u[i];
    for (int64_t j = 0; j < d; ++j) wtu[j] += w[i * d + j] * ui;
  }
  float step = 2.0f * config_.lr * sign;
  for (int64_t j = 0; j < d; ++j) diff[j] = eh[j] - et[j];
  // dW rows: u_i * diff_j
  for (int64_t i = 0; i < k; ++i) {
    float su = step * u[i];
    float* wrow = w + i * d;
    for (int64_t j = 0; j < d; ++j) wrow[j] -= su * diff[j];
  }
  // eh and et alias when head == tail: each j's two updates stay in order.
  for (int64_t j = 0; j < d; ++j) {
    eh[j] -= step * wtu[j];
    et[j] += step * wtu[j];
  }
  for (int64_t i = 0; i < k; ++i) er[i] -= step * u[i];
}

void TransR::UpdatePair(const Triplet& pos, const Triplet& neg, double loss) {
  if (loss <= 0.0) return;  // hinge inactive
  int64_t d = config_.entity_dim, k = config_.relation_dim;

  // ScorePair's pos residual is still current: nothing changed since.
  ApplyStep(pos, u_.data(), +1.0f);  // decrease positive energy
  // neg shares pos's W and one entity, both just updated: re-project.
  const float* ent = entities_.data();
  const float* w = proj_.data() + neg.relation * k * d;
  Project<2>(w, {ent + neg.head * d, ent + neg.tail * d}, k, d,
             {nh_.data(), nt_.data()});
  Energy(nh_.data(), relations_.data() + neg.relation * k, nt_.data(), k,
         u_.data());
  ApplyStep(neg, u_.data(), -1.0f);  // increase negative energy
  RenormalizeEntity(pos.head);
  RenormalizeEntity(pos.tail);
  RenormalizeEntity(neg.head);
  RenormalizeEntity(neg.tail);
}

double TransR::TrainEpoch(const std::vector<Triplet>& triplets,
                          int64_t num_entities, Rng* rng) {
  AUTOMC_CHECK(!triplets.empty());
  std::vector<size_t> order(triplets.size());
  std::iota(order.begin(), order.end(), 0);
  rng->Shuffle(&order);

  const size_t k = static_cast<size_t>(config_.relation_dim);
  const size_t d = static_cast<size_t>(config_.entity_dim);
  for (auto* buf : {&ph_, &pt_, &nh_, &nt_, &u_}) buf->resize(k);
  for (auto* buf : {&wtu_, &diff_}) buf->resize(d);

  double total = 0.0;
  for (size_t idx : order) {
    const Triplet& pos = triplets[idx];
    Triplet neg = pos;
    // Corrupt head or tail with a uniform entity.
    if (rng->Bernoulli(0.5)) {
      neg.head = rng->UniformInt(num_entities);
    } else {
      neg.tail = rng->UniformInt(num_entities);
    }
    double loss = ScorePair(pos, neg);
    total += std::max(0.0, loss);
    UpdatePair(pos, neg, loss);
  }
  return total / static_cast<double>(triplets.size());
}

TransR::RankingMetrics TransR::EvaluateRanking(
    const std::vector<Triplet>& triplets, int64_t num_entities,
    int max_triplets) const {
  RankingMetrics m;
  int limit = std::min<int>(max_triplets, static_cast<int>(triplets.size()));
  for (int i = 0; i < limit; ++i) {
    const Triplet& t = triplets[static_cast<size_t>(i)];
    double true_score = Score(t);
    // Rank = 1 + number of corruptions scoring strictly better.
    int64_t rank = 1;
    for (int64_t e = 0; e < num_entities; ++e) {
      if (e == t.tail) continue;
      Triplet corrupted = t;
      corrupted.tail = e;
      if (Score(corrupted) < true_score) ++rank;
    }
    m.mrr += 1.0 / static_cast<double>(rank);
    if (rank <= 1) m.hits_at_1 += 1.0;
    if (rank <= 10) m.hits_at_10 += 1.0;
    ++m.evaluated;
  }
  if (m.evaluated > 0) {
    m.mrr /= m.evaluated;
    m.hits_at_1 /= m.evaluated;
    m.hits_at_10 /= m.evaluated;
  }
  return m;
}

Tensor TransR::EntityEmbedding(int64_t id) const {
  AUTOMC_CHECK(id >= 0 && id < num_entities_);
  int64_t d = config_.entity_dim;
  Tensor out({d});
  const float* e = entities_.data() + id * d;
  std::copy(e, e + d, out.MutableData());
  return out;
}

void TransR::SetEntityEmbedding(int64_t id, const Tensor& e) {
  AUTOMC_CHECK(id >= 0 && id < num_entities_);
  int64_t d = config_.entity_dim;
  AUTOMC_CHECK_EQ(e.numel(), d);
  std::copy(e.data(), e.data() + d, entities_.MutableData() + id * d);
}

}  // namespace kg
}  // namespace automc
