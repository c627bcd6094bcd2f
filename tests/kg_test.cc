#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>
#include <set>

#include "gtest/gtest.h"
#include "kg/embedding.h"
#include "kg/experience.h"
#include "kg/knowledge_graph.h"
#include "kg/transr.h"
#include "search/search_space.h"

namespace automc {
namespace kg {
namespace {

using compress::StrategySpec;

std::vector<StrategySpec> SmallStrategies() {
  return search::SearchSpace::SingleMethod("NS").strategies();
}

// --------------------------------------------------------------------------
// Knowledge graph

TEST(KnowledgeGraphTest, EntityAndTripletStructure) {
  auto strategies = SmallStrategies();  // NS: 5*5*2 = 50 strategies
  KnowledgeGraph g = KnowledgeGraph::Build(strategies);
  // Entities: 50 strategies + 1 method + 3 hps (HP1, HP2, HP6)
  // + settings (5 + 5 + 2 = 12) + 2 techniques (TE4, TE3) = 68.
  EXPECT_EQ(g.num_entities(), 68);
  EXPECT_NE(g.FindEntity("M:NS"), -1);
  EXPECT_NE(g.FindEntity("H:HP2"), -1);
  EXPECT_NE(g.FindEntity("V:HP2=0.2"), -1);
  EXPECT_NE(g.FindEntity("T:TE3"), -1);
  EXPECT_NE(g.FindEntity("T:TE4"), -1);
  EXPECT_EQ(g.FindEntity("M:LeGR"), -1);

  // Triplets: per strategy 1 R1 + 3 R2 = 200; method-level: 3 R3 + 2 R4;
  // hp-level: 12 R5. Total 217.
  EXPECT_EQ(g.triplets().size(), 217u);
}

TEST(KnowledgeGraphTest, StrategyEntitiesDistinct) {
  auto strategies = SmallStrategies();
  KnowledgeGraph g = KnowledgeGraph::Build(strategies);
  std::set<int64_t> ids;
  for (size_t i = 0; i < strategies.size(); ++i) {
    ids.insert(g.StrategyEntity(i));
  }
  EXPECT_EQ(ids.size(), strategies.size());
}

TEST(KnowledgeGraphTest, RelationsWellTyped) {
  auto strategies = SmallStrategies();
  KnowledgeGraph g = KnowledgeGraph::Build(strategies);
  for (const Triplet& t : g.triplets()) {
    ASSERT_GE(t.relation, 0);
    ASSERT_LT(t.relation, kNumRelations);
    const std::string& head = g.EntityName(t.head);
    const std::string& tail = g.EntityName(t.tail);
    switch (t.relation) {
      case kStrategyMethod:
        EXPECT_EQ(head[0], 'S');
        EXPECT_EQ(tail[0], 'M');
        break;
      case kStrategySetting:
        EXPECT_EQ(head[0], 'S');
        EXPECT_EQ(tail[0], 'V');
        break;
      case kMethodHp:
        EXPECT_EQ(head[0], 'M');
        EXPECT_EQ(tail[0], 'H');
        break;
      case kMethodTechnique:
        EXPECT_EQ(head[0], 'M');
        EXPECT_EQ(tail[0], 'T');
        break;
      case kHpSetting:
        EXPECT_EQ(head[0], 'H');
        EXPECT_EQ(tail[0], 'V');
        break;
      default:
        FAIL();
    }
  }
}

TEST(KnowledgeGraphTest, TechniqueTableMatchesPaper) {
  EXPECT_EQ(TechniquesOfMethod("HOS").size(), 3u);
  EXPECT_EQ(TechniquesOfMethod("LMA").size(), 1u);
  EXPECT_TRUE(TechniquesOfMethod("Quantize").empty());
}

// --------------------------------------------------------------------------
// TransR

TEST(TransRTest, TrainingReducesLoss) {
  auto strategies = SmallStrategies();
  KnowledgeGraph g = KnowledgeGraph::Build(strategies);
  TransRConfig cfg;
  cfg.entity_dim = 16;
  cfg.relation_dim = 16;
  cfg.seed = 3;
  TransR transr(g.num_entities(), kNumRelations, cfg);
  Rng rng(4);
  double first = transr.TrainEpoch(g.triplets(), g.num_entities(), &rng);
  double last = first;
  for (int e = 0; e < 15; ++e) {
    last = transr.TrainEpoch(g.triplets(), g.num_entities(), &rng);
  }
  EXPECT_LT(last, first);
}

TEST(TransRTest, PositivesScoreBelowCorruptions) {
  auto strategies = SmallStrategies();
  KnowledgeGraph g = KnowledgeGraph::Build(strategies);
  TransRConfig cfg;
  cfg.entity_dim = 16;
  cfg.relation_dim = 16;
  cfg.seed = 3;
  TransR transr(g.num_entities(), kNumRelations, cfg);
  Rng rng(4);
  for (int e = 0; e < 20; ++e) {
    transr.TrainEpoch(g.triplets(), g.num_entities(), &rng);
  }
  // After training, true triplets should usually beat random corruptions.
  int wins = 0, total = 0;
  Rng neg_rng(9);
  for (const Triplet& t : g.triplets()) {
    Triplet corrupted = t;
    corrupted.tail = neg_rng.UniformInt(g.num_entities());
    if (corrupted.tail == t.tail) continue;
    ++total;
    if (transr.Score(t) < transr.Score(corrupted)) ++wins;
  }
  EXPECT_GT(static_cast<double>(wins) / total, 0.75);
}

// Test-only port of TransR training before its single-pass restructure:
// each pair is scored twice (once for the epoch loss, once for the hinge
// check), every SGD step re-projects its triplet with one row at a time,
// and W's rank-1 update runs column by column. Constructor init copied
// verbatim. TransR must reproduce it bit for bit.
class ReferenceTransR {
 public:
  ReferenceTransR(int64_t num_entities, int64_t num_relations,
                  TransRConfig config)
      : config_(config) {
    Rng rng(config.seed);
    float escale = 1.0f / std::sqrt(static_cast<float>(config.entity_dim));
    float rscale = 1.0f / std::sqrt(static_cast<float>(config.relation_dim));
    entities_ =
        tensor::Tensor::Randn({num_entities, config.entity_dim}, &rng, escale);
    relations_ = tensor::Tensor::Randn({num_relations, config.relation_dim},
                                       &rng, rscale);
    proj_ = tensor::Tensor::Randn(
        {num_relations, config.relation_dim * config.entity_dim}, &rng,
        escale);
    for (int64_t r = 0; r < num_relations; ++r) {
      for (int64_t i = 0; i < std::min(config.relation_dim, config.entity_dim);
           ++i) {
        proj_[r * config.relation_dim * config.entity_dim +
              i * config.entity_dim + i] += 1.0f;
      }
    }
  }

  double TrainEpoch(const std::vector<Triplet>& triplets, int64_t num_entities,
                    Rng* rng) {
    std::vector<size_t> order(triplets.size());
    std::iota(order.begin(), order.end(), 0);
    rng->Shuffle(&order);
    double total = 0.0;
    for (size_t idx : order) {
      const Triplet& pos = triplets[idx];
      Triplet neg = pos;
      if (rng->Bernoulli(0.5)) {
        neg.head = rng->UniformInt(num_entities);
      } else {
        neg.tail = rng->UniformInt(num_entities);
      }
      if (neg.head == neg.tail) ++aliased_negatives_;
      double loss = std::max(0.0, config_.margin + Score(pos) - Score(neg));
      total += loss;
      UpdatePair(pos, neg);
    }
    return total / static_cast<double>(triplets.size());
  }

  double Score(const Triplet& t) const {
    int64_t d = config_.entity_dim, k = config_.relation_dim;
    const float* w = proj_.data() + t.relation * k * d;
    const float* eh = entities_.data() + t.head * d;
    const float* et = entities_.data() + t.tail * d;
    const float* er = relations_.data() + t.relation * k;
    std::vector<float> ph(static_cast<size_t>(k)), pt(static_cast<size_t>(k));
    Project(w, eh, k, d, ph.data());
    Project(w, et, k, d, pt.data());
    double s = 0.0;
    for (int64_t i = 0; i < k; ++i) {
      double u = ph[static_cast<size_t>(i)] + er[i] - pt[static_cast<size_t>(i)];
      s += u * u;
    }
    return s;
  }

  tensor::Tensor EntityEmbedding(int64_t id) const {
    int64_t d = config_.entity_dim;
    tensor::Tensor out({d});
    const float* e = entities_.data() + id * d;
    std::copy(e, e + d, out.MutableData());
    return out;
  }

  int aliased_negatives() const { return aliased_negatives_; }

 private:
  static void Project(const float* w, const float* e, int64_t k, int64_t d,
                      float* out) {
    for (int64_t i = 0; i < k; ++i) {
      double s = 0.0;
      for (int64_t j = 0; j < d; ++j) {
        s += static_cast<double>(w[i * d + j]) * e[j];
      }
      out[i] = static_cast<float>(s);
    }
  }

  void RenormalizeEntity(int64_t id) {
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

  void UpdatePair(const Triplet& pos, const Triplet& neg) {
    double d_pos = Score(pos);
    double d_neg = Score(neg);
    double loss = config_.margin + d_pos - d_neg;
    if (loss <= 0.0) return;
    int64_t d = config_.entity_dim, k = config_.relation_dim;
    float lr = config_.lr;
    auto apply = [&](const Triplet& t, float sign) {
      float* w = proj_.MutableData() + t.relation * k * d;
      float* eh = entities_.MutableData() + t.head * d;
      float* et = entities_.MutableData() + t.tail * d;
      float* er = relations_.MutableData() + t.relation * k;
      std::vector<float> u(static_cast<size_t>(k));
      {
        std::vector<float> ph(static_cast<size_t>(k)),
            pt(static_cast<size_t>(k));
        Project(w, eh, k, d, ph.data());
        Project(w, et, k, d, pt.data());
        for (int64_t i = 0; i < k; ++i) {
          u[static_cast<size_t>(i)] =
              ph[static_cast<size_t>(i)] + er[i] - pt[static_cast<size_t>(i)];
        }
      }
      std::vector<float> wtu(static_cast<size_t>(d), 0.0f);
      for (int64_t i = 0; i < k; ++i) {
        float ui = u[static_cast<size_t>(i)];
        for (int64_t j = 0; j < d; ++j) {
          wtu[static_cast<size_t>(j)] += w[i * d + j] * ui;
        }
      }
      float step = 2.0f * lr * sign;
      for (int64_t j = 0; j < d; ++j) {
        float diff = eh[j] - et[j];
        eh[j] -= step * wtu[static_cast<size_t>(j)];
        et[j] += step * wtu[static_cast<size_t>(j)];
        for (int64_t i = 0; i < k; ++i) {
          w[i * d + j] -= step * u[static_cast<size_t>(i)] * diff;
        }
      }
      for (int64_t i = 0; i < k; ++i) er[i] -= step * u[static_cast<size_t>(i)];
    };
    apply(pos, +1.0f);
    apply(neg, -1.0f);
    RenormalizeEntity(pos.head);
    RenormalizeEntity(pos.tail);
    RenormalizeEntity(neg.head);
    RenormalizeEntity(neg.tail);
  }

  TransRConfig config_;
  tensor::Tensor entities_, relations_, proj_;
  int aliased_negatives_ = 0;
};

template <typename T>
bool SameBytes(const T& a, const T& b) {
  return std::memcmp(&a, &b, sizeof(T)) == 0;
}

// Trains TransR and the reference side by side for `epochs` and requires
// identical losses, entity embeddings and triplet scores, bytewise.
// Returns the number of negatives whose head equals their tail.
int ExpectMatchesReference(const std::vector<Triplet>& triplets,
                           int64_t num_entities, TransRConfig cfg,
                           int epochs) {
  TransR transr(num_entities, kNumRelations, cfg);
  ReferenceTransR ref(num_entities, kNumRelations, cfg);
  Rng rng_a(17), rng_b(17);
  for (int e = 0; e < epochs; ++e) {
    double la = transr.TrainEpoch(triplets, num_entities, &rng_a);
    double lb = ref.TrainEpoch(triplets, num_entities, &rng_b);
    EXPECT_TRUE(SameBytes(la, lb)) << "epoch " << e << ": " << la << " vs " << lb;
  }
  int64_t d = cfg.entity_dim;
  for (int64_t id = 0; id < num_entities; ++id) {
    tensor::Tensor a = transr.EntityEmbedding(id);
    tensor::Tensor b = ref.EntityEmbedding(id);
    EXPECT_EQ(0, std::memcmp(a.data(), b.data(),
                             static_cast<size_t>(d) * sizeof(float)))
        << "entity " << id;
  }
  for (const Triplet& t : triplets) {
    double a = transr.Score(t), b = ref.Score(t);
    EXPECT_TRUE(SameBytes(a, b)) << "triplet (" << t.head << ", " << t.relation
                                 << ", " << t.tail << "): " << a << " vs " << b;
  }
  return ref.aliased_negatives();
}

TEST(TransRTest, MatchesReferenceBytewiseOnFullTable1) {
  KnowledgeGraph g =
      KnowledgeGraph::Build(search::SearchSpace::FullTable1().strategies());
  ExpectMatchesReference(g.triplets(), g.num_entities(), TransRConfig{},
                         /*epochs=*/2);
}

// Negatives drawn from three entities often corrupt one side into the
// other (head == tail), where the entity update aliases one row; relation
// dims not a multiple of the projection's row block exercise its tail.
TEST(TransRTest, MatchesReferenceWhenNegativeHeadEqualsTail) {
  std::vector<Triplet> triplets = {{0, 0, 1}, {1, 1, 2}, {2, 0, 0}, {1, 2, 1}};
  TransRConfig cfg;
  cfg.entity_dim = 6;
  cfg.relation_dim = 7;
  int aliased = ExpectMatchesReference(triplets, /*num_entities=*/3, cfg,
                                       /*epochs=*/5);
  EXPECT_GT(aliased, 0);
}

TEST(TransRTest, EmbeddingRoundTrip) {
  TransRConfig cfg;
  cfg.entity_dim = 8;
  cfg.relation_dim = 8;
  TransR transr(10, kNumRelations, cfg);
  tensor::Tensor e({8});
  for (int64_t i = 0; i < 8; ++i) e[i] = 0.1f * static_cast<float>(i);
  transr.SetEntityEmbedding(3, e);
  tensor::Tensor back = transr.EntityEmbedding(3);
  for (int64_t i = 0; i < 8; ++i) EXPECT_FLOAT_EQ(back[i], e[i]);
}

// --------------------------------------------------------------------------
// Experience generation (real strategy executions on micro tasks)

TEST(ExperienceTest, GeneratesValidRecords) {
  auto strategies = SmallStrategies();
  ExperienceGenConfig cfg;
  cfg.num_tasks = 1;
  cfg.strategies_per_task = 4;
  cfg.pretrain_epochs = 1;
  cfg.batch_size = 16;
  cfg.seed = 7;
  auto records = GenerateExperience(strategies, cfg);
  ASSERT_TRUE(records.ok()) << records.status().ToString();
  ASSERT_FALSE(records->empty());
  for (const ExperienceRecord& r : *records) {
    EXPECT_LT(r.strategy_index, strategies.size());
    EXPECT_EQ(r.task_features.size(),
              static_cast<size_t>(data::kTaskFeatureDim));
    EXPECT_GT(r.pr, 0.0f);   // every strategy removes parameters
    EXPECT_GT(r.ar, -1.0f);  // AR is bounded below by -1
  }
}

TEST(ExperienceTest, RejectsEmptyStrategyList) {
  ExperienceGenConfig cfg;
  EXPECT_FALSE(GenerateExperience({}, cfg).ok());
}

// --------------------------------------------------------------------------
// Algorithm 1: joint embedding learning

class EmbeddingVariantTest
    : public ::testing::TestWithParam<std::tuple<bool, bool>> {};

TEST_P(EmbeddingVariantTest, LearnsEmbeddings) {
  auto [use_kg, use_exp] = GetParam();
  auto strategies = SmallStrategies();

  EmbeddingLearnerConfig cfg;
  cfg.train_epochs = 5;
  cfg.transr.entity_dim = 16;
  cfg.transr.relation_dim = 16;
  cfg.use_kg = use_kg;
  cfg.use_exp = use_exp;
  cfg.seed = 13;

  std::vector<ExperienceRecord> experience;
  if (use_exp) {
    ExperienceGenConfig xcfg;
    xcfg.num_tasks = 1;
    xcfg.strategies_per_task = 4;
    xcfg.pretrain_epochs = 1;
    xcfg.seed = 17;
    auto records = GenerateExperience(strategies, xcfg);
    ASSERT_TRUE(records.ok());
    experience = std::move(records).value();
  }

  StrategyEmbeddingLearner learner(strategies, cfg);
  ASSERT_TRUE(learner.Learn(experience).ok());
  EXPECT_EQ(learner.num_strategies(), strategies.size());
  // Embeddings exist, are finite, and are not all identical.
  const tensor::Tensor& e0 = learner.Embedding(0);
  const tensor::Tensor& e1 = learner.Embedding(strategies.size() - 1);
  EXPECT_EQ(e0.numel(), 16);
  double diff = 0.0;
  for (int64_t i = 0; i < e0.numel(); ++i) {
    EXPECT_TRUE(std::isfinite(e0[i]));
    diff += std::fabs(e0[i] - e1[i]);
  }
  EXPECT_GT(diff, 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Variants, EmbeddingVariantTest,
                         ::testing::Values(std::make_tuple(true, true),
                                           std::make_tuple(true, false),
                                           std::make_tuple(false, true)));

TEST(EmbeddingLearnerTest, UseExpRequiresExperience) {
  auto strategies = SmallStrategies();
  EmbeddingLearnerConfig cfg;
  cfg.use_exp = true;
  StrategyEmbeddingLearner learner(strategies, cfg);
  EXPECT_FALSE(learner.Learn({}).ok());
}

TEST(EmbeddingLearnerTest, ExperienceLossDecreases) {
  auto strategies = SmallStrategies();
  ExperienceGenConfig xcfg;
  xcfg.num_tasks = 1;
  xcfg.strategies_per_task = 6;
  xcfg.pretrain_epochs = 1;
  xcfg.seed = 19;
  auto records = GenerateExperience(strategies, xcfg);
  ASSERT_TRUE(records.ok());

  EmbeddingLearnerConfig short_cfg;
  short_cfg.train_epochs = 1;
  short_cfg.transr.entity_dim = 16;
  short_cfg.transr.relation_dim = 16;
  short_cfg.seed = 21;
  StrategyEmbeddingLearner short_learner(strategies, short_cfg);
  ASSERT_TRUE(short_learner.Learn(*records).ok());

  EmbeddingLearnerConfig long_cfg = short_cfg;
  long_cfg.train_epochs = 20;
  StrategyEmbeddingLearner long_learner(strategies, long_cfg);
  ASSERT_TRUE(long_learner.Learn(*records).ok());

  EXPECT_LT(long_learner.last_exp_loss(), short_learner.last_exp_loss());
}

TEST(EmbeddingLearnerTest, SameMethodStrategiesCluster) {
  // With KG training, strategies sharing a method should sit closer to each
  // other than strategies of different methods.
  std::vector<StrategySpec> strategies;
  auto ns = search::SearchSpace::SingleMethod("NS").strategies();
  auto sfp = search::SearchSpace::SingleMethod("SFP").strategies();
  strategies.insert(strategies.end(), ns.begin(), ns.end());
  strategies.insert(strategies.end(), sfp.begin(), sfp.end());

  EmbeddingLearnerConfig cfg;
  cfg.train_epochs = 30;
  cfg.transr.entity_dim = 16;
  cfg.transr.relation_dim = 16;
  cfg.use_exp = false;
  cfg.seed = 23;
  StrategyEmbeddingLearner learner(strategies, cfg);
  ASSERT_TRUE(learner.Learn({}).ok());

  auto dist = [&](size_t a, size_t b) {
    const tensor::Tensor& ea = learner.Embedding(a);
    const tensor::Tensor& eb = learner.Embedding(b);
    double d = 0.0;
    for (int64_t i = 0; i < ea.numel(); ++i) {
      d += (ea[i] - eb[i]) * (ea[i] - eb[i]);
    }
    return d;
  };
  // Average within-NS distance vs NS-to-SFP distance over fixed samples.
  double within = 0.0, across = 0.0;
  int count = 0;
  Rng rng(29);
  for (int k = 0; k < 200; ++k) {
    size_t a = static_cast<size_t>(rng.UniformInt(ns.size()));
    size_t b = static_cast<size_t>(rng.UniformInt(ns.size()));
    size_t c = ns.size() + static_cast<size_t>(rng.UniformInt(sfp.size()));
    if (a == b) continue;
    within += dist(a, b);
    across += dist(a, c);
    ++count;
  }
  EXPECT_LT(within / count, across / count);
}

}  // namespace
}  // namespace kg
}  // namespace automc
