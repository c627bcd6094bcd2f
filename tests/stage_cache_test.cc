// core::StageCache: a hit is bit-identical to a fresh computation, every
// input a stage reads is part of its key, each stage is an LRU bounded at
// kEntriesPerStage, and concurrent get-or-compute is safe.
#include "core/stage_cache.h"

#include <cstring>
#include <functional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/run_spec.h"
#include "gtest/gtest.h"
#include "nn/serialize.h"
#include "search/search_space.h"

namespace automc {
namespace core {
namespace {

CompressionTask TinyTask(uint64_t seed = 3) {
  RunSpec spec;
  spec.family = "vgg";
  spec.depth = 13;
  spec.dataset = "tiny";
  spec.pretrain = 1;
  spec.seed = seed;
  return MakeTask(spec);
}

kg::ExperienceGenConfig SmallExperienceConfig() {
  kg::ExperienceGenConfig cfg;
  cfg.num_tasks = 1;
  cfg.strategies_per_task = 3;
  cfg.pretrain_epochs = 1;
  cfg.seed = 9;
  return cfg;
}

kg::EmbeddingLearnerConfig SmallEmbeddingConfig() {
  kg::EmbeddingLearnerConfig cfg;
  cfg.train_epochs = 2;
  cfg.seed = 4;
  return cfg;
}

std::string ModelBytes(nn::Model* model) {
  std::ostringstream out;
  EXPECT_TRUE(nn::SerializeModel(model, &out).ok());
  return out.str();
}

std::string TensorBytes(const std::vector<tensor::Tensor>& ts) {
  std::string out;
  for (const tensor::Tensor& t : ts) {
    out.append(reinterpret_cast<const char*>(t.data()),
               static_cast<size_t>(t.numel()) * sizeof(float));
  }
  return out;
}

std::string RecordBytes(const std::vector<kg::ExperienceRecord>& records) {
  std::string out;
  for (const kg::ExperienceRecord& r : records) {
    out.append(reinterpret_cast<const char*>(&r.strategy_index),
               sizeof(r.strategy_index));
    out.append(reinterpret_cast<const char*>(r.task_features.data()),
               r.task_features.size() * sizeof(float));
    out.append(reinterpret_cast<const char*>(&r.ar), sizeof(r.ar));
    out.append(reinterpret_cast<const char*>(&r.pr), sizeof(r.pr));
  }
  return out;
}

TEST(StageCacheTest, HitsAreBitIdenticalToFreshComputation) {
  StageCache cache;
  const CompressionTask task = TinyTask();
  const search::SearchSpace space = search::SearchSpace::FullTable1();

  auto fresh_model = PretrainModel(task);
  ASSERT_TRUE(fresh_model.ok()) << fresh_model.status().ToString();
  const std::string want_model = ModelBytes(fresh_model->get());
  for (int i = 0; i < 2; ++i) {
    auto model = cache.PretrainModel(task);
    ASSERT_TRUE(model.ok()) << model.status().ToString();
    EXPECT_EQ(ModelBytes(model->get()), want_model) << "lookup " << i;
  }

  const kg::ExperienceGenConfig xcfg = SmallExperienceConfig();
  auto fresh_records = kg::GenerateExperience(space.strategies(), xcfg);
  ASSERT_TRUE(fresh_records.ok()) << fresh_records.status().ToString();
  ASSERT_FALSE(fresh_records->empty());
  for (int i = 0; i < 2; ++i) {
    auto records = cache.GenerateExperience(space, xcfg);
    ASSERT_TRUE(records.ok()) << records.status().ToString();
    EXPECT_EQ(RecordBytes(*records), RecordBytes(*fresh_records))
        << "lookup " << i;
  }

  const kg::EmbeddingLearnerConfig ecfg = SmallEmbeddingConfig();
  auto fresh_emb =
      kg::LearnStrategyEmbeddings(space.strategies(), ecfg, *fresh_records);
  ASSERT_TRUE(fresh_emb.ok()) << fresh_emb.status().ToString();
  ASSERT_EQ(fresh_emb->size(), space.size());
  for (int i = 0; i < 2; ++i) {
    auto emb = cache.LearnEmbeddings(space, ecfg, *fresh_records);
    ASSERT_TRUE(emb.ok()) << emb.status().ToString();
    EXPECT_EQ(TensorBytes(*emb), TensorBytes(*fresh_emb)) << "lookup " << i;
  }

  const StageCache::Stats stats = cache.stats();
  for (const StageCache::Counts& c :
       {stats.pretrain, stats.experience, stats.embeddings}) {
    EXPECT_EQ(c.misses, 1u);
    EXPECT_EQ(c.hits, 1u);
  }
}

// A hit hands out an independent copy: compressing or retraining it must
// not reach the cached entry.
TEST(StageCacheTest, HitsAreIndependentCopies) {
  StageCache cache;
  const CompressionTask task = TinyTask();
  auto first = cache.PretrainModel(task);
  ASSERT_TRUE(first.ok());
  const std::string want = ModelBytes(first->get());
  for (nn::Param* p : (*first)->Params()) p->value.Fill(0.5f);
  auto second = cache.PretrainModel(task);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(ModelBytes(second->get()), want);
}

// Every input PretrainModel reads changes the key; inputs it does not read
// (the test split, search-time settings) do not.
TEST(StageCacheTest, EveryPretrainInputIsKeyed) {
  const CompressionTask base = TinyTask();
  const Sha256Digest key = PretrainKey(base);
  using Task = CompressionTask;
  const std::vector<std::pair<const char*, std::function<void(Task*)>>>
      mutations = {
          {"family", [](Task* t) { t->model_spec.family = "resnet"; }},
          {"depth", [](Task* t) { t->model_spec.depth = 16; }},
          {"num_classes", [](Task* t) { t->model_spec.num_classes++; }},
          {"base_width", [](Task* t) { t->model_spec.base_width++; }},
          {"in_channels", [](Task* t) { t->model_spec.in_channels++; }},
          {"image_size", [](Task* t) { t->model_spec.image_size++; }},
          {"base_train_epochs", [](Task* t) { t->base_train_epochs++; }},
          {"pretrain_epochs (when base_train_epochs is 0)",
           [](Task* t) {
             t->pretrain_epochs = t->base_train_epochs + 1;
             t->base_train_epochs = 0;
           }},
          {"batch_size", [](Task* t) { t->batch_size++; }},
          {"lr", [](Task* t) { t->lr *= 2.0f; }},
          {"lr_decay", [](Task* t) { t->lr_decay = 0.9f; }},
          {"seed", [](Task* t) { t->seed++; }},
          {"train num_classes",
           [](Task* t) { t->data.train.num_classes++; }},
          {"one image value",
           [](Task* t) { t->data.train.images[7] += 1.0f; }},
          {"one label",
           [](Task* t) {
             t->data.train.labels[0] = (t->data.train.labels[0] + 1) % 3;
           }},
          {"image shape (same bytes)",
           [](Task* t) {
             data::Dataset& d = t->data.train;
             d.images = d.images.Reshaped(
                 {d.Size() * d.Channels(), 1, d.Height(), d.Width()});
           }},
      };
  for (const auto& [name, mutate] : mutations) {
    Task t = base;
    mutate(&t);
    EXPECT_NE(PretrainKey(t), key) << name << " is not part of the key";
  }

  CompressionTask unread = base;
  unread.data.test.images[0] += 1.0f;
  unread.search_data_fraction = 0.5;
  unread.finetune_lr = 0.123f;
  EXPECT_EQ(PretrainKey(unread), key);
  // Same resolved epoch count, same key.
  CompressionTask resolved = base;
  resolved.pretrain_epochs = resolved.base_train_epochs;
  resolved.base_train_epochs = 0;
  EXPECT_EQ(PretrainKey(resolved), key);

  // And through the cache: a changed input misses.
  StageCache cache;
  ASSERT_TRUE(cache.PretrainModel(base).ok());
  CompressionTask reseeded = base;
  reseeded.seed++;
  ASSERT_TRUE(cache.PretrainModel(reseeded).ok());
  EXPECT_EQ(cache.stats().pretrain.misses, 2u);
  EXPECT_EQ(cache.stats().pretrain.hits, 0u);
}

TEST(StageCacheTest, EveryExperienceInputIsKeyed) {
  const search::SearchSpace space = search::SearchSpace::FullTable1();
  const kg::ExperienceGenConfig base = SmallExperienceConfig();
  const Sha256Digest key = ExperienceKey(space, base);
  const std::vector<std::pair<const char*,
                              std::function<void(kg::ExperienceGenConfig*)>>>
      mutations = {
          {"num_tasks", [](kg::ExperienceGenConfig* c) { c->num_tasks++; }},
          {"strategies_per_task",
           [](kg::ExperienceGenConfig* c) { c->strategies_per_task++; }},
          {"pretrain_epochs",
           [](kg::ExperienceGenConfig* c) { c->pretrain_epochs++; }},
          {"batch_size", [](kg::ExperienceGenConfig* c) { c->batch_size++; }},
          {"seed", [](kg::ExperienceGenConfig* c) { c->seed++; }},
      };
  for (const auto& [name, mutate] : mutations) {
    kg::ExperienceGenConfig c = base;
    mutate(&c);
    EXPECT_NE(ExperienceKey(space, c), key) << name;
  }
  EXPECT_NE(ExperienceKey(search::SearchSpace::SingleMethod("LeGR"), base),
            key)
      << "the strategy table is not part of the key";
}

TEST(StageCacheTest, EveryEmbeddingInputIsKeyed) {
  const search::SearchSpace space = search::SearchSpace::FullTable1();
  const kg::EmbeddingLearnerConfig base = SmallEmbeddingConfig();
  std::vector<kg::ExperienceRecord> records(2);
  for (size_t i = 0; i < records.size(); ++i) {
    records[i].strategy_index = i;
    records[i].task_features.assign(data::kTaskFeatureDim, 0.25f);
    records[i].ar = -0.1f;
    records[i].pr = 0.4f;
  }
  const Sha256Digest key = EmbeddingsKey(space, base, records);
  using Cfg = kg::EmbeddingLearnerConfig;
  const std::vector<std::pair<const char*, std::function<void(Cfg*)>>>
      mutations = {
          {"train_epochs", [](Cfg* c) { c->train_epochs++; }},
          {"transr.entity_dim", [](Cfg* c) { c->transr.entity_dim++; }},
          {"transr.relation_dim", [](Cfg* c) { c->transr.relation_dim++; }},
          {"transr.margin", [](Cfg* c) { c->transr.margin *= 2.0f; }},
          {"transr.lr", [](Cfg* c) { c->transr.lr *= 2.0f; }},
          {"transr.seed", [](Cfg* c) { c->transr.seed++; }},
          {"exp_lr", [](Cfg* c) { c->exp_lr *= 2.0f; }},
          {"emb_lr", [](Cfg* c) { c->emb_lr *= 2.0f; }},
          {"use_kg", [](Cfg* c) { c->use_kg = !c->use_kg; }},
          {"use_exp", [](Cfg* c) { c->use_exp = !c->use_exp; }},
          {"seed", [](Cfg* c) { c->seed++; }},
      };
  for (const auto& [name, mutate] : mutations) {
    Cfg c = base;
    mutate(&c);
    EXPECT_NE(EmbeddingsKey(space, c, records), key) << name;
  }
  EXPECT_NE(EmbeddingsKey(search::SearchSpace::SingleMethod("LeGR"), base,
                          records),
            key);
  using Records = std::vector<kg::ExperienceRecord>;
  const std::vector<std::pair<const char*, std::function<void(Records*)>>>
      record_mutations = {
          {"strategy_index", [](Records* r) { (*r)[1].strategy_index = 5; }},
          {"task feature",
           [](Records* r) { (*r)[0].task_features[6] = 1.0f; }},
          {"ar", [](Records* r) { (*r)[1].ar = 0.0f; }},
          {"pr", [](Records* r) { (*r)[0].pr = 0.5f; }},
          {"order", [](Records* r) { std::swap((*r)[0], (*r)[1]); }},
          {"one record fewer", [](Records* r) { r->pop_back(); }},
      };
  for (const auto& [name, mutate] : record_mutations) {
    Records r = records;
    mutate(&r);
    EXPECT_NE(EmbeddingsKey(space, base, r), key) << name;
  }
}

// A resumed or warm job that imports one more record from its experience
// store must not be served the embeddings learned without it.
TEST(StageCacheTest, OneImportedRecordMisses) {
  StageCache cache;
  const search::SearchSpace space = search::SearchSpace::FullTable1();
  const kg::EmbeddingLearnerConfig ecfg = SmallEmbeddingConfig();
  auto generated = cache.GenerateExperience(space, SmallExperienceConfig());
  ASSERT_TRUE(generated.ok()) << generated.status().ToString();
  std::vector<kg::ExperienceRecord> with_import = *generated;
  kg::ExperienceRecord imported;
  imported.strategy_index = 1;
  imported.task_features.assign(data::kTaskFeatureDim, 0.5f);
  imported.ar = -0.05f;
  imported.pr = 0.3f;
  with_import.push_back(imported);

  auto plain = cache.LearnEmbeddings(space, ecfg, *generated);
  auto extended = cache.LearnEmbeddings(space, ecfg, with_import);
  ASSERT_TRUE(plain.ok() && extended.ok());
  EXPECT_EQ(cache.stats().embeddings.misses, 2u);
  EXPECT_EQ(cache.stats().embeddings.hits, 0u);
  EXPECT_NE(TensorBytes(*plain), TensorBytes(*extended));

  auto fresh =
      kg::LearnStrategyEmbeddings(space.strategies(), ecfg, with_import);
  ASSERT_TRUE(fresh.ok());
  auto again = cache.LearnEmbeddings(space, ecfg, with_import);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(cache.stats().embeddings.hits, 1u);
  EXPECT_EQ(TensorBytes(*again), TensorBytes(*fresh));
}

TEST(StageCacheTest, LruEvictsTheLeastRecentAtTheBound) {
  StageCache cache;
  constexpr uint64_t kBound = StageCache::kEntriesPerStage;
  for (uint64_t seed = 0; seed < kBound; ++seed) {
    ASSERT_TRUE(cache.PretrainModel(TinyTask(seed)).ok());
  }
  // Touch seed 0 so seed 1 becomes the least recent, then overflow by one.
  ASSERT_TRUE(cache.PretrainModel(TinyTask(0)).ok());
  ASSERT_TRUE(cache.PretrainModel(TinyTask(kBound)).ok());
  EXPECT_EQ(cache.stats().pretrain.misses, kBound + 1);
  EXPECT_EQ(cache.stats().pretrain.hits, 1u);

  // Everything but seed 1 is still resident.
  for (uint64_t seed : {uint64_t{0}, uint64_t{2}, kBound}) {
    ASSERT_TRUE(cache.PretrainModel(TinyTask(seed)).ok());
  }
  EXPECT_EQ(cache.stats().pretrain.hits, 4u);
  EXPECT_EQ(cache.stats().pretrain.misses, kBound + 1);
  ASSERT_TRUE(cache.PretrainModel(TinyTask(1)).ok());
  EXPECT_EQ(cache.stats().pretrain.misses, kBound + 2);
}

TEST(StageCacheTest, ConcurrentGetOrComputeIsSafeAndExact) {
  constexpr int kThreads = 4;
  constexpr int kLookups = 6;
  constexpr uint64_t kSeeds = 3;
  std::vector<CompressionTask> tasks;
  std::vector<std::string> want;
  for (uint64_t seed = 0; seed < kSeeds; ++seed) {
    tasks.push_back(TinyTask(seed + 20));
    auto model = PretrainModel(tasks.back());
    ASSERT_TRUE(model.ok());
    want.push_back(ModelBytes(model->get()));
  }

  StageCache cache;
  std::vector<int> mismatches(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kLookups; ++i) {
        const size_t s = static_cast<size_t>(t + i) % kSeeds;
        auto model = cache.PretrainModel(tasks[s]);
        if (!model.ok() || ModelBytes(model->get()) != want[s]) {
          ++mismatches[static_cast<size_t>(t)];
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(mismatches[t], 0) << t;
  const StageCache::Counts c = cache.stats().pretrain;
  EXPECT_EQ(c.hits + c.misses, static_cast<uint64_t>(kThreads * kLookups));
  EXPECT_GE(c.misses, kSeeds);
  EXPECT_GT(c.hits, 0u);
}

}  // namespace
}  // namespace core
}  // namespace automc
