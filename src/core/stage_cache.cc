#include "core/stage_cache.h"

#include <string>
#include <utility>

#include "common/bytes.h"
#include "common/metrics.h"
#include "search/evaluator.h"

namespace automc {
namespace core {

namespace {

void WriteTensor(const tensor::Tensor& t, ByteWriter* w) {
  w->U32(static_cast<uint32_t>(t.dim()));
  for (int64_t extent : t.shape()) w->I64(extent);
  w->Floats(t.data(), static_cast<size_t>(t.numel()));
}

}  // namespace

Sha256Digest PretrainKey(const CompressionTask& task) {
  ByteWriter w;
  w.Str("pretrain");
  const nn::ModelSpec& spec = task.model_spec;
  w.Str(spec.family);
  w.I32(spec.depth);
  w.I32(spec.num_classes);
  w.I32(spec.base_width);
  w.I32(spec.in_channels);
  w.I32(spec.image_size);
  // The settings PretrainModel reads, epochs resolved the way it does.
  w.I32(task.base_train_epochs > 0 ? task.base_train_epochs
                                   : task.pretrain_epochs);
  w.I32(task.batch_size);
  w.F32(task.lr);
  w.F32(task.lr_decay);
  w.U64(task.seed);
  const data::Dataset& train = task.data.train;
  w.I32(train.num_classes);
  WriteTensor(train.images, &w);
  w.Ints(train.labels);
  return Sha256::Hash(w.str());
}

Sha256Digest ExperienceKey(const search::SearchSpace& space,
                           const kg::ExperienceGenConfig& config) {
  ByteWriter w;
  w.Str("experience");
  w.U64(search::SchemeEvaluator::SpaceFingerprint(space));
  w.I32(config.num_tasks);
  w.I32(config.strategies_per_task);
  w.I32(config.pretrain_epochs);
  w.I32(config.batch_size);
  w.U64(config.seed);
  return Sha256::Hash(w.str());
}

Sha256Digest EmbeddingsKey(
    const search::SearchSpace& space, const kg::EmbeddingLearnerConfig& config,
    const std::vector<kg::ExperienceRecord>& experience) {
  ByteWriter w;
  w.Str("embeddings");
  w.U64(search::SchemeEvaluator::SpaceFingerprint(space));
  w.I32(config.train_epochs);
  w.I64(config.transr.entity_dim);
  w.I64(config.transr.relation_dim);
  w.F32(config.transr.margin);
  w.F32(config.transr.lr);
  w.U64(config.transr.seed);
  w.F32(config.exp_lr);
  w.F32(config.emb_lr);
  w.U32(config.use_kg ? 1 : 0);
  w.U32(config.use_exp ? 1 : 0);
  w.U64(config.seed);
  w.U64(experience.size());
  for (const kg::ExperienceRecord& rec : experience) {
    w.U64(rec.strategy_index);
    w.Floats(rec.task_features.data(), rec.task_features.size());
    w.F32(rec.ar);
    w.F32(rec.pr);
  }
  return Sha256::Hash(w.str());
}

template <typename T, typename Compute>
Result<std::shared_ptr<const T>> StageCache::GetOrCompute(
    Lru<T>* stage, Counts* counts, [[maybe_unused]] const char* name,
    const Sha256Digest& key, Compute compute) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto it = stage->begin(); it != stage->end(); ++it) {
      if (it->first != key) continue;
      stage->splice(stage->begin(), *stage, it);
      ++counts->hits;
      AUTOMC_METRIC_COUNT(std::string("core.stage_cache.") + name + ".hits");
      return stage->front().second;
    }
    ++counts->misses;
    AUTOMC_METRIC_COUNT(std::string("core.stage_cache.") + name + ".misses");
  }
  AUTOMC_ASSIGN_OR_RETURN(T computed, compute());
  auto value = std::make_shared<const T>(std::move(computed));
  std::lock_guard<std::mutex> lock(mu_);
  for (auto it = stage->begin(); it != stage->end(); ++it) {
    if (it->first == key) {  // a concurrent miss got here first
      stage->erase(it);
      break;
    }
  }
  stage->emplace_front(key, value);
  if (stage->size() > kEntriesPerStage) stage->pop_back();
  return value;
}

Result<std::unique_ptr<nn::Model>> StageCache::PretrainModel(
    const CompressionTask& task) {
  AUTOMC_ASSIGN_OR_RETURN(
      std::shared_ptr<const std::unique_ptr<nn::Model>> model,
      GetOrCompute(&pretrain_, &stats_.pretrain, "pretrain",
                   PretrainKey(task),
                   [&] { return core::PretrainModel(task); }));
  return (*model)->Clone();
}

Result<std::vector<kg::ExperienceRecord>> StageCache::GenerateExperience(
    const search::SearchSpace& space, const kg::ExperienceGenConfig& config) {
  AUTOMC_ASSIGN_OR_RETURN(
      std::shared_ptr<const std::vector<kg::ExperienceRecord>> records,
      GetOrCompute(&experience_, &stats_.experience, "experience",
                   ExperienceKey(space, config), [&] {
                     return kg::GenerateExperience(space.strategies(), config);
                   }));
  return *records;
}

Result<std::vector<tensor::Tensor>> StageCache::LearnEmbeddings(
    const search::SearchSpace& space, const kg::EmbeddingLearnerConfig& config,
    const std::vector<kg::ExperienceRecord>& experience) {
  AUTOMC_ASSIGN_OR_RETURN(
      std::shared_ptr<const std::vector<tensor::Tensor>> embeddings,
      GetOrCompute(&embeddings_, &stats_.embeddings, "embeddings",
                   EmbeddingsKey(space, config, experience), [&] {
                     return kg::LearnStrategyEmbeddings(space.strategies(),
                                                        config, experience);
                   }));
  return *embeddings;
}

StageCache::Stats StageCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace core
}  // namespace automc
