#include "core/automc.h"

#include <algorithm>
#include <cmath>

#include "common/bytes.h"
#include "common/logging.h"
#include "core/stage_cache.h"
#include "nn/trainer.h"
#include "search/rl.h"

namespace automc {
namespace core {

Result<std::unique_ptr<nn::Model>> PretrainModel(const CompressionTask& task) {
  Rng rng(task.seed);
  AUTOMC_ASSIGN_OR_RETURN(std::unique_ptr<nn::Model> model,
                          nn::BuildModel(task.model_spec, &rng));
  nn::TrainConfig tc;
  tc.epochs = task.base_train_epochs > 0 ? task.base_train_epochs
                                         : task.pretrain_epochs;
  tc.batch_size = task.batch_size;
  tc.lr = task.lr;
  tc.lr_decay = task.lr_decay;
  tc.seed = task.seed + 1;
  nn::Trainer trainer(tc);
  AUTOMC_RETURN_IF_ERROR(trainer.Fit(model.get(), task.data.train));
  return model;
}

Result<search::EvalPoint> ExecuteScheme(
    const search::SearchSpace& space, const std::vector<int>& scheme,
    nn::Model* model, const compress::CompressionContext& ctx) {
  if (model == nullptr) return Status::InvalidArgument("model is null");
  search::EvalPoint before;
  before.acc = nn::Trainer::Evaluate(model, *ctx.test);
  before.params = model->EffectiveParamCount();
  before.flops = model->FlopsPerSample();

  for (size_t i = 0; i < scheme.size(); ++i) {
    int idx = scheme[i];
    if (idx < 0 || static_cast<size_t>(idx) >= space.size()) {
      return Status::OutOfRange("strategy index out of range");
    }
    AUTOMC_ASSIGN_OR_RETURN(
        std::unique_ptr<compress::Compressor> compressor,
        compress::CreateCompressor(space.strategy(static_cast<size_t>(idx))));
    compress::CompressionContext step_ctx = ctx;
    step_ctx.seed = ctx.seed + 31 * i + static_cast<uint64_t>(idx);
    Status st = compressor->Compress(model, step_ctx, nullptr);
    if (st.code() == StatusCode::kFailedPrecondition) {
      // Inapplicable to the current model state (e.g. transferred scheme
      // prunes a structure this model no longer has): skip the step.
      AUTOMC_LOG(Warning) << "scheme step " << i << " inapplicable: "
                          << st.ToString();
    } else if (!st.ok()) {
      return st;
    }
  }

  search::EvalPoint after;
  after.acc = nn::Trainer::Evaluate(model, *ctx.test);
  after.params = model->EffectiveParamCount();
  after.flops = model->FlopsPerSample();
  after.ar = before.acc > 0 ? after.acc / before.acc - 1.0 : 0.0;
  after.pr = before.params > 0
                 ? 1.0 - static_cast<double>(after.params) / before.params
                 : 0.0;
  after.fr = before.flops > 0
                 ? 1.0 - static_cast<double>(after.flops) / before.flops
                 : 0.0;
  return after;
}

search::SearchSpace AutoMC::MakeSearchSpace() const {
  return options_.multi_source ? search::SearchSpace::FullTable1()
                               : search::SearchSpace::SingleMethod("LeGR");
}

Result<AutoMCResult> AutoMC::Run(const CompressionTask& task) {
  AutoMCResult result;
  search::SearchSpace space = MakeSearchSpace();
  AUTOMC_LOG(Info) << "AutoMC search space: " << space.size() << " strategies";

  // 1. Pretrain the base model on the full training split.
  StageCache* cache = options_.stage_cache;
  AUTOMC_ASSIGN_OR_RETURN(
      std::unique_ptr<nn::Model> base,
      cache != nullptr ? cache->PretrainModel(task) : PretrainModel(task));
  result.base_model = std::shared_ptr<nn::Model>(std::move(base));
  result.base_accuracy =
      nn::Trainer::Evaluate(result.base_model.get(), task.data.test);

  // 2. Learn strategy embeddings (Algorithm 1) from the knowledge graph and
  //    measured experience. Skipped entirely for the RL ablation, which has
  //    its own action embeddings.
  kg::EmbeddingLearnerConfig ecfg = options_.embedding;
  ecfg.use_kg = options_.use_kg;
  ecfg.use_exp = options_.use_exp;
  ecfg.seed = options_.seed + 2;

  std::vector<tensor::Tensor> embeddings;
  std::vector<kg::ExperienceRecord> experience;
  if (options_.use_progressive) {
    if (options_.use_exp) {
      kg::ExperienceGenConfig xcfg = options_.experience;
      xcfg.seed = options_.seed + 3;
      AUTOMC_ASSIGN_OR_RETURN(
          experience, cache != nullptr
                          ? cache->GenerateExperience(space, xcfg)
                          : kg::GenerateExperience(space.strategies(), xcfg));
      AUTOMC_LOG(Info) << "generated " << experience.size()
                       << " experience records";
    }
    // Accumulated search experience from earlier runs: every record the
    // store held when it was opened becomes an extra NN_exp training pair.
    // The cutoff is pinned in the checkpoint (sticky section) so a resumed
    // run exports exactly the set its crashed original saw — records the
    // crashed run appended must not alter the embeddings it learned.
    if (options_.use_exp && options_.experience_store != nullptr) {
      uint64_t export_limit =
          static_cast<uint64_t>(options_.experience_store->loaded_size());
      if (options_.checkpointer != nullptr) {
        auto it = options_.checkpointer->pending().find("kg_export_limit");
        if (it != options_.checkpointer->pending().end()) {
          ByteReader r(it->second);
          uint64_t pinned = 0;
          if (!r.U64(&pinned)) {
            return Status::InvalidArgument(
                "corrupted kg_export_limit checkpoint section");
          }
          export_limit = pinned;
        }
        ByteWriter w;
        w.U64(export_limit);
        options_.checkpointer->SetStickySection("kg_export_limit", w.Take());
      }
      if (export_limit > 0) {
        std::vector<store::ExperienceStep> steps =
            options_.experience_store->ExportSteps(
                search::SchemeEvaluator::SpaceFingerprint(space),
                export_limit);
        for (const store::ExperienceStep& step : steps) {
          kg::ExperienceRecord rec;
          rec.strategy_index = static_cast<size_t>(step.strategy);
          rec.task_features = step.task_features;
          rec.ar = step.ar_step;
          rec.pr = step.pr_step;
          experience.push_back(std::move(rec));
        }
        AUTOMC_LOG(Info) << "imported " << steps.size()
                         << " experience steps from the store";
      }
    }
    AUTOMC_ASSIGN_OR_RETURN(
        embeddings,
        cache != nullptr
            ? cache->LearnEmbeddings(space, ecfg, experience)
            : kg::LearnStrategyEmbeddings(space.strategies(), ecfg,
                                          experience));
  }

  // 3. Search on a subsample of the training data (10% in the paper).
  Rng sub_rng(options_.seed + 4);
  data::Dataset search_train =
      task.search_data_fraction < 1.0
          ? task.data.train.Subsample(task.search_data_fraction, &sub_rng)
          : task.data.train;

  compress::CompressionContext ctx;
  ctx.train = &search_train;
  ctx.test = &task.data.test;
  // The search subsample is much smaller than the full split; scale the
  // epoch base so strategies' fine-tuning sees a comparable number of
  // gradient steps during search and at deployment.
  ctx.pretrain_epochs = static_cast<int>(std::max(
      1.0, 0.5 * task.pretrain_epochs /
               std::max(0.1, task.search_data_fraction)));
  ctx.batch_size = task.batch_size;
  ctx.lr = task.FinetuneLr();
  ctx.seed = options_.seed + 5;

  search::SchemeEvaluator evaluator(&space, result.base_model.get(), ctx,
                                    search::SchemeEvaluator::Options{});

  // 7-dim task descriptor of this run: fed to F_mo and attached to every
  // record this run appends to the store (future runs train NN_exp on them).
  std::vector<float> feats = data::TaskFeatureVector(
      search_train, result.base_model->ParamCount(),
      result.base_model->FlopsPerSample(), evaluator.base_point().acc);

  if (options_.experience_store != nullptr) {
    AUTOMC_RETURN_IF_ERROR(evaluator.AttachStore(options_.experience_store));
    options_.experience_store->set_task_features(feats);
  }

  std::unique_ptr<search::Searcher> searcher;
  if (options_.use_progressive) {
    tensor::Tensor task_features({data::kTaskFeatureDim});
    for (int i = 0; i < data::kTaskFeatureDim; ++i) {
      task_features[i] = feats[static_cast<size_t>(i)];
    }
    // Warm-start F_mo from the measured experience: each record is a
    // one-step transition (empty prefix -> strategy) with its observed
    // AR/PR, exactly F_mo's training signal.
    std::vector<search::FmoExample> warm_start;
    for (const kg::ExperienceRecord& rec : experience) {
      search::FmoExample ex;
      ex.candidate = embeddings[rec.strategy_index];
      ex.task = tensor::Tensor({data::kTaskFeatureDim});
      for (int i = 0; i < data::kTaskFeatureDim; ++i) {
        ex.task[i] = rec.task_features[static_cast<size_t>(i)];
      }
      ex.ar_step = rec.ar;
      ex.pr_step = rec.pr;
      warm_start.push_back(std::move(ex));
    }
    auto progressive = std::make_unique<search::ProgressiveSearcher>(
        std::move(embeddings), std::move(task_features), options_.progressive);
    progressive->set_warm_start(std::move(warm_start));
    searcher = std::move(progressive);
  } else {
    searcher = std::make_unique<search::RlSearcher>();
  }

  search::SearchConfig scfg = options_.search;
  scfg.seed = options_.seed + 6;
  scfg.checkpointer = options_.checkpointer;
  AUTOMC_ASSIGN_OR_RETURN(result.outcome,
                          searcher->Search(&evaluator, space, scfg));

  for (const auto& scheme : result.outcome.pareto_schemes) {
    result.pareto_descriptions.push_back(space.SchemeToString(scheme));
  }
  return result;
}

}  // namespace core
}  // namespace automc
