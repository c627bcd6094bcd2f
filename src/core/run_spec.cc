#include "core/run_spec.h"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "core/stage_cache.h"
#include "data/dataset.h"
#include "nn/trainer.h"
#include "search/evolutionary.h"
#include "search/random_search.h"
#include "search/rl.h"
#include "store/experience_store.h"

namespace automc {
namespace core {

namespace {

constexpr uint32_t kRunSpecVersion = 1;

bool OneOf(const std::string& v, std::initializer_list<const char*> allowed) {
  for (const char* a : allowed) {
    if (v == a) return true;
  }
  return false;
}

}  // namespace

Status ValidateRunSpec(const RunSpec& spec) {
  if (!OneOf(spec.family, {"resnet", "vgg"})) {
    return Status::InvalidArgument("unknown model family: " + spec.family);
  }
  if (!OneOf(spec.dataset, {"c10", "c100", "tiny"})) {
    return Status::InvalidArgument("unknown dataset: " + spec.dataset);
  }
  if (!OneOf(spec.searcher, {"automc", "random", "evolution", "rl"})) {
    return Status::InvalidArgument("unknown searcher: " + spec.searcher);
  }
  if (spec.depth < 1 || spec.depth > 200) {
    return Status::InvalidArgument("depth out of range: " +
                                   std::to_string(spec.depth));
  }
  if (spec.budget < 1) {
    return Status::InvalidArgument("budget must be >= 1");
  }
  if (spec.eval_batch < 0) {
    return Status::InvalidArgument("eval_batch must be >= 0");
  }
  if (spec.pretrain < 0) {
    return Status::InvalidArgument("pretrain must be >= 0");
  }
  if (spec.gamma < 0.0 || spec.gamma >= 1.0) {
    return Status::InvalidArgument("gamma must be in [0, 1)");
  }
  return Status::OK();
}

std::string RunSpecSummary(const RunSpec& spec) {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "%s %s-%d %s gamma=%.2f budget=%d seed=%llu",
                spec.searcher.c_str(), spec.family.c_str(), spec.depth,
                spec.dataset.c_str(), spec.gamma, spec.budget,
                static_cast<unsigned long long>(spec.seed));
  return buf;
}

void EncodeRunSpec(const RunSpec& spec, ByteWriter* w) {
  w->U32(kRunSpecVersion);
  w->Str(spec.family);
  w->I32(spec.depth);
  w->Str(spec.dataset);
  w->F64(spec.gamma);
  w->I32(spec.budget);
  w->I32(spec.eval_batch);
  w->Str(spec.searcher);
  w->I32(spec.pretrain);
  w->U64(spec.seed);
}

bool DecodeRunSpec(ByteReader* r, RunSpec* spec) {
  uint32_t version = 0;
  if (!r->U32(&version) || version != kRunSpecVersion) return false;
  return r->Str(&spec->family) && r->I32(&spec->depth) &&
         r->Str(&spec->dataset) && r->F64(&spec->gamma) &&
         r->I32(&spec->budget) && r->I32(&spec->eval_batch) &&
         r->Str(&spec->searcher) && r->I32(&spec->pretrain) &&
         r->U64(&spec->seed);
}

CompressionTask MakeTask(const RunSpec& spec) {
  CompressionTask task;
  if (spec.dataset == "tiny") {
    data::SyntheticTaskConfig cfg;
    cfg.num_classes = 3;
    cfg.train_per_class = 12;
    cfg.test_per_class = 4;
    cfg.seed = spec.seed;
    task.data = data::MakeSyntheticTask(cfg);
  } else if (spec.dataset == "c100") {
    task.data = data::MakeCifar100Like(spec.seed);
  } else {
    task.data = data::MakeCifar10Like(spec.seed);
  }
  task.model_spec.family = spec.family;
  task.model_spec.depth = spec.depth;
  task.model_spec.base_width = 4;  // CLI synthetic-data width
  task.model_spec.num_classes = task.data.train.num_classes;
  task.pretrain_epochs = 4;
  task.base_train_epochs = spec.pretrain;
  task.search_data_fraction = 0.25;
  task.seed = spec.seed;
  return task;
}

Result<AutoMCResult> RunSearch(const RunSpec& spec,
                               const CompressionTask& task,
                               const RunHooks& hooks) {
  AUTOMC_RETURN_IF_ERROR(ValidateRunSpec(spec));

  if (spec.searcher == "automc") {
    AutoMCOptions opts;
    opts.search.max_strategy_executions = spec.budget;
    opts.search.gamma = spec.gamma;
    if (spec.eval_batch >= 1) opts.search.eval_batch = spec.eval_batch;
    opts.search.stop = hooks.stop;
    opts.embedding.train_epochs = 8;
    opts.experience.num_tasks = 1;
    opts.experience.strategies_per_task = 10;
    opts.seed = spec.seed;
    opts.experience_store = hooks.store;
    opts.checkpointer = hooks.checkpointer;
    opts.stage_cache = hooks.stage_cache;
    AutoMC automc(opts);
    return automc.Run(task);
  }

  AutoMCResult result;
  AUTOMC_ASSIGN_OR_RETURN(std::unique_ptr<nn::Model> pretrained,
                          hooks.stage_cache != nullptr
                              ? hooks.stage_cache->PretrainModel(task)
                              : PretrainModel(task));
  result.base_model = std::shared_ptr<nn::Model>(std::move(pretrained));
  result.base_accuracy =
      nn::Trainer::Evaluate(result.base_model.get(), task.data.test);

  search::SearchSpace space = search::SearchSpace::FullTable1();
  Rng sub_rng(spec.seed + 4);
  data::Dataset search_train =
      task.data.train.Subsample(task.search_data_fraction, &sub_rng);
  compress::CompressionContext ctx;
  ctx.train = &search_train;
  ctx.test = &task.data.test;
  ctx.pretrain_epochs = task.pretrain_epochs;
  ctx.batch_size = task.batch_size;
  ctx.lr = task.lr;
  ctx.seed = spec.seed + 5;
  search::SchemeEvaluator evaluator(&space, result.base_model.get(), ctx, {});
  if (hooks.store != nullptr) {
    AUTOMC_RETURN_IF_ERROR(evaluator.AttachStore(hooks.store));
    hooks.store->set_task_features(data::TaskFeatureVector(
        search_train, result.base_model->ParamCount(),
        result.base_model->FlopsPerSample(), evaluator.base_point().acc));
  }

  std::unique_ptr<search::Searcher> searcher;
  if (spec.searcher == "random") {
    searcher = std::make_unique<search::RandomSearcher>();
  } else if (spec.searcher == "evolution") {
    searcher = std::make_unique<search::EvolutionarySearcher>();
  } else {
    searcher = std::make_unique<search::RlSearcher>();
  }
  search::SearchConfig scfg;
  scfg.max_strategy_executions = spec.budget;
  scfg.gamma = spec.gamma;
  scfg.seed = spec.seed + 6;
  if (spec.eval_batch >= 1) scfg.eval_batch = spec.eval_batch;
  scfg.checkpointer = hooks.checkpointer;
  scfg.stop = hooks.stop;
  AUTOMC_ASSIGN_OR_RETURN(result.outcome,
                          searcher->Search(&evaluator, space, scfg));
  for (const auto& scheme : result.outcome.pareto_schemes) {
    result.pareto_descriptions.push_back(space.SchemeToString(scheme));
  }
  return result;
}

Result<AutoMCResult> RunSearch(const RunSpec& spec, const RunHooks& hooks) {
  return RunSearch(spec, MakeTask(spec), hooks);
}

std::string SchemeIndicesToString(const std::vector<int>& scheme) {
  std::string out;
  for (size_t i = 0; i < scheme.size(); ++i) {
    if (i > 0) out += ',';
    out += std::to_string(scheme[i]);
  }
  return out;
}

Result<std::vector<int>> ParseSchemeIndices(const std::string& text) {
  std::vector<int> out;
  if (text.empty()) return out;
  size_t pos = 0;
  while (pos <= text.size()) {
    size_t comma = text.find(',', pos);
    if (comma == std::string::npos) comma = text.size();
    if (comma == pos) {
      return Status::InvalidArgument("empty scheme element in '" + text + "'");
    }
    int value = 0;
    for (size_t i = pos; i < comma; ++i) {
      const char c = text[i];
      if (c < '0' || c > '9' || value > 100000) {
        return Status::InvalidArgument("bad scheme index in '" + text + "'");
      }
      value = value * 10 + (c - '0');
    }
    out.push_back(value);
    pos = comma + 1;
  }
  return out;
}

Result<size_t> PickWinningScheme(const search::SearchOutcome& outcome) {
  if (outcome.pareto_points.empty() ||
      outcome.pareto_points.size() != outcome.pareto_schemes.size()) {
    return Status::NotFound("search produced no pareto points");
  }
  size_t best = 0;
  for (size_t i = 1; i < outcome.pareto_points.size(); ++i) {
    const search::EvalPoint& p = outcome.pareto_points[i];
    const search::EvalPoint& b = outcome.pareto_points[best];
    if (p.acc > b.acc || (p.acc == b.acc && p.params < b.params)) {
      best = i;
    }
  }
  return best;
}

Result<std::unique_ptr<nn::Model>> MaterializeScheme(
    const RunSpec& spec, const std::vector<int>& scheme, StageCache* cache) {
  AUTOMC_RETURN_IF_ERROR(ValidateRunSpec(spec));
  CompressionTask task = MakeTask(spec);
  AUTOMC_ASSIGN_OR_RETURN(
      std::unique_ptr<nn::Model> model,
      cache != nullptr ? cache->PretrainModel(task) : PretrainModel(task));
  search::SearchSpace space = search::SearchSpace::FullTable1();
  for (int s : scheme) {
    if (s < 0 || static_cast<size_t>(s) >= space.size()) {
      return Status::InvalidArgument("scheme index " + std::to_string(s) +
                                     " outside the strategy table");
    }
  }

  // Rebuild the exact CompressionContext the search used — the automc and
  // baseline paths differ (RunSearch above vs AutoMC::Run), and matching it
  // is what makes the materialized bytes equal the measured model.
  Rng sub_rng(spec.seed + 4);
  data::Dataset search_train =
      (spec.searcher == "automc" && task.search_data_fraction >= 1.0)
          ? task.data.train
          : task.data.train.Subsample(task.search_data_fraction, &sub_rng);
  compress::CompressionContext base_ctx;
  base_ctx.train = &search_train;
  base_ctx.test = &task.data.test;
  base_ctx.batch_size = task.batch_size;
  base_ctx.seed = spec.seed + 5;
  if (spec.searcher == "automc") {
    base_ctx.pretrain_epochs = static_cast<int>(std::max(
        1.0, 0.5 * task.pretrain_epochs /
                 std::max(0.1, task.search_data_fraction)));
    base_ctx.lr = task.FinetuneLr();
  } else {
    base_ctx.pretrain_epochs = task.pretrain_epochs;
    base_ctx.lr = task.lr;
  }

  for (size_t i = 0; i < scheme.size(); ++i) {
    const compress::StrategySpec& sspec =
        space.strategy(static_cast<size_t>(scheme[i]));
    AUTOMC_ASSIGN_OR_RETURN(std::unique_ptr<compress::Compressor> compressor,
                            compress::CreateCompressor(sspec));
    compress::CompressionContext ctx = base_ctx;
    // The evaluator's per-node seed: a pure function of the scheme prefix.
    ctx.seed = base_ctx.seed * 1315423911u +
               static_cast<uint64_t>(scheme[i]) * 2654435761u +
               static_cast<uint64_t>(i);
    Status st = compressor->Compress(model.get(), ctx, nullptr);
    if (st.code() == StatusCode::kFailedPrecondition) {
      AUTOMC_LOG(Debug) << "strategy " << sspec.ToString()
                        << " inapplicable during materialization (no-op)";
    } else if (!st.ok()) {
      return st;
    }
  }
  return model;
}

}  // namespace core
}  // namespace automc
