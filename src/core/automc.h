#ifndef AUTOMC_CORE_AUTOMC_H_
#define AUTOMC_CORE_AUTOMC_H_

#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "data/dataset.h"
#include "kg/embedding.h"
#include "kg/experience.h"
#include "nn/model.h"
#include "search/progressive.h"
#include "search/searcher.h"
#include "store/checkpoint.h"
#include "store/experience_store.h"

namespace automc {
namespace core {

class StageCache;

// One automatic-model-compression problem instance (Definition 1): a model
// family/size, a dataset, and the training regime that defines "epochs".
struct CompressionTask {
  nn::ModelSpec model_spec;
  data::TaskData data;
  // Epoch base for the "*n" hyperparameter fractions (HP1, HP7, HP9, HP13)
  // and compression-time training budgets.
  int pretrain_epochs = 4;
  // Epochs used to train the base model itself; 0 means pretrain_epochs.
  // The scaled substrate trains the base model to convergence while keeping
  // the per-strategy fine-tuning budgets small (see DESIGN.md).
  int base_train_epochs = 0;
  int batch_size = 32;
  float lr = 0.02f;
  // Per-epoch multiplicative lr decay during base-model pretraining.
  float lr_decay = 1.0f;
  // Learning rate for compression-time training (fine-tuning, distillation,
  // sparsity phases); 0 means lr/2 — fine-tuning a converged model at the
  // full pretraining rate destabilizes it.
  float finetune_lr = 0.0f;
  float FinetuneLr() const {
    return finetune_lr > 0.0f ? finetune_lr : 0.5f * lr;
  }
  // Fraction of the training data the AutoML search runs on (the paper
  // samples 10% of D to speed up scheme evaluation).
  double search_data_fraction = 0.1;
  uint64_t seed = 1;
};

// Pretrains the task's base model on its full training split.
Result<std::unique_ptr<nn::Model>> PretrainModel(const CompressionTask& task);

// Applies a scheme (indices into `space`) to `model` in place using the
// given context; returns the resulting measurement relative to the model's
// state at entry. Used directly by the transfer study and examples.
Result<search::EvalPoint> ExecuteScheme(const search::SearchSpace& space,
                                        const std::vector<int>& scheme,
                                        nn::Model* model,
                                        const compress::CompressionContext& ctx);

// Configuration of the full AutoMC pipeline. The four booleans reproduce the
// Section 4.5 ablations when toggled off.
struct AutoMCOptions {
  search::SearchConfig search;
  kg::EmbeddingLearnerConfig embedding;
  kg::ExperienceGenConfig experience;
  search::ProgressiveSearcher::Options progressive;

  bool use_kg = true;        // false => AutoMC-KG ablation
  bool use_exp = true;       // false => AutoMC-NN_exp ablation
  bool multi_source = true;  // false => AutoMC-MultipleSource (LeGR only)
  bool use_progressive = true;  // false => AutoMC-ProgressiveSearch (RL)
  uint64_t seed = 1;

  // Non-owning persistence hooks. When `experience_store` is set, the run
  // serves and records scheme evaluations through it (warm-starting repeat
  // runs) and exports the records it loaded as extra NN_exp training pairs.
  // When `checkpointer` is set, the search checkpoints periodically and a
  // pending checkpoint (loaded by the caller) is resumed transparently.
  store::ExperienceStore* experience_store = nullptr;
  store::SearchCheckpointer* checkpointer = nullptr;
  // Non-owning memo of the task-pure stages (pretraining, experience,
  // embeddings; core/stage_cache.h). Null computes every stage.
  StageCache* stage_cache = nullptr;
};

struct AutoMCResult {
  search::SearchOutcome outcome;
  // Human-readable description of each Pareto scheme.
  std::vector<std::string> pareto_descriptions;
  // Pretrained base model (before compression) and its test accuracy.
  std::shared_ptr<nn::Model> base_model;
  double base_accuracy = 0.0;
};

// The AutoMC system: builds the Table 1 search space, learns strategy
// embeddings from the knowledge graph + measured experience (Algorithm 1),
// then runs the progressive search (Algorithm 2) on a subsample of the task
// data, returning the Pareto-optimal compression schemes.
class AutoMC {
 public:
  explicit AutoMC(AutoMCOptions options) : options_(std::move(options)) {}

  Result<AutoMCResult> Run(const CompressionTask& task);

  // The search space this instance searches over (depends on multi_source).
  search::SearchSpace MakeSearchSpace() const;

 private:
  AutoMCOptions options_;
};

}  // namespace core
}  // namespace automc

#endif  // AUTOMC_CORE_AUTOMC_H_
