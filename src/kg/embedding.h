#ifndef AUTOMC_KG_EMBEDDING_H_
#define AUTOMC_KG_EMBEDDING_H_

#include <memory>
#include <vector>

#include "common/result.h"
#include "kg/experience.h"
#include "kg/knowledge_graph.h"
#include "kg/transr.h"
#include "nn/seqnet.h"

namespace automc {
namespace kg {

struct EmbeddingLearnerConfig {
  int train_epochs = 25;      // TrainEpoch of Algorithm 1
  TransRConfig transr;        // embedding size 32 per the paper
  float exp_lr = 0.001f;      // Adam lr for NN_exp (paper: 0.001)
  float emb_lr = 0.01f;       // SGD lr for embedding refinement via NN_exp
  // Ablation switches (AutoMC-KG / AutoMC-NN_exp of Section 4.5).
  bool use_kg = true;
  bool use_exp = true;
  uint64_t seed = 23;
};

// Algorithm 1: learns a high-level embedding for every compression strategy
// by interleaving (a) TransR epochs over the knowledge graph and (b)
// regression of measured experience through NN_exp, whose input-gradient
// refines the strategy embeddings.
class StrategyEmbeddingLearner {
 public:
  StrategyEmbeddingLearner(std::vector<compress::StrategySpec> strategies,
                           EmbeddingLearnerConfig config);

  // Runs the joint loop. `experience` may be empty when use_exp is false.
  Status Learn(const std::vector<ExperienceRecord>& experience);

  // Final embedding of strategy i ([entity_dim]); valid after Learn.
  const tensor::Tensor& Embedding(size_t strategy_index) const;
  int64_t embedding_dim() const { return config_.transr.entity_dim; }
  size_t num_strategies() const { return strategies_.size(); }

  // Mean NN_exp regression loss of the last training epoch (diagnostics).
  double last_exp_loss() const { return last_exp_loss_; }

 private:
  std::vector<compress::StrategySpec> strategies_;
  EmbeddingLearnerConfig config_;
  KnowledgeGraph graph_;
  std::unique_ptr<TransR> transr_;
  std::unique_ptr<nn::VecMlp> nn_exp_;
  std::vector<tensor::Tensor> embeddings_;
  double last_exp_loss_ = 0.0;
};

// Algorithm 1 as one pure stage: learns over `experience` and returns the
// final embedding of every strategy, in table order. AutoMC::Run and the
// stage cache (core/stage_cache.h) both compute embeddings through this.
Result<std::vector<tensor::Tensor>> LearnStrategyEmbeddings(
    const std::vector<compress::StrategySpec>& strategies,
    const EmbeddingLearnerConfig& config,
    const std::vector<ExperienceRecord>& experience);

}  // namespace kg
}  // namespace automc

#endif  // AUTOMC_KG_EMBEDDING_H_
