#ifndef AUTOMC_CORE_STAGE_CACHE_H_
#define AUTOMC_CORE_STAGE_CACHE_H_

#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/sha256.h"
#include "core/automc.h"
#include "kg/embedding.h"
#include "kg/experience.h"
#include "nn/model.h"
#include "search/search_space.h"
#include "tensor/tensor.h"

namespace automc {
namespace core {

// Memo of the three task-pure stages a search computes before it evaluates
// a single scheme: base-model pretraining, experience generation, and the
// Algorithm-1 strategy embeddings. None of them depends on the job beyond
// the inputs named in its key, so a process that serves the same spec
// twice (automc_serve) or pretrains once for the search and again for the
// export (MaterializeScheme) computes each only once.
//
// Keys are SHA-256 digests over a canonical ByteWriter encoding of every
// input a stage reads (see the *Key functions below). Thread count and
// SIMD dispatch are left out: the determinism contract makes results
// bit-identical across both. The cache keeps no copy of any dataset, only
// the digest of its bytes.
//
// A hit returns a Clone() of the model or a copy of the records or
// embeddings, bit-identical to a fresh computation. Each stage keeps at
// most kEntriesPerStage entries (LRU). Lookups are mutex-guarded so
// concurrent job slots can share one cache; a miss computes outside the
// lock, so two slots missing the same key at once both compute it (and
// get the same bits). Counts core.stage_cache.<stage>.{hits,misses}.
//
// The cache is owned by whoever wants reuse (JobManager: one per process;
// automc_cli --export-model: one per invocation) and passed down as a
// non-owning pointer. A null cache everywhere means direct computation.
class StageCache {
 public:
  // Per-stage bound. A constant, not a knob: an entry is one small model or
  // a few KiB of records/embeddings, and a worker serves few distinct
  // specs at a time.
  static constexpr size_t kEntriesPerStage = 4;

  struct Counts {
    uint64_t hits = 0;
    uint64_t misses = 0;
  };
  struct Stats {
    Counts pretrain, experience, embeddings;
  };

  // core::PretrainModel(task), memoized.
  Result<std::unique_ptr<nn::Model>> PretrainModel(
      const CompressionTask& task);
  // kg::GenerateExperience(space.strategies(), config), memoized.
  Result<std::vector<kg::ExperienceRecord>> GenerateExperience(
      const search::SearchSpace& space, const kg::ExperienceGenConfig& config);
  // kg::LearnStrategyEmbeddings(space.strategies(), config, experience),
  // memoized.
  Result<std::vector<tensor::Tensor>> LearnEmbeddings(
      const search::SearchSpace& space,
      const kg::EmbeddingLearnerConfig& config,
      const std::vector<kg::ExperienceRecord>& experience);

  Stats stats() const;

 private:
  // Most recent first; at most kEntriesPerStage entries.
  template <typename T>
  using Lru = std::list<std::pair<Sha256Digest, std::shared_ptr<const T>>>;

  template <typename T, typename Compute>
  Result<std::shared_ptr<const T>> GetOrCompute(Lru<T>* stage, Counts* counts,
                                                const char* name,
                                                const Sha256Digest& key,
                                                Compute compute);

  mutable std::mutex mu_;
  Lru<std::unique_ptr<nn::Model>> pretrain_;
  Lru<std::vector<kg::ExperienceRecord>> experience_;
  Lru<std::vector<tensor::Tensor>> embeddings_;
  Stats stats_;
};

// Stage keys. Pretrain: the model spec, the resolved epoch count, batch
// size, lr, lr decay and seed, and the train split's shape, image and label
// bytes. Experience: search::SchemeEvaluator::SpaceFingerprint and every
// ExperienceGenConfig field. Embeddings: the space fingerprint, every
// EmbeddingLearnerConfig and TransRConfig field, and every experience
// record (generated and imported alike).
Sha256Digest PretrainKey(const CompressionTask& task);
Sha256Digest ExperienceKey(const search::SearchSpace& space,
                           const kg::ExperienceGenConfig& config);
Sha256Digest EmbeddingsKey(
    const search::SearchSpace& space, const kg::EmbeddingLearnerConfig& config,
    const std::vector<kg::ExperienceRecord>& experience);

}  // namespace core
}  // namespace automc

#endif  // AUTOMC_CORE_STAGE_CACHE_H_
