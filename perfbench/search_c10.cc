// search_c10: the CLI user's path, in process. A cold automc RunSearch of
// ResNet-20 on c10 at one thread, the same spec at min(4, nproc) threads,
// then the winner's export (MaterializeScheme + SerializeModel, as
// automc_cli --export-model does).
#include <algorithm>
#include <cmath>
#include <sstream>
#include <string>
#include <vector>

#include "checks.h"
#include "common/thread_pool.h"
#include "core/automc.h"
#include "core/run_spec.h"
#include "kg/embedding.h"
#include "kg/experience.h"
#include "nn/serialize.h"
#include "nn/trainer.h"
#include "search/report.h"
#include "workloads.h"

namespace perfbench {

namespace ac = automc::core;
namespace as = automc::search;

namespace {

// Pinned spec (the ROADMAP's repro command): the spread between runs is
// then machine noise, not a different search trajectory per seed.
ac::RunSpec Spec() {
  ac::RunSpec spec;
  spec.family = "resnet";
  spec.depth = 20;
  spec.dataset = "c10";
  spec.budget = 8;
  spec.pretrain = 8;
  spec.seed = 7;
  return spec;
}

// Task syntheses timed per round for setup_s: the set-up itself, then more
// after each of the round's three operations. On the reference machine
// slow spells of a few seconds doubled MakeTask's time; nine syntheses in
// a row often fell in one spell, nine spread over the round rarely do.
constexpr int kSetupsPerPoint = 3;

struct Export {
  std::string bytes;
  as::EvalPoint point;
};

automc::Result<Export> ExportWinner(const ac::RunSpec& spec,
                                    const as::SearchOutcome& outcome,
                                    Tracer* tracer, int parent) {
  AUTOMC_ASSIGN_OR_RETURN(size_t win, ac::PickWinningScheme(outcome));
  std::unique_ptr<automc::nn::Model> model;
  {
    ScopedSpan span(tracer, "core.materialize", parent);
    AUTOMC_ASSIGN_OR_RETURN(
        model, ac::MaterializeScheme(spec, outcome.pareto_schemes[win]));
  }
  std::ostringstream os;
  AUTOMC_RETURN_IF_ERROR(automc::nn::SerializeModel(model.get(), &os));
  return Export{os.str(), outcome.pareto_points[win]};
}

// The search_c10 output checks, on one 1-thread search and its export.
void CheckSearch(const ac::RunSpec& spec, const ac::CompressionTask& task,
                 const ac::AutoMCResult& run, const Export& exported,
                 RunResult* res) {
  if (run.outcome.executions != spec.budget) {
    res->Fail("charged executions " + std::to_string(run.outcome.executions) +
              " != budget " + std::to_string(spec.budget));
  }
  if (auto st = CheckParetoFront(run.outcome, spec.gamma); !st.ok()) {
    res->Fail(st.ToString());
  }
  const double chance = 1.0 / task.data.test.num_classes;
  if (!(run.base_accuracy >= 5.0 * chance)) {
    res->Fail("base accuracy " + std::to_string(run.base_accuracy) +
              " is not well above chance");
  }
  std::istringstream is(exported.bytes);
  auto model = automc::nn::DeserializeModel(&is);
  if (!model.ok()) {
    res->Fail("exported model does not decode: " + model.status().ToString());
    return;
  }
  if (auto st = CheckReevaluation(model->get(), task.data.test,
                                  exported.point.acc, exported.point.params);
      !st.ok()) {
    res->Fail("exported model: " + st.ToString());
  }
  const double base_params =
      static_cast<double>(run.base_model->EffectiveParamCount());
  const double pr = 1.0 - static_cast<double>(exported.point.params) /
                              base_params;
  if (std::fabs(pr - exported.point.pr) > 1e-12) {
    res->Fail("winning point pr " + std::to_string(exported.point.pr) +
              " != 1 - params/base_params = " + std::to_string(pr));
  }
}

// AutoMC::Run's stages, composed from the public functions so each can be
// timed from outside. The options are the ones RunSearch builds for an
// automc spec; the outcome bytes are compared with an untraced RunSearch.
struct Composed {
  ac::AutoMCResult result;
  size_t experience_records = 0;
  int64_t strategy_executions = 0, cache_hits = 0, store_hits = 0;
  MetricSnapshot search_delta, experience_delta;
};

automc::Result<Composed> ComposedRun(const ac::RunSpec& spec,
                                     const ac::CompressionTask& task,
                                     Tracer* tr, int root) {
  Composed out;
  const uint64_t seed = spec.seed;
  as::SearchSpace space = as::SearchSpace::FullTable1();
  {
    ScopedSpan s(tr, "nn.pretrain", root);
    AUTOMC_ASSIGN_OR_RETURN(std::unique_ptr<automc::nn::Model> base,
                            ac::PretrainModel(task));
    out.result.base_model = std::shared_ptr<automc::nn::Model>(std::move(base));
  }
  {
    ScopedSpan s(tr, "nn.evaluate", root);
    out.result.base_accuracy = automc::nn::Trainer::Evaluate(
        out.result.base_model.get(), task.data.test);
  }
  std::vector<automc::kg::ExperienceRecord> experience;
  {
    automc::kg::ExperienceGenConfig xcfg;
    xcfg.num_tasks = 1;
    xcfg.strategies_per_task = 10;
    xcfg.seed = seed + 3;
    const MetricSnapshot before = MetricSnapshot::Local();
    ScopedSpan s(tr, "kg.experience", root);
    AUTOMC_ASSIGN_OR_RETURN(
        experience, automc::kg::GenerateExperience(space.strategies(), xcfg));
    s.End();
    out.experience_delta = MetricSnapshot::Local().Minus(before);
  }
  out.experience_records = experience.size();
  std::vector<automc::tensor::Tensor> embeddings;
  {
    automc::kg::EmbeddingLearnerConfig ecfg;
    ecfg.train_epochs = 8;
    ecfg.seed = seed + 2;
    ScopedSpan s(tr, "kg.embed", root);
    automc::kg::StrategyEmbeddingLearner learner(space.strategies(), ecfg);
    AUTOMC_RETURN_IF_ERROR(learner.Learn(experience));
    for (size_t i = 0; i < space.size(); ++i) {
      embeddings.push_back(learner.Embedding(i));
    }
  }
  ScopedSpan init(tr, "search.evaluator_init", root);
  automc::Rng sub_rng(seed + 4);
  automc::data::Dataset search_train =
      task.search_data_fraction < 1.0
          ? task.data.train.Subsample(task.search_data_fraction, &sub_rng)
          : task.data.train;
  automc::compress::CompressionContext ctx;
  ctx.train = &search_train;
  ctx.test = &task.data.test;
  ctx.pretrain_epochs = static_cast<int>(std::max(
      1.0, 0.5 * task.pretrain_epochs /
               std::max(0.1, task.search_data_fraction)));
  ctx.batch_size = task.batch_size;
  ctx.lr = task.FinetuneLr();
  ctx.seed = seed + 5;
  as::SchemeEvaluator evaluator(&space, out.result.base_model.get(), ctx,
                                as::SchemeEvaluator::Options{});
  std::vector<float> feats = automc::data::TaskFeatureVector(
      search_train, out.result.base_model->ParamCount(),
      out.result.base_model->FlopsPerSample(), evaluator.base_point().acc);
  automc::tensor::Tensor task_features({automc::data::kTaskFeatureDim});
  for (int i = 0; i < automc::data::kTaskFeatureDim; ++i) {
    task_features[i] = feats[static_cast<size_t>(i)];
  }
  std::vector<as::FmoExample> warm_start;
  for (const automc::kg::ExperienceRecord& rec : experience) {
    as::FmoExample ex;
    ex.candidate = embeddings[rec.strategy_index];
    ex.task = automc::tensor::Tensor({automc::data::kTaskFeatureDim});
    for (int i = 0; i < automc::data::kTaskFeatureDim; ++i) {
      ex.task[i] = rec.task_features[static_cast<size_t>(i)];
    }
    ex.ar_step = rec.ar;
    ex.pr_step = rec.pr;
    warm_start.push_back(std::move(ex));
  }
  as::ProgressiveSearcher searcher(std::move(embeddings),
                                   std::move(task_features),
                                   ac::AutoMCOptions{}.progressive);
  searcher.set_warm_start(std::move(warm_start));
  as::SearchConfig scfg;
  scfg.max_strategy_executions = spec.budget;
  scfg.gamma = spec.gamma;
  scfg.seed = seed + 6;
  init.End();
  {
    const MetricSnapshot before = MetricSnapshot::Local();
    ScopedSpan s(tr, "search.search", root);
    AUTOMC_ASSIGN_OR_RETURN(out.result.outcome,
                            searcher.Search(&evaluator, space, scfg));
    s.End();
    out.search_delta = MetricSnapshot::Local().Minus(before);
  }
  out.strategy_executions = evaluator.strategy_executions();
  out.cache_hits = evaluator.cache_hits();
  out.store_hits = evaluator.store_hits();
  return out;
}

double CompressMs(const MetricSnapshot& d) {
  return d.SumMatching("compress.", ".ms.sum");
}

void Traced(const ac::RunSpec& spec, RunResult* res) {
  const int lanes = ParallelLanes();
  Tracer tr;
  ac::CompressionTask task;
  {
    ScopedSpan s(&tr, "data.make_task");
    task = ac::MakeTask(spec);
  }
  res->Add("data.make_task_ms", tr.TotalMs("data.make_task"), "ms");

  // Untraced reference: the outcome the composed run must reproduce and
  // the wall time the tracing overhead is measured against.
  automc::ThreadPool::ResetGlobal(1);
  const double t0 = NowMs();
  auto reference = ac::RunSearch(spec, task);
  const double untraced_ms = NowMs() - t0;
  res->attempted++;
  if (!reference.ok()) {
    res->failed++;
    res->Fail("RunSearch: " + reference.status().ToString());
    return;
  }

  const MetricSnapshot before = MetricSnapshot::Local();
  const int root = tr.Begin("core.run_search", -1);
  auto composed = ComposedRun(spec, task, &tr, root);
  tr.End(root);
  const MetricSnapshot run = MetricSnapshot::Local().Minus(before);
  res->attempted++;
  if (!composed.ok()) {
    res->failed++;
    res->Fail("composed run: " + composed.status().ToString());
    return;
  }
  if (auto st = CheckBytesEqual(
          "composed vs RunSearch outcome",
          as::SaveOutcomeBytes(composed->result.outcome),
          as::SaveOutcomeBytes(reference->outcome));
      !st.ok()) {
    res->Fail(st.ToString());
  }

  automc::ThreadPool::ResetGlobal(lanes);
  const MetricSnapshot pool_before = MetricSnapshot::Local();
  const double par_t0 = NowMs();
  auto parallel = ac::RunSearch(spec, task);
  const double par_ms = NowMs() - par_t0;
  const MetricSnapshot pool = MetricSnapshot::Local().Minus(pool_before);
  automc::ThreadPool::ResetGlobal(1);
  res->attempted++;
  if (!parallel.ok()) {
    res->failed++;
    res->Fail("parallel RunSearch: " + parallel.status().ToString());
  }

  const int export_root = tr.Begin("core.export", -1);
  auto exported = ExportWinner(spec, reference->outcome, &tr, export_root);
  tr.End(export_root);
  res->attempted++;
  if (!exported.ok()) {
    res->failed++;
    res->Fail("export: " + exported.status().ToString());
  } else {
    CheckSearch(spec, task, *reference, *exported, res);
  }

  const Composed& c = *composed;
  AddSearchLayerMetrics(run, res);
  res->Add("pool.tasks", pool.Get("pool.tasks"), "count");
  res->Add("pool.steal_count", pool.Get("pool.steal_count"), "count");
  res->Add("common.sha256_mib_per_s", Sha256MiBPerS(SeededBytes(7, 1u << 20)),
           "MiB/s");
  AddServerLayerMetrics(MetricSnapshot(), res);  // no server runs here
  // Figures of this workload alone, printed in the context line.
  res->Add("pool.idle_ms", pool.Get("pool.idle_ms.sum"), "ms");
  res->Add("core.run_search_ms", tr.DurationMs(root), "ms");
  res->Add("core.run_search_par_ms", par_ms, "ms");
  res->Add("core.unattributed_ms", tr.SelfMs(root), "ms");
  res->Add("core.materialize_ms", tr.TotalMs("core.materialize"), "ms");
  res->Add("nn.pretrain_ms", tr.TotalMs("nn.pretrain"), "ms");
  res->Add("nn.evaluate_ms", tr.TotalMs("nn.evaluate"), "ms");
  res->Add("kg.experience_ms", tr.TotalMs("kg.experience"), "ms");
  res->Add("kg.embed_ms", tr.TotalMs("kg.embed"), "ms");
  res->Add("kg.experience_records",
           static_cast<double>(c.experience_records), "count");
  const double search_ms = tr.TotalMs("search.search");
  res->Add("search.search_ms", search_ms, "ms");
  res->Add("search.self_ms", search_ms - CompressMs(c.search_delta), "ms");
  res->Add("search.evaluator_executions",
           static_cast<double>(c.strategy_executions), "count");
  res->Add("search.evaluator_cache_hits", static_cast<double>(c.cache_hits),
           "count");
  res->Add("search.evaluator_store_hits", static_cast<double>(c.store_hits),
           "count");

  const double traced_ms = tr.DurationMs(root);
  res->context["trace_spans"] = tr.ToJson();
  res->context["root_coverage"] = JsonNumber(tr.Coverage(root));
  res->context["untraced_search_ms"] = JsonNumber(untraced_ms);
  res->context["tracing_overhead_ms"] = JsonNumber(traced_ms - untraced_ms);
  res->context["compress_ms_in_kg_experience"] =
      JsonNumber(CompressMs(c.experience_delta));
  res->context["compress_ms_in_search"] = JsonNumber(CompressMs(c.search_delta));
}

}  // namespace

RunResult RunSearchC10(const Options& opts) {
  RunResult res;
  const ac::RunSpec spec = Spec();
  const int lanes = ParallelLanes();
  res.context["spec"] = JsonString(ac::RunSpecSummary(spec) + " pretrain=8");
  res.context["threads"] = JsonString("AUTOMC_THREADS=1, then " +
                                      std::to_string(lanes));
  if (opts.trace) {
    Traced(spec, &res);
    return res;
  }

  std::vector<double> setup_ms;
  auto time_setup = [&](ac::CompressionTask* out) {
    for (int i = 0; i < kSetupsPerPoint; ++i) {
      const double t = NowMs();
      ac::CompressionTask task = ac::MakeTask(spec);
      setup_ms.push_back(NowMs() - t);
      if (out != nullptr) *out = std::move(task);
    }
  };
  ac::CompressionTask task;
  time_setup(&task);

  // Both the wall time and the process CPU time of each call are gated:
  // wall time sees waits, CPU time leaves out what the hypervisor of a
  // shared virtual machine took away.
  std::vector<double> search_ms, par_ms, export_ms, search_cpu_ms,
      export_cpu_ms;
  std::string first_bytes;
  const double start = NowMs();
  do {
    automc::ThreadPool::ResetGlobal(1);
    double t = NowMs();
    double cpu = SelfCpuMs();
    auto serial = ac::RunSearch(spec, task);
    search_ms.push_back(NowMs() - t);
    search_cpu_ms.push_back(SelfCpuMs() - cpu);
    res.attempted++;
    if (!serial.ok()) {
      res.failed++;
      res.Fail("RunSearch: " + serial.status().ToString());
      break;
    }
    const std::string bytes = as::SaveOutcomeBytes(serial->outcome);
    time_setup(nullptr);

    automc::ThreadPool::ResetGlobal(lanes);
    t = NowMs();
    auto parallel = ac::RunSearch(spec, task);
    par_ms.push_back(NowMs() - t);
    automc::ThreadPool::ResetGlobal(1);
    time_setup(nullptr);
    res.attempted++;
    if (!parallel.ok()) {
      res.failed++;
      res.Fail("parallel RunSearch: " + parallel.status().ToString());
      break;
    }
    if (auto st = CheckBytesEqual(
            "1-thread vs " + std::to_string(lanes) + "-thread outcome", bytes,
            as::SaveOutcomeBytes(parallel->outcome));
        !st.ok()) {
      res.Fail(st.ToString());
    }
    if (first_bytes.empty()) first_bytes = bytes;
    if (auto st = CheckBytesEqual("outcome across rounds", first_bytes, bytes);
        !st.ok()) {
      res.Fail(st.ToString());
    }

    t = NowMs();
    cpu = SelfCpuMs();
    auto exported = ExportWinner(spec, serial->outcome, nullptr, -1);
    export_ms.push_back(NowMs() - t);
    export_cpu_ms.push_back(SelfCpuMs() - cpu);
    res.attempted++;
    if (!exported.ok()) {
      res.failed++;
      res.Fail("export: " + exported.status().ToString());
      break;
    }
    CheckSearch(spec, task, *serial, *exported, &res);
    time_setup(nullptr);
  } while (NowMs() - start < opts.seconds * 1000.0);

  res.context["rounds"] = std::to_string(search_ms.size());
  // Wall times under the names the workload's own table uses, and the
  // parallel search, whose wall time moved by +-40% between runs on the
  // reference machine (README.md, "Steadiness").
  res.Add("search_s", Median(search_ms) / 1000.0, "s");
  res.Add("export_s", Median(export_ms) / 1000.0, "s");
  res.Add("search_par_s", Median(par_ms) / 1000.0, "s");
  res.Add("setup_s", Median(setup_ms) / 1000.0, "s");
  res.Add("peak_rss_mib", SelfPeakRssMiB(), "MiB");
  res.Add("primary_op_ms", Median(search_ms), "ms");
  res.Add("primary_op_cpu_ms", Median(search_cpu_ms), "ms");
  res.Add("secondary_op_ms", Median(export_ms), "ms");
  res.Add("secondary_op_cpu_ms", Median(export_cpu_ms), "ms");
  return res;
}

}  // namespace perfbench
