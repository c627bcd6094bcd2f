// Command-line driver: run any of the four search strategies on a
// model/dataset combination and optionally save the best compressed model.
//
//   automc_cli [--family resnet|vgg] [--depth N] [--dataset c10|c100|tiny]
//              [--gamma F] [--budget N] [--searcher automc|random|evolution|rl]
//              [--eval-batch N] [--pretrain N] [--seed N] [--save PATH]
//              [--store PATH] [--checkpoint DIR] [--resume DIR]
//              [--outcome PATH]
//
// Persistence: --store (or $AUTOMC_STORE) keeps every scheme evaluation in a
// crash-safe log so repeat runs replay them instead of re-executing
// strategies; --checkpoint writes resumable search state every
// $AUTOMC_CHECKPOINT_EVERY rounds; --resume DIR continues a killed search
// from DIR and finishes with the same outcome an uninterrupted run produces.
// SIGINT/SIGTERM stop the search cooperatively: the current round finishes,
// the state is checkpointed (when --checkpoint/--resume is set) and the
// metrics snapshot is flushed before the clean exit.
//
// Client mode for a running automc_serve daemon (--socket or $AUTOMC_SOCKET;
// a unix path or "tcp:HOST:PORT" for a daemon started with --tcp):
//   automc_cli --serve-submit <search flags>     queue a search job
//   automc_cli --serve-status ID | --serve-list  poll job state
//   automc_cli --serve-result ID [--serve-wait]  fetch a finished outcome
//                 [--out FILE]                   ...streamed straight to FILE
//   automc_cli --serve-cancel ID                 cooperative cancel
//   automc_cli --serve-metrics                   server metrics JSON
//   automc_cli --serve-list-artifacts            published models + provenance
//   automc_cli --serve-fetch-model NAME --out F  stream + verify a model
//
// --export-model FILE materializes the winning scheme of a local search as
// a serialized model, byte-identical to the artifact a server publishes for
// the same spec (the registry's determinism contract; docs/artifacts.md).
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <chrono>
#include <memory>
#include <string>
#include <thread>

#include "common/metrics.h"
#include "common/sha256.h"
#include "compress/scheme_parser.h"
#include "core/automc.h"
#include "core/run_spec.h"
#include "core/stage_cache.h"
#include "data/cifar.h"
#include "nn/serialize.h"
#include "nn/summary.h"
#include "nn/trainer.h"
#include "search/report.h"
#include "server/protocol.h"
#include "store/checkpoint.h"
#include "store/experience_store.h"

namespace {

struct CliOptions {
  std::string family = "resnet";
  int depth = 20;
  std::string dataset = "c10";
  double gamma = 0.3;
  int budget = 12;
  // Candidates per evaluation round; 0 = $AUTOMC_EVAL_BATCH (default 4).
  int eval_batch = 0;
  std::string searcher = "automc";
  int pretrain = 8;
  uint64_t seed = 1;
  std::string save_path;
  std::string apply_scheme;   // textual scheme: skip search, just apply
  bool print_summary = false;   // per-layer table after compression
  std::string cifar10_batches;  // comma-separated real CIFAR-10 .bin paths
  std::string cifar100_train;   // real CIFAR-100 train.bin
  std::string store_path;       // experience store; default $AUTOMC_STORE
  std::string checkpoint_dir;   // write periodic search checkpoints here
  std::string resume_dir;       // continue a killed search from here
  std::string outcome_path;     // save the SearchOutcome (text) here
  std::string export_model_path;  // serialize the winning scheme's model

  // Client mode against a running automc_serve daemon.
  std::string socket_path;      // default $AUTOMC_SOCKET
  bool serve_submit = false;
  bool serve_list = false;
  bool serve_metrics = false;
  bool serve_wait = false;      // with --serve-result: poll until terminal
  bool serve_list_artifacts = false;
  long long serve_status_id = -1;
  long long serve_result_id = -1;
  long long serve_cancel_id = -1;
  std::string serve_fetch_model;  // artifact name to stream from the server
  std::string out_path;           // file sink for the streaming fetches

  bool serve_mode() const {
    return serve_submit || serve_list || serve_metrics ||
           serve_list_artifacts || !serve_fetch_model.empty() ||
           serve_status_id >= 0 || serve_result_id >= 0 ||
           serve_cancel_id >= 0;
  }
};

bool ParseArgs(int argc, char** argv, CliOptions* opts) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return (i + 1 < argc) ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (arg == "--family" && (v = next())) {
      opts->family = v;
    } else if (arg == "--depth" && (v = next())) {
      opts->depth = std::atoi(v);
    } else if (arg == "--dataset" && (v = next())) {
      opts->dataset = v;
    } else if (arg == "--gamma" && (v = next())) {
      opts->gamma = std::atof(v);
    } else if (arg == "--budget" && (v = next())) {
      opts->budget = std::atoi(v);
    } else if (arg == "--eval-batch" && (v = next())) {
      opts->eval_batch = std::atoi(v);
    } else if (arg == "--searcher" && (v = next())) {
      opts->searcher = v;
    } else if (arg == "--pretrain" && (v = next())) {
      opts->pretrain = std::atoi(v);
    } else if (arg == "--seed" && (v = next())) {
      opts->seed = static_cast<uint64_t>(std::atoll(v));
    } else if (arg == "--save" && (v = next())) {
      opts->save_path = v;
    } else if (arg == "--apply" && (v = next())) {
      opts->apply_scheme = v;
    } else if (arg == "--summary") {
      opts->print_summary = true;
    } else if (arg == "--cifar10" && (v = next())) {
      opts->cifar10_batches = v;
    } else if (arg == "--cifar100" && (v = next())) {
      opts->cifar100_train = v;
    } else if (arg == "--store" && (v = next())) {
      opts->store_path = v;
    } else if (arg == "--checkpoint" && (v = next())) {
      opts->checkpoint_dir = v;
    } else if (arg == "--resume" && (v = next())) {
      opts->resume_dir = v;
    } else if (arg == "--outcome" && (v = next())) {
      opts->outcome_path = v;
    } else if (arg == "--export-model" && (v = next())) {
      opts->export_model_path = v;
    } else if (arg == "--out" && (v = next())) {
      opts->out_path = v;
    } else if (arg == "--socket" && (v = next())) {
      opts->socket_path = v;
    } else if (arg == "--serve-submit") {
      opts->serve_submit = true;
    } else if (arg == "--serve-list") {
      opts->serve_list = true;
    } else if (arg == "--serve-metrics") {
      opts->serve_metrics = true;
    } else if (arg == "--serve-wait") {
      opts->serve_wait = true;
    } else if (arg == "--serve-status" && (v = next())) {
      opts->serve_status_id = std::atoll(v);
    } else if (arg == "--serve-result" && (v = next())) {
      opts->serve_result_id = std::atoll(v);
    } else if (arg == "--serve-cancel" && (v = next())) {
      opts->serve_cancel_id = std::atoll(v);
    } else if (arg == "--serve-fetch-model" && (v = next())) {
      opts->serve_fetch_model = v;
    } else if (arg == "--serve-list-artifacts") {
      opts->serve_list_artifacts = true;
    } else if (arg == "--help") {
      return false;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      return false;
    }
  }
  return true;
}

void Usage() {
  std::fprintf(
      stderr,
      "usage: automc_cli [--family resnet|vgg] [--depth N] [--dataset "
      "c10|c100]\n                  [--gamma F] [--budget N] [--searcher "
      "automc|random|evolution|rl]\n                  [--pretrain N] [--seed "
      "N] [--save PATH]\n                  [--apply \"SCHEME\"] [--cifar10 "
      "b1.bin,b2.bin] [--cifar100 train.bin]\n                  [--store "
      "PATH] [--checkpoint DIR] [--resume DIR] [--outcome PATH]\n"
      "  --store PATH      persistent evaluation cache (default: "
      "$AUTOMC_STORE)\n"
      "  --checkpoint DIR  checkpoint search state every "
      "$AUTOMC_CHECKPOINT_EVERY rounds\n"
      "  --resume DIR      continue a killed search from DIR's checkpoint\n"
      "  --outcome PATH    save the final SearchOutcome as text\n"
      "  --eval-batch N    candidate schemes per parallel evaluation round\n"
      "                    (default: $AUTOMC_EVAL_BATCH, else 4)\n"
      "  --export-model F  serialize the winning scheme's model to F,\n"
      "                    byte-identical to the server's published artifact\n"
      "client mode (against automc_serve; --socket PATH or $AUTOMC_SOCKET;\n"
      "             PATH is a unix socket path or tcp:HOST:PORT):\n"
      "  --serve-submit    queue this search on the server, print the job id\n"
      "  --serve-status ID / --serve-list   poll job state(s)\n"
      "  --serve-result ID [--serve-wait]   fetch a finished outcome\n"
      "                    [--out FILE]     ...streamed straight to FILE\n"
      "                                     (binary SaveOutcomeBytes form)\n"
      "  --serve-cancel ID                  cooperative cancel\n"
      "  --serve-metrics                    print the server metrics JSON\n"
      "  --serve-list-artifacts             published models + provenance\n"
      "  --serve-fetch-model NAME --out FILE\n"
      "                    stream artifact NAME to FILE (atomic tmp+rename;\n"
      "                    SHA-256-verified, then reloaded via nn/serialize\n"
      "                    as a final integrity check)\n");
}

// Cooperative-shutdown hook: SIGINT/SIGTERM ask the running search to stop
// at its next round (checkpointing first when a checkpointer is attached).
// StopToken::RequestStop is one lock-free atomic store, so it is safe here.
automc::search::StopToken g_stop;

void OnStopSignal(int) { g_stop.RequestStop(); }

automc::core::RunSpec SpecFromCli(const CliOptions& cli) {
  automc::core::RunSpec spec;
  spec.family = cli.family;
  spec.depth = cli.depth;
  spec.dataset = cli.dataset;
  spec.gamma = cli.gamma;
  spec.budget = cli.budget;
  spec.eval_batch = cli.eval_batch;
  spec.searcher = cli.searcher;
  spec.pretrain = cli.pretrain;
  spec.seed = cli.seed;
  return spec;
}

void PrintJobInfo(const automc::server::JobInfo& info) {
  std::printf("job %llu: %s  [%s]",
              static_cast<unsigned long long>(info.id),
              automc::server::JobStateName(info.state), info.summary.c_str());
  if (info.executions >= 0) std::printf("  executions=%d", info.executions);
  if (!info.error.empty()) std::printf("  error: %s", info.error.c_str());
  std::printf("\n");
}

// All --serve-* subcommands; returns the process exit code.
int RunServeClient(const CliOptions& cli) {
  using automc::server::Client;
  std::string path = cli.socket_path;
  if (path.empty()) {
    if (const char* env = std::getenv("AUTOMC_SOCKET"); env && *env) {
      path = env;
    }
  }
  auto client = Client::Connect(path);
  if (!client.ok()) {
    std::fprintf(stderr, "cannot reach server: %s\n",
                 client.status().ToString().c_str());
    return 1;
  }

  if (cli.serve_submit) {
    auto id = client->Submit(SpecFromCli(cli));
    if (!id.ok()) {
      std::fprintf(stderr, "submit failed: %s\n",
                   id.status().ToString().c_str());
      return 1;
    }
    std::printf("submitted job %llu\n", static_cast<unsigned long long>(*id));
    return 0;
  }
  if (cli.serve_status_id >= 0) {
    auto info = client->JobStatus(static_cast<uint64_t>(cli.serve_status_id));
    if (!info.ok()) {
      std::fprintf(stderr, "%s\n", info.status().ToString().c_str());
      return 1;
    }
    PrintJobInfo(*info);
    return 0;
  }
  if (cli.serve_cancel_id >= 0) {
    if (automc::Status st =
            client->Cancel(static_cast<uint64_t>(cli.serve_cancel_id));
        !st.ok()) {
      std::fprintf(stderr, "%s\n", st.ToString().c_str());
      return 1;
    }
    std::printf("cancel requested for job %lld\n", cli.serve_cancel_id);
    return 0;
  }
  if (cli.serve_list) {
    auto jobs = client->ListJobs();
    if (!jobs.ok()) {
      std::fprintf(stderr, "%s\n", jobs.status().ToString().c_str());
      return 1;
    }
    for (const auto& info : *jobs) PrintJobInfo(info);
    return 0;
  }
  if (cli.serve_metrics) {
    auto json = client->Metrics();
    if (!json.ok()) {
      std::fprintf(stderr, "%s\n", json.status().ToString().c_str());
      return 1;
    }
    std::printf("%s\n", json->c_str());
    return 0;
  }
  if (cli.serve_list_artifacts) {
    auto infos = client->ListArtifacts();
    if (!infos.ok()) {
      std::fprintf(stderr, "%s\n", infos.status().ToString().c_str());
      return 1;
    }
    for (const auto& info : *infos) {
      std::printf("%s: %llu bytes, %u chunks, sha256 %.16s..., job %llu, "
                  "scheme [%s], acc %.1f%%, %lld params\n",
                  info.name.c_str(),
                  static_cast<unsigned long long>(info.total_size),
                  info.chunk_count,
                  automc::HexDigest(info.blob_digest).c_str(),
                  static_cast<unsigned long long>(info.job_id),
                  info.scheme.c_str(), 100.0 * info.acc,
                  static_cast<long long>(info.params));
    }
    if (infos->empty()) std::printf("no artifacts published\n");
    return 0;
  }
  if (!cli.serve_fetch_model.empty()) {
    if (cli.out_path.empty()) {
      std::fprintf(stderr, "--serve-fetch-model needs --out FILE\n");
      return 2;
    }
    auto info = client->FetchModelToFile(cli.serve_fetch_model, cli.out_path);
    if (!info.ok()) {
      std::fprintf(stderr, "fetch failed: %s\n",
                   info.status().ToString().c_str());
      return 1;
    }
    // The stream already passed SHA-256 verification; prove the bytes are a
    // loadable model too, so a corrupt artifact never masquerades as one.
    auto model = automc::nn::LoadModel(cli.out_path);
    if (!model.ok()) {
      std::fprintf(stderr, "fetched model does not deserialize: %s\n",
                   model.status().ToString().c_str());
      std::remove(cli.out_path.c_str());
      return 1;
    }
    std::printf("fetched %s (%llu bytes, job %llu, scheme [%s], acc %.1f%%) "
                "to %s\n",
                info->name.c_str(),
                static_cast<unsigned long long>(info->total_size),
                static_cast<unsigned long long>(info->job_id),
                info->scheme.c_str(), 100.0 * info->acc,
                cli.out_path.c_str());
    return 0;
  }

  // --serve-result [--serve-wait]
  const uint64_t id = static_cast<uint64_t>(cli.serve_result_id);
  for (;;) {
    auto info = client->JobStatus(id);
    if (!info.ok()) {
      std::fprintf(stderr, "%s\n", info.status().ToString().c_str());
      return 1;
    }
    if (automc::server::JobStateIsTerminal(info->state)) {
      if (info->state != automc::server::JobState::kDone) {
        PrintJobInfo(*info);
        return 1;
      }
      break;
    }
    if (!cli.serve_wait) {
      PrintJobInfo(*info);
      return 0;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  if (!cli.out_path.empty()) {
    // Stream the raw outcome payload to the file as it arrives — the same
    // atomic tmp+rename sink --serve-fetch-model uses — instead of holding
    // an in-memory copy hostage to the write.
    if (automc::Status st = client->FetchOutcomeToFile(id, cli.out_path);
        !st.ok()) {
      std::fprintf(stderr, "fetch failed: %s\n", st.ToString().c_str());
      return 1;
    }
    std::printf("job %llu outcome streamed to %s\n",
                static_cast<unsigned long long>(id), cli.out_path.c_str());
    return 0;
  }
  auto bytes = client->FetchOutcomeBytes(id);
  if (!bytes.ok()) {
    std::fprintf(stderr, "fetch failed: %s\n",
                 bytes.status().ToString().c_str());
    return 1;
  }
  auto outcome = automc::search::LoadOutcomeBytes(*bytes);
  if (!outcome.ok()) {
    std::fprintf(stderr, "bad outcome payload: %s\n",
                 outcome.status().ToString().c_str());
    return 1;
  }
  if (!cli.outcome_path.empty()) {
    if (automc::Status st =
            automc::search::SaveOutcomeFile(*outcome, cli.outcome_path);
        !st.ok()) {
      std::fprintf(stderr, "outcome save failed: %s\n",
                   st.ToString().c_str());
      return 1;
    }
    std::printf("outcome saved to %s\n", cli.outcome_path.c_str());
  }
  std::printf("job %llu: %d executions, %zu pareto points\n",
              static_cast<unsigned long long>(id), outcome->executions,
              outcome->pareto_points.size());
  for (size_t i = 0; i < outcome->pareto_points.size(); ++i) {
    const auto& p = outcome->pareto_points[i];
    std::printf("pareto[%zu]: PR %.1f%% Acc %.1f%%\n", i, 100.0 * p.pr,
                100.0 * p.acc);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace automc;
  // Honors AUTOMC_METRICS_OUT=<path>: write the metrics snapshot at exit.
  std::atexit([] { metrics::MetricsRegistry::Global().DumpIfConfigured(); });
  // A server that vanishes mid-request must surface as a Status, not kill
  // the client with SIGPIPE.
  std::signal(SIGPIPE, SIG_IGN);
  CliOptions cli;
  if (!ParseArgs(argc, argv, &cli)) {
    Usage();
    return 2;
  }
  if (cli.serve_mode()) return RunServeClient(cli);

  // Local runs stop cooperatively on Ctrl-C / kill: the search checkpoints
  // (when configured) and the atexit metrics flush still happens.
  std::signal(SIGINT, OnStopSignal);
  std::signal(SIGTERM, OnStopSignal);

  core::RunSpec spec = SpecFromCli(cli);
  if (Status st = core::ValidateRunSpec(spec); !st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    Usage();
    return 2;
  }

  core::CompressionTask task;
  if (!cli.cifar10_batches.empty()) {
    // Real CIFAR-10 binaries: comma-separated batch files; 90/10 split.
    std::vector<std::string> paths;
    std::string rest = cli.cifar10_batches;
    size_t pos;
    while ((pos = rest.find(',')) != std::string::npos) {
      paths.push_back(rest.substr(0, pos));
      rest = rest.substr(pos + 1);
    }
    if (!rest.empty()) paths.push_back(rest);
    auto ds = data::LoadCifar10(paths);
    if (!ds.ok()) {
      std::fprintf(stderr, "CIFAR-10 load failed: %s\n",
                   ds.status().ToString().c_str());
      return 1;
    }
    Rng split_rng(cli.seed);
    auto [train, test] = ds->Split(0.9, &split_rng);
    task.data.train = std::move(train);
    task.data.test = std::move(test);
    task.model_spec.image_size = 32;
    task.model_spec.base_width = 8;
  } else if (!cli.cifar100_train.empty()) {
    auto ds = data::LoadCifar100(cli.cifar100_train);
    if (!ds.ok()) {
      std::fprintf(stderr, "CIFAR-100 load failed: %s\n",
                   ds.status().ToString().c_str());
      return 1;
    }
    Rng split_rng(cli.seed);
    auto [train, test] = ds->Split(0.9, &split_rng);
    task.data.train = std::move(train);
    task.data.test = std::move(test);
    task.model_spec.image_size = 32;
    task.model_spec.base_width = 8;
  } else {
    // Synthetic datasets (c10/c100/tiny) are fully described by the spec.
    task = core::MakeTask(spec);
  }
  if (!cli.cifar10_batches.empty() || !cli.cifar100_train.empty()) {
    task.model_spec.family = cli.family;
    task.model_spec.depth = cli.depth;
    task.model_spec.num_classes = task.data.train.num_classes;
    task.pretrain_epochs = 4;
    task.base_train_epochs = cli.pretrain;
    task.search_data_fraction = 0.25;
    task.seed = cli.seed;
  }

  std::printf("task: %s-%d on %s, gamma=%.2f, budget=%d, searcher=%s\n",
              cli.family.c_str(), cli.depth, task.data.train.name.c_str(),
              cli.gamma, cli.budget, cli.searcher.c_str());

  search::SearchOutcome outcome;
  std::shared_ptr<nn::Model> base;
  search::SearchSpace space = search::SearchSpace::FullTable1();

  // Persistence: the experience store (crash-safe evaluation log, warm-starts
  // repeat runs) and the checkpointer (kill/resume for long searches).
  std::unique_ptr<store::ExperienceStore> experience_store;
  std::string store_path = cli.store_path;
  if (store_path.empty()) {
    if (const char* env = std::getenv("AUTOMC_STORE"); env && *env) {
      store_path = env;
    }
  }
  if (!store_path.empty()) {
    auto opened = store::ExperienceStore::Open(store_path);
    if (!opened.ok()) {
      std::fprintf(stderr, "cannot open experience store: %s\n",
                   opened.status().ToString().c_str());
      return 1;
    }
    experience_store = std::move(opened).value();
    std::printf("store: %s (%zu records)\n", store_path.c_str(),
                experience_store->size());
  }
  std::unique_ptr<store::SearchCheckpointer> checkpointer;
  const std::string ckpt_dir =
      cli.resume_dir.empty() ? cli.checkpoint_dir : cli.resume_dir;
  if (!ckpt_dir.empty()) {
    store::SearchCheckpointer::Options copts;
    copts.dir = ckpt_dir;
    checkpointer = std::make_unique<store::SearchCheckpointer>(copts);
    if (!cli.resume_dir.empty()) {
      if (Status st = checkpointer->LoadPending(); !st.ok()) {
        std::fprintf(stderr, "resume failed: %s\n", st.ToString().c_str());
        return 1;
      }
      std::printf("resuming from %s\n",
                  checkpointer->checkpoint_path().c_str());
    }
  }

  if (!cli.apply_scheme.empty()) {
    // No search: parse and apply the given scheme directly.
    auto parsed = compress::ParseScheme(cli.apply_scheme);
    if (!parsed.ok()) {
      std::fprintf(stderr, "bad scheme: %s\n",
                   parsed.status().ToString().c_str());
      return 2;
    }
    auto pretrained = core::PretrainModel(task);
    if (!pretrained.ok()) {
      std::fprintf(stderr, "pretraining failed: %s\n",
                   pretrained.status().ToString().c_str());
      return 1;
    }
    std::unique_ptr<nn::Model> model = std::move(pretrained).value();
    compress::CompressionContext ctx;
    ctx.train = &task.data.train;
    ctx.test = &task.data.test;
    ctx.pretrain_epochs = task.pretrain_epochs;
    ctx.batch_size = task.batch_size;
    ctx.lr = task.FinetuneLr();
    ctx.seed = cli.seed + 3;
    for (const auto& spec : *parsed) {
      auto compressor = compress::CreateCompressor(spec);
      if (!compressor.ok()) {
        std::fprintf(stderr, "%s\n", compressor.status().ToString().c_str());
        return 1;
      }
      compress::CompressionStats stats;
      Status st = (*compressor)->Compress(model.get(), ctx, &stats);
      if (!st.ok()) {
        std::fprintf(stderr, "step %s failed: %s\n", spec.ToString().c_str(),
                     st.ToString().c_str());
        return 1;
      }
      std::printf("%s: PR %.1f%%, acc %.1f%% -> %.1f%%\n",
                  spec.ToString().c_str(), 100.0 * stats.ParamReduction(),
                  100.0 * stats.acc_before, 100.0 * stats.acc_after);
    }
    if (cli.print_summary) {
      std::printf("%s", nn::Summarize(model.get()).ToString().c_str());
    }
    if (!cli.save_path.empty()) {
      if (Status st = nn::SaveModel(model.get(), cli.save_path); !st.ok()) {
        std::fprintf(stderr, "save failed: %s\n", st.ToString().c_str());
        return 1;
      }
      std::printf("saved to %s\n", cli.save_path.c_str());
    }
    return 0;
  }

  // Lets --export-model reuse the search's pretrained base model.
  core::StageCache stage_cache;
  core::RunHooks hooks;
  hooks.store = experience_store.get();
  hooks.checkpointer = checkpointer.get();
  hooks.stop = &g_stop;
  hooks.stage_cache = &stage_cache;
  auto result = core::RunSearch(spec, task, hooks);
  if (!result.ok()) {
    if (result.status().code() == StatusCode::kCancelled) {
      // Cooperative SIGINT/SIGTERM stop: state is already checkpointed.
      std::printf("search interrupted: %s\n",
                  result.status().message().c_str());
      if (!ckpt_dir.empty()) {
        std::printf("resume with: --resume %s\n", ckpt_dir.c_str());
      }
      return 0;
    }
    std::fprintf(stderr, "search failed: %s\n",
                 result.status().ToString().c_str());
    return 1;
  }
  outcome = std::move(result->outcome);
  base = result->base_model;

  if (experience_store != nullptr) {
    std::printf("store: %llu hits, %llu misses, %llu appended\n",
                static_cast<unsigned long long>(experience_store->hits()),
                static_cast<unsigned long long>(experience_store->misses()),
                static_cast<unsigned long long>(experience_store->appends()));
  }
  if (!cli.outcome_path.empty()) {
    if (Status st = search::SaveOutcomeFile(outcome, cli.outcome_path);
        !st.ok()) {
      std::fprintf(stderr, "outcome save failed: %s\n",
                   st.ToString().c_str());
      return 1;
    }
    std::printf("outcome saved to %s\n", cli.outcome_path.c_str());
  }

  std::printf("base: %.1f%% accuracy, %lld params\n",
              100.0 * nn::Trainer::Evaluate(base.get(), task.data.test),
              static_cast<long long>(base->ParamCount()));
  int best = -1;
  for (size_t i = 0; i < outcome.pareto_points.size(); ++i) {
    const auto& p = outcome.pareto_points[i];
    std::printf("pareto[%zu]: PR %.1f%% Acc %.1f%%  %s\n", i, 100.0 * p.pr,
                100.0 * p.acc,
                space.SchemeToString(outcome.pareto_schemes[i]).c_str());
    if (best < 0 || p.acc > outcome.pareto_points[static_cast<size_t>(best)].acc) {
      best = static_cast<int>(i);
    }
  }
  if (best < 0) {
    std::printf("no schemes found\n");
    return 0;
  }

  if (!cli.export_model_path.empty()) {
    // The registry's determinism contract: rebuild the winning scheme's
    // model exactly as a server job would (PickWinningScheme +
    // MaterializeScheme on the spec), so these bytes equal the published
    // "job-<id>" artifact for the same spec.
    auto win = core::PickWinningScheme(outcome);
    if (!win.ok()) {
      std::fprintf(stderr, "export failed: %s\n",
                   win.status().ToString().c_str());
      return 1;
    }
    const std::vector<int>& scheme = outcome.pareto_schemes[*win];
    auto model = core::MaterializeScheme(spec, scheme, &stage_cache);
    if (!model.ok()) {
      std::fprintf(stderr, "export failed: %s\n",
                   model.status().ToString().c_str());
      return 1;
    }
    if (Status st = nn::SaveModel(model->get(), cli.export_model_path);
        !st.ok()) {
      std::fprintf(stderr, "export save failed: %s\n", st.ToString().c_str());
      return 1;
    }
    std::printf("exported winning model (scheme [%s]) to %s\n",
                core::SchemeIndicesToString(scheme).c_str(),
                cli.export_model_path.c_str());
  }

  if (!cli.save_path.empty()) {
    // Re-apply the best scheme on the full data and save the result.
    std::unique_ptr<nn::Model> model = base->Clone();
    compress::CompressionContext ctx;
    ctx.train = &task.data.train;
    ctx.test = &task.data.test;
    ctx.pretrain_epochs = task.pretrain_epochs;
    ctx.batch_size = task.batch_size;
    ctx.lr = task.lr;
    ctx.seed = cli.seed + 9;
    auto point = core::ExecuteScheme(
        space, outcome.pareto_schemes[static_cast<size_t>(best)], model.get(),
        ctx);
    if (!point.ok()) {
      std::fprintf(stderr, "deploy failed: %s\n",
                   point.status().ToString().c_str());
      return 1;
    }
    if (Status st = nn::SaveModel(model.get(), cli.save_path); !st.ok()) {
      std::fprintf(stderr, "save failed: %s\n", st.ToString().c_str());
      return 1;
    }
    std::printf("saved compressed model (PR %.1f%%, Acc %.1f%%) to %s\n",
                100.0 * point->pr, 100.0 * point->acc, cli.save_path.c_str());
  }
  return 0;
}
