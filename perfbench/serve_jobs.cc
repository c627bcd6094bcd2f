// serve_jobs: a self-hosted `automc_serve --fleet 2` (one job slot and one
// thread per worker) driven closed-loop over one client connection. Two
// distinct specs are each submitted twice; the repeats are answered by the
// shared experience tier with zero strategy executions, so what a warm job
// still redoes shows as warm_job_s.
#include <algorithm>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "artifact/manifest.h"
#include "checks.h"
#include "core/run_spec.h"
#include "fleet.h"
#include "nn/serialize.h"
#include "search/report.h"
#include "workloads.h"

namespace perfbench {

namespace ac = automc::core;
namespace sv = automc::server;

namespace {

constexpr int kWorkers = 2;
constexpr double kPollIntervalMs = 5.0;
constexpr double kJobDeadlineMs = 150000.0;

// Two c10-sized specs of different families, pinned like search_c10's: a
// spec seed moves the search trajectory and with it the work (one method
// costs several times another), so with seed-dependent specs the five-run
// CPU-time spread of a cold job read 0.16; --seed changes nothing here.
std::vector<ac::RunSpec> Specs() {
  ac::RunSpec vgg;
  vgg.family = "vgg";
  vgg.depth = 13;
  vgg.dataset = "c10";
  vgg.budget = 4;
  vgg.seed = 1000;
  ac::RunSpec resnet;
  resnet.family = "resnet";
  resnet.depth = 20;
  resnet.dataset = "c100";
  resnet.budget = 4;
  resnet.seed = 2000;
  return {vgg, resnet};
}

struct Job {
  ac::RunSpec spec;
  uint64_t id = 0;
  int worker = 0;     // (id - 1) % N + 1, the coordinator's sharding
  int first_of = -1;  // index of the first submission of this spec
  double submit_ms = 0.0, running_ms = -1.0, done_ms = -1.0;
  // CPU time of the owning worker process at RUNNING and at DONE.
  double cpu_running_ms = 0.0, cpu_done_ms = 0.0;
  sv::JobState state = sv::JobState::kQueued;
  MetricSnapshot at_done;  // owning worker's registry when DONE was seen
};

// Samples of every round; the end-to-end metrics are their medians and the
// traced run reports the per-layer figures over all of them.
struct Samples {
  std::vector<double> jobs_per_s, cold_ms, warm_ms, cold_cpu_ms, warm_cpu_ms,
      peak_rss_mib, spawn_ms;
  std::vector<double> submit_ms, status_ms, queue_wait_ms, fetch_outcome_ms,
      fetch_model_ms, publish_ms;
  MetricSnapshot jobs_delta, front_delta;  // summed over rounds
  std::string per_job = "[";
};

double WorkerCpuMs(const Fleet& fleet, int worker, RunResult* res) {
  const int pid = fleet.WorkerPid(worker);
  if (pid < 0) res->Fail("worker " + std::to_string(worker) + " not found");
  return ProcessCpuMs(pid);
}

// Submits every job and polls status closed-loop until all are terminal.
void RunJobs(sv::Client& c, const Fleet& fleet, std::vector<Job>* jobs,
             Tracer* tr, Samples* s, RunResult* res) {
  for (Job& j : *jobs) {
    ScopedSpan span(tr, "server.submit");
    j.submit_ms = NowMs();
    auto id = c.Submit(j.spec);
    s->submit_ms.push_back(NowMs() - j.submit_ms);
    res->attempted++;
    if (!id.ok()) {
      res->failed++;
      res->Fail("submit: " + id.status().ToString());
      j.state = sv::JobState::kFailed;
      continue;
    }
    j.id = *id;
    j.worker = static_cast<int>((j.id - 1) % kWorkers) + 1;
  }
  const double first_submit = jobs->front().submit_ms;
  size_t open = static_cast<size_t>(
      std::count_if(jobs->begin(), jobs->end(), [](const Job& j) {
        return !sv::JobStateIsTerminal(j.state);
      }));
  ScopedSpan polling(tr, "server.status_polling");
  while (open > 0 && NowMs() - first_submit < kJobDeadlineMs) {
    for (Job& j : *jobs) {
      if (sv::JobStateIsTerminal(j.state)) continue;
      const double t = NowMs();
      auto info = c.JobStatus(j.id);
      const double now = NowMs();
      s->status_ms.push_back(now - t);
      res->attempted++;
      if (!info.ok()) {
        res->failed++;
        res->Fail("status: " + info.status().ToString());
        j.state = sv::JobState::kFailed;
        --open;
        continue;
      }
      j.state = info->state;
      if (j.running_ms < 0 && j.state != sv::JobState::kQueued) {
        j.running_ms = now;
        j.cpu_running_ms = WorkerCpuMs(fleet, j.worker, res);
      }
      if (sv::JobStateIsTerminal(j.state)) {
        --open;
        j.done_ms = now;
        j.cpu_done_ms = WorkerCpuMs(fleet, j.worker, res);
        j.at_done = ReadMetrics(&c, j.worker, res);
        if (j.state != sv::JobState::kDone) {
          res->Fail("job " + std::to_string(j.id) + " ended " +
                    sv::JobStateName(j.state) + ": " + info->error);
        }
      }
    }
    std::this_thread::sleep_for(
        std::chrono::microseconds(static_cast<int>(kPollIntervalMs * 1000)));
  }
  if (open > 0) res->Fail("jobs still running at the deadline");
}

// Outcomes: repeats byte-equal their first submission and ran no strategy
// on their worker (the registry delta since the first one finished).
void CheckOutcomes(sv::Client& c, const std::vector<Job>& jobs, Tracer* tr,
                   Samples* s, RunResult* res) {
  std::vector<std::string> outcome(jobs.size());
  for (size_t i = 0; i < jobs.size(); ++i) {
    ScopedSpan span(tr, "server.fetch_outcome");
    const double t = NowMs();
    auto bytes = c.FetchOutcomeBytes(jobs[i].id);
    s->fetch_outcome_ms.push_back(NowMs() - t);
    res->attempted++;
    if (!bytes.ok()) {
      res->failed++;
      res->Fail("fetch outcome: " + bytes.status().ToString());
      continue;
    }
    outcome[i] = *bytes;
    if (!automc::search::LoadOutcomeBytes(outcome[i]).ok()) {
      res->Fail("job " + std::to_string(jobs[i].id) +
                ": outcome does not decode");
    }
  }
  for (size_t i = 0; i < jobs.size(); ++i) {
    const Job& j = jobs[i];
    if (j.first_of < 0) continue;
    const Job& first = jobs[static_cast<size_t>(j.first_of)];
    if (auto st = CheckBytesEqual(
            "repeat job " + std::to_string(j.id) + " outcome vs job " +
                std::to_string(first.id),
            outcome[i], outcome[static_cast<size_t>(j.first_of)]);
        !st.ok()) {
      res->Fail(st.ToString());
    }
    const double executed =
        j.at_done.Minus(first.at_done).Get("search.strategy_executions");
    if (first.worker != j.worker || executed != 0.0) {
      res->Fail("repeat job " + std::to_string(j.id) + " ran " +
                std::to_string(executed) + " real strategy executions");
    }
  }
}

// Published models: digest, decode with nn::LoadModel, and re-evaluation on
// MakeTask(spec). A traced run also republishes each into a scratch
// registry to time Registry::Publish.
void CheckModels(sv::Client& c, const std::vector<Job>& jobs,
                 const std::map<std::string, ac::CompressionTask>& tasks,
                 const std::string& dir, Tracer* tr, Samples* s,
                 RunResult* res) {
  std::unique_ptr<automc::artifact::Registry> scratch;
  if (tr != nullptr) {
    automc::artifact::Registry::Options ro;
    ro.dir = dir + "/scratch_registry";
    auto reg = automc::artifact::Registry::Open(ro);
    if (reg.ok()) scratch = std::move(*reg);
  }
  for (const Job& j : jobs) {
    const std::string name = "job-" + std::to_string(j.id);
    std::string bytes;
    ScopedSpan span(tr, "server.fetch_model");
    const double t = NowMs();
    auto info = c.FetchModel(name, [&](std::string_view chunk) {
      bytes.append(chunk);
      return automc::Status::OK();
    });
    s->fetch_model_ms.push_back(NowMs() - t);
    span.End();
    res->attempted++;
    if (!info.ok()) {
      res->failed++;
      res->Fail("fetch " + name + ": " + info.status().ToString());
      continue;
    }
    if (auto st = CheckDigest(bytes, info->blob_digest); !st.ok()) {
      res->Fail(name + ": " + st.ToString());
    }
    const std::string path = dir + "/" + name + ".amcm";
    {
      std::ofstream out(path, std::ios::binary);
      out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    }
    auto model = automc::nn::LoadModel(path);
    if (!model.ok()) {
      res->Fail(name + " does not decode: " + model.status().ToString());
      continue;
    }
    const ac::CompressionTask& task = tasks.at(ac::RunSpecSummary(j.spec));
    if (auto st = CheckReevaluation(model->get(), task.data.test,
                                    info->acc, info->params);
        !st.ok()) {
      res->Fail(name + ": " + st.ToString());
    }
    if (scratch) {
      automc::artifact::Provenance prov;
      prov.summary = "perfbench republish";
      ScopedSpan pub(tr, "artifact.publish");
      const double tp = NowMs();
      auto published = scratch->Publish(name, bytes, prov);
      s->publish_ms.push_back(NowMs() - tp);
      if (!published.ok()) {
        res->Fail("publish: " + published.status().ToString());
      }
    }
  }
}

// One round on a fresh fleet: each spec submitted twice, polled to DONE,
// then every outcome and model fetched and checked.
void RunRound(const Fleet& fleet,
              const std::map<std::string, ac::CompressionTask>& tasks,
              const std::string& dir, Tracer* tr, Samples* s, RunResult* res) {
  auto client = sv::Client::Connect(fleet.socket());
  if (!client.ok()) {
    res->Fail("connect: " + client.status().ToString());
    return;
  }
  sv::Client& c = *client;
  const std::vector<ac::RunSpec> specs = Specs();
  std::vector<Job> jobs;
  for (int repeat = 0; repeat < 2; ++repeat) {
    for (size_t i = 0; i < specs.size(); ++i) {
      Job j;
      j.spec = specs[i];
      j.first_of = repeat == 0 ? -1 : static_cast<int>(i);
      jobs.push_back(j);
    }
  }
  std::vector<MetricSnapshot> worker_start(kWorkers + 1);
  MetricSnapshot front_start;
  if (tr != nullptr) {
    for (int w = 1; w <= kWorkers; ++w) {
      worker_start[static_cast<size_t>(w)] = ReadMetrics(&c, w, res);
    }
    front_start = ReadMetrics(&c, 0, res);
  }

  RunJobs(c, fleet, &jobs, tr, s, res);
  double last_done = jobs.front().submit_ms;
  for (const Job& j : jobs) {
    last_done = std::max(last_done, j.done_ms);
    const bool warm = j.first_of >= 0;
    (warm ? s->warm_ms : s->cold_ms).push_back(j.done_ms - j.running_ms);
    (warm ? s->warm_cpu_ms : s->cold_cpu_ms)
        .push_back(j.cpu_done_ms - j.cpu_running_ms);
    s->queue_wait_ms.push_back(j.running_ms - j.submit_ms);
  }
  s->jobs_per_s.push_back(static_cast<double>(jobs.size()) /
                          ((last_done - jobs.front().submit_ms) / 1000.0));
  s->peak_rss_mib.push_back(fleet.PeakRssMiB());

  CheckOutcomes(c, jobs, tr, s, res);
  CheckModels(c, jobs, tasks, dir, tr, s, res);

  if (tr == nullptr) return;
  // Job-side counters live in the workers: per-job deltas of the owning
  // worker's registry (jobs on one worker run one after another).
  for (const Job& j : jobs) {
    const MetricSnapshot& prev =
        j.first_of >= 0 ? jobs[static_cast<size_t>(j.first_of)].at_done
                        : worker_start[static_cast<size_t>(j.worker)];
    const MetricSnapshot d = j.at_done.Minus(prev);
    s->jobs_delta.Accumulate(d);
    s->per_job += std::string(s->per_job.size() > 1 ? "," : "") +
                  "{\"job\":" + std::to_string(j.id) + ",\"warm\":" +
                  (j.first_of >= 0 ? "true" : "false") + ",\"run_ms\":" +
                  JsonNumber(j.done_ms - j.running_ms) +
                  ",\"strategy_executions\":" +
                  JsonNumber(d.Get("search.strategy_executions")) +
                  ",\"store_hits\":" + JsonNumber(d.Get("store.hits")) +
                  ",\"store_shared_hits\":" +
                  JsonNumber(d.Get("store.shared_hits")) + "}";
  }
  s->front_delta.Accumulate(ReadMetrics(&c, 0, res).Minus(front_start));
}

// Set-up: the tasks the model checks re-evaluate on (MakeTask of each
// spec) and a started fleet.
struct Setup {
  std::map<std::string, ac::CompressionTask> tasks;
  std::unique_ptr<Fleet> fleet;
};

automc::Result<Setup> SetUp(const Options& opts, const std::string& fdir) {
  Setup out;
  for (const ac::RunSpec& spec : Specs()) {
    out.tasks[ac::RunSpecSummary(spec)] = ac::MakeTask(spec);
  }
  AUTOMC_ASSIGN_OR_RETURN(
      out.fleet,
      Fleet::Start(opts.serve_bin, fdir, fdir + "/artifacts", kWorkers));
  return out;
}

// Set-ups timed per run for setup_s; all but the last fleet are stopped at
// once, and later rounds set up again untimed.
constexpr int kTimedSetups = 3;

}  // namespace

RunResult RunServeJobs(const Options& opts) {
  RunResult res;
  Tracer tracer;
  Tracer* tr = opts.trace ? &tracer : nullptr;
  const std::string dir = MakeRunDir(opts.work);
  res.context["threads"] = JsonString("AUTOMC_THREADS=1 per worker");
  res.context["fleet_workers"] = std::to_string(kWorkers);

  // Every round gets a fresh fleet: a used one's experience tier would
  // serve every job warm.
  Samples s;
  std::vector<double> setup_ms;
  const double start = NowMs();
  int fleets = 0;
  for (int round = 0; res.correct; ++round) {
    automc::Result<Setup> set_up = automc::Status::Internal("not set up");
    const int tries = round == 0 ? kTimedSetups : 1;
    for (int i = 0; i < tries; ++i) {
      const double t = NowMs();
      set_up = SetUp(opts, dir + "/f" + std::to_string(fleets++));
      if (round == 0) setup_ms.push_back(NowMs() - t);
      res.attempted++;
      if (!set_up.ok()) break;
      s.spawn_ms.push_back(set_up->fleet->spawn_ms());
      if (i + 1 < tries) set_up->fleet->Stop();
    }
    if (!set_up.ok()) {
      res.failed++;
      res.Fail("set-up: " + set_up.status().ToString());
      break;
    }
    RunRound(*set_up->fleet, set_up->tasks, dir, tr, &s, &res);
    set_up->fleet->Stop();
    if (NowMs() - start >= opts.seconds * 1000.0) break;
  }
  RemoveTree(dir);
  if (!res.correct) return res;

  res.context["rounds"] = std::to_string(s.jobs_per_s.size());
  res.Add("fleet.spawn_ms", Median(s.spawn_ms), "ms");
  if (!opts.trace) {
    // The figures under the names the workload's own table uses.
    res.Add("jobs_per_s", Median(s.jobs_per_s), "jobs/s");
    res.Add("cold_job_s", Median(s.cold_ms) / 1000.0, "s");
    res.Add("warm_job_s", Median(s.warm_ms) / 1000.0, "s");
    res.Add("status_rtt_ms", Median(s.status_ms), "ms");
    res.Add("setup_s", Median(setup_ms) / 1000.0, "s");
    res.Add("peak_rss_mib", Median(s.peak_rss_mib), "MiB");
    // Cold job: RUNNING seen to DONE seen, and the owning worker's CPU time
    // over it; the warm repeats are the secondary operation.
    res.Add("primary_op_ms", Median(s.cold_ms), "ms");
    res.Add("primary_op_cpu_ms", Median(s.cold_cpu_ms), "ms");
    res.Add("secondary_op_ms", Median(s.warm_ms), "ms");
    res.Add("secondary_op_cpu_ms", Median(s.warm_cpu_ms), "ms");
    return res;
  }
  const MetricSnapshot& all = s.jobs_delta;
  res.context["per_job"] = s.per_job + "]";
  AddSearchLayerMetrics(all, &res);
  res.Add("pool.tasks", all.Get("pool.tasks"), "count");
  res.Add("pool.steal_count", all.Get("pool.steal_count"), "count");
  res.Add("common.sha256_mib_per_s",
          Sha256MiBPerS(SeededBytes(opts.seed, 1u << 20)), "MiB/s");
  AddServerLayerMetrics(s.front_delta, &res);
  res.Add("artifact.publish_ms", Median(s.publish_ms), "ms");
  res.Add("server.submit_ms", Median(s.submit_ms), "ms");
  res.Add("server.status_rtt_ms", Median(s.status_ms), "ms");
  res.Add("server.queue_wait_ms", Median(s.queue_wait_ms), "ms");
  res.Add("server.fetch_outcome_ms", Median(s.fetch_outcome_ms), "ms");
  res.Add("server.fetch_model_ms", Median(s.fetch_model_ms), "ms");
  res.context["trace_spans"] = tracer.ToJson();
  return res;
}

}  // namespace perfbench
