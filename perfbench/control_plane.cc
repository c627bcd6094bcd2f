// control_plane: read-only traffic against the same fleet. Set-up leaves a
// few finished tiny jobs and one 1 MiB multi-chunk artifact the benchmark
// published itself; then seeded open-loop Poisson schedules
// (loadgen::BuildSchedule) send, at fixed rates below saturation over
// min(4, nproc) connections, first status / list / fetch-outcome and then
// fetch-model alone, then each class again as a burst faster than the
// daemon can answer. Every latency is a raw sample counted from the
// request's scheduled send time, so a stall charges the requests queued
// behind it.
#include <sched.h>
#include <sys/socket.h>

#include <algorithm>
#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "artifact/manifest.h"
#include "checks.h"
#include "common/bytes.h"
#include "common/net.h"
#include "core/run_spec.h"
#include "fleet.h"
#include "server/loadgen.h"
#include "workloads.h"

namespace perfbench {

namespace sv = automc::server;
namespace lg = automc::server::loadgen;

namespace {

constexpr int kWorkers = 2;
constexpr int kSeedJobs = 2;
constexpr size_t kArtifactBytes = 1u << 20;
constexpr const char* kArtifactName = "perfbench-1mib";
// Two open-loop phases, both below saturation. The small-request phase
// (status 75 / list 10 / fetch-outcome 15) takes kSmallShare of the run;
// at 2000 req/s it gives >= 1000 status samples (ten beyond the p99) in
// runs of 1 s or longer. The fetch-model phase streams the 1 MiB artifact
// 10 times a second.
constexpr double kSmallQps = 2000.0;
constexpr double kSmallMix[lg::kNumOps] = {75, 10, 0, 0, 15, 0};
constexpr double kSmallShare = 0.6;
constexpr double kFetchQps = 10.0;
// Then the same two request classes again, each as a burst scheduled far
// faster than the pinned daemon can answer: the wall time per request is
// the inverse of its saturated throughput. Open-loop latencies on the shared
// reference machine moved by a quarter to a third between runs (README.md,
// "Steadiness"); the burst wall time is what the result line gates.
constexpr double kBurstSmallQps = 100000.0, kBurstSmallSeconds = 0.5;
constexpr double kBurstFetchQps = 1000.0, kBurstFetchSeconds = 0.2;
constexpr double kDrainDeadlineMs = 30000.0;
constexpr int kTimedSetups = 3;

// The seeding jobs are the same for every --seed, so every run's small
// requests address the same jobs and outcomes; --seed varies the schedules
// and the artifact's bytes.
automc::core::RunSpec SeedJobSpec(int i) {
  automc::core::RunSpec spec;
  spec.family = "resnet";
  spec.depth = 20;
  spec.dataset = "tiny";
  spec.searcher = "random";
  spec.budget = 2;
  spec.seed = 3000 + static_cast<uint64_t>(i);
  return spec;
}

struct Setup {
  std::unique_ptr<Fleet> fleet;
  std::vector<uint64_t> job_ids;
  std::vector<std::string> outcomes;  // by job index
  double publish_ms = 0.0, seed_jobs_ms = 0.0;
};

// Publishes the artifact, starts the fleet, runs the seeding jobs to DONE
// and fetches their outcomes (the bytes later fetches must reproduce).
automc::Result<Setup> SetUp(const Options& opts, const std::string& fdir,
                            const std::string& blob) {
  Setup s;
  const std::string art = fdir + "/artifacts";
  const double t_publish = NowMs();
  {
    automc::artifact::Registry::Options ro;
    ro.dir = art;
    AUTOMC_ASSIGN_OR_RETURN(auto registry, automc::artifact::Registry::Open(ro));
    automc::artifact::Provenance prov;
    prov.summary = "perfbench 1 MiB artifact";
    AUTOMC_RETURN_IF_ERROR(registry->Publish(kArtifactName, blob, prov).status());
  }
  s.publish_ms = NowMs() - t_publish;
  AUTOMC_ASSIGN_OR_RETURN(s.fleet,
                          Fleet::Start(opts.serve_bin, fdir, art, kWorkers));
  AUTOMC_ASSIGN_OR_RETURN(sv::Client c, sv::Client::Connect(s.fleet->socket()));
  const double t0 = NowMs();
  for (int i = 0; i < kSeedJobs; ++i) {
    AUTOMC_ASSIGN_OR_RETURN(uint64_t id, c.Submit(SeedJobSpec(i)));
    s.job_ids.push_back(id);
  }
  for (uint64_t id : s.job_ids) {
    while (true) {
      AUTOMC_ASSIGN_OR_RETURN(sv::JobInfo info, c.JobStatus(id));
      if (info.state == sv::JobState::kDone) break;
      if (sv::JobStateIsTerminal(info.state) || NowMs() - t0 > 60000.0) {
        return automc::Status::Internal("seeding job " + std::to_string(id) +
                                        " did not finish: " + info.error);
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    AUTOMC_ASSIGN_OR_RETURN(std::string bytes, c.FetchOutcomeBytes(id));
    s.outcomes.push_back(std::move(bytes));
  }
  s.seed_jobs_ms = NowMs() - t0;
  return s;
}

// One connection of the open-loop client: a sender that fires its share of
// the schedule on time and a receiver that matches replies in FIFO order.
struct Conn {
  int fd = -1;
  std::vector<size_t> ops;  // schedule indices, ascending
  std::mutex mu;
  std::condition_variable cv;
  std::deque<size_t> in_flight;  // sent, awaiting a reply
  bool sender_done = false;
  bool receiver_done = false;
  std::vector<double> latency_ms[lg::kNumOps];
  std::vector<double> lag_ms;
  int64_t failed = 0;
  std::vector<std::string> errors;
  double last_reply_ms = 0.0;
};

struct Expect {
  const std::vector<lg::ScheduledOp>* schedule;
  const Setup* setup;
  const std::string* blob;
  double start_ms;
};

std::string Payload(const lg::ScheduledOp& op, size_t index,
                    const Setup& setup) {
  automc::ByteWriter w;
  const uint64_t id = setup.job_ids[index % setup.job_ids.size()];
  switch (op.op) {
    case lg::Op::kStatus:
    case lg::Op::kFetch:
      w.U64(id);
      break;
    case lg::Op::kFetchModel:
      w.Str(kArtifactName);
      break;
    default:
      break;
  }
  return w.Take();
}

sv::MsgType Verb(lg::Op op) {
  switch (op) {
    case lg::Op::kStatus:
      return sv::MsgType::kJobStatus;
    case lg::Op::kList:
      return sv::MsgType::kListJobs;
    case lg::Op::kFetch:
      return sv::MsgType::kFetchOutcome;
    default:
      return sv::MsgType::kFetchModel;
  }
}

// Reads one op's whole reply and checks it; "" when correct.
std::string ReadReply(int fd, lg::Op op, size_t index, const Expect& e) {
  auto frame = sv::ReadFrame(fd);
  if (!frame.ok()) return "transport: " + frame.status().ToString();
  const auto type = static_cast<sv::MsgType>(frame->type);
  const size_t job = index % e.setup->job_ids.size();
  switch (op) {
    case lg::Op::kStatus: {
      automc::ByteReader r(frame->payload);
      sv::JobInfo info;
      if (type != sv::MsgType::kStatus || !sv::DecodeJobInfo(&r, &info) ||
          info.id != e.setup->job_ids[job] || info.state != sv::JobState::kDone) {
        return "status reply is not DONE for the job asked";
      }
      return "";
    }
    case lg::Op::kList: {
      automc::ByteReader r(frame->payload);
      uint32_t count = 0;
      if (type != sv::MsgType::kJobList || !r.U32(&count) ||
          count != e.setup->job_ids.size()) {
        return "job list does not hold the seeded jobs";
      }
      return "";
    }
    case lg::Op::kFetch: {
      if (type != sv::MsgType::kOutcome) return "fetch outcome: wrong reply";
      auto st = CheckBytesEqual("fetched outcome", frame->payload,
                                e.setup->outcomes[job]);
      return st.ok() ? "" : st.ToString();
    }
    default: {
      if (type != sv::MsgType::kModelStart) return "fetch model: no start";
      std::string bytes;
      while (true) {
        auto next = sv::ReadFrame(fd);
        if (!next.ok()) return "transport: " + next.status().ToString();
        const auto t = static_cast<sv::MsgType>(next->type);
        if (t == sv::MsgType::kModelChunk) {
          bytes += next->payload;
        } else if (t == sv::MsgType::kModelEnd) {
          break;
        } else {
          return "fetch model: unexpected frame mid-stream";
        }
      }
      auto st = CheckBytesEqual("fetched artifact vs published blob", bytes,
                                *e.blob);
      return st.ok() ? "" : st.ToString();
    }
  }
}

void SendLoop(Conn* c, const Expect& e) {
  for (size_t idx : c->ops) {
    const lg::ScheduledOp& op = (*e.schedule)[idx];
    const double due = e.start_ms + static_cast<double>(op.at_ns) / 1e6;
    const std::string payload = Payload(op, idx, *e.setup);
    std::this_thread::sleep_for(
        std::chrono::duration<double, std::milli>(due - NowMs()));
    c->lag_ms.push_back(NowMs() - due);
    {
      std::lock_guard<std::mutex> lock(c->mu);
      c->in_flight.push_back(idx);
    }
    c->cv.notify_one();
    if (!sv::WriteFrame(c->fd, Verb(op.op), payload).ok()) break;
  }
  std::lock_guard<std::mutex> lock(c->mu);
  c->sender_done = true;
  c->cv.notify_one();
}

void ReceiveLoop(Conn* c, const Expect& e) {
  size_t handled = 0;
  bool broken = false;
  while (handled < c->ops.size()) {
    size_t idx = 0;
    {
      std::unique_lock<std::mutex> lock(c->mu);
      c->cv.wait(lock, [&] { return !c->in_flight.empty() || c->sender_done; });
      if (c->in_flight.empty()) break;  // sender gave up: the rest never went
      idx = c->in_flight.front();
      c->in_flight.pop_front();
    }
    const lg::ScheduledOp& op = (*e.schedule)[idx];
    ++handled;
    if (broken) {
      c->failed++;
      continue;
    }
    const std::string err = ReadReply(c->fd, op.op, idx, e);
    const double due = e.start_ms + static_cast<double>(op.at_ns) / 1e6;
    if (!err.empty()) {
      c->failed++;
      if (c->errors.size() < 4) c->errors.push_back(err);
      broken = err.rfind("transport", 0) == 0;
      continue;
    }
    c->last_reply_ms = NowMs();
    c->latency_ms[static_cast<int>(op.op)].push_back(c->last_reply_ms - due);
  }
  c->failed += static_cast<int64_t>(c->ops.size() - handled);
  std::lock_guard<std::mutex> lock(c->mu);
  c->receiver_done = true;
}

// Pins the daemon to the last CPU this process may use and the load
// generator (every thread started from here on) to the others; returns the
// daemon's CPU. Unpinned, about one run in eight read ~35% less daemon CPU
// per small request and half the status latency of the others, by where
// the scheduler happened to place the coordinator and its workers
// (README.md, "Steadiness"). No training runs in this workload, so the
// daemon needs no second CPU.
int PinDaemonApart(const Fleet& fleet) {
  cpu_set_t mine;
  CPU_ZERO(&mine);
  ::sched_getaffinity(0, sizeof(mine), &mine);
  int last = 0;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &mine)) last = c;
  }
  fleet.PinTo(last);
  if (CPU_COUNT(&mine) > 1) CPU_CLR(last, &mine);
  ::sched_setaffinity(0, sizeof(mine), &mine);
  return last;
}

// One open-loop phase: `params`' schedule sent over fresh connections, every
// reply checked, plus the daemon's CPU time over the phase.
struct Phase {
  std::vector<double> latency_ms[lg::kNumOps];
  std::vector<double> lag_ms;
  int64_t attempted = 0, failed = 0, answered = 0;
  std::vector<std::string> errors;
  double daemon_cpu_ms = 0.0;
  double wall_ms = 0.0;  // first scheduled send to the last reply

  const std::vector<double>& Latency(lg::Op op) const {
    return latency_ms[static_cast<int>(op)];
  }
};

Phase RunPhase(const Setup& setup, const std::string& blob,
               const lg::ScheduleParams& params) {
  Phase out;
  const std::vector<lg::ScheduledOp> schedule = lg::BuildSchedule(params);
  std::vector<std::unique_ptr<Conn>> cs;
  for (int i = 0; i < params.connections; ++i) {
    auto fd = automc::net::ConnectAddress(setup.fleet->socket());
    if (!fd.ok()) {
      out.errors.push_back("connect: " + fd.status().ToString());
      break;
    }
    cs.push_back(std::make_unique<Conn>());
    cs.back()->fd = *fd;
  }
  if (cs.size() != static_cast<size_t>(params.connections)) {
    for (auto& c : cs) ::close(c->fd);
    out.attempted = out.failed = static_cast<int64_t>(schedule.size());
    return out;
  }
  for (size_t i = 0; i < schedule.size(); ++i) {
    cs[schedule[i].conn % cs.size()]->ops.push_back(i);
  }
  const double cpu_before = setup.fleet->CpuMs();
  Expect expect{&schedule, &setup, &blob, NowMs() + 20.0};
  std::vector<std::thread> threads;
  for (auto& c : cs) {
    threads.emplace_back(SendLoop, c.get(), std::cref(expect));
    threads.emplace_back(ReceiveLoop, c.get(), std::cref(expect));
  }
  // A reply that never comes must not hang the run: past the deadline the
  // sockets are shut down, which fails the outstanding requests.
  std::thread watchdog([&] {
    const double deadline =
        expect.start_ms + params.duration_s * 1000.0 + kDrainDeadlineMs;
    while (NowMs() < deadline) {
      bool done = true;
      for (auto& c : cs) {
        std::lock_guard<std::mutex> lock(c->mu);
        done = done && c->receiver_done;
      }
      if (done) return;
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    for (auto& c : cs) ::shutdown(c->fd, SHUT_RDWR);
  });
  for (auto& t : threads) t.join();
  watchdog.join();
  out.daemon_cpu_ms = setup.fleet->CpuMs() - cpu_before;
  for (auto& c : cs) {
    out.wall_ms = std::max(out.wall_ms, c->last_reply_ms - expect.start_ms);
  }

  for (auto& c : cs) {
    ::close(c->fd);
    out.attempted += static_cast<int64_t>(c->ops.size());
    out.failed += c->failed;
    out.errors.insert(out.errors.end(), c->errors.begin(), c->errors.end());
    for (int i = 0; i < lg::kNumOps; ++i) {
      out.latency_ms[i].insert(out.latency_ms[i].end(),
                               c->latency_ms[i].begin(),
                               c->latency_ms[i].end());
      out.answered += static_cast<int64_t>(c->latency_ms[i].size());
    }
    out.lag_ms.insert(out.lag_ms.end(), c->lag_ms.begin(), c->lag_ms.end());
  }
  return out;
}

}  // namespace

RunResult RunControlPlane(const Options& opts) {
  RunResult res;
  const std::string dir = MakeRunDir(opts.work);
  const int conns = ParallelLanes();
  const std::string blob = SeededBytes(opts.seed, kArtifactBytes);
  res.context["threads"] = JsonString("AUTOMC_THREADS=1 per worker");
  res.context["fleet_workers"] = std::to_string(kWorkers);
  res.context["connections"] = std::to_string(conns);
  res.context["small_qps"] = JsonNumber(kSmallQps);
  res.context["fetch_model_qps"] = JsonNumber(kFetchQps);

  // Set-up is disk-bound: the seeding jobs' checkpoint, store and publish
  // writes each end in an fsync. It runs kTimedSetups times, each under a
  // fresh directory, and setup_s is the median; all but the last fleet are
  // stopped at once.
  std::vector<double> setup_times;
  automc::Result<Setup> set_up = automc::Status::Internal("not set up");
  for (int i = 0; i < kTimedSetups; ++i) {
    const double t = NowMs();
    set_up = SetUp(opts, dir + "/fleet" + std::to_string(i), blob);
    setup_times.push_back(NowMs() - t);
    res.attempted++;
    if (!set_up.ok()) break;
    if (i + 1 < kTimedSetups) set_up->fleet->Stop();
  }
  if (!set_up.ok()) {
    res.failed++;
    res.Fail("set-up: " + set_up.status().ToString());
    RemoveTree(dir);
    return res;
  }
  Setup setup = std::move(*set_up);
  const double setup_ms = Median(setup_times);
  res.Add("setup_s", setup_ms / 1000.0, "s");
  res.Add("publish_ms", setup.publish_ms, "ms");
  res.Add("fleet.spawn_ms", setup.fleet->spawn_ms(), "ms");
  res.Add("seed_jobs_ms", setup.seed_jobs_ms, "ms");

  auto control = sv::Client::Connect(setup.fleet->socket());
  if (!control.ok()) {
    res.Fail("connect: " + control.status().ToString());
    setup.fleet->Stop();
    RemoveTree(dir);
    return res;
  }
  MetricSnapshot front_before;
  if (opts.trace) front_before = ReadMetrics(&*control, 0, &res);

  res.context["daemon_cpu"] = std::to_string(PinDaemonApart(*setup.fleet));
  // The phases run one after the other, so the daemon CPU of each is that
  // request class's alone.
  lg::ScheduleParams small;
  small.qps = kSmallQps;
  small.duration_s = kSmallShare * opts.seconds;
  small.connections = conns;
  small.seed = opts.seed;
  for (int i = 0; i < lg::kNumOps; ++i) small.mix.weight[i] = kSmallMix[i];
  lg::ScheduleParams fetch = small;
  fetch.qps = kFetchQps;
  fetch.duration_s = (1.0 - kSmallShare) * opts.seconds;
  fetch.seed = opts.seed + 1;
  for (int i = 0; i < lg::kNumOps; ++i) fetch.mix.weight[i] = 0.0;
  fetch.mix.weight[static_cast<int>(lg::Op::kFetchModel)] = 1.0;

  const Phase sp = RunPhase(setup, blob, small);
  // Peak RSS before any artifact streams: how many 1 MiB fetches overlap
  // depends on the schedule's seed.
  const double peak_rss_mib = setup.fleet->PeakRssMiB();
  const Phase fp = RunPhase(setup, blob, fetch);
  lg::ScheduleParams small_burst = small;
  small_burst.qps = kBurstSmallQps;
  small_burst.duration_s = kBurstSmallSeconds;
  small_burst.seed = opts.seed + 2;
  lg::ScheduleParams fetch_burst = fetch;
  fetch_burst.qps = kBurstFetchQps;
  fetch_burst.duration_s = kBurstFetchSeconds;
  fetch_burst.seed = opts.seed + 3;
  const Phase sb = RunPhase(setup, blob, small_burst);
  const Phase fb = RunPhase(setup, blob, fetch_burst);
  for (const Phase* p : {&sp, &fp, &sb, &fb}) {
    res.attempted += p->attempted;
    res.failed += p->failed;
    for (const std::string& e : p->errors) res.Fail(e);
  }

  const auto& status = sp.Latency(lg::Op::kStatus);
  const auto& fetch_model = fp.Latency(lg::Op::kFetchModel);
  auto per_request_ms = [](const Phase& p) {
    return p.wall_ms / static_cast<double>(std::max<int64_t>(p.answered, 1));
  };
  const double small_cpu_ms =
      sp.daemon_cpu_ms / static_cast<double>(std::max<int64_t>(sp.answered, 1));
  const double fetch_model_cpu_ms =
      fp.daemon_cpu_ms / static_cast<double>(std::max<int64_t>(fp.answered, 1));
  res.context["status_samples"] = std::to_string(status.size());
  res.context["fetch_model_samples"] = std::to_string(fetch_model.size());
  res.Add("server.status_p50_ms", Median(status), "ms");
  // p99 only when at least ten samples lie beyond it.
  if (status.size() >= 1000) {
    res.Add("server.status_p99_ms", Percentile(status, 0.99), "ms");
  }
  res.Add("server.list_p50_ms", Median(sp.Latency(lg::Op::kList)), "ms");
  res.Add("server.fetch_model_p50_ms", Median(fetch_model), "ms");
  res.Add("small_request_cpu_us", small_cpu_ms * 1000.0, "us");
  res.Add("fetch_model_cpu_ms", fetch_model_cpu_ms, "ms");
  res.Add("peak_rss_end_mib", setup.fleet->PeakRssMiB(), "MiB");
  res.context["burst_small_requests"] = std::to_string(sb.answered);
  res.context["burst_fetch_models"] = std::to_string(fb.answered);
  // The daemon's CPU per request in the bursts: near the wall time per
  // request when the daemon, not the load generator, is the bottleneck.
  res.Add("burst_small_daemon_cpu_ms", sb.daemon_cpu_ms /
          static_cast<double>(std::max<int64_t>(sb.answered, 1)), "ms");
  res.Add("burst_fetch_daemon_cpu_ms", fb.daemon_cpu_ms /
          static_cast<double>(std::max<int64_t>(fb.answered, 1)), "ms");

  if (!opts.trace) {
    res.Add("peak_rss_mib", peak_rss_mib, "MiB");
    // Small requests (status / list / fetch-outcome): wall time per request
    // of the burst, and the daemon's CPU time per request of the open-loop
    // phase; fetch-model of the 1 MiB artifact is the secondary operation.
    res.Add("primary_op_ms", per_request_ms(sb), "ms");
    res.Add("primary_op_cpu_ms", small_cpu_ms, "ms");
    res.Add("secondary_op_ms", per_request_ms(fb), "ms");
    res.Add("secondary_op_cpu_ms", fetch_model_cpu_ms, "ms");
  } else {
    const MetricSnapshot front =
        ReadMetrics(&*control, 0, &res).Minus(front_before);
    // The fleet is fresh, so the workers' registries hold the seeding jobs.
    MetricSnapshot jobs;
    for (int w = 1; w <= kWorkers; ++w) {
      jobs.Accumulate(ReadMetrics(&*control, w, &res));
    }
    AddSearchLayerMetrics(jobs, &res);
    res.Add("pool.tasks", jobs.Get("pool.tasks"), "count");
    res.Add("pool.steal_count", jobs.Get("pool.steal_count"), "count");
    AddServerLayerMetrics(front, &res);
    std::vector<double> fetch_blob_ms;
    automc::artifact::Registry::Options ro;
    ro.dir = dir + "/fleet" + std::to_string(kTimedSetups - 1) + "/artifacts";
    auto registry = automc::artifact::Registry::Open(ro);
    if (!registry.ok()) res.Fail("open registry: " + registry.status().ToString());
    for (int i = 0; i < 5 && registry.ok(); ++i) {
      const double t = NowMs();
      auto got = (*registry)->FetchBlob(kArtifactName);
      fetch_blob_ms.push_back(NowMs() - t);
      if (!got.ok() || *got != blob) res.Fail("local FetchBlob mismatch");
    }
    res.Add("artifact.fetch_blob_ms", Median(fetch_blob_ms), "ms");
    res.Add("common.sha256_mib_per_s", Sha256MiBPerS(blob), "MiB/s");
    std::vector<double> lag = sp.lag_ms;
    lag.insert(lag.end(), fp.lag_ms.begin(), fp.lag_ms.end());
    res.Add("loadgen.send_lag_ms", Median(lag), "ms");
    res.Add("loadgen.send_lag_max_ms", Max(lag), "ms");
  }
  setup.fleet->Stop();
  RemoveTree(dir);
  return res;
}

}  // namespace perfbench
