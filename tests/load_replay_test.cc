// Load-replay harness + the two server behaviours it motivated.
//
//   * BuildSchedule is deterministic and open-loop (fixed seed => identical
//     (timestamp, op, conn) sequence; rate and mix approximate the params);
//   * Histogram::Percentile matches a sorted-sample reference within one
//     bucket of LatencyBounds resolution;
//   * a server that never answers inside the timeout yields *timeouts*,
//     never latency samples — late replies are discarded, not smuggled in
//     as good news (the anti-coordinated-omission contract);
//   * FairQueue round-robins tenants, and a real server gives a second
//     connection's single job a slot ahead of another connection's queued
//     batch;
//   * the event loop pauses reading a connection whose reply backlog
//     crosses the high watermark (bounded memory), resumes below the low
//     watermark, and still answers every request.
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <string>
#include <thread>
#include <vector>

#include "common/metrics.h"
#include "common/net.h"
#include "core/run_spec.h"
#include "gtest/gtest.h"
#include "server/job_manager.h"
#include "server/loadgen.h"
#include "server/protocol.h"
#include "server/server.h"
#include "test_util.h"

namespace automc {
namespace {

namespace loadgen = server::loadgen;
using server::Client;
using server::FairQueue;
using server::JobState;
using server::MsgType;
using testing::ScopedTempDir;

core::RunSpec TinySpec(uint64_t seed) {
  core::RunSpec spec;
  spec.family = "vgg";
  spec.depth = 13;
  spec.dataset = "tiny";
  spec.searcher = "random";
  spec.budget = 1;
  spec.pretrain = 1;
  spec.eval_batch = 2;
  spec.seed = seed;
  return spec;
}

// ---------------------------------------------------------------------------
// Schedule generation

TEST(LoadGenTest, ScheduleIsDeterministicForFixedSeed) {
  loadgen::ScheduleParams params;
  params.qps = 500;
  params.duration_s = 2.0;
  params.connections = 7;
  params.seed = 42;
  const auto a = loadgen::BuildSchedule(params);
  const auto b = loadgen::BuildSchedule(params);
  ASSERT_FALSE(a.empty());
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].at_ns, b[i].at_ns);
    EXPECT_EQ(a[i].op, b[i].op);
    EXPECT_EQ(a[i].conn, b[i].conn);
  }
  // A different seed must not reproduce the sequence.
  params.seed = 43;
  const auto c = loadgen::BuildSchedule(params);
  ASSERT_FALSE(c.empty());
  bool any_diff = c.size() != a.size();
  for (size_t i = 0; !any_diff && i < c.size(); ++i) {
    any_diff = c[i].at_ns != a[i].at_ns || c[i].op != a[i].op;
  }
  EXPECT_TRUE(any_diff);
}

TEST(LoadGenTest, ScheduleApproximatesRateMixAndSpread) {
  loadgen::ScheduleParams params;
  params.qps = 1000;
  params.duration_s = 4.0;
  params.connections = 4;
  params.seed = 7;
  auto mix = loadgen::Mix::Parse("status=50,submit=50");
  ASSERT_TRUE(mix.ok()) << mix.status().ToString();
  params.mix = *mix;
  const auto schedule = loadgen::BuildSchedule(params);

  // Poisson(4000) total count: within 5 sigma of the mean.
  EXPECT_NEAR(static_cast<double>(schedule.size()), 4000.0, 5 * 64.0);
  int64_t prev = -1;
  int64_t by_op[loadgen::kNumOps] = {};
  std::vector<int64_t> by_conn(params.connections, 0);
  for (const auto& entry : schedule) {
    EXPECT_GT(entry.at_ns, prev);  // strictly increasing
    prev = entry.at_ns;
    EXPECT_LT(entry.at_ns, static_cast<int64_t>(params.duration_s * 1e9));
    ++by_op[static_cast<int>(entry.op)];
    ASSERT_LT(entry.conn, static_cast<uint32_t>(params.connections));
    ++by_conn[entry.conn];
  }
  // The 50/50 mix: each side within 10% of half.
  const double half = static_cast<double>(schedule.size()) / 2.0;
  EXPECT_NEAR(static_cast<double>(by_op[0]), half, half * 0.1);  // status
  EXPECT_NEAR(static_cast<double>(by_op[2]), half, half * 0.1);  // submit
  EXPECT_EQ(by_op[1] + by_op[3] + by_op[4], 0);  // unlisted ops: weight 0
  // Connections drawn uniformly: each within 20% of its share.
  for (int64_t n : by_conn) {
    EXPECT_NEAR(static_cast<double>(n), half / 2.0, half * 0.2);
  }
}

TEST(LoadGenTest, MixParseRejectsGarbage) {
  EXPECT_FALSE(loadgen::Mix::Parse("status").ok());
  EXPECT_FALSE(loadgen::Mix::Parse("bogus=3").ok());
  EXPECT_FALSE(loadgen::Mix::Parse("status=-1").ok());
  EXPECT_FALSE(loadgen::Mix::Parse("status=0,list=0").ok());
  auto ok = loadgen::Mix::Parse("fetch=2,status=1");
  ASSERT_TRUE(ok.ok());
  EXPECT_DOUBLE_EQ(ok->weight[static_cast<int>(loadgen::Op::kFetch)], 2.0);
  EXPECT_DOUBLE_EQ(ok->weight[static_cast<int>(loadgen::Op::kSubmit)], 0.0);
}

// ---------------------------------------------------------------------------
// Percentile math

TEST(LoadGenTest, PercentileMatchesSortedReference) {
  metrics::Histogram hist(metrics::Histogram::LatencyBounds());
  std::vector<double> samples;
  // Deterministic log-uniform spread over the ladder's range.
  uint64_t state = 99;
  for (int i = 0; i < 5000; ++i) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    const double u = static_cast<double>(state >> 11) * 0x1.0p-53;
    samples.push_back(std::pow(10.0, -1.0 + 4.0 * u));  // 0.1 .. 1000
  }
  for (double s : samples) hist.Observe(s);
  std::sort(samples.begin(), samples.end());

  for (double q : {0.5, 0.9, 0.95, 0.99, 0.999}) {
    const double est = hist.Percentile(q);
    const double ref =
        samples[std::min(samples.size() - 1,
                         static_cast<size_t>(q * samples.size()))];
    // LatencyBounds buckets are at most 30% wide; allow one bucket of slop.
    EXPECT_NEAR(est, ref, ref * 0.3)
        << "q=" << q << " est=" << est << " ref=" << ref;
  }
  // Monotone in q, bounded by the observed extremes.
  double prev = 0.0;
  for (double q = 0.0; q <= 1.0; q += 0.05) {
    const double v = hist.Percentile(q);
    EXPECT_GE(v, prev);
    EXPECT_GE(v, hist.min());
    EXPECT_LE(v, hist.max());
    prev = v;
  }
}

TEST(LoadGenTest, PercentileEdgeCases) {
  metrics::Histogram empty(metrics::Histogram::LatencyBounds());
  EXPECT_DOUBLE_EQ(empty.Percentile(0.99), 0.0);

  metrics::Histogram one(metrics::Histogram::LatencyBounds());
  one.Observe(3.7);
  for (double q : {0.0, 0.5, 1.0}) {
    EXPECT_DOUBLE_EQ(one.Percentile(q), 3.7);
  }

  // An observation beyond the last bound lands in the overflow bucket; the
  // estimate must use the observed max, not infinity.
  metrics::Histogram over(metrics::Histogram::LatencyBounds());
  over.Observe(1e9);
  EXPECT_DOUBLE_EQ(over.Percentile(0.99), 1e9);
}

TEST(LoadGenTest, CheckSloFlagsBudgetViolations) {
  loadgen::Report report;
  report.per_op[0].sent = 100;
  report.per_op[0].ok = 90;
  report.per_op[0].timeouts = 10;
  report.p99_ms[0] = 12.0;
  loadgen::SloBudget slo;
  slo.p99_ms = 10.0;
  slo.max_error_rate = 0.05;
  const auto violations = loadgen::CheckSlo(report, slo);
  ASSERT_EQ(violations.size(), 2u);  // p99 over budget + 10% error rate

  slo.p99_ms = 20.0;
  slo.max_error_rate = 0.2;
  EXPECT_TRUE(loadgen::CheckSlo(report, slo).empty());
  // Disabled budgets never fire.
  EXPECT_TRUE(loadgen::CheckSlo(report, loadgen::SloBudget{}).empty());
}

// ---------------------------------------------------------------------------
// Timeouts are recorded, late replies discarded

TEST(LoadGenTest, SlowServerYieldsTimeoutsNotLatencySamples) {
  ScopedTempDir dir("load_slow");
  const std::string path = dir.File("slow.sock");
  auto listen_fd = net::ListenUnix(path, 8);
  ASSERT_TRUE(listen_fd.ok()) << listen_fd.status().ToString();

  // A server that answers every request — but only long after the client's
  // timeout. On-time accounting would call these successes; open-loop
  // accounting must call every one of them a timeout.
  std::thread slow([fd = *listen_fd] {
    int conn = ::accept(fd, nullptr, nullptr);
    if (conn < 0) return;
    server::FrameDecoder decoder;
    char chunk[4096];
    const auto start = std::chrono::steady_clock::now();
    while (std::chrono::steady_clock::now() - start <
           std::chrono::seconds(5)) {
      ssize_t r = ::recv(conn, chunk, sizeof(chunk), MSG_DONTWAIT);
      if (r > 0) decoder.Feed(chunk, static_cast<size_t>(r));
      if (r == 0) break;
      server::Frame frame;
      Status error;
      bool replied = false;
      while (decoder.Next(&frame, &error) ==
             server::FrameDecoder::Event::kFrame) {
        ::usleep(220 * 1000);  // well past the 100 ms replay timeout
        const std::string reply = server::EncodeFrame(
            MsgType::kError, server::EncodeError(Status::NotFound("late")));
        // MSG_NOSIGNAL: the replayer may have hung up already — an EPIPE
        // here is expected, a SIGPIPE would kill the test.
        (void)::send(conn, reply.data(), reply.size(), MSG_NOSIGNAL);
        replied = true;
      }
      if (!replied) ::usleep(2000);
    }
    ::close(conn);
  });

  metrics::MetricsRegistry::Global().Reset();
  loadgen::ReplayOptions options;
  options.address = path;
  options.schedule.qps = 50;
  options.schedule.duration_s = 0.2;
  options.schedule.connections = 1;
  options.schedule.seed = 5;
  auto mix = loadgen::Mix::Parse("status=1");
  ASSERT_TRUE(mix.ok());
  options.schedule.mix = *mix;
  options.timeout_ms = 100;
  auto report = loadgen::RunReplay(options);
  slow.join();
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  const loadgen::OpStats total = report->Total();
  ASSERT_GT(total.sent, 0);
  EXPECT_EQ(total.timeouts, total.sent);
  EXPECT_EQ(total.ok, 0);
  EXPECT_EQ(total.rejected, 0);  // late NotFound replies were discarded
  EXPECT_DOUBLE_EQ(report->ErrorRate(), 1.0);
  // No latency sample may exist: a timed-out request has no latency.
  EXPECT_EQ(metrics::MetricsRegistry::Global()
                .GetHistogram("load.status_ms")
                .count(),
            0);
  EXPECT_DOUBLE_EQ(report->p99_ms[static_cast<int>(loadgen::Op::kStatus)],
                   0.0);
}

// ---------------------------------------------------------------------------
// FairQueue

TEST(FairQueueTest, RoundRobinsAcrossTenants) {
  FairQueue q;
  q.Push(1, 10);
  q.Push(1, 11);
  q.Push(1, 12);
  q.Push(2, 20);
  EXPECT_EQ(q.size(), 4u);
  EXPECT_EQ(q.tenants(), 2u);

  uint64_t id = 0;
  std::vector<uint64_t> order;
  while (q.PopNext(&id)) order.push_back(id);
  // Tenant 2's single job preempts tenant 1's backlog at the second slot.
  EXPECT_EQ(order, (std::vector<uint64_t>{10, 20, 11, 12}));
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(q.PopNext(&id));
}

TEST(FairQueueTest, SingleTenantDegeneratesToFifo) {
  FairQueue q;
  for (uint64_t id : {5, 1, 9, 3}) q.Push(0, id);
  uint64_t id = 0;
  std::vector<uint64_t> order;
  while (q.PopNext(&id)) order.push_back(id);
  EXPECT_EQ(order, (std::vector<uint64_t>{5, 1, 9, 3}));
}

TEST(FairQueueTest, RemoveDropsQueuedJob) {
  FairQueue q;
  q.Push(1, 10);
  q.Push(2, 20);
  q.Push(2, 21);
  EXPECT_TRUE(q.Remove(20));
  EXPECT_FALSE(q.Remove(20));
  EXPECT_EQ(q.size(), 2u);
  uint64_t id = 0;
  std::vector<uint64_t> order;
  while (q.PopNext(&id)) order.push_back(id);
  EXPECT_EQ(order, (std::vector<uint64_t>{10, 21}));
}

// A second connection's single job gets the slot after the in-flight one,
// ahead of the first connection's queued batch.
TEST(FairnessTest, SecondConnectionIsNotStarvedByBatchSubmitter) {
  ScopedTempDir dir("load_fair");
  server::Server::Options opts;
  opts.socket_path = dir.File("fair.sock");
  opts.idle_timeout_s = 0;
  opts.jobs.workdir = dir.File("jobs");
  opts.jobs.max_concurrent = 1;
  opts.jobs.start_paused = true;  // queue everything before any job runs
  auto srv = server::Server::Start(std::move(opts));
  ASSERT_TRUE(srv.ok()) << srv.status().ToString();

  auto conn_a = Client::Connect((*srv)->socket_path());
  ASSERT_TRUE(conn_a.ok());
  auto conn_b = Client::Connect((*srv)->socket_path());
  ASSERT_TRUE(conn_b.ok());

  std::vector<uint64_t> a_ids;
  for (uint64_t seed : {301, 302, 303}) {
    auto id = conn_a->Submit(TinySpec(seed));
    ASSERT_TRUE(id.ok()) << id.status().ToString();
    a_ids.push_back(*id);
  }
  auto b_id = conn_b->Submit(TinySpec(304));
  ASSERT_TRUE(b_id.ok()) << b_id.status().ToString();

  (*srv)->jobs()->StartWorkers();

  // Wait for B's job; the moment it is DONE, A's *last* job must still be
  // waiting — under the old global FIFO all three A jobs finished first.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(120);
  for (;;) {
    auto info = conn_b->JobStatus(*b_id);
    ASSERT_TRUE(info.ok()) << info.status().ToString();
    if (info->state == JobState::kDone) break;
    ASSERT_NE(info->state, JobState::kFailed) << info->error;
    ASSERT_LT(std::chrono::steady_clock::now(), deadline);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  auto a_last = conn_a->JobStatus(a_ids.back());
  ASSERT_TRUE(a_last.ok());
  EXPECT_NE(a_last->state, JobState::kDone)
      << "batch submitter starved the interactive connection";

  ASSERT_TRUE((*srv)->jobs()->WaitIdle(180.0));
  (*srv)->Stop();
}

// ---------------------------------------------------------------------------
// Write backpressure

TEST(BackpressureTest, PausesReadingAtWatermarkAndAnswersEverything) {
#ifdef AUTOMC_DISABLE_METRICS
  // The pause is observed through the server.backpressure_* counters,
  // which this build compiles out (the watermark logic itself still
  // runs; event_loop.cc records it via the AUTOMC_METRIC_* macros).
  GTEST_SKIP() << "backpressure counters compiled out";
#endif
  ScopedTempDir dir("load_bp");
  metrics::MetricsRegistry::Global().Reset();
  // Pad the metrics registry so each kGetMetrics reply is a few KiB — the
  // 4 MiB watermark then trips after ~1-2k parked replies.
  for (int i = 0; i < 64; ++i) {
    metrics::MetricsRegistry::Global()
        .GetHistogram("pad.h" + std::to_string(i),
                      metrics::Histogram::LatencyBounds())
        .Observe(1.0);
  }

  server::Server::Options opts;
  opts.socket_path = dir.File("bp.sock");
  opts.idle_timeout_s = 0;
  opts.jobs.workdir = dir.File("jobs");
  opts.jobs.max_concurrent = 1;
  auto srv = server::Server::Start(std::move(opts));
  ASSERT_TRUE(srv.ok()) << srv.status().ToString();

  auto fd = net::ConnectAddress((*srv)->socket_path());
  ASSERT_TRUE(fd.ok()) << fd.status().ToString();
  ASSERT_TRUE(net::SetNonBlocking(*fd, true).ok());

  const std::string request =
      server::EncodeFrame(MsgType::kGetMetrics, "");
  constexpr int kRequests = 4000;
  std::string wire;
  wire.reserve(request.size() * kRequests);
  for (int i = 0; i < kRequests; ++i) wire += request;

  auto& stalls =
      metrics::MetricsRegistry::Global().GetCounter(
          "server.backpressure_stalls");
  auto& resumes =
      metrics::MetricsRegistry::Global().GetCounter(
          "server.backpressure_resumes");
  auto& peak = metrics::MetricsRegistry::Global().GetGauge(
      "server.backpressure_peak_bytes");

  // Each phase fails only after kNoProgress without progress, not at a
  // fixed wall-clock deadline: on a busy host the server is slow, not
  // stuck, and a run that keeps moving must be allowed to finish.
  constexpr auto kNoProgress = std::chrono::seconds(30);
  using Clock = std::chrono::steady_clock;

  // Phase 1: pipeline requests without reading a single reply until the
  // server visibly stalls this connection. Progress = bytes written.
  auto deadline = Clock::now() + kNoProgress;
  size_t wpos = 0;
  while (stalls.value() == 0) {
    ASSERT_LT(Clock::now(), deadline)
        << "no stall and no bytes written for 30 s after " << wpos
        << " bytes";
    if (wpos < wire.size()) {
      ssize_t w = ::send(*fd, wire.data() + wpos,
                         std::min<size_t>(wire.size() - wpos, 64 << 10),
                         MSG_NOSIGNAL | MSG_DONTWAIT);
      if (w > 0) {
        wpos += static_cast<size_t>(w);
        deadline = Clock::now() + kNoProgress;
        continue;
      }
      ASSERT_TRUE(errno == EAGAIN || errno == EWOULDBLOCK)
          << std::strerror(errno);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GE(stalls.value(), 1);
  // Bounded buffering: the backlog stopped near the 4 MiB watermark, two
  // orders of magnitude under the 256 MiB drop limit.
  EXPECT_GT(peak.value(), 0.0);
  EXPECT_LT(peak.value(), 8.0 * (1 << 20));

  // Phase 2: read replies (and finish writing) — the paused connection
  // must resume and every one of the kRequests requests must be answered.
  // Progress = a new reply.
  server::FrameDecoder decoder;
  int replies = 0;
  char chunk[64 << 10];
  deadline = Clock::now() + kNoProgress;
  while (replies < kRequests) {
    ASSERT_LT(Clock::now(), deadline)
        << "no new reply for 30 s after " << replies << " of " << kRequests
        << " replies";
    if (wpos < wire.size()) {
      ssize_t w = ::send(*fd, wire.data() + wpos,
                         std::min<size_t>(wire.size() - wpos, 64 << 10),
                         MSG_NOSIGNAL | MSG_DONTWAIT);
      if (w > 0) wpos += static_cast<size_t>(w);
    }
    ssize_t r = ::recv(*fd, chunk, sizeof(chunk), MSG_DONTWAIT);
    if (r > 0) {
      decoder.Feed(chunk, static_cast<size_t>(r));
    } else if (r == 0) {
      FAIL() << "server closed the connection after " << replies
             << " replies";
    } else if (errno != EAGAIN && errno != EWOULDBLOCK) {
      FAIL() << "recv: " << std::strerror(errno);
    } else {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    server::Frame frame;
    Status error;
    while (decoder.Next(&frame, &error) ==
           server::FrameDecoder::Event::kFrame) {
      EXPECT_EQ(frame.type, static_cast<uint32_t>(MsgType::kMetrics));
      ++replies;
      deadline = Clock::now() + kNoProgress;
    }
  }
  EXPECT_EQ(replies, kRequests);
  EXPECT_GE(resumes.value(), 1);
  ::close(*fd);
  (*srv)->Stop();
}

}  // namespace
}  // namespace automc
