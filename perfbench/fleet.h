#ifndef AUTOMC_PERFBENCH_FLEET_H_
#define AUTOMC_PERFBENCH_FLEET_H_

#include <sys/types.h>

#include <memory>
#include <string>

#include "common/result.h"
#include "server/protocol.h"
#include "util.h"

namespace perfbench {

// A self-hosted `automc_serve --fleet N` daemon (coordinator plus N forked
// workers) in its own process group, every process at AUTOMC_THREADS=1.
class Fleet {
 public:
  // Starts the daemon under `dir` (socket, job state, log) serving the
  // artifact registry at `artifact_dir`, and returns once the first status
  // request is answered; spawn_ms() is that interval.
  static automc::Result<std::unique_ptr<Fleet>> Start(
      const std::string& serve_bin, const std::string& dir,
      const std::string& artifact_dir, int workers);
  ~Fleet();
  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;

  // SIGTERM (drain), then SIGKILL to the whole group after a deadline;
  // returns once no process of the group is left. Idempotent.
  void Stop();

  const std::string& socket() const { return socket_; }
  double spawn_ms() const { return spawn_ms_; }

  // Pid of worker `id` (1-based, in spawn order), -1 when not found.
  int WorkerPid(int id) const;

  // CPU time (ms) of the coordinator and its worker processes.
  double CpuMs() const;

  // Restricts every thread of the coordinator and its workers to `cpu`.
  void PinTo(int cpu) const;

  // Summed VmHWM (peak RSS) of the coordinator and its worker processes.
  double PeakRssMiB() const;

 private:
  Fleet() = default;

  pid_t pid_ = -1;
  std::string socket_;
  double spawn_ms_ = 0.0;
};

// Reads worker `worker_id`'s registry (kGetMetrics with that id), or the
// coordinator's own frontend registry for worker_id 0, as one operation of
// `res`: a failed read counts as failed and fails the run, so an empty
// snapshot can never satisfy a check.
MetricSnapshot ReadMetrics(automc::server::Client* client, int worker_id,
                           RunResult* res);

}  // namespace perfbench

#endif  // AUTOMC_PERFBENCH_FLEET_H_
