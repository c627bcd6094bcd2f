#include "fleet.h"

#include <fcntl.h>
#include <sched.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <thread>
#include <vector>

#include "common/bytes.h"

namespace perfbench {

namespace {

constexpr double kStartDeadlineMs = 30000.0;
constexpr double kDrainDeadlineMs = 20000.0;

double VmHwmMiB(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  return 0.0;
}

std::vector<pid_t> Children(pid_t pid) {
  std::vector<pid_t> out;
  std::error_code ec;
  const std::string tasks = "/proc/" + std::to_string(pid) + "/task";
  for (const auto& task : std::filesystem::directory_iterator(tasks, ec)) {
    std::ifstream in(task.path() / "children");
    pid_t child = 0;
    while (in >> child) out.push_back(child);
  }
  return out;
}

}  // namespace

automc::Result<std::unique_ptr<Fleet>> Fleet::Start(
    const std::string& serve_bin, const std::string& dir,
    const std::string& artifact_dir, int workers) {
  std::filesystem::create_directories(dir);
  std::unique_ptr<Fleet> fleet(new Fleet());
  fleet->socket_ = dir + "/s.sock";
  const std::string workdir = dir + "/jobs";
  const std::string log = dir + "/serve.log";
  const std::string nworkers = std::to_string(workers);
  std::vector<std::string> args = {serve_bin,     "--socket",    fleet->socket_,
                                   "--workdir",   workdir,       "--artifacts",
                                   artifact_dir,  "--fleet",     nworkers};
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);

  const double t0 = NowMs();
  const pid_t pid = ::fork();
  if (pid < 0) return automc::Status::Internal("fork failed");
  if (pid == 0) {
    ::setpgid(0, 0);
    const int fd = ::open(log.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd >= 0) {
      ::dup2(fd, 1);
      ::dup2(fd, 2);
      ::close(fd);
    }
    ::setenv("AUTOMC_THREADS", "1", 1);
    ::execv(argv[0], argv.data());
    ::_exit(127);
  }
  ::setpgid(pid, pid);  // also from the parent, so Stop never races it
  fleet->pid_ = pid;

  // Ready = the first status request answered (NotFound for a job id that
  // does not exist yet is an answer).
  while (true) {
    auto client = automc::server::Client::Connect(fleet->socket_);
    if (client.ok()) {
      automc::ByteWriter w;
      w.U64(1);
      auto reply = client->Call(automc::server::MsgType::kJobStatus, w.Take());
      if (reply.ok() ||
          reply.status().code() == automc::StatusCode::kNotFound) {
        break;
      }
    }
    int status = 0;
    if (::waitpid(pid, &status, WNOHANG) == pid) {
      fleet->pid_ = -1;
      return automc::Status::Internal("automc_serve exited during start-up; "
                                      "see " + log);
    }
    if (NowMs() - t0 > kStartDeadlineMs) {
      return automc::Status::Internal("automc_serve did not answer in time");
    }
    std::this_thread::sleep_for(std::chrono::microseconds(500));
  }
  fleet->spawn_ms_ = NowMs() - t0;
  return fleet;
}

Fleet::~Fleet() { Stop(); }

void Fleet::Stop() {
  if (pid_ < 0) return;
  ::kill(pid_, SIGTERM);
  const double t0 = NowMs();
  int status = 0;
  while (::waitpid(pid_, &status, WNOHANG) != pid_) {
    if (NowMs() - t0 > kDrainDeadlineMs) {
      ::kill(-pid_, SIGKILL);
      ::waitpid(pid_, &status, 0);
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  // Workers are the coordinator's children; make sure none outlives it.
  const double t1 = NowMs();
  while (::kill(-pid_, 0) == 0 && NowMs() - t1 < 10000.0) {
    if (NowMs() - t1 > 2000.0) ::kill(-pid_, SIGKILL);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  pid_ = -1;
}

int Fleet::WorkerPid(int id) const {
  if (pid_ < 0) return -1;
  // The coordinator starts worker i with --segment=seg-<i>.bin.
  const std::string tag = "--segment=seg-" + std::to_string(id) + ".bin";
  for (pid_t child : Children(pid_)) {
    std::ifstream in("/proc/" + std::to_string(child) + "/cmdline");
    std::string arg;
    while (std::getline(in, arg, '\0')) {
      if (arg == tag) return child;
    }
  }
  return -1;
}

double Fleet::CpuMs() const {
  if (pid_ < 0) return 0.0;
  double total = ProcessCpuMs(pid_);
  for (pid_t child : Children(pid_)) total += ProcessCpuMs(child);
  return total;
}

void Fleet::PinTo(int cpu) const {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  std::vector<pid_t> pids = Children(pid_);
  pids.push_back(pid_);
  for (pid_t p : pids) {
    std::error_code ec;
    for (const auto& task : std::filesystem::directory_iterator(
             "/proc/" + std::to_string(p) + "/task", ec)) {
      ::sched_setaffinity(std::stoi(task.path().filename().string()),
                          sizeof(set), &set);
    }
  }
}

double Fleet::PeakRssMiB() const {
  if (pid_ < 0) return 0.0;
  double total = VmHwmMiB(pid_);
  for (pid_t child : Children(pid_)) total += VmHwmMiB(child);
  return total;
}

MetricSnapshot ReadMetrics(automc::server::Client* client, int worker_id,
                           RunResult* res) {
  namespace sv = automc::server;
  res->attempted++;
  automc::Result<std::string> json = [&]() -> automc::Result<std::string> {
    if (worker_id == 0) return client->Metrics();
    automc::ByteWriter w;
    w.U32(static_cast<uint32_t>(worker_id));
    AUTOMC_ASSIGN_OR_RETURN(sv::Frame reply,
                            client->Call(sv::MsgType::kGetMetrics, w.Take()));
    if (reply.type != static_cast<uint32_t>(sv::MsgType::kMetrics)) {
      return automc::Status::Internal("unexpected reply");
    }
    return reply.payload;
  }();
  if (!json.ok()) {
    res->failed++;
    res->Fail((worker_id == 0 ? std::string("frontend")
                              : "worker " + std::to_string(worker_id)) +
              " metrics: " + json.status().ToString());
    return MetricSnapshot();
  }
  return MetricSnapshot::Parse(*json);
}

}  // namespace perfbench
