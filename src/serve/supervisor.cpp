#include "serve/supervisor.hpp"

#include <errno.h>
#include <fcntl.h>
#include <string.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <utility>

namespace cudanp::serve {

namespace {

/// Crash-loop backoff: real-time sleep before the Nth consecutive
/// respawn-after-death. Purely a host-resource brake — virtual time and
/// therefore the report never see it.
void respawn_backoff(int consecutive_failures) {
  if (consecutive_failures <= 0) return;
  int shift = consecutive_failures > 6 ? 6 : consecutive_failures;
  std::this_thread::sleep_for(std::chrono::milliseconds(5 << shift));
}

}  // namespace

WorkerSupervisor::WorkerSupervisor(SupervisorOptions opt)
    : opt_(std::move(opt)) {
  if (opt_.worker_cmd.empty())
    opt_.worker_cmd = {"/proc/self/exe", "--worker"};
  if (opt_.worker_mem_mb > 0)
    opt_.worker_cmd.push_back("--worker-mem-mb=" +
                              std::to_string(opt_.worker_mem_mb));
  struct sigaction ign {};
  ign.sa_handler = SIG_IGN;
  sigaction(SIGPIPE, &ign, &old_sigpipe_);
}

WorkerSupervisor::~WorkerSupervisor() {
  for (Worker& w : free_) destroy(w);
  free_.clear();
  sigaction(SIGPIPE, &old_sigpipe_, nullptr);
}

std::optional<WorkerSupervisor::Worker> WorkerSupervisor::spawn_locked() {
  int to_worker[2];    // supervisor -> worker stdin
  int from_worker[2];  // worker stdout -> supervisor
  if (pipe2(to_worker, O_CLOEXEC) != 0) return std::nullopt;
  if (pipe2(from_worker, O_CLOEXEC) != 0) {
    close(to_worker[0]);
    close(to_worker[1]);
    return std::nullopt;
  }
  std::vector<char*> argv;
  argv.reserve(opt_.worker_cmd.size() + 1);
  for (const std::string& a : opt_.worker_cmd)
    argv.push_back(const_cast<char*>(a.c_str()));
  argv.push_back(nullptr);

  pid_t pid = fork();
  if (pid < 0) {
    close(to_worker[0]);
    close(to_worker[1]);
    close(from_worker[0]);
    close(from_worker[1]);
    return std::nullopt;
  }
  if (pid == 0) {
    // Child: only async-signal-safe calls between fork and exec.
    if (dup2(to_worker[0], STDIN_FILENO) < 0 ||
        dup2(from_worker[1], STDOUT_FILENO) < 0)
      _exit(127);
    execv(argv[0], argv.data());
    _exit(127);
  }
  close(to_worker[0]);
  close(from_worker[1]);
  ++counters_.spawned;
  cleanup::register_pid(pid);
  return Worker{pid, to_worker[1], from_worker[0]};
}

std::optional<WorkerSupervisor::Worker> WorkerSupervisor::checkout() {
  int backoff_failures = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!free_.empty()) {
      Worker w = free_.back();
      free_.pop_back();
      return w;
    }
    backoff_failures = counters_.consecutive_failures;
  }
  respawn_backoff(backoff_failures);
  std::lock_guard<std::mutex> lock(mu_);
  return spawn_locked();
}

void WorkerSupervisor::checkin(Worker w) {
  std::lock_guard<std::mutex> lock(mu_);
  counters_.consecutive_failures = 0;
  free_.push_back(w);
}

void WorkerSupervisor::destroy(Worker& w) {
  if (w.pid > 0) {
    kill(w.pid, SIGKILL);
    int status = 0;
    while (waitpid(w.pid, &status, 0) < 0 && errno == EINTR) {}
    cleanup::unregister_pid(w.pid);
  }
  if (w.to_fd >= 0) close(w.to_fd);
  if (w.from_fd >= 0) close(w.from_fd);
  w = Worker{};
}

std::string WorkerSupervisor::reap_detail(Worker& w) {
  int status = 0;
  pid_t r;
  while ((r = waitpid(w.pid, &status, 0)) < 0 && errno == EINTR) {}
  cleanup::unregister_pid(w.pid);
  close(w.to_fd);
  close(w.from_fd);
  w = Worker{};
  if (r < 0) return "worker disappeared";
  if (WIFSIGNALED(status))
    return "worker killed by signal " + std::to_string(WTERMSIG(status));
  if (WIFEXITED(status))
    return "worker exited with status " +
           std::to_string(WEXITSTATUS(status));
  return "worker died";
}

SupervisedAttempt WorkerSupervisor::execute(const AttemptRequest& req) {
  SupervisedAttempt out;
  auto worker = checkout();
  if (!worker) {
    std::lock_guard<std::mutex> lock(mu_);
    ++counters_.consecutive_failures;
    out.status = AttemptStatus::kSpawnFailed;
    out.detail = "could not spawn execution worker";
    return out;
  }
  Worker w = *worker;

  AttemptRequest wire_req = req;
  wire_req.heartbeat_ms = opt_.heartbeat_ms;
  if (!write_frame(w.to_fd, kFrameJob, wire_req.json())) {
    // EPIPE: the pooled worker died between jobs. Classify and report
    // as a crash; the retry layer decides what happens next.
    out.status = AttemptStatus::kCrashed;
    out.detail = reap_detail(w);
    std::lock_guard<std::mutex> lock(mu_);
    ++counters_.crashes;
    ++counters_.consecutive_failures;
    return out;
  }

  for (;;) {
    Frame frame;
    ReadStatus s = read_frame(w.from_fd, &frame, opt_.read_timeout_ms);
    if (s == ReadStatus::kOk && frame.type == kFrameHeartbeat)
      continue;  // alive: the next read gets a fresh timeout
    if (s == ReadStatus::kOk && frame.type == kFrameResult) {
      auto reply = AttemptReply::from_json(frame.payload);
      if (!reply) {
        destroy(w);
        out.status = AttemptStatus::kCrashed;
        out.detail = "worker returned a malformed result frame";
        std::lock_guard<std::mutex> lock(mu_);
        ++counters_.crashes;
        ++counters_.consecutive_failures;
        return out;
      }
      out.status = AttemptStatus::kCompleted;
      out.result = std::move(reply->result);
      out.certificates = std::move(reply->certificates);
      checkin(w);
      return out;
    }
    if (s == ReadStatus::kTimeout) {
      // Wedged: no result, no heartbeat, within the whole budget. Take
      // the slot back by force.
      destroy(w);
      out.status = AttemptStatus::kTimedOut;
      out.detail =
          "worker unresponsive: no heartbeat or result within the read "
          "timeout";
      std::lock_guard<std::mutex> lock(mu_);
      ++counters_.timeouts;
      ++counters_.consecutive_failures;
      return out;
    }
    // kEof / kError / unexpected frame type: the worker is gone or the
    // stream is corrupt — same verdict either way.
    if (s == ReadStatus::kOk) {
      destroy(w);
      out.detail = "worker sent an unexpected frame";
    } else {
      out.detail = reap_detail(w);
    }
    out.status = AttemptStatus::kCrashed;
    std::lock_guard<std::mutex> lock(mu_);
    ++counters_.crashes;
    ++counters_.consecutive_failures;
    return out;
  }
}

WorkerCounters WorkerSupervisor::counters() const {
  std::lock_guard<std::mutex> lock(mu_);
  return counters_;
}

namespace cleanup {

namespace {

// Fixed-size, lock-free registries: every operation here must be
// callable between fork/exec and from a signal handler.
constexpr int kMaxPids = 256;
constexpr int kMaxPaths = 16;
constexpr int kMaxPathLen = 512;

std::atomic<pid_t> g_pids[kMaxPids];
char g_paths[kMaxPaths][kMaxPathLen];
std::atomic<bool> g_path_used[kMaxPaths];
std::atomic<bool> g_installed{false};

void cleanup_signal_handler(int sig) {
  for (auto& slot : g_pids) {
    pid_t pid = slot.load(std::memory_order_relaxed);
    if (pid > 0) kill(pid, SIGKILL);
  }
  for (int i = 0; i < kMaxPaths; ++i)
    if (g_path_used[i].load(std::memory_order_relaxed)) unlink(g_paths[i]);
  // Re-raise with the default disposition: the process still dies by
  // this signal, observable to the parent shell / CI harness.
  signal(sig, SIG_DFL);
  raise(sig);
}

}  // namespace

void register_pid(pid_t pid) {
  for (auto& slot : g_pids) {
    pid_t expected = 0;
    if (slot.compare_exchange_strong(expected, pid,
                                     std::memory_order_relaxed))
      return;
  }
}

void unregister_pid(pid_t pid) {
  for (auto& slot : g_pids) {
    pid_t expected = pid;
    if (slot.compare_exchange_strong(expected, 0,
                                     std::memory_order_relaxed))
      return;
  }
}

void register_path(const std::string& path) {
  if (path.size() + 1 > kMaxPathLen) return;
  for (int i = 0; i < kMaxPaths; ++i) {
    bool expected = false;
    if (g_path_used[i].compare_exchange_strong(
            expected, true, std::memory_order_relaxed)) {
      memcpy(g_paths[i], path.c_str(), path.size() + 1);
      return;
    }
  }
}

void unregister_path(const std::string& path) {
  for (int i = 0; i < kMaxPaths; ++i) {
    if (g_path_used[i].load(std::memory_order_relaxed) &&
        path == g_paths[i]) {
      g_path_used[i].store(false, std::memory_order_relaxed);
      return;
    }
  }
}

void install_signal_handlers() {
  bool expected = false;
  if (!g_installed.compare_exchange_strong(expected, true)) return;
  struct sigaction sa {};
  sa.sa_handler = cleanup_signal_handler;
  sigemptyset(&sa.sa_mask);
  sigaction(SIGINT, &sa, nullptr);
  sigaction(SIGTERM, &sa, nullptr);
}

}  // namespace cleanup

}  // namespace cudanp::serve
