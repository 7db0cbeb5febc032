#include "serve/daemon.hpp"

#include <errno.h>
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <string.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <utility>

#include "serve/journal.hpp"
#include "serve/session.hpp"
#include "serve/wire.hpp"

namespace cudanp::serve {

namespace {

/// Drain self-pipe write end for the signal handler. One daemon per
/// process (cudanp-cc --serve runs exactly one), so a single slot is
/// enough; -1 means no daemon is live.
std::atomic<int> g_drain_fd{-1};

void drain_signal_handler(int) {
  const int fd = g_drain_fd.load(std::memory_order_relaxed);
  if (fd >= 0) {
    const char byte = 1;
    // Best effort: the pipe is O_NONBLOCK; a full pipe already woke the
    // accept loop.
    (void)!::write(fd, &byte, 1);
  }
}

/// The `healthz` document.
struct Healthz : record::Codec<Healthz> {
  std::string status = "ok";  // or "draining", "crash-loop"
  int consecutive_worker_failures = 0;
  int crash_loop_threshold = 0;

  static constexpr auto fields() {
    using R = Healthz;
    using record::field;
    return std::tuple{field("status", &R::status),
                      field("consecutive_worker_failures",
                            &R::consecutive_worker_failures),
                      field("crash_loop_threshold", &R::crash_loop_threshold)};
  }
};

bool set_nonblock(int fd) {
  int flags = ::fcntl(fd, F_GETFL, 0);
  return flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

}  // namespace

// --- DrrScheduler -----------------------------------------------------

DrrScheduler::DrrScheduler(int tenant_quota, int max_pending, int quantum)
    : quota_(tenant_quota < 1 ? 1 : tenant_quota),
      max_pending_(max_pending < 1 ? 1 : max_pending),
      quantum_(quantum < 1 ? 1 : quantum) {}

std::string DrrScheduler::submit(std::shared_ptr<ServeRequest> r) {
  if (pending_ >= static_cast<std::size_t>(max_pending_))
    return "queue-full";
  Tenant& t = tenants_[r->tenant];
  if (t.in_flight >= quota_) return "tenant-quota";
  t.in_flight += 1;
  if (t.q.empty()) {
    // Newly active: joins the round-robin ring at the back, in
    // first-arrival order.
    if (std::find(active_.begin(), active_.end(), r->tenant) ==
        active_.end())
      active_.push_back(r->tenant);
  }
  r->cost = static_cast<std::int64_t>(r->jobs.size());
  t.q.push_back(std::move(r));
  pending_ += 1;
  return "";
}

std::shared_ptr<ServeRequest> DrrScheduler::next() {
  if (pending_ == 0) return nullptr;
  // Bounded scan: each visit grants quantum_ credit, so within
  // ceil(max_cost / quantum_) laps some head request becomes servable.
  for (;;) {
    if (rr_ >= active_.size()) rr_ = 0;
    const std::string name = active_[rr_];
    Tenant& t = tenants_[name];
    if (t.q.empty()) {
      // Deactivated tenant (served dry on an earlier lap).
      t.deficit = 0;
      active_.erase(active_.begin() + static_cast<std::ptrdiff_t>(rr_));
      continue;
    }
    t.deficit += quantum_;
    if (t.deficit >= t.q.front()->cost) {
      std::shared_ptr<ServeRequest> r = std::move(t.q.front());
      t.q.pop_front();
      pending_ -= 1;
      // Leftover credit is clamped to one quantum: an idle-then-bursty
      // tenant cannot bank unbounded deficit.
      t.deficit = std::min<std::int64_t>(t.deficit - r->cost, quantum_);
      if (t.q.empty()) {
        t.deficit = 0;
        active_.erase(active_.begin() + static_cast<std::ptrdiff_t>(rr_));
      } else {
        rr_ += 1;  // one request per visit keeps the interleave tight
      }
      return r;
    }
    rr_ += 1;  // not yet enough credit — move to the next tenant
  }
}

void DrrScheduler::finished(const std::string& tenant) {
  auto it = tenants_.find(tenant);
  if (it != tenants_.end() && it->second.in_flight > 0)
    it->second.in_flight -= 1;
}

std::int64_t DrrScheduler::in_flight(const std::string& tenant) const {
  auto it = tenants_.find(tenant);
  return it == tenants_.end() ? 0 : it->second.in_flight;
}

// --- ServeDaemon ------------------------------------------------------

ServeDaemon::ServeDaemon(DaemonOptions opt)
    : opt_(std::move(opt)),
      sched_(opt_.tenant_quota, opt_.max_pending, opt_.drr_quantum) {}

ServeDaemon::~ServeDaemon() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_executor_ = true;
  }
  work_cv_.notify_all();
  if (executor_.joinable()) executor_.join();
  {
    std::lock_guard<std::mutex> lk(sessions_mu_);
    for (SessionSlot& s : sessions_) {
      if (s.session) s.session->wake();
    }
  }
  {
    std::lock_guard<std::mutex> lk(sessions_mu_);
    for (SessionSlot& s : sessions_) {
      if (s.thread.joinable()) s.thread.join();
    }
    sessions_.clear();
  }
  g_drain_fd.store(-1, std::memory_order_relaxed);
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (drain_rd_ >= 0) ::close(drain_rd_);
  if (drain_wr_ >= 0) ::close(drain_wr_);
  if (!opt_.socket_path.empty()) ::unlink(opt_.socket_path.c_str());
}

bool ServeDaemon::start(std::string* error) {
  if (opt_.socket_path.empty()) {
    if (error) *error = "empty socket path";
    return false;
  }
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (opt_.socket_path.size() >= sizeof(addr.sun_path)) {
    if (error) *error = "socket path too long: " + opt_.socket_path;
    return false;
  }
  ::memcpy(addr.sun_path, opt_.socket_path.c_str(),
           opt_.socket_path.size() + 1);

  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) {
    if (error) *error = std::string("socket: ") + ::strerror(errno);
    return false;
  }
  // A previous daemon's socket file would make bind fail with
  // EADDRINUSE; restart must be idempotent, so remove it first. A
  // *live* daemon on the same path loses its socket — single-instance
  // locking is the operator's job (distinct paths per daemon).
  ::unlink(opt_.socket_path.c_str());
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
             sizeof(addr)) != 0 ||
      ::listen(listen_fd_, 64) != 0) {
    if (error)
      *error = "bind/listen " + opt_.socket_path + ": " +
               ::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }

  int pipefd[2];
  if (::pipe2(pipefd, O_CLOEXEC | O_NONBLOCK) != 0) {
    if (error) *error = std::string("pipe2: ") + ::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  drain_rd_ = pipefd[0];
  drain_wr_ = pipefd[1];
  g_drain_fd.store(drain_wr_, std::memory_order_relaxed);

  // A client that disappears mid-reply must surface as EPIPE, never
  // kill the daemon.
  ::signal(SIGPIPE, SIG_IGN);
  struct sigaction sa {};
  sa.sa_handler = drain_signal_handler;
  ::sigemptyset(&sa.sa_mask);
  ::sigaction(SIGTERM, &sa, nullptr);
  ::sigaction(SIGINT, &sa, nullptr);

  if (opt_.cache_entries > 0) {
    ArtifactCacheOptions co;
    co.max_entries = opt_.cache_entries;
    co.dir = opt_.cache_dir;
    cache_ = std::make_unique<ArtifactCache>(co);
  }
  if (opt_.service.isolate == IsolationMode::kProcess) {
    supervisor_ = std::make_unique<WorkerSupervisor>(opt_.service.supervisor);
  }
  if (!opt_.journal_dir.empty()) {
    ::mkdir(opt_.journal_dir.c_str(), 0755);
  }

  executor_ = std::thread([this] { executor_loop(); });
  return true;
}

int ServeDaemon::serve() {
  for (;;) {
    reap_finished_sessions();

    if (draining()) {
      // Done once nothing is pending, nothing is executing, and every
      // session thread has returned.
      bool idle;
      {
        std::lock_guard<std::mutex> lk(mu_);
        idle = sched_.pending() == 0 && !executing_;
      }
      if (idle) {
        std::lock_guard<std::mutex> lk(sessions_mu_);
        bool all_done = true;
        for (const SessionSlot& s : sessions_) {
          if (s.session && !s.session->done()) {
            all_done = false;
            break;
          }
        }
        if (all_done) return 0;
      }
    }

    pollfd fds[2] = {{listen_fd_, POLLIN, 0}, {drain_rd_, POLLIN, 0}};
    int pr = ::poll(fds, 2, 200);
    if (pr < 0) {
      if (errno == EINTR) continue;
      return 1;
    }
    if (fds[1].revents & POLLIN) {
      char buf[16];
      while (::read(drain_rd_, buf, sizeof(buf)) > 0) {
      }
      request_drain();
      continue;
    }
    if (!(fds[0].revents & POLLIN)) continue;

    int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) continue;
    if (draining()) {
      // Structured refusal even for connections that raced the drain.
      RejectReply rej;
      rej.cause = "draining";
      rej.detail = "daemon is draining";
      (void)set_nonblock(fd);
      (void)write_frame_deadline(fd, kFrameReject, rej.json(),
                                 opt_.reply_timeout_ms);
      ::close(fd);
      {
        std::lock_guard<std::mutex> lk(stats_mu_);
        stats_.requests.rejected_draining += 1;
      }
      continue;
    }
    if (!set_nonblock(fd)) {
      ::close(fd);
      continue;
    }
    std::lock_guard<std::mutex> lk(sessions_mu_);
    auto session =
        std::make_shared<Session>(fd, next_session_id_++, this);
    SessionSlot slot;
    slot.session = session;
    slot.thread = std::thread([session] { session->run(); });
    sessions_.push_back(std::move(slot));
    {
      std::lock_guard<std::mutex> slk(stats_mu_);
      stats_.sessions.opened += 1;
    }
  }
}

void ServeDaemon::request_drain() {
  bool was = draining_.exchange(true, std::memory_order_acq_rel);
  if (was) return;
  // Idle sessions sit in read_frame under the idle timeout; kick them
  // so drain completes promptly. Busy sessions get their in-flight
  // reply first (their read side is not waiting) and exit on the next
  // loop pass.
  std::lock_guard<std::mutex> lk(sessions_mu_);
  for (SessionSlot& s : sessions_) {
    if (s.session && !s.session->busy()) s.session->wake();
  }
}

std::string ServeDaemon::submit(std::shared_ptr<ServeRequest> r) {
  {
    std::lock_guard<std::mutex> lk(stats_mu_);
    stats_.requests.submitted += 1;
  }
  if (draining()) {
    std::lock_guard<std::mutex> lk(stats_mu_);
    stats_.requests.rejected_draining += 1;
    return "draining";
  }
  std::string cause;
  {
    std::lock_guard<std::mutex> lk(mu_);
    cause = sched_.submit(std::move(r));
  }
  if (cause.empty()) {
    work_cv_.notify_one();
  } else {
    std::lock_guard<std::mutex> lk(stats_mu_);
    if (cause == "tenant-quota")
      stats_.requests.rejected_tenant_quota += 1;
    else
      stats_.requests.rejected_queue_full += 1;
  }
  return cause;
}

void ServeDaemon::executor_loop() {
  for (;;) {
    std::shared_ptr<ServeRequest> r;
    {
      std::unique_lock<std::mutex> lk(mu_);
      work_cv_.wait(lk, [&] {
        return stop_executor_ || sched_.pending() > 0;
      });
      // On stop, finish what was admitted (drain semantics) before
      // exiting.
      if (sched_.pending() == 0) {
        if (stop_executor_) return;
        continue;
      }
      r = sched_.next();
      executing_ = true;
    }
    run_request(*r);
    {
      std::lock_guard<std::mutex> lk(mu_);
      sched_.finished(r->tenant);
      executing_ = false;
    }
    work_cv_.notify_all();
    {
      std::lock_guard<std::mutex> lk(r->m);
      r->done = true;
    }
    r->cv.notify_all();
  }
}

void ServeDaemon::run_request(ServeRequest& r) {
  ServiceOptions svc = opt_.service;
  svc.artifact_cache = cache_.get();
  svc.shared_supervisor = supervisor_.get();
  // Requests run serially, so the shared registry is copied in and
  // merged back under mu_ — status_json can snapshot it mid-request
  // without racing BatchService's commit pass.
  BreakerRegistry local_registry;
  if (opt_.shared_breakers) {
    std::lock_guard<std::mutex> lk(mu_);
    local_registry = registry_;
  }
  svc.breaker_registry = opt_.shared_breakers ? &local_registry : nullptr;
  if (!opt_.journal_dir.empty()) {
    // Fingerprint-derived journal name: a restarted daemon receiving
    // the same manifest resumes the old journal instead of re-running
    // finished jobs, and the resumed report is byte-identical. The
    // fingerprint covers the same option set as --batch resume, so a
    // mismatched replay is impossible by construction.
    svc.journal_path = opt_.journal_dir + "/req-" +
                       batch_fingerprint(r.jobs, opt_.spec, svc) + ".journal";
    svc.resume = true;
  }
  try {
    BatchService service(opt_.spec, svc);
    r.report = service.run(r.jobs);
    if (opt_.shared_breakers) {
      std::lock_guard<std::mutex> lk(mu_);
      registry_ = local_registry;
    }
    accumulate(r.report);
    std::lock_guard<std::mutex> lk(stats_mu_);
    stats_.requests.served += 1;
  } catch (const std::exception& e) {
    // Nothing a client sends may kill the daemon: the failure becomes a
    // structured reject for this request only.
    r.failed = true;
    r.error = e.what();
    std::lock_guard<std::mutex> lk(stats_mu_);
    stats_.requests.failed += 1;
  }
}

void ServeDaemon::accumulate(const ServiceReport& rep) {
  auto n = [](std::size_t v) { return static_cast<std::int64_t>(v); };
  std::lock_guard<std::mutex> lk(stats_mu_);
  JobCounters& j = stats_.jobs;
  j.submitted += n(rep.submitted);
  j.succeeded += n(rep.succeeded);
  j.succeeded_after_retry += n(rep.succeeded_after_retry);
  j.degraded += n(rep.degraded);
  j.rejected += n(rep.shed + rep.rejected_admission + rep.drained +
                  rep.rejected_execution);
  j.retries += n(rep.retries);
  j.crashes += n(rep.crashes);
  j.resource_limited += n(rep.resource_limited);
  j.deadline_exceeded += n(rep.deadline_exceeded);
  j.breaker_opens += n(rep.breaker_opens);
  j.breaker_short_circuits += n(rep.breaker_short_circuits);
}

std::string ServeDaemon::status_json() {
  DaemonStats s;
  {
    std::lock_guard<std::mutex> lk(stats_mu_);
    s = stats_;
  }
  std::size_t pending;
  std::vector<BreakerSnapshot> breakers;
  {
    // The executor only touches registry_ under mu_ (copy-in/merge-out
    // around each request), so this snapshot never races a run.
    std::lock_guard<std::mutex> lk(mu_);
    pending = sched_.pending();
    for (const auto& [key, br] : registry_.breakers)
      breakers.emplace_back(key, br);
  }
  std::string out = std::string("{\"draining\":") +
                    (draining() ? "true" : "false") +
                    ",\"pending\":" + std::to_string(pending) +
                    ",\"requests\":" + s.requests.json() +
                    ",\"sessions\":" + s.sessions.json() +
                    ",\"jobs\":" + s.jobs.json() + ",\"cache\":" +
                    (cache_ ? cache_->stats().json() : "null") +
                    ",\"workers\":" +
                    (supervisor_ ? supervisor_->counters().json() : "null") +
                    ",\"breakers\":[";
  for (std::size_t i = 0; i < breakers.size(); ++i)
    out += (i ? "," : "") + breakers[i].json();
  return out + "]}";
}

std::string ServeDaemon::healthz_json() {
  Healthz h;
  h.consecutive_worker_failures =
      supervisor_ ? supervisor_->counters().consecutive_failures : 0;
  h.crash_loop_threshold = opt_.crash_loop_threshold;
  if (draining())
    h.status = "draining";
  else if (h.consecutive_worker_failures >= opt_.crash_loop_threshold)
    h.status = "crash-loop";
  return h.json();
}

void ServeDaemon::note_session_reaped() {
  std::lock_guard<std::mutex> lk(stats_mu_);
  stats_.sessions.reaped += 1;
}

void ServeDaemon::note_bad_request() {
  std::lock_guard<std::mutex> lk(stats_mu_);
  stats_.requests.rejected_bad_request += 1;
}

void ServeDaemon::reap_finished_sessions() {
  std::lock_guard<std::mutex> lk(sessions_mu_);
  for (auto it = sessions_.begin(); it != sessions_.end();) {
    if (it->session && it->session->done()) {
      if (it->thread.joinable()) it->thread.join();
      it = sessions_.erase(it);
    } else {
      ++it;
    }
  }
}

int connect_unix(const std::string& socket_path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (socket_path.size() >= sizeof(addr.sun_path)) {
    errno = ENAMETOOLONG;
    return -1;
  }
  ::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size() + 1);
  int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    int saved = errno;
    ::close(fd);
    errno = saved;
    return -1;
  }
  return fd;
}

}  // namespace cudanp::serve
