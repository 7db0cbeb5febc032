#include "serve/worker.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <new>
#include <thread>
#include <utility>

#include "np/runner.hpp"
#include "sim/fault.hpp"
#include "support/diagnostics.hpp"

namespace cudanp::serve {

namespace {

/// Heartbeat thread: writes 'H' frames on a real-time interval while an
/// attempt executes, so the supervisor can tell slow-but-alive from
/// wedged. Joins promptly via a condition variable.
class Heartbeat {
 public:
  Heartbeat(int fd, int interval_ms)
      : thread_([this, fd, interval_ms] {
          const auto interval =
              std::chrono::milliseconds(std::max(1, interval_ms));
          std::unique_lock<std::mutex> lock(mu_);
          while (!done_) {
            if (cv_.wait_for(lock, interval, [this] { return done_; }))
              break;
            if (!write_frame(fd, kFrameHeartbeat, {})) break;
          }
        }) {}

  ~Heartbeat() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      done_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool done_ = false;
  std::thread thread_;
};

}  // namespace

sim::DeviceSpec resolve_device(const AttemptRequest& req) {
  sim::DeviceSpec spec = req.device == "k20c" ? sim::DeviceSpec::k20c()
                                              : sim::DeviceSpec::gtx680();
  spec.sm_version = req.sm_version;
  return spec;
}

np::ValidationOptions validation_options(const AttemptRequest& req) {
  np::ValidationOptions vopt;
  vopt.sanitizer.error_limit = static_cast<std::size_t>(req.error_limit);
  vopt.sanitizer.race_mode = req.portable_races
                                 ? sim::SanitizerEngine::RaceMode::kPortable
                                 : sim::SanitizerEngine::RaceMode::kLockstep;
  vopt.sanitizer.dedupe = req.dedupe;
  vopt.f32_rel_tol = req.f32_rel_tol;
  vopt.certify = req.certify;
  vopt.certified_fast_path = req.certified_fast_path;
  // Each attempt simulates its grid serially; batch parallelism lives
  // a layer up (the exec_pool is not reentrant from worker threads).
  vopt.interp.jobs = 1;
  vopt.interp.limits.max_steps_per_block = req.max_steps;
  return vopt;
}

AttemptResult execute_attempt(const AttemptRequest& req,
                              const sim::DeviceSpec& spec,
                              std::vector<std::string>* derived) {
  AttemptResult res;
  try {
    auto program = np::NpCompiler::parse(req.source);
    const ir::Kernel* kernel =
        np::NpCompiler::pick_kernel(*program, req.kernel);
    if (!kernel) {
      res.rejected = true;
      res.reject_cause = "no-kernel";
      return res;
    }
    // Planned AST corruption exists before the first launch, like a
    // real transform bug; it is seeded, so every attempt that re-runs
    // this function reconstructs the identical corrupted kernel.
    sim::FaultInjector injector(req.fault);
    std::unique_ptr<ir::Kernel> corrupted;
    if (req.corrupt_ast) {
      corrupted = kernel->clone();
      (void)injector.corrupt_kernel(*corrupted);
      kernel = corrupted.get();
    }
    res.kernel_name = kernel->name;
    res.decision.kernel = kernel->name;

    // OOM probe: a single pre-launch allocation of the planned size.
    // Under the worker's RLIMIT_AS it throws bad_alloc (classified
    // resource-limit below); uncapped it is allocated untouched and
    // freed, a no-op.
    if (req.hook_faults && req.fault.oom_mb > 0) {
      std::size_t bytes =
          static_cast<std::size_t>(req.fault.oom_mb) << 20;
      // Direct operator-new call: a plain new-expression pair may be
      // elided (N3664); this one must really reserve address space.
      void* probe = ::operator new(bytes);
      ::operator delete(probe);
    }

    np::ValidationOptions vopt = validation_options(req);
    if (req.certify) {
      // A config no shipped certificate covers is certified here and
      // reported back, unless the kernel is corrupted: then the proof
      // describes the corruption, not the job's source.
      const std::vector<std::string>& shipped = req.certificates;
      vopt.certificates.load =
          [&shipped](const std::string& config)
          -> std::optional<np::Certificate> {
        for (const std::string& p : shipped)
          if (auto c = np::Certificate::from_json(p); c && c->config == config)
            return c;
        return std::nullopt;
      };
      if (derived && !req.corrupt_ast)
        vopt.certificates.save = [derived](const np::Certificate& c) {
          derived->push_back(c.json());
        };
    }
    if (req.hook_faults) vopt.interp.fault = &injector;

    const ir::Kernel& k = *kernel;
    const int elems = req.elems;
    const int tb = req.tb;
    auto factory = [&k, elems, tb] {
      return np::make_synthetic_workload(k, elems, tb);
    };
    np::FallbackResult result = np::NpCompiler::compile_with_fallback(
        k, /*configs=*/{}, factory, spec, vopt);
    res.decision = std::move(result.decision);
  } catch (const CompileError& e) {
    res.rejected = true;
    res.reject_cause = "compile-error";
    res.reject_detail = e.what();
  } catch (const std::bad_alloc&) {
    // The attempt blew the worker's address-space budget. Deterministic
    // for a given cap, so never retried — but breaker-eligible, and the
    // job still degrades to the guaranteed baseline.
    np::VariantFailure f;
    f.kernel = res.kernel_name;
    f.config = "worker";
    f.cause = np::FailureCause::kResourceLimit;
    f.detail = "allocation of " + std::to_string(req.fault.oom_mb) +
               " MiB failed under the worker memory cap";
    res.rejected = false;
    res.decision = {};
    res.decision.kernel = res.kernel_name;
    res.decision.used_baseline = true;
    res.decision.quarantined.push_back(std::move(f));
  } catch (const std::exception& e) {
    res.rejected = true;
    res.reject_cause = "internal-error";
    res.reject_detail = e.what();
  }
  return res;
}

int run_worker_loop(int in_fd, int out_fd, std::int64_t mem_mb) {
  if (mem_mb > 0) {
    rlimit rl{};
    rl.rlim_cur = rl.rlim_max = static_cast<rlim_t>(mem_mb) << 20;
    // Best-effort: a failed setrlimit leaves the worker uncapped, which
    // only softens the resource-limit fault class, never correctness.
    (void)setrlimit(RLIMIT_AS, &rl);
  }
  for (;;) {
    Frame frame;
    ReadStatus s = read_frame(in_fd, &frame, /*timeout_ms=*/-1);
    if (s == ReadStatus::kEof) return 0;  // supervisor closed: retire
    if (s != ReadStatus::kOk || frame.type != kFrameJob) return 1;
    auto req = AttemptRequest::from_json(frame.payload);
    if (!req) {
      AttemptReply bad;
      bad.result.rejected = true;
      bad.result.reject_cause = "internal-error";
      bad.result.reject_detail = "worker: malformed attempt request";
      if (!write_frame(out_fd, kFrameResult, bad.json())) return 1;
      continue;
    }
    if (req->hook_faults && req->fault.wedge_worker) {
      // Chaos: hold the job forever — no heartbeat, no result, no
      // exit. Only the supervisor's read timeout can reclaim the slot
      // (the regression test for every blocking pipe read).
      for (;;) pause();
    }
    AttemptReply reply;
    {
      Heartbeat beat(out_fd, req->heartbeat_ms);
      reply.result =
          execute_attempt(*req, resolve_device(*req), &reply.certificates);
    }  // heartbeat joined: 'R' below cannot interleave with an 'H'
    if (!write_frame(out_fd, kFrameResult, reply.json())) return 1;
  }
}

}  // namespace cudanp::serve
