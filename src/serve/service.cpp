#include "serve/service.hpp"

#include <algorithm>
#include <limits>
#include <map>
#include <set>
#include <sstream>
#include <utility>

#include "serve/artifact_cache.hpp"
#include "serve/clock.hpp"
#include "serve/journal.hpp"
#include "serve/supervisor.hpp"
#include "serve/worker.hpp"
#include "sim/exec_pool.hpp"
#include "sim/interpreter.hpp"
#include "support/diagnostics.hpp"

namespace cudanp::serve {

namespace {

/// Content identity of one attempt: the source plus every request field
/// that can change its AttemptResult (max_steps included — a tighter
/// watchdog budget can change the decision). Attempts with interpreter
/// faults hooked in are never cached, so the fault plan is not part of
/// the key.
std::string attempt_cache_key(const AttemptRequest& req) {
  std::ostringstream os;
  os.precision(17);
  os << req.kernel << '\x1f' << req.elems << '\x1f' << req.tb << '\x1f'
     << req.device << '\x1f' << req.sm_version << '\x1f' << req.max_steps
     << '\x1f' << req.error_limit << '\x1f'
     << (req.portable_races ? 1 : 0) << '\x1f' << (req.dedupe ? 1 : 0)
     << '\x1f' << req.f32_rel_tol << '\x1f' << (req.certify ? 1 : 0)
     << '\x1f' << (req.certified_fast_path ? 1 : 0);
  return np::NpCompiler::artifact_key(req.source, os.str());
}

}  // namespace

std::string JobResult::str() const {
  std::ostringstream os;
  os << name << ": " << to_string(state);
  if (!cause.empty()) os << " (" << cause << ")";
  if (!chosen_config.empty()) os << " -> " << chosen_config;
  os << " [attempts=" << attempts << ", virtual_ms=" << virtual_ms << "]";
  if (!detail.empty()) os << " — " << detail;
  return os.str();
}

std::string ServiceReport::str() const {
  std::ostringstream os;
  os << "batch: " << submitted << " submitted, " << accepted << " accepted, "
     << shed << " shed, " << rejected_admission << " rejected at admission, "
     << drained << " drained\n"
     << "outcomes: " << succeeded << " succeeded, " << succeeded_after_retry
     << " succeeded after retry, " << degraded << " degraded, "
     << rejected_execution << " rejected in execution\n"
     << "retries: " << retries << " extra attempt(s), " << deadline_exceeded
     << " deadline(s) exceeded\n";
  // Only crashing batches grow an isolation line, so byte-for-byte
  // output of every pre-isolation batch is preserved.
  if (crashes > 0 || resource_limited > 0)
    os << "isolation: " << crashes << " crashed attempt(s), "
       << resource_limited << " resource-limited job(s)\n";
  os << "breakers: " << breaker_opens << " open(s), " << breaker_probes
     << " probe(s), " << breaker_short_circuits
     << " short-circuit(s); virtual clock " << virtual_ms << " ms\n";
  for (const auto& b : breakers)
    os << "  breaker " << b.key << ": " << to_string(b.state) << " (opens "
       << b.opens << ", probes " << b.probes << ", short-circuits "
       << b.short_circuits << ")\n";
  for (const auto& j : jobs) os << "  " << j.str() << "\n";
  os << (all_succeeded() ? "SERVED" : "SERVED-DEGRADED") << "\n";
  return os.str();
}

std::string certificate_cache_key(
    const std::string& source, const std::string& kernel,
    const std::string& device, int sm_version, int elems, int tb,
    const std::string& config, const np::CertifyOptions& copt) {
  std::ostringstream os;
  os << "cert" << '\x1f' << kernel << '\x1f' << device << '\x1f'
     << sm_version << '\x1f' << elems << '\x1f' << tb << '\x1f' << config
     << '\x1f' << copt.fingerprint();
  return np::NpCompiler::artifact_key(source, os.str());
}

BatchService::BatchService(sim::DeviceSpec spec, ServiceOptions opt)
    : spec_(std::move(spec)), opt_(std::move(opt)) {}

BatchService::~BatchService() = default;

void BatchService::run_job(const JobSpec& spec, std::size_t index,
                           JobOutcome* out) const {
  out->ran = true;
  const std::int64_t deadline =
      spec.deadline_ms > 0 ? spec.deadline_ms : opt_.default_deadline_ms;
  out->deadline_ms = deadline;
  const int max_attempts =
      std::max(1, spec.max_attempts > 0 ? spec.max_attempts
                                        : opt_.retry.max_attempts);

  // Admission-grade structural checks run in-process regardless of the
  // isolation mode: an unparseable job must not cost a worker spawn,
  // and the breaker key (kernel name) must be known even if every
  // isolated attempt later crashes before reporting.
  std::unique_ptr<ir::Program> program;
  try {
    program = np::NpCompiler::parse(spec.source);
  } catch (const CompileError& e) {
    out->rejected = true;
    out->reject_cause = "compile-error";
    out->reject_detail = e.what();
    return;
  }
  const ir::Kernel* kernel =
      np::NpCompiler::pick_kernel(*program, spec.kernel);
  if (!kernel) {
    out->rejected = true;
    out->reject_cause = "no-kernel";
    return;
  }
  out->breaker_key = kernel->name;

  AttemptRequest req;
  req.source = spec.source;
  req.kernel = spec.kernel;
  req.elems = spec.elems;
  req.tb = spec.tb;
  req.device = spec_.name == sim::DeviceSpec::k20c().name ? "k20c"
                                                          : "gtx680";
  req.sm_version = spec_.sm_version;
  // AST corruption exists before the first launch, like a real
  // transform bug, and persists across attempts (it is seeded, so each
  // attempt reconstructs the identical corrupted kernel).
  req.corrupt_ast =
      spec.inject && (spec.fault.drop_barrier || spec.fault.skew_index);
  req.fault = spec.fault;
  req.error_limit = static_cast<std::int64_t>(opt_.sanitizer.error_limit);
  req.portable_races = opt_.sanitizer.race_mode ==
                       sim::SanitizerEngine::RaceMode::kPortable;
  req.dedupe = opt_.sanitizer.dedupe;
  req.f32_rel_tol = opt_.f32_rel_tol;
  req.heartbeat_ms = opt_.supervisor.heartbeat_ms;
  req.certify = opt_.certify;
  req.certified_fast_path = opt_.certified_fast_path;

  // Certification runs inside the attempt, for exactly the configs
  // compile_with_fallback consults. Stored certificates ship with the
  // request, so a cached refutation still quarantines its config as
  // proven-wrong before it runs; the chaos hooks damage them before
  // lookup, so a torn or corrupt entry takes the path of a miss. A
  // corrupted AST ships none: the attempt certifies the corruption.
  ArtifactCache* cache = opt_.artifact_cache;
  const np::CertifyOptions copt =
      validation_options(req).certifier_options();
  auto cert_key = [&](const std::string& config) {
    return certificate_cache_key(req.source, kernel->name, req.device,
                                 req.sm_version, req.elems, req.tb, config,
                                 copt);
  };
  if (opt_.certify && cache && !req.corrupt_ast &&
      kernel->parallel_loop_count() > 0) {
    // The synthetic workload launches tb threads per block.
    for (const auto& cfg :
         np::NpCompiler::enumerate_configs(*kernel, req.tb, spec_)) {
      const std::string config = cfg.describe();
      const std::string key = cert_key(config);
      if (spec.fault.corrupt_cert) (void)cache->corrupt_entry(key);
      if (spec.fault.tear_cert) (void)cache->tear_entry(key);
      if (auto payload = cache->lookup(key)) {
        if (auto cert = np::Certificate::from_json(*payload);
            cert && cert->config == config)
          req.certificates.push_back(std::move(*payload));
      }
    }
  }

  sim::ExecutionLimits limits;
  limits.max_steps_per_block = spec.watchdog_steps;
  const std::int64_t configured_steps = limits.resolve();
  std::int64_t elapsed = 0;
  for (int attempt = 1;; ++attempt) {
    const std::int64_t remaining = deadline - elapsed;
    if (remaining <= 0) {
      out->deadline_exceeded = true;
      break;
    }
    // Map the remaining wall-clock budget onto the step watchdog
    // (saturating): a hanging kernel trips at its deadline.
    limits.deadline_steps =
        remaining > std::numeric_limits<std::int64_t>::max() /
                        std::max<std::int64_t>(1, opt_.steps_per_ms)
            ? std::numeric_limits<std::int64_t>::max()
            : remaining * opt_.steps_per_ms;
    req.max_steps = limits.resolve();
    req.hook_faults =
        spec.inject && (spec.transient_attempts <= 0 ||
                        attempt <= spec.transient_attempts);

    // Content-addressed cache: only clean attempts are cacheable (an
    // injected-fault or corrupted-AST attempt is chaos, not content).
    // The chaos hooks damage the stored entry *before* lookup, so the
    // quarantine-and-recompile path runs under the exact code the
    // production hit path uses.
    const bool cacheable =
        cache != nullptr && !req.corrupt_ast && !req.hook_faults;
    std::string cache_key;
    bool cache_hit = false;
    AttemptResult result;
    if (cacheable) {
      cache_key = attempt_cache_key(req);
      if (spec.fault.corrupt_cache) (void)cache->corrupt_entry(cache_key);
      if (spec.fault.tear_cache) (void)cache->tear_entry(cache_key);
      if (auto payload = cache->lookup(cache_key)) {
        if (auto cached = AttemptResult::from_json(*payload)) {
          result = std::move(*cached);
          cache_hit = true;
        }
      }
    }

    bool crashed = false;
    std::string crash_detail;
    std::vector<std::string> derived;
    if (cache_hit) {
      // Nothing to execute: the verified entry is byte-identical to
      // what recompilation would produce (virtual cost is still charged
      // below — caching must not change the report).
    } else if (sup_) {
      SupervisedAttempt sa = sup_->execute(req);
      if (sa.status == AttemptStatus::kCompleted) {
        result = std::move(sa.result);
        derived = std::move(sa.certificates);
      } else {
        crashed = true;
        crash_detail = std::move(sa.detail);
      }
    } else {
      result = execute_attempt(req, spec_, &derived);
    }
    if (cacheable && !cache_hit && !crashed)
      cache->store(cache_key, result.json());
    // The certificates the attempt derived serve later jobs from the
    // cache and ship with this job's retries.
    for (std::string& payload : derived) {
      const auto cert = np::Certificate::from_json(payload);
      if (!cert) continue;
      if (cache) cache->store(cert_key(cert->config), payload);
      req.certificates.push_back(std::move(payload));
    }

    if (crashed) {
      // The worker died with the attempt. Synthesize the decision the
      // retry/breaker/fallback machinery expects: degraded to the
      // guaranteed baseline, with a structured kCrash quarantine. kCrash
      // is transient — the next attempt gets a fresh worker.
      ++out->crashed_attempts;
      np::VariantFailure f;
      f.kernel = out->breaker_key;
      f.config = "worker";
      f.cause = np::FailureCause::kCrash;
      f.detail = std::move(crash_detail);
      result = AttemptResult{};
      result.kernel_name = out->breaker_key;
      result.decision.kernel = out->breaker_key;
      result.decision.used_baseline = true;
      result.decision.quarantined.push_back(std::move(f));
    } else if (result.rejected) {
      // Structural rejection from the attempt itself (worker-side parse
      // or internal error): terminal, uncharged, like the in-process
      // pre-loop rejection above.
      out->rejected = true;
      out->reject_cause = result.reject_cause;
      out->reject_detail = result.reject_detail;
      return;
    }

    out->attempts = attempt;
    out->decision = std::move(result.decision);

    // Virtual cost: a watchdog trip whose budget the deadline tightened
    // consumed the job's whole remaining budget; any other attempt
    // charges the flat attempt cost.
    bool deadline_bound_trip = false;
    bool any_transient = false;
    for (const auto& q : out->decision.quarantined) {
      if (np::transient(q.cause)) any_transient = true;
      if (q.cause == np::FailureCause::kWatchdogTrip &&
          limits.deadline_steps < configured_steps)
        deadline_bound_trip = true;
    }
    elapsed += deadline_bound_trip
                   ? remaining
                   : std::min(opt_.attempt_cost_ms, remaining);
    out->virtual_ms = elapsed;

    if (out->decision.pristine()) {
      out->success = true;
      break;
    }
    if (!any_transient || attempt >= max_attempts) break;
    std::int64_t backoff = opt_.retry.backoff_ms(index, attempt);
    elapsed += std::min(backoff, deadline - elapsed);
    out->virtual_ms = elapsed;
    if (elapsed >= deadline) {
      out->deadline_exceeded = true;
      break;
    }
  }
  if (!out->success && elapsed >= deadline) out->deadline_exceeded = true;
}

ServiceReport BatchService::run(const std::vector<JobSpec>& jobs) {
  ServiceReport report;
  report.submitted = jobs.size();
  report.jobs.resize(jobs.size());

  // --- Admission (arrival order): structured rejection + shedding. ---
  std::vector<std::size_t> accepted;
  accepted.reserve(jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    JobResult& r = report.jobs[i];
    r.index = i;
    r.name = jobs[i].name.empty() ? "job" + std::to_string(i) : jobs[i].name;
    const std::int64_t deadline = jobs[i].deadline_ms > 0
                                      ? jobs[i].deadline_ms
                                      : opt_.default_deadline_ms;
    r.deadline_ms = deadline;
    if (jobs[i].source.empty()) {
      r.state = JobState::kRejected;
      r.cause = "empty-source";
      ++report.rejected_admission;
      continue;
    }
    if (deadline < opt_.min_feasible_ms) {
      r.state = JobState::kRejected;
      r.cause = "deadline-infeasible";
      ++report.rejected_admission;
      continue;
    }
    if (static_cast<std::int64_t>(accepted.size()) >=
        static_cast<std::int64_t>(opt_.queue_capacity)) {
      r.state = JobState::kRejected;
      r.cause = "queue-full";
      ++report.shed;
      continue;
    }
    accepted.push_back(i);
  }
  report.accepted = accepted.size();

  // --- Journal: replay what a previous (killed) run already proved,
  // and arrange durable append-before-commit for everything else. ---
  std::vector<std::optional<JobOutcome>> replayed(accepted.size());
  std::optional<JournalWriter> journal;
  if (!opt_.journal_path.empty()) {
    const std::string fp = batch_fingerprint(jobs, spec_, opt_);
    std::string error;
    std::optional<JournalContents> prior;
    if (opt_.resume) prior = load_journal(opt_.journal_path, &error);
    if (prior) {
      if (prior->fingerprint != fp)
        throw ResumeMismatchError(
            "journal " + opt_.journal_path +
            " was written for a different batch or different options "
            "(fingerprint " +
            prior->fingerprint + ", batch " + fp + ")");
      for (JournalRecord& rec : prior->records)
        if (rec.k < replayed.size())
          replayed[rec.k] = std::move(rec.outcome);
      journal = JournalWriter::open_for_resume(opt_.journal_path,
                                               prior->valid_bytes, &error);
    } else {
      // Fresh journal — also the resume path when there is nothing to
      // resume from (the batch was killed before the header landed, or
      // never ran).
      journal = JournalWriter::create(opt_.journal_path, fp, &error);
    }
  }

  // --- Worker sandbox for --isolate=process. A daemon-provided shared
  // supervisor keeps one worker pool (and its crash-loop backoff state)
  // alive across requests; otherwise the pool lives for this run only.
  if (opt_.isolate == IsolationMode::kProcess) {
    if (opt_.shared_supervisor) {
      sup_ = opt_.shared_supervisor;
    } else {
      owned_supervisor_ = std::make_unique<WorkerSupervisor>(opt_.supervisor);
      sup_ = owned_supervisor_.get();
    }
  }

  // --- Execution + commit, chunked when journaling. Each round runs a
  // chunk of jobs in parallel on the exec_pool, appends their outcomes
  // durably in admission order, then commits them. Chunking (and the
  // chunk size) cannot affect the report: outcomes are independent and
  // the commit scan order is fixed. ---
  const std::size_t chunk =
      journal && opt_.commit_chunk > 0
          ? static_cast<std::size_t>(opt_.commit_chunk)
          : (accepted.empty() ? 1 : accepted.size());
  std::vector<JobOutcome> outcomes(accepted.size());
  const std::int64_t drain_at = opt_.drain_before_job;
  VirtualClock clock;
  // Breakers live in the shared registry when one is provided (daemon
  // mode), else in a registry local to this run. base_ms offsets the
  // per-run virtual clock into the registry's continuing timeline so
  // cooldowns keep elapsing across requests; the report still uses the
  // run-local clock, keeping virtual_ms identical to a standalone run.
  BreakerRegistry local_registry;
  BreakerRegistry& registry =
      opt_.breaker_registry ? *opt_.breaker_registry : local_registry;
  const std::int64_t breaker_base = registry.base_ms;
  std::set<std::string> touched_breakers;

  for (std::size_t base = 0; base < accepted.size(); base += chunk) {
    const std::size_t count = std::min(chunk, accepted.size() - base);
    auto run_one = [&](std::int64_t rel) {
      const std::size_t k = base + static_cast<std::size_t>(rel);
      if (replayed[k]) return;  // already journaled by the killed run
      if (drain_.load(std::memory_order_relaxed) ||
          (drain_at >= 0 && static_cast<std::int64_t>(k) >= drain_at))
        return;  // drained: the commit loop rejects it
      const std::size_t i = accepted[k];
      try {
        run_job(jobs[i], i, &outcomes[k]);
      } catch (const std::exception& e) {
        JobOutcome& o = outcomes[k];
        o = JobOutcome{};
        o.ran = true;
        o.rejected = true;
        o.reject_cause = "internal-error";
        o.reject_detail = e.what();
      } catch (...) {
        JobOutcome& o = outcomes[k];
        o = JobOutcome{};
        o.ran = true;
        o.rejected = true;
        o.reject_cause = "internal-error";
      }
    };
    sim::ExecPool::instance().parallel_for(
        static_cast<std::int64_t>(count),
        sim::ExecPool::resolve_jobs(opt_.jobs), run_one);

    // Durable write-ahead, admission order, before any commit in this
    // chunk: a kill after this loop re-executes nothing.
    for (std::size_t k = base; k < base + count; ++k) {
      if (replayed[k])
        outcomes[k] = std::move(*replayed[k]);
      else if (journal)
        (void)journal->append(k, outcomes[k]);
    }

    // --- Commit (admission order): virtual clock, breakers, counters. ---
    for (std::size_t k = base; k < base + count; ++k) {
      const std::size_t i = accepted[k];
      JobOutcome& o = outcomes[k];
      JobResult& r = report.jobs[i];
      if (!o.ran) {
        r.state = JobState::kRejected;
        r.cause = "drained";
        ++report.drained;
        continue;
      }
      r.attempts = o.attempts;
      r.crashed_attempts = o.crashed_attempts;
      r.virtual_ms = o.virtual_ms;
      r.deadline_exceeded = o.deadline_exceeded;
      r.quarantined = o.decision.quarantined;
      if (o.attempts > 1)
        report.retries += static_cast<std::size_t>(o.attempts - 1);
      report.crashes += static_cast<std::size_t>(o.crashed_attempts);
      for (const auto& q : o.decision.quarantined) {
        if (q.cause == np::FailureCause::kResourceLimit) {
          ++report.resource_limited;
          break;
        }
      }
      if (o.rejected) {
        r.state = JobState::kRejected;
        r.cause = o.reject_cause;
        r.detail = o.reject_detail;
        ++report.rejected_execution;
        continue;
      }
      clock.advance_ms(o.virtual_ms);
      // Breakers track the health of the first-choice variant (the
      // baseline when the kernel has no candidates).
      r.breaker_key = o.breaker_key + "|" +
                      (o.decision.first_choice.empty()
                           ? "baseline"
                           : o.decision.first_choice);
      CircuitBreaker& br =
          registry.breakers
              .try_emplace(r.breaker_key, CircuitBreaker(opt_.breaker))
              .first->second;
      touched_breakers.insert(r.breaker_key);
      if (!br.allow(breaker_base + clock.now_ms())) {
        // Open breaker: traffic routes straight to the guaranteed
        // baseline; the speculative result is discarded and no failure is
        // counted against the (already open) breaker.
        r.state = JobState::kDegraded;
        r.cause = "breaker-open";
        r.chosen_config = "baseline";
        r.breaker_routed = true;
        ++report.degraded;
        continue;
      }
      if (o.success) {
        r.state = o.attempts > 1 ? JobState::kSucceededAfterRetry
                                 : JobState::kSucceeded;
        r.chosen_config = o.decision.chosen_config;
        if (r.state == JobState::kSucceeded)
          ++report.succeeded;
        else
          ++report.succeeded_after_retry;
        br.on_success();
      } else {
        r.state = JobState::kDegraded;
        r.chosen_config = o.decision.used_baseline
                              ? "baseline"
                              : o.decision.chosen_config;
        if (o.deadline_exceeded) {
          r.cause = "deadline-exceeded";
          ++report.deadline_exceeded;
        } else if (!o.decision.quarantined.empty()) {
          r.cause = np::to_string(o.decision.quarantined.front().cause);
        } else {
          r.cause = to_string(r.state);
        }
        ++report.degraded;
        br.on_failure(breaker_base + clock.now_ms());
      }
    }
  }
  owned_supervisor_.reset();
  sup_ = nullptr;

  report.virtual_ms = clock.now_ms();
  // Snapshot only the keys this run touched, in sorted order (std::set
  // matches the old std::map iteration): a run whose keys nobody else
  // shares reports exactly what a standalone run would.
  for (const auto& key : touched_breakers) {
    const CircuitBreaker& br = registry.breakers.at(key);
    report.breaker_opens += static_cast<std::size_t>(br.opens());
    report.breaker_probes += static_cast<std::size_t>(br.probes());
    report.breaker_short_circuits +=
        static_cast<std::size_t>(br.short_circuits());
    report.breakers.emplace_back(key, br);
  }
  registry.base_ms = breaker_base + clock.now_ms();
  return report;
}

}  // namespace cudanp::serve
