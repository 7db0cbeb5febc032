// cudanp-cc: the CUDA-NP source-to-source compiler as a command-line
// tool, mirroring how the paper's Cetus-based compiler is driven.
// `cudanp-cc --help` lists every flag with its default.
//
// Modes:
//
//   cudanp-cc input.cu [options]   transform the kernel (--kernel=<name>,
//                                  else the first with #pragma np loops)
//                                  and print the NP variant; --all prints
//                                  every auto-tuner candidate, --report a
//                                  resource/occupancy report instead.
//                                  --sanitize, --fallback=baseline and
//                                  --certify run guarded execution
//                                  (docs/sanitizer.md, docs/robustness.md)
//   cudanp-cc --batch=<manifest>   resilient batch serving: every job in
//                                  the manifest (src/serve/manifest.hpp)
//                                  through admission control, deadlines,
//                                  retry/backoff and circuit breakers;
//                                  the report goes to the output stream
//                                  (human) and stderr (JSON). --journal
//                                  and --resume finish a killed batch
//   cudanp-cc --serve=<socket>     long-lived daemon driving each
//                                  submitted manifest through the batch
//                                  pipeline; batch flags set its
//                                  defaults; SIGTERM/SIGINT drains
//                                  gracefully (docs/robustness.md)
//   cudanp-cc --connect=<socket>   client: submit --batch=<manifest>
//                                  (output identical to a local --batch
//                                  run), or --status / --healthz /
//                                  --shutdown
//   cudanp-cc --worker             (internal) execution worker serving
//                                  attempt frames on stdin/stdout
//
// Exit status: 0 on success, 1 on usage errors, 2 on compile errors,
// 3 when --sanitize found hazards or an output mismatch, 4 on simulation
// errors, 5 on internal errors, 6 when --fallback degraded (a candidate
// was quarantined or the baseline was used) or the watchdog cancelled an
// unsanitized run — the output is still a runnable answer, 7 when a
// --batch run completed but not every job succeeded (some jobs were
// degraded to the baseline, shed, drained, or rejected; every job still
// reached a terminal state), 8 when a --batch run completed but only by
// surviving worker crashes or resource-limit kills under
// --isolate=process (crashed-but-completed; takes precedence over 7),
// 9 when --resume was given a journal written for a different batch or
// different options (no report is produced), 10 when a daemon refused a
// --connect request with a structured reject (tenant-quota / queue-full /
// draining / bad-manifest — the request never entered the pipeline),
// 11 when --certify refuted a candidate variant (a replayable
// counterexample proves it diverges from the baseline; takes precedence
// over 3 and 6 — the strongest possible evidence of a transform bug).
#include <cerrno>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <string>
#include <vector>

#include <unistd.h>

#include "analysis/resources.hpp"
#include "ir/printer.hpp"
#include "np/compiler.hpp"
#include "np/runner.hpp"
#include "serve/daemon.hpp"
#include "serve/journal.hpp"
#include "serve/manifest.hpp"
#include "serve/service.hpp"
#include "serve/supervisor.hpp"
#include "serve/worker.hpp"
#include "sim/exec_pool.hpp"
#include "support/diagnostics.hpp"
#include "support/flags.hpp"
#include "support/record.hpp"
#include "transform/preprocess.hpp"

using namespace cudanp;

namespace {

/// What no library option struct owns: the input, the output, the kernel
/// name and the mode selectors. Every other flag binds straight into the
/// library struct that owns its field and its default.
struct CliOptions {
  std::string input;
  std::string output;
  std::string kernel;
  bool all = false;
  bool report = false;
  bool preprocess = false;
  bool sanitize = false;
  bool fallback = false;
  bool worker = false;
  std::string batch;
  // This --batch run's journal, kept out of the daemon's service template.
  std::string journal;
  bool resume = false;
  std::string connect_socket;
  bool status = false;
  bool healthz = false;
  bool shutdown = false;

  /// Single-file transform knobs (master_count is --tb, set at use).
  transform::NpConfig config;
  /// Guarded single-file runs: --sanitize, --fallback, --certify.
  np::ValidationOptions validation;
  /// --batch and --serve: the service template, the manifest defaults
  /// (--tb and --elems serve single-file runs too), the device and the
  /// daemon's own knobs.
  serve::DaemonOptions daemon;
  /// --connect: the tenant (manifest and base_dir are filled at submit).
  serve::SubmitRequest request;
};

FlagTable cli_flags(CliOptions& o) {
  using RaceMode = sim::SanitizerEngine::RaceMode;
  using transform::LocalPlacement;
  np::ValidationOptions& v = o.validation;
  serve::ServiceOptions& s = o.daemon.service;
  serve::ManifestDefaults& d = o.daemon.defaults;
  FlagTable t(
      "cudanp-cc",
      "usage: cudanp-cc <input.cu> [options]\n"
      "       cudanp-cc --batch=<manifest> [options]\n"
      "       cudanp-cc --serve=<socket> [options]\n"
      "       cudanp-cc --connect=<socket> --batch=<manifest> "
      "[--tenant=<name>] [-o <file>]\n"
      "       cudanp-cc --connect=<socket> --status|--healthz|--shutdown\n"
      "       (cudanp-cc --help lists every flag)\n");
  t.section("Transform")
      .text("--kernel", "<name>",
            "kernel to transform (default: first with #pragma np loops)",
            &o.kernel, /*allow_empty=*/true)
      .integer("--slave-size", "slaves per master incl. the master", 1,
               1024, &o.config.slave_size)
      .choice("--np-type", "warp mapping",
              {{"inter", ir::NpType::kInterWarp},
               {"intra", ir::NpType::kIntraWarp}},
              &o.config.np_type)
      .choice("--placement", "local-array re-homing",
              {{"auto", LocalPlacement::kAuto},
               {"register", LocalPlacement::kRegister},
               {"shared", LocalPlacement::kShared},
               {"global", LocalPlacement::kGlobal}},
              &o.config.placement)
      .integer("--sm", "target compute capability x10", 10, 999,
               &o.config.sm_version, &o.daemon.spec.sm_version)
      .set("--pad", "pad constant loop counts to slave_size multiples",
           true, &o.config.pad_loops)
      .set("--no-shfl", "use shared memory even intra-warp (Fig. 16)", false,
           &o.config.use_shfl)
      .set("--all", "emit every auto-tuner candidate configuration", true,
           &o.all)
      .set("--report", "print the resource/occupancy report instead of code",
           true, &o.report)
      .set("--preprocess",
           "re-roll unrolled statement runs before transforming (Sec. 3.7)",
           true, &o.preprocess)
      .separate("-o", "<file>", "write output to file (default stdout)",
                &o.output)
      .section("Job shape (single-file runs, and the manifest defaults)");
  serve::add_job_shape(
      t,
      {{"--elems",
        "synthetic workload size for guarded runs (also the manifest "
        "elems=)"},
       {"--tb", "baseline thread-block size (also the manifest tb=)"},
       {"--deadline-ms", "default per-job virtual deadline"},
       {"--retries", "max attempts per job incl. the first"},
       {"--watchdog-steps",
        "per-block statement budget before the watchdog cancels a launch; "
        "0 = CUDANP_MAX_STEPS, else 2^26; negative disables"}},
      d, "64", std::tuple{&s.default_deadline_ms},
      std::tuple{&s.retry.max_attempts},
      std::tuple{&v.interp.limits.max_steps_per_block})
      .section("Guarded execution")
      .set("--sanitize",
           "run baseline + every candidate under the sanitizer and "
           "cross-check outputs",
           true, &o.sanitize)
      .integer("--error-limit",
               "stop sanitizing after n distinct hazards; 0 = no limit", 0,
               1 << 30, &v.sanitizer.error_limit, &s.sanitizer.error_limit)
      .set("--portable-races",
           "also flag races that only block-lockstep order hides",
           RaceMode::kPortable, &v.sanitizer.race_mode,
           &s.sanitizer.race_mode)
      .integer("--jobs",
               "host threads simulating thread blocks; results are "
               "identical at every count; 0 = CUDANP_JOBS, else all cores",
               1, sim::ExecPool::kMaxWorkers, &v.interp.jobs, &s.jobs)
      .set("--certify",
           "symbolically certify every candidate; a refuted one is "
           "quarantined as proven-wrong (exit 11)",
           true, &v.certify, &s.certify)
      .set("--certified-fast-path",
           "--certify, and proven variants skip the sanitized cross-check",
           true, &v.certify, &v.certified_fast_path, &s.certify,
           &s.certified_fast_path)
      .choice("--fallback",
              "always print a runnable kernel: the best surviving "
              "candidate, else the baseline (JSON report on stderr)",
              {{"baseline", true}}, &o.fallback)
      .section("Batch serving")
      .text("--batch", "<manifest>", "run every job in the manifest",
            &o.batch)
      .integer("--queue-cap", "admission queue capacity", 1, 1 << 20,
               &s.queue_capacity)
      .choice("--isolate",
              "crash isolation: process runs every attempt in a sandboxed "
              "worker subprocess",
              record::choices(serve::kIsolationModeSlugs), &s.isolate)
      .integer("--worker-mem-mb",
               "RLIMIT_AS cap per worker in MiB; 0 = uncapped", 1, 1LL << 20,
               &s.supervisor.worker_mem_mb)
      .integer("--worker-timeout-ms",
               "a worker silent this long (real ms) is declared wedged", 1,
               1 << 30, &s.supervisor.read_timeout_ms)
      .integer("--heartbeat-ms",
               "worker heartbeat interval (real ms); 2x must fit inside "
               "--worker-timeout-ms",
               1, 1 << 30, &s.supervisor.heartbeat_ms)
      .text("--journal", "<file>",
            "write-ahead commit journal, so a killed batch can --resume",
            &o.journal)
      .set("--resume",
           "replay completed jobs from --journal and run only the rest",
           true, &o.resume)
      .integer("--commit-chunk",
               "jobs per execute->journal->commit round when journaling", 1,
               1 << 20, &s.commit_chunk)
      .set("--worker", "(internal) run as an execution worker", true,
           &o.worker)
      .section("Persistent serving")
      .text("--serve", "<socket>", "run the daemon on an AF_UNIX socket",
            &o.daemon.socket_path)
      .integer("--tenant-quota",
               "max requests one tenant may have queued+running", 1, 1 << 20,
               &o.daemon.tenant_quota)
      .integer("--max-pending", "global pending-request bound", 1, 1 << 20,
               &o.daemon.max_pending)
      .integer("--drr-quantum",
               "deficit-round-robin credit per tenant visit, in jobs", 1,
               1 << 20, &o.daemon.drr_quantum)
      .integer("--session-idle-ms", "a client silent this long is reaped", 1,
               1 << 30, &o.daemon.session_idle_ms)
      .integer("--cache-entries", "compile-cache capacity; 0 disables", 0,
               1 << 20, &o.daemon.cache_entries)
      .defaults_to("256")
      .text("--cache-dir", "<dir>", "persist cache entries across restarts",
            &o.daemon.cache_dir)
      .text("--journal-dir", "<dir>",
            "journal each request, making restart idempotent",
            &o.daemon.journal_dir)
      .set("--shared-breakers", "share circuit breakers across tenants", true,
           &o.daemon.shared_breakers)
      .text("--connect", "<socket>", "client mode: talk to a daemon",
            &o.connect_socket)
      .text("--tenant", "<name>", "tenant attribution for --connect",
            &o.request.tenant, /*allow_empty=*/true)
      .set("--status", "query the daemon's counters (JSON)", true, &o.status)
      .set("--healthz", "query the daemon's liveness (JSON)", true,
           &o.healthz)
      .set("--shutdown", "ask the daemon to drain gracefully", true,
           &o.shutdown);
  return t;
}

/// The mode checks that follow parsing; a violation is a usage error.
void check_modes(const CliOptions& opt, const FlagTable& flags) {
  // The heartbeat must fit (twice) inside the supervisor's read
  // timeout, or a healthy worker would be declared wedged between
  // beats. Caught at parse time, not at the first spurious kill.
  const serve::SupervisorOptions& s = opt.daemon.service.supervisor;
  if (2LL * s.heartbeat_ms > s.read_timeout_ms)
    flags.fail("--heartbeat-ms=" + std::to_string(s.heartbeat_ms) +
               " must satisfy 2*heartbeat <= --worker-timeout-ms=" +
               std::to_string(s.read_timeout_ms) +
               " (a healthy worker would be declared wedged between beats)");
  // Worker mode serves frames on stdin/stdout; batch mode takes its
  // inputs from the manifest; every other mode needs exactly one source
  // file.
  const bool has_input = !opt.input.empty() || !opt.batch.empty();
  if (opt.worker) {
    if (has_input) flags.fail();
    return;
  }
  if (!opt.daemon.socket_path.empty()) {
    if (has_input || !opt.connect_socket.empty()) flags.fail();
    return;
  }
  if (opt.status || opt.healthz || opt.shutdown) {
    if (opt.connect_socket.empty())
      flags.fail("--status/--healthz/--shutdown require --connect=<socket>");
    if (has_input) flags.fail();
    return;
  }
  if (!opt.connect_socket.empty()) {
    if (opt.batch.empty() || !opt.input.empty())
      flags.fail("--connect requires --batch=<manifest> "
                 "(or --status/--healthz/--shutdown)");
    return;
  }
  if (opt.resume && opt.journal.empty())
    flags.fail("--resume requires --journal=<file>");
  if (opt.batch.empty() == opt.input.empty()) flags.fail();
}

/// Opens -o (stdout when unset); null after reporting a failure.
std::ostream* open_output(const std::string& path, std::ofstream& file) {
  if (path.empty()) return &std::cout;
  file.open(path);
  if (file) return &file;
  std::cerr << "cudanp-cc: cannot write " << path << "\n";
  return nullptr;
}

/// The batch exit policy, shared by --batch and --connect: 8 when
/// completion required surviving worker crashes or resource-limit kills
/// under --isolate=process (precedence over 7), 7 when some job was
/// degraded, shed, drained or rejected (retried-into-success is still
/// 0), else 0.
int batch_exit_code(const serve::ServiceReport& report) {
  if (report.crashes > 0 || report.resource_limited > 0) return 8;
  return report.all_succeeded() ? 0 : 7;
}

void print_report(std::ostream& os, const ir::Kernel& kernel,
                  const transform::TransformResult* variant,
                  const sim::DeviceSpec& spec, int threads_per_block) {
  const ir::Kernel& k = variant ? *variant->kernel : kernel;
  auto res = analysis::estimate_resources(k, spec);
  auto occ = sim::compute_occupancy(spec, threads_per_block, res.usage);
  os << "kernel " << k.name << ":\n"
     << "  threads/block:   " << threads_per_block << "\n"
     << "  registers:       ~" << res.usage.registers_per_thread
     << " per thread (raw estimate " << res.estimated_registers_raw << ")\n"
     << "  shared memory:   " << res.usage.shared_mem_per_block
     << " B per block\n"
     << "  local memory:    " << res.usage.local_mem_per_thread
     << " B per thread\n"
     << "  occupancy:       " << occ.blocks_per_smx << " blocks ("
     << occ.active_warps << " warps) per SMX, " << occ.limiting_factor
     << "-limited\n";
  if (variant) {
    for (const auto& [arr, placement] : variant->placements)
      os << "  local array:     " << arr << " -> "
         << transform::to_string(placement) << "\n";
    for (const auto& extra : variant->extra_buffers)
      os << "  extra buffer:    " << extra.param_name << " ("
         << extra.elems_per_block << " elems per block)\n";
  }
}

/// --batch mode: load the manifest, run every job through the resilient
/// batch service, and report.
int run_batch(const CliOptions& opt, std::ostream& os) {
  std::string error;
  std::vector<serve::JobSpec> jobs =
      serve::load_manifest(opt.batch, opt.daemon.defaults, &error);
  if (jobs.empty()) {
    std::cerr << "cudanp-cc: " << opt.batch << ": "
              << (error.empty() ? "empty manifest" : error) << "\n";
    return 1;
  }
  serve::ServiceOptions sopts = opt.daemon.service;
  sopts.journal_path = opt.journal;
  sopts.resume = opt.resume;
  serve::BatchService service(opt.daemon.spec, sopts);
  serve::ServiceReport report = service.run(jobs);
  os << report.str();
  std::cerr << report.json() << "\n";
  return batch_exit_code(report);
}

/// --serve mode: run the persistent daemon until a graceful drain.
int run_serve(const CliOptions& opt) {
  serve::ServeDaemon daemon(opt.daemon);
  std::string error;
  if (!daemon.start(&error)) {
    std::cerr << "cudanp-cc: " << error << "\n";
    return 1;
  }
  std::cerr << "cudanp-cc: serving on " << opt.daemon.socket_path << "\n";
  return daemon.serve();
}

/// --connect mode: one request against a running daemon. Submissions
/// re-emit the daemon's report verbatim (byte-identical to --batch);
/// structured rejects exit 10.
int run_client(const CliOptions& opt, std::ostream& os) {
  int fd = serve::connect_unix(opt.connect_socket);
  if (fd < 0) {
    std::cerr << "cudanp-cc: cannot connect to " << opt.connect_socket
              << ": " << std::strerror(errno) << "\n";
    return 1;
  }
  struct FdCloser {
    int fd;
    ~FdCloser() { ::close(fd); }
  } closer{fd};

  if (opt.status || opt.healthz || opt.shutdown) {
    bool ok;
    if (opt.shutdown)
      ok = serve::write_frame(fd, serve::kFrameShutdown, "");
    else
      ok = serve::write_frame(fd, serve::kFrameStatus,
                              opt.healthz ? "healthz" : "status");
    serve::Frame f;
    if (!ok ||
        serve::read_frame(fd, &f, -1) != serve::ReadStatus::kOk ||
        f.type != serve::kFrameStatusReply) {
      std::cerr << "cudanp-cc: no reply from daemon\n";
      return 1;
    }
    os << f.payload << "\n";
    return 0;
  }

  auto manifest = read_file(opt.batch);
  if (!manifest) {
    std::cerr << "cudanp-cc: cannot open " << opt.batch << "\n";
    return 1;
  }
  serve::SubmitRequest req = opt.request;
  req.manifest = std::move(*manifest);
  auto slash = opt.batch.find_last_of('/');
  req.base_dir = slash == std::string::npos ? std::string()
                                            : opt.batch.substr(0, slash);

  if (!serve::write_frame(fd, serve::kFrameSubmit, req.json())) {
    std::cerr << "cudanp-cc: cannot submit to daemon\n";
    return 1;
  }
  serve::Frame f;
  if (serve::read_frame(fd, &f, -1) != serve::ReadStatus::kOk) {
    std::cerr << "cudanp-cc: daemon closed the connection\n";
    return 1;
  }
  if (f.type == serve::kFrameReject) {
    auto rej = serve::RejectReply::from_json(f.payload);
    std::cerr << "cudanp-cc: rejected: "
              << (rej ? rej->cause : std::string("malformed-reject"));
    if (rej && !rej->detail.empty()) std::cerr << " (" << rej->detail << ")";
    std::cerr << "\n";
    return 10;
  }
  if (f.type != serve::kFrameReport) {
    std::cerr << "cudanp-cc: unexpected reply frame from daemon\n";
    return 1;
  }
  auto reply = serve::SubmitReply::from_json(f.payload);
  if (!reply) {
    std::cerr << "cudanp-cc: malformed report from daemon\n";
    return 1;
  }
  // Same renderings, same exit-code policy as a local --batch run.
  os << reply->report_text;
  std::cerr << reply->report_json << "\n";
  auto report = serve::ServiceReport::from_json(reply->report_json);
  return report ? batch_exit_code(*report) : 5;
}

/// Single-file mode: transform, report on, or guard-run one kernel.
int run_file(const CliOptions& opt) {
  auto source = read_file(opt.input);
  if (!source) {
    std::cerr << "cudanp-cc: cannot open " << opt.input << "\n";
    return 1;
  }
  std::ofstream out_file;
  std::ostream* os = open_output(opt.output, out_file);
  if (!os) return 1;

  auto program = np::NpCompiler::parse(*source);
  const bool guarded = opt.sanitize || opt.fallback || opt.validation.certify;
  const ir::Kernel* kernel = np::NpCompiler::pick_kernel(*program, opt.kernel);
  // Unguarded runs transform, so an unnamed pick must carry NP pragmas.
  if (kernel && !guarded && opt.kernel.empty() &&
      kernel->parallel_loop_count() == 0)
    kernel = nullptr;
  if (!kernel) {
    std::cerr << "cudanp-cc: no kernel "
              << (opt.kernel.empty() ? "with #pragma np loops"
                                     : ("named '" + opt.kernel + "'"))
              << " in " << opt.input << "\n";
    return 2;
  }

  std::unique_ptr<ir::Kernel> preprocessed;
  if (opt.preprocess) {
    preprocessed = kernel->clone();
    auto rr = transform::reroll_unrolled_statements(*preprocessed);
    std::cerr << "cudanp-cc: re-rolled " << rr.statements_absorbed
              << " statements into " << rr.loops_created << " loop(s)\n";
    kernel = preprocessed.get();
  }

  const sim::DeviceSpec& spec = opt.daemon.spec;
  const int n = opt.daemon.defaults.elems;
  const int tb = opt.daemon.defaults.tb;
  const np::ValidationOptions& vopt = opt.validation;

  if (guarded) {
    // Unannotated kernel: nothing to transform, just run the baseline
    // under the sanitizer.
    if (kernel->parallel_loop_count() == 0) {
      np::Runner runner(spec, vopt.interp);
      np::Workload w = np::make_synthetic_workload(*kernel, n, tb);
      auto run = runner.execute(
          np::ExecutionRequest::baseline(*kernel, w).sanitized(vopt.sanitizer));
      if (opt.fallback) {
        // Nothing to fall back from: the baseline is the answer either
        // way, but hazards still mean a degraded (exit 6) outcome.
        *os << "// baseline (kernel has no #pragma np loops)\n"
            << ir::print_kernel(*kernel) << "\n";
        std::cerr << run.engine.summary();
        return run.clean() ? 0 : 6;
      }
      *os << run.engine.summary();
      return run.clean() ? 0 : 3;
    }
    const ir::Kernel& k = *kernel;
    auto factory = [&k, n, tb] {
      return np::make_synthetic_workload(k, n, tb);
    };
    if (opt.fallback) {
      auto result = np::NpCompiler::compile_with_fallback(
          k, np::NpCompiler::enumerate_configs(k, tb, spec), factory, spec,
          vopt);
      const auto& d = result.decision;
      if (d.used_baseline) {
        *os << "// baseline (every NP candidate was quarantined)\n"
            << ir::print_kernel(k) << "\n";
      } else {
        *os << "// " << d.chosen_config << "\n"
            << ir::print_kernel(*result.variant.kernel) << "\n";
      }
      std::cerr << d.json() << "\n";
      for (const auto& f : d.quarantined)
        std::cerr << "cudanp-cc: " << f.str() << "\n";
      // A refutation outranks ordinary degradation: the quarantine is
      // backed by a replayable counterexample, not a single bad run.
      for (const auto& f : d.quarantined)
        if (f.cause == np::FailureCause::kProvenWrong) return 11;
      return d.pristine() ? 0 : 6;
    }
    // The report covers the whole config space, so a config the kernel
    // rules out is listed as not applicable, with the reason.
    auto report = np::NpCompiler::validate(
        k, np::NpCompiler::config_space(k, tb, spec), factory, spec, vopt);
    *os << report.summary() << "\n";
    for (const auto& e : report.entries)
      if (e.verdict == np::to_string(np::Verdict::kRefuted)) return 11;
    return report.all_clean() ? 0 : 3;
  }

  // Report-only mode on an unannotated kernel: describe it and stop.
  if (opt.report && kernel->parallel_loop_count() == 0) {
    print_report(*os, *kernel, nullptr, spec, tb);
    return 0;
  }

  std::vector<transform::NpConfig> configs;
  if (opt.all) {
    configs = np::NpCompiler::enumerate_configs(*kernel, tb, spec);
  } else {
    transform::NpConfig cfg = opt.config;
    cfg.master_count = tb;
    cfg.use_shfl = cfg.use_shfl && cfg.sm_version >= 30;
    configs.push_back(cfg);
  }

  if (opt.report && !opt.all) print_report(*os, *kernel, nullptr, spec, tb);

  for (const auto& cfg : configs) {
    auto variant = np::NpCompiler::transform(*kernel, cfg);
    if (opt.report) {
      *os << "\n== " << cfg.describe() << " ==\n";
      print_report(*os, *kernel, &variant, spec, cfg.block_threads());
    } else {
      *os << "// " << cfg.describe() << "\n"
          << ir::print_kernel(*variant.kernel) << "\n";
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions opt;
  const FlagTable flags = cli_flags(opt);
  auto positional = flags.parse(argc, argv, 1);
  if (!positional.empty()) opt.input = positional.front();
  check_modes(opt, flags);

  if (opt.worker) {
    // Execution worker: serve attempt frames on stdin/stdout until the
    // supervisor closes the pipe. Crashes here are the whole point —
    // the supervisor contains them.
    return serve::run_worker_loop(
        STDIN_FILENO, STDOUT_FILENO,
        opt.daemon.service.supervisor.worker_mem_mb);
  }

  try {
    if (!opt.daemon.socket_path.empty()) return run_serve(opt);
    if (opt.batch.empty() && opt.connect_socket.empty()) return run_file(opt);
    std::ofstream out_file;
    std::ostream* os = open_output(opt.output, out_file);
    if (!os) return 1;
    if (!opt.connect_socket.empty()) return run_client(opt, *os);
    // Signal exit (SIGINT/SIGTERM) must not leak worker processes or
    // half-written journal segments.
    serve::cleanup::install_signal_handlers();
    return run_batch(opt, *os);
  } catch (const serve::ResumeMismatchError& e) {
    std::cerr << "cudanp-cc: " << e.what() << "\n";
    return 9;
  } catch (const CompileError& e) {
    std::cerr << "cudanp-cc: " << e.what() << "\n";
    return 2;
  } catch (const sim::WatchdogError& e) {
    std::cerr << "cudanp-cc: " << e.what() << "\n";
    return 6;
  } catch (const SimError& e) {
    std::cerr << "cudanp-cc: simulation error: " << e.what() << "\n";
    return 4;
  } catch (const std::exception& e) {
    std::cerr << "cudanp-cc: internal error: " << e.what() << "\n";
    return 5;
  }
}
