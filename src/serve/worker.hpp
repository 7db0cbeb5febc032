// Execution-worker side of the process-isolation split.
//
// execute_attempt() is the single implementation of "run one attempt of
// one job": parse, pick the kernel, apply planned AST corruption, run
// NpCompiler::compile_with_fallback under sanitizer + watchdog (and
// certifier). Both
// isolation modes call exactly this function — in-process from
// BatchService::run_job, out-of-process from run_worker_loop — which is
// what makes `--isolate=none` and `--isolate=process` reports
// bit-identical for any batch that does not actually crash.
//
// run_worker_loop() is the body of `cudanp-cc --worker`: read one 'J'
// frame, execute the attempt while a real-time heartbeat thread keeps
// the supervisor's read timeout at bay, write one 'R' frame, repeat
// until EOF. A worker never outlives its pipe: when the supervisor dies
// the read returns EOF and the worker exits. Native faults (SIGSEGV
// from the chaos plan's crash_at_step, an abort, a runaway loop past
// every watchdog) kill only this process; the supervisor classifies the
// death as FailureCause::kCrash and the batch continues.
//
// Resource caps: the worker applies RLIMIT_AS to itself (per
// --worker-mem-mb) before touching any job, so an attempt whose
// allocations exceed the cap fails with std::bad_alloc — classified as
// the non-transient, breaker-eligible "resource-limit" cause rather
// than a generic crash. Certification runs inside the attempt, under
// the same cap.
#pragma once

#include <cstdint>

#include "serve/wire.hpp"
#include "sim/device.hpp"

namespace cudanp::serve {

/// Runs one attempt to completion. Never throws: parse failures,
/// missing kernels, allocation failures (resource caps) and internal
/// errors all come back as a structured AttemptResult. Native crashes
/// are, by nature, not containable here — that is the supervisor's job.
/// `derived`, when given, receives the certificates the attempt derived
/// for configs req.certificates lacks (none for a corrupt_ast attempt).
[[nodiscard]] AttemptResult execute_attempt(
    const AttemptRequest& req, const sim::DeviceSpec& spec,
    std::vector<std::string>* derived = nullptr);

/// An attempt's validation options, before execute_attempt binds fault
/// hooks and certificates; BatchService keys certificates by their
/// certifier_options().
[[nodiscard]] np::ValidationOptions validation_options(
    const AttemptRequest& req);

/// Resolves the device model a request names (AttemptRequest::device +
/// sm_version). Shared by the worker loop and tests.
[[nodiscard]] sim::DeviceSpec resolve_device(const AttemptRequest& req);

/// `cudanp-cc --worker`: serve attempts over [in_fd, out_fd] until EOF.
/// When mem_mb > 0, caps the worker's own address space (RLIMIT_AS)
/// first. Returns the process exit code (0 on orderly EOF).
int run_worker_loop(int in_fd, int out_fd, std::int64_t mem_mb);

}  // namespace cudanp::serve
