// Runner: launches baseline or transformed kernels on the simulator,
// handling resource estimation, occupancy, extra buffers for globally
// re-homed local arrays, and timing.
#pragma once

#include <optional>

#include "analysis/resources.hpp"
#include "np/workload.hpp"
#include "sim/interpreter.hpp"
#include "sim/sanitizer.hpp"
#include "transform/transformer.hpp"

namespace cudanp::np {

/// One fully-specified launch: which kernel (a baseline ir::Kernel or a
/// transformed variant, exactly one), which workload, whether to
/// sanitize, and optional per-request overrides of the runner's
/// interpreter options. Built with the factories + chainable setters:
///
///   runner.execute(ExecutionRequest::transformed(variant, w)
///                      .sanitized(sopt)
///                      .with_jobs(8));
struct ExecutionRequest {
  const ir::Kernel* kernel = nullptr;
  const transform::TransformResult* variant = nullptr;
  Workload* workload = nullptr;
  /// Collect hazards instead of throwing; per-block SimErrors downgrade
  /// to kSimFault reports and the rest of the grid keeps running.
  bool sanitize = false;
  sim::SanitizerEngine::Options sanitizer_options{};
  /// Unset fields inherit the runner's Options for this launch.
  std::optional<sim::ExecutionLimits> limits{};
  std::optional<int> jobs{};
  /// Non-null overrides the runner's fault injector (chaos tests).
  const sim::FaultInjector* fault = nullptr;

  [[nodiscard]] static ExecutionRequest baseline(const ir::Kernel& k,
                                                 Workload& w) {
    ExecutionRequest r;
    r.kernel = &k;
    r.workload = &w;
    return r;
  }
  [[nodiscard]] static ExecutionRequest transformed(
      const transform::TransformResult& v, Workload& w) {
    ExecutionRequest r;
    r.variant = &v;
    r.workload = &w;
    return r;
  }
  ExecutionRequest& sanitized(sim::SanitizerEngine::Options sopt = {}) {
    sanitize = true;
    sanitizer_options = sopt;
    return *this;
  }
  ExecutionRequest& with_limits(sim::ExecutionLimits l) {
    limits = l;
    return *this;
  }
  ExecutionRequest& with_jobs(int j) {
    jobs = j;
    return *this;
  }
  ExecutionRequest& with_fault(const sim::FaultInjector* f) {
    fault = f;
    return *this;
  }
};

/// What a launch produced. For unsanitized requests failures propagate
/// as exceptions, so `ran` is always true on return; for sanitized
/// requests launch-scoped failures land in `engine` as hazards and
/// `ran` stays false.
struct ExecutionResult {
  sim::RunResult run;
  sim::SanitizerEngine engine;
  bool ran = false;

  [[nodiscard]] bool clean() const { return ran && engine.clean(); }
  [[nodiscard]] const std::vector<sim::HazardReport>& hazards() const {
    return engine.reports();
  }
};

class Runner {
 public:
  explicit Runner(sim::DeviceSpec spec, sim::Interpreter::Options opt = {})
      : spec_(std::move(spec)), opt_(opt) {}

  /// The single execution entry point: baseline or variant, sanitized or
  /// not, with per-request option overrides. Variant requests swap the
  /// block dims and allocate the variant's extra global buffers
  /// (appended to the argument list, returned to the workload's free
  /// pool afterwards; registered as uninitialized device scratch when
  /// sanitizing).
  [[nodiscard]] ExecutionResult execute(const ExecutionRequest& req) const;

  [[nodiscard]] const sim::DeviceSpec& spec() const { return spec_; }

  /// Resource estimate used for occupancy (exposed for Table 1).
  [[nodiscard]] analysis::ResourceEstimate resources(
      const ir::Kernel& kernel) const {
    return analysis::estimate_resources(kernel, spec_);
  }

  /// Mutable interpreter options, so a long-lived caller can re-budget
  /// between launches (the serve layer maps each job's remaining
  /// wall-clock deadline onto max_steps_per_block per attempt).
  [[nodiscard]] sim::Interpreter::Options& options() { return opt_; }
  [[nodiscard]] const sim::Interpreter::Options& options() const {
    return opt_;
  }

 private:
  sim::DeviceSpec spec_;
  sim::Interpreter::Options opt_;
};

/// Deterministic synthetic workload for kernels the driver knows nothing
/// about (cudanp-cc --sanitize / --fallback, and every serve-layer job):
/// each int scalar parameter becomes the problem size n, each float
/// scalar 1.0, each pointer an n*n-element buffer of seeded
/// pseudo-random data. Block {tb,1,1}, grid covering n elements — the
/// convention the paper suite itself launches with.
[[nodiscard]] Workload make_synthetic_workload(const ir::Kernel& kernel,
                                               int n, int tb);

}  // namespace cudanp::np
