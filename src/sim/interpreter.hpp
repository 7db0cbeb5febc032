// Block-lockstep vector interpreter for the kernel IR.
//
// Execution model
// ---------------
// A thread block executes as one wide vector of lanes (threads) with a
// per-lane active mask; every statement completes for all active lanes
// before the next statement begins. This is a strictly stronger
// synchronization than real hardware provides, so it is functionally
// correct for every race-free kernel that synchronizes through
// __syncthreads() (all paper benchmarks, and everything CUDA-NP emits).
//
// Engines
// -------
// Blocks execute on the bytecode VM: each launch lowers the bound kernel
// once into a flat register bytecode (sim/bytecode.hpp) that a dispatch
// loop runs over SoA lane state (sim/vm.cpp). The original recursive AST
// walk stays as the reference implementation that tests and
// bench/perf_harness compare the VM against (Options::ast_reference).
// Both run over the same per-block core (sim/exec_core.hpp), so outputs,
// cost-model stats, watchdog step counts and sanitizer hazard streams
// are bit-identical.
//
// Cost model hooks
// ----------------
// While executing, the interpreter charges per-warp costs (a warp is
// charged for an operation iff >= 1 of its lanes is active under the
// current mask), so SIMD divergence — including the slave-imbalance
// effects of intra-warp NP (paper Sec. 3.4, Figs. 11/12) — is measured,
// not asserted. Global accesses run through the coalescing model, shared
// accesses through the bank-conflict model, local-memory accesses through
// a per-block slice of the L1. See sim/cost_model.hpp for how the counts
// become seconds.
//
// Supported builtins
// ------------------
//   __syncthreads()
//   __shfl(var, srcLane, width), __shfl_up/_down(var, delta, width),
//   __shfl_xor(var, mask, width)           [sm_30+; paper Sec. 2.1]
//   sqrtf, fabsf, expf, logf, sinf, cosf, powf, rsqrtf, floorf,
//   min, max, fminf, fmaxf, abs
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "ir/kernel.hpp"
#include "sim/cost_model.hpp"
#include "sim/launch.hpp"
#include "sim/memory.hpp"
#include "support/diagnostics.hpp"

namespace cudanp::sim {

class SanitizerEngine;
class FaultInjector;

/// Thrown when a block exceeds its interpreted-statement budget. Derives
/// from SimError so every existing containment site (sanitized runs, the
/// autotuner, Runner) already catches it; callers that care about the
/// watchdog specifically catch this first.
class WatchdogError : public SimError {
 public:
  WatchdogError(const std::string& what, SourceLoc loc, std::int64_t steps)
      : SimError(what), loc_(loc), steps_(steps) {}
  [[nodiscard]] const SourceLoc& loc() const { return loc_; }
  [[nodiscard]] std::int64_t steps() const { return steps_; }

 private:
  SourceLoc loc_;
  std::int64_t steps_;
};

/// Cost-model knobs: how executed operations turn into cycles. Purely
/// observational — never changes results or hazard streams.
struct TimingOptions {
  CostWeights weights;
  /// Memory-level parallelism a single warp extracts from unrolled loop
  /// bodies: exposed per-statement latency is divided by this when the
  /// warp critical path is assembled.
  double warp_mlp = 4.0;
};

/// Execution-bound knobs: when a runaway block is cut off. Composable so
/// the serve layer can carry one value object from deadline math to the
/// interpreter instead of re-deriving resolve_max_steps overload
/// semantics at each call site.
struct ExecutionLimits {
  /// Safety valve for runaway loops.
  std::int64_t max_loop_iterations = 1 << 26;
  /// Watchdog: per-thread-block budget of interpreted statements (loop
  /// back-edges count as one statement, so even empty-body spins trip).
  /// 0 = auto: the CUDANP_MAX_STEPS environment variable if set, else
  /// Interpreter::kDefaultMaxStepsPerBlock. Negative = unlimited. A trip
  /// raises WatchdogError (unsanitized) or a kWatchdogTrip hazard
  /// (sanitized) carrying the tripping source location and per-loop
  /// back-edge counts, and cooperatively cancels the rest of the launch;
  /// results stay bit-identical at every job count. See
  /// docs/robustness.md.
  std::int64_t max_steps_per_block = 0;
  /// Deadline clamp: when positive, the resolved watchdog budget is
  /// additionally capped at this many steps. This is how the serve layer
  /// maps a job's remaining wall-clock deadline onto the per-block
  /// watchdog (deadline_ms * steps_per_ms -> steps): a hanging kernel
  /// trips at its deadline instead of consuming the full default budget.
  std::int64_t deadline_steps = 0;

  /// The resolved per-block step budget: max_steps_per_block semantics
  /// above, then clamped to deadline_steps when that is positive.
  [[nodiscard]] std::int64_t resolve() const;
};

class Interpreter {
 public:
  struct Options {
    /// Cost-model weights and warp MLP (observational only).
    TimingOptions timing;
    /// Watchdog / loop / deadline bounds.
    ExecutionLimits limits;
    /// Test-facing: run blocks on the AST walker, the reference the VM is
    /// checked against (tests/engine_equivalence_test.cpp,
    /// bench/perf_harness). Production runs leave this false.
    bool ast_reference = false;
    /// When non-null, chaos-testing hooks fire during interpretation:
    /// injected SimErrors at the Nth statement and block stalls that the
    /// watchdog must catch. Production runs leave this null.
    const FaultInjector* fault = nullptr;
    /// When non-null, execution is instrumented for shared-memory races,
    /// barrier divergence, uninitialized reads and shfl hazards, and a
    /// SimError inside one block is downgraded to a kSimFault report so
    /// the rest of the grid still runs. See sim/sanitizer.hpp.
    SanitizerEngine* sanitizer = nullptr;
    /// Host threads simulating blocks concurrently. 0 = auto: the
    /// CUDANP_JOBS environment variable if set, else hardware
    /// concurrency. Results are bit-identical at every job count: blocks
    /// are independent and per-block stats / hazard reports are merged
    /// in block-index order (see docs/performance.md).
    int jobs = 0;
  };

  Interpreter(const DeviceSpec& spec, DeviceMemory& mem, Options opt)
      : spec_(spec), mem_(mem), opt_(opt) {}
  Interpreter(const DeviceSpec& spec, DeviceMemory& mem)
      : Interpreter(spec, mem, Options()) {}

  /// Executes `kernel` over the whole grid and returns aggregate stats.
  /// `resident_blocks_per_smx` (from the occupancy calculator) sizes the
  /// per-block L1 slice; pass 1 if unknown.
  [[nodiscard]] KernelStats run(const ir::Kernel& kernel,
                                const LaunchConfig& cfg,
                                int resident_blocks_per_smx = 1);

  [[nodiscard]] const DeviceSpec& spec() const { return spec_; }

  /// Default watchdog budget when neither ExecutionLimits nor
  /// CUDANP_MAX_STEPS chooses one: generous (matches the per-loop
  /// iteration valve) but finite.
  static constexpr std::int64_t kDefaultMaxStepsPerBlock = 1 << 26;

  /// Resolves a step-budget request: explicit > 0 wins, else the
  /// CUDANP_MAX_STEPS environment variable, else the default; negative
  /// disables the watchdog (returns INT64_MAX).
  [[nodiscard]] static std::int64_t resolve_max_steps(std::int64_t requested);

  /// Deadline-aware resolution: like resolve_max_steps(requested), then
  /// clamped to `deadline_budget` steps when that is positive.
  /// ExecutionLimits::resolve() packages the same semantics as a value
  /// object; prefer it in new code.
  [[nodiscard]] static std::int64_t resolve_max_steps(
      std::int64_t requested, std::int64_t deadline_budget);

 private:
  const DeviceSpec& spec_;
  DeviceMemory& mem_;
  Options opt_;
};

/// Structured launch validation, run before any interpretation: rejects
/// zero/negative grid or block dimensions, block sizes over the device
/// limit, and shared-memory requests over the per-SMX capacity with a
/// SimError whose message starts with "invalid launch:". Called by
/// Interpreter::run and run_and_time; np::Runner's sanitized paths
/// surface the failure as a kSimFault report via record_launch_fault.
/// `shared_mem_per_block` may be 0 when resources are unknown.
void validate_launch(const DeviceSpec& spec, const LaunchConfig& cfg,
                     std::int64_t shared_mem_per_block = 0);

/// Convenience wrapper: occupancy + interpretation + timing in one call.
struct RunResult {
  KernelStats stats;
  Occupancy occupancy;
  TimingBreakdown timing;
};

[[nodiscard]] RunResult run_and_time(const DeviceSpec& spec,
                                     DeviceMemory& mem,
                                     const ir::Kernel& kernel,
                                     const LaunchConfig& cfg,
                                     const ResourceUsage& resources,
                                     Interpreter::Options opt = {});

}  // namespace cudanp::sim
