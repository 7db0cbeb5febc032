// Public facade of the CUDA-NP source-to-source compiler.
//
// Typical use (see examples/quickstart.cpp):
//
//   auto program = np::NpCompiler::parse(kernel_source);
//   const ir::Kernel* k = program->find_kernel("tmv");
//   auto configs = np::NpCompiler::enumerate_configs(*k, /*tb=*/32, spec);
//   auto variant = np::NpCompiler::transform(*k, configs[0]);
//   std::string cuda_text = ir::print_kernel(*variant.kernel);
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "ir/kernel.hpp"
#include "np/certifier.hpp"
#include "np/runner.hpp"
#include "np/workload.hpp"
#include "sim/device.hpp"
#include "sim/interpreter.hpp"
#include "sim/sanitizer.hpp"
#include "transform/np_config.hpp"
#include "transform/transformer.hpp"

namespace cudanp::np {

/// Outcome of validating one transformed variant (NpCompiler::validate).
struct ValidationEntry {
  std::string config;
  /// False when the configuration is legitimately inapplicable to the
  /// kernel (the transform threw CompileError); such entries are recorded
  /// but never fail validation.
  bool transform_ok = false;
  std::string transform_error;
  bool ran = false;
  /// False also when no output check was made.
  bool outputs_match = false;
  /// The first output difference; "no reference: ..." when the baseline
  /// failed, so the variant was not checked.
  std::string mismatch;
  std::vector<sim::HazardReport> hazards;
  /// Host wall-clock of this variant's simulation (transform excluded);
  /// 0 when the transform was inapplicable.
  double wall_ms = 0.0;
  /// Certification verdict slug when ValidationOptions::certify is set
  /// (empty otherwise); see np::Verdict.
  std::string verdict;
  std::string verdict_detail;

  [[nodiscard]] bool clean() const {
    return !transform_ok || (ran && hazards.empty() && outputs_match &&
                             verdict != to_string(Verdict::kRefuted));
  }
};

struct ValidationReport {
  bool baseline_ran = false;
  std::vector<sim::HazardReport> baseline_hazards;
  /// Host wall-clock of the baseline's sanitized simulation.
  double baseline_wall_ms = 0.0;
  std::vector<ValidationEntry> entries;

  [[nodiscard]] bool all_clean() const;
  [[nodiscard]] std::size_t hazard_count() const;
  [[nodiscard]] std::string summary() const;
};

struct ValidationOptions {
  sim::SanitizerEngine::Options sanitizer;
  /// Interpreter knobs for every validation run — most usefully `jobs`,
  /// which simulates thread blocks on a host thread pool (results are
  /// bit-identical at any job count; see docs/performance.md), and
  /// `max_steps_per_block`, the watchdog budget a runaway variant trips.
  sim::Interpreter::Options interp;
  /// Mixed tolerance for float buffer cross-checks (NP reductions
  /// reassociate, so bit-exact equality is too strict):
  /// |ref-got| <= f32_abs_tol + f32_rel_tol * max(|ref|, |got|). The
  /// relative term covers large-magnitude outputs, the absolute term
  /// tiny ones where relative error is meaningless.
  double f32_rel_tol = 1e-3;
  double f32_abs_tol = 1e-4;
  /// Third validation leg: symbolically certify every variant (see
  /// np/certifier.hpp). A kRefuted verdict fails the entry / quarantines
  /// the candidate as FailureCause::kProvenWrong before it ever runs.
  bool certify = false;
  /// Knobs for the certifier (f32 tolerances are inherited from this
  /// struct by certifier_options() and need not be set here).
  CertifyOptions certify_opts;
  /// With certify: variants holding a kProven/kProvenModuloReassoc
  /// certificate skip the per-run sanitize + output cross-check in
  /// compile_with_fallback and run unguarded for raw speed (the
  /// watchdog still applies).
  bool certified_fast_path = false;
  /// Optional certificate cache hooks (the serve layer ships stored
  /// certificates in and collects the ones derived here).
  CertificateProvider certificates;

  /// certify_opts with this struct's tolerances, replayed serially. The
  /// run knobs in `interp` (watchdog, fault hooks) are not inherited: a
  /// certificate depends only on what CertifyOptions::fingerprint() hashes.
  [[nodiscard]] CertifyOptions certifier_options() const;
};

/// Mixed absolute/relative float comparison used by every output
/// cross-check: |ref-got| <= abs_tol + rel_tol * max(|ref|, |got|).
/// NaN matches NaN (both sides diverging identically is agreement).
[[nodiscard]] bool floats_close(float ref, float got, double abs_tol,
                                double rel_tol);

/// Compares every buffer argument of a baseline launch against the same
/// buffer in the variant's memory (floats with floats_close, ints
/// exactly); fills `msg`, when given, with the first mismatch. Both
/// workloads come from the same factory, so equal allocation order yields
/// equal BufferIds; a variant's extra scratch buffers are appended
/// afterwards and never compared.
[[nodiscard]] bool buffers_match(const sim::DeviceMemory& ref,
                                 const sim::DeviceMemory& got,
                                 const std::vector<sim::KernelArg>& args,
                                 double abs_tol, double rel_tol,
                                 std::string* msg);

/// Why a variant was quarantined (see VariantFailure / docs/robustness.md).
enum class FailureCause : std::uint8_t {
  /// The NP transform itself threw CompileError.
  kTransformError,
  /// The launch aborted before any block ran (invalid geometry, zero
  /// occupancy, bad arguments).
  kLaunchError,
  /// The variant exceeded the per-block interpreted-statement budget.
  kWatchdogTrip,
  /// The sanitizer reported hazards (races, barrier divergence, uninit
  /// reads, shfl hazards, contained sim faults).
  kHazards,
  /// The variant ran clean but its output buffers diverged from the
  /// baseline's beyond tolerance.
  kOutputMismatch,
  /// Any other SimError raised while running (autotuner paths).
  kRunError,
  /// The execution worker process died (nonzero exit, signal, wedged
  /// pipe) while running the attempt — only produced by the serve
  /// layer's process-isolation mode (serve/supervisor.*).
  kCrash,
  /// The attempt exceeded a resource cap (allocation failure under the
  /// worker's RLIMIT_AS budget). Deterministic for a given cap, so it is
  /// never retried, but it is breaker-eligible like any other failure.
  kResourceLimit,
  /// The certifier refuted the variant: a concrete counterexample
  /// reproduces a baseline/variant divergence through the interpreter.
  /// Non-transient and permanent — stronger than kOutputMismatch
  /// ("failed here") because it is backed by a replayable proof.
  kProvenWrong,
};

inline constexpr record::Slug<FailureCause> kFailureCauseSlugs[] = {
    {FailureCause::kTransformError, "transform-error"},
    {FailureCause::kLaunchError, "launch-error"},
    {FailureCause::kWatchdogTrip, "watchdog-trip"},
    {FailureCause::kHazards, "hazards"},
    {FailureCause::kOutputMismatch, "output-mismatch"},
    {FailureCause::kRunError, "run-error"},
    {FailureCause::kCrash, "crash"},
    {FailureCause::kResourceLimit, "resource-limit"},
    {FailureCause::kProvenWrong, "proven-wrong"},
};

[[nodiscard]] inline const char* to_string(FailureCause c) {
  return record::slug(kFailureCauseSlugs, c);
}

/// True when a failure of this cause is plausibly transient — worth a
/// retry with backoff rather than permanent quarantine. Watchdog trips
/// (the budget may have been deadline-tightened) and contained run
/// errors (injected faults, flaky inputs) qualify; transform errors,
/// hazards, launch errors and output mismatches are deterministic
/// properties of the (kernel, config) pair and will not improve. The
/// serve layer's retry policy is built on this split.
[[nodiscard]] bool transient(FailureCause c);

/// One quarantined variant: the structured record graceful degradation is
/// built on. Serializable both human-readable (str) and machine-readable
/// (json, one object per line in cudanp-cc's fallback report).
struct VariantFailure : record::Codec<VariantFailure> {
  std::string kernel;
  std::string config;  // NpConfig::describe(), or "baseline"
  FailureCause cause = FailureCause::kRunError;
  /// Error text, first hazard, or mismatch description.
  std::string detail;
  std::size_t hazard_count = 0;

  [[nodiscard]] std::string str() const;

  static constexpr auto fields() {
    using R = VariantFailure;
    using record::field;
    return std::tuple{field("kernel", &R::kernel),
                      field("config", &R::config),
                      field("cause", &R::cause, kFailureCauseSlugs),
                      field("hazards", &R::hazard_count),
                      field("detail", &R::detail)};
  }
};

/// Outcome of compile_with_fallback: which candidate was chosen and every
/// quarantined variant that was skipped on the way there. Its json()
/// is how decisions cross the worker-process boundary in the serve
/// layer's --isolate=process mode.
struct FallbackDecision : record::Codec<FallbackDecision> {
  std::string kernel;
  /// True when every candidate was quarantined and the baseline kernel is
  /// the answer (the baseline is always runnable by definition of the
  /// policy — its own failures are recorded too, but it is still
  /// returned).
  bool used_baseline = true;
  /// describe() of the chosen configuration; empty when used_baseline.
  std::string chosen_config;
  /// describe() of the first candidate tried (the heuristic's pick) —
  /// the configuration whose health per-(kernel, variant) circuit
  /// breakers track. Empty when there were no candidates at all.
  std::string first_choice;
  std::vector<VariantFailure> quarantined;

  /// True when the first-choice candidate was chosen with nothing
  /// quarantined — i.e. no degradation happened.
  [[nodiscard]] bool pristine() const {
    return !used_baseline && quarantined.empty();
  }
  [[nodiscard]] std::string summary() const;

  static constexpr auto fields() {
    using R = FallbackDecision;
    using record::field;
    return std::tuple{field("kernel", &R::kernel),
                      field("used_baseline", &R::used_baseline),
                      field("chosen_config", &R::chosen_config),
                      field("first_choice", &R::first_choice),
                      field("quarantined", &R::quarantined)};
  }
};

struct FallbackResult {
  FallbackDecision decision;
  /// Valid only when !decision.used_baseline.
  transform::TransformResult variant;
};

/// Certification of a variant before it runs (evaluate_config).
struct CertificationStep {
  JobCertifier& job;
  /// Consulted before `job`, and given every certificate `job` derives.
  const CertificateProvider& cache;
  /// A refuted variant is quarantined without running; otherwise it runs
  /// and its verdict is only recorded.
  bool gate = false;
  /// A proven variant runs unguarded and unchecked (the certified fast
  /// path; the watchdog still applies).
  bool fast_path = false;
};

/// One configuration, or the baseline, tried and judged: the entry
/// validate reports, and what the other policies read besides.
struct ConfigEvaluation : ValidationEntry {
  transform::TransformResult variant;
  std::optional<Certificate> certificate;
  /// The workload the run executed on, outputs included.
  Workload workload;
  sim::RunResult run;
  /// Set when the configuration is unfit, with the first cause found:
  /// transform error, refutation, a thrown run error or watchdog trip,
  /// launch error, hazards, output mismatch.
  std::optional<VariantFailure> failure;
};

/// The step Autotuner::tune, compile_with_fallback and validate share:
/// transforms `config` (null: the baseline kernel), certifies it when
/// `certify` is given, runs it on a workload from `make_workload` (called
/// once, and only when the configuration runs) under the sanitizer when
/// `sanitizer` is given, checks its outputs with `check` when given, and
/// classifies the outcome. A variant's misbehaviour never throws; an
/// unguarded baseline run's SimError propagates.
[[nodiscard]] ConfigEvaluation evaluate_config(
    const Runner& runner, const ir::Kernel& kernel,
    const transform::NpConfig* config, const WorkloadFactory& make_workload,
    const OutputCheck& check, const sim::SanitizerEngine::Options* sanitizer,
    const CertificationStep* certify);

class NpCompiler {
 public:
  /// Parses kernel source (throws CompileError with diagnostics on error).
  [[nodiscard]] static std::unique_ptr<ir::Program> parse(
      const std::string& source);

  /// The kernel a request means: the one named `name`, else the first
  /// with #pragma np loops, else the first kernel (null when none).
  [[nodiscard]] static const ir::Kernel* pick_kernel(
      const ir::Program& program, const std::string& name);

  /// Enumerates the candidate configurations the auto-tuner will try for
  /// `kernel` with baseline block size `master_count`: config_space
  /// without the configurations the kernel rules out (intra-warp, when it
  /// calls __shfl itself: transform::first_shfl_call).
  [[nodiscard]] static std::vector<transform::NpConfig> enumerate_configs(
      const ir::Kernel& kernel, int master_count,
      const sim::DeviceSpec& spec);

  /// Every configuration the pragma hints allow (num_threads, np_type,
  /// sm_version — paper Sec. 3.6):
  ///   inter-warp: slave_size in {2,4,8,16,32} with tb <= 1024
  ///   intra-warp: slave_size in {2,4,8,16,32} (power of two)
  /// A validation report covers these, so it can say why a configuration
  /// enumerate_configs leaves out does not apply.
  [[nodiscard]] static std::vector<transform::NpConfig> config_space(
      const ir::Kernel& kernel, int master_count,
      const sim::DeviceSpec& spec);

  /// Applies the NP transformation for one configuration.
  [[nodiscard]] static transform::TransformResult transform(
      const ir::Kernel& kernel, const transform::NpConfig& config);

  /// Validation mode: runs the baseline kernel and every configuration's
  /// transformed variant under the sanitizer on fresh workloads from
  /// `make_workload`, then cross-checks each variant's launch-argument
  /// buffers against the baseline's (int exact, float to f32_rel_tol).
  /// With `certify` each variant is also certified first; a refuted one
  /// still runs, and its verdict fails its entry. Every configuration is
  /// reported. This is the correctness oracle transform PRs are gated on.
  [[nodiscard]] static ValidationReport validate(
      const ir::Kernel& kernel,
      const std::vector<transform::NpConfig>& configs,
      const WorkloadFactory& make_workload, const sim::DeviceSpec& spec,
      const ValidationOptions& opt = {});

  /// Graceful degradation: walks the candidate configurations best-first
  /// (the heuristic's pick, then the remaining enumeration order) and
  /// returns the first variant that transforms, runs hazard-free under
  /// the sanitizer + watchdog, and matches the baseline's outputs. With
  /// `certify` a refuted candidate is quarantined before it runs, and
  /// with `certified_fast_path` a proven one runs unguarded under the
  /// watchdog alone, its outputs unchecked. Every rejected candidate is
  /// quarantined with a structured VariantFailure; when all candidates
  /// fail, the baseline kernel is the answer
  /// (decision.used_baseline). Never throws on variant misbehaviour —
  /// this is the always-produce-a-runnable-answer mode behind
  /// `cudanp-cc --fallback=baseline`. Pass an empty `configs` to let the
  /// compiler enumerate candidates itself.
  [[nodiscard]] static FallbackResult compile_with_fallback(
      const ir::Kernel& kernel,
      const std::vector<transform::NpConfig>& configs,
      const WorkloadFactory& make_workload, const sim::DeviceSpec& spec,
      const ValidationOptions& opt = {});

  /// Content-addressed artifact identity: a 16-hex-digit FNV-1a hash of
  /// the kernel source plus a caller-built fingerprint of every option
  /// that can change the compile-and-validate outcome. Two equal keys
  /// mean compile_with_fallback would produce the identical decision,
  /// which is the contract serve::ArtifactCache caches on.
  [[nodiscard]] static std::string artifact_key(
      std::string_view source, std::string_view options_fingerprint);
};

}  // namespace cudanp::np
