#include "np/compiler.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <iomanip>
#include <sstream>
#include <utility>

#include "frontend/parser.hpp"
#include "np/heuristic.hpp"
#include "np/runner.hpp"
#include "support/hash.hpp"

namespace cudanp::np {

using transform::NpConfig;

std::unique_ptr<ir::Program> NpCompiler::parse(const std::string& source) {
  return frontend::parse_program_or_throw(source);
}

const ir::Kernel* NpCompiler::pick_kernel(const ir::Program& program,
                                          const std::string& name) {
  if (!name.empty()) return program.find_kernel(name);
  for (const auto& k : program.kernels)
    if (k->parallel_loop_count() > 0) return k.get();
  return program.kernels.empty() ? nullptr : program.kernels.front().get();
}

namespace {

/// Reads tuning hints from the kernel's first annotated loop.
struct PragmaHints {
  int num_threads = 0;
  ir::NpType np_type = ir::NpType::kAuto;
  int sm_version = 30;
};

PragmaHints collect_hints(const ir::Kernel& k) {
  PragmaHints h;
  bool first = true;
  ir::for_each_stmt(*k.body, [&](const ir::Stmt& s) {
    if (s.kind() != ir::StmtKind::kFor) return;
    const auto& f = static_cast<const ir::ForStmt&>(s);
    if (!f.pragma || !first) return;
    first = false;
    h.num_threads = f.pragma->num_threads;
    h.np_type = f.pragma->np_type;
    h.sm_version = f.pragma->sm_version;
  });
  return h;
}

}  // namespace

std::vector<NpConfig> NpCompiler::enumerate_configs(
    const ir::Kernel& kernel, int master_count, const sim::DeviceSpec& spec) {
  std::vector<NpConfig> out = config_space(kernel, master_count, spec);
  if (transform::first_shfl_call(kernel))
    std::erase_if(out, [](const NpConfig& c) { return c.intra_warp(); });
  return out;
}

std::vector<NpConfig> NpCompiler::config_space(const ir::Kernel& kernel,
                                               int master_count,
                                               const sim::DeviceSpec& spec) {
  PragmaHints hints = collect_hints(kernel);
  std::vector<NpConfig> out;
  const int sm = std::min(hints.sm_version, spec.sm_version);
  for (ir::NpType type : {ir::NpType::kInterWarp, ir::NpType::kIntraWarp}) {
    if (hints.np_type != ir::NpType::kAuto && hints.np_type != type) continue;
    for (int s : {2, 4, 8, 16, 32}) {
      if (hints.num_threads > 0 && s != hints.num_threads) continue;
      if (master_count * s > spec.max_threads_per_block) continue;
      if (type == ir::NpType::kIntraWarp && 32 % s != 0) continue;
      NpConfig cfg;
      cfg.np_type = type;
      cfg.slave_size = s;
      cfg.master_count = master_count;
      cfg.sm_version = sm;
      cfg.use_shfl = sm >= 30;
      out.push_back(cfg);
    }
  }
  return out;
}

transform::TransformResult NpCompiler::transform(
    const ir::Kernel& kernel, const transform::NpConfig& config) {
  cudanp::DiagnosticEngine diags;
  return transform::apply_np_transform(kernel, config, diags);
}

bool floats_close(float ref, float got, double abs_tol, double rel_tol) {
  if (std::isnan(ref) && std::isnan(got)) return true;
  double scale = std::max(std::fabs(static_cast<double>(ref)),
                          std::fabs(static_cast<double>(got)));
  return std::fabs(static_cast<double>(ref) - static_cast<double>(got)) <=
         abs_tol + rel_tol * scale;
}

bool buffers_match(const sim::DeviceMemory& ref, const sim::DeviceMemory& got,
                   const std::vector<sim::KernelArg>& args, double abs_tol,
                   double rel_tol, std::string* msg) {
  for (const auto& arg : args) {
    const auto* id = std::get_if<sim::BufferId>(&arg);
    if (!id) continue;
    const sim::DeviceBuffer& rb = ref.buffer(*id);
    const sim::DeviceBuffer& gb = got.buffer(*id);
    if (rb.size() != gb.size() || rb.type() != gb.type()) {
      if (msg) {
        std::ostringstream os;
        os << "buffer " << *id << " shape differs (ref " << rb.size()
           << " elems, variant " << gb.size() << ")";
        *msg = os.str();
      }
      return false;
    }
    if (rb.type() == ir::ScalarType::kFloat) {
      auto r = rb.f32();
      auto g = gb.f32();
      for (std::size_t i = 0; i < r.size(); ++i) {
        if (floats_close(r[i], g[i], abs_tol, rel_tol)) continue;
        if (msg) {
          std::ostringstream os;
          os << "buffer " << *id << " element " << i << ": baseline " << r[i]
             << ", variant " << g[i];
          *msg = os.str();
        }
        return false;
      }
    } else {
      auto r = rb.i32();
      auto g = gb.i32();
      for (std::size_t i = 0; i < r.size(); ++i) {
        if (r[i] == g[i]) continue;
        if (msg) {
          std::ostringstream os;
          os << "buffer " << *id << " element " << i << ": baseline " << r[i]
             << ", variant " << g[i];
          *msg = os.str();
        }
        return false;
      }
    }
  }
  return true;
}

CertifyOptions ValidationOptions::certifier_options() const {
  CertifyOptions copt = certify_opts;
  copt.f32_rel_tol = f32_rel_tol;
  copt.f32_abs_tol = f32_abs_tol;
  copt.interp.jobs = 1;
  return copt;
}

bool ValidationReport::all_clean() const {
  if (!baseline_ran || !baseline_hazards.empty()) return false;
  for (const auto& e : entries)
    if (!e.clean()) return false;
  return true;
}

std::size_t ValidationReport::hazard_count() const {
  std::size_t n = baseline_hazards.size();
  for (const auto& e : entries) n += e.hazards.size();
  return n;
}

std::string ValidationReport::summary() const {
  std::ostringstream os;
  os << std::fixed << std::setprecision(1);
  os << "baseline: ";
  if (!baseline_ran)
    os << "FAILED to run\n";
  else if (!baseline_hazards.empty())
    os << baseline_hazards.size() << " hazard(s)\n";
  else
    os << "clean [" << baseline_wall_ms << " ms]\n";
  for (const auto& r : baseline_hazards) os << "  " << r.str() << "\n";
  // validate checks no variant against a baseline that did not run clean.
  const bool reference = baseline_ran && baseline_hazards.empty();
  std::size_t checked = 0;
  for (const auto& e : entries) {
    os << e.config << ": ";
    if (!e.transform_ok) {
      os << "not applicable (" << e.transform_error << ")\n";
      continue;
    }
    ++checked;
    if (!e.ran)
      os << "FAILED to run";
    else if (!e.hazards.empty())
      os << e.hazards.size() << " hazard(s)";
    else if (!reference)
      os << e.mismatch;
    else if (!e.outputs_match)
      os << "OUTPUT MISMATCH: " << e.mismatch;
    else
      os << "clean, outputs match [" << e.wall_ms << " ms]";
    if (!e.verdict.empty()) {
      os << " | certified: " << e.verdict;
      if (!e.verdict_detail.empty()) os << " (" << e.verdict_detail << ")";
    }
    os << "\n";
    for (const auto& r : e.hazards) os << "  " << r.str() << "\n";
    if (reference && e.ran && e.hazards.empty() && !e.outputs_match &&
        !e.mismatch.empty())
      os << "  " << e.mismatch << "\n";
  }
  os << "validated " << checked << " of " << entries.size()
     << " configuration(s): " << (all_clean() ? "PASS" : "FAIL");
  return os.str();
}

bool transient(FailureCause c) {
  // A worker crash is transient like a run error: the crash may be
  // load- or timing-dependent, so the retry loop gets a chance before
  // the job degrades. A resource-limit kill is deterministic for a
  // given cap and never retried (but still feeds the breaker). A
  // proven-wrong variant carries a replayable counterexample — the most
  // permanent quarantine of all.
  return c == FailureCause::kWatchdogTrip || c == FailureCause::kRunError ||
         c == FailureCause::kCrash;
}

std::string VariantFailure::str() const {
  std::ostringstream os;
  os << "quarantined '" << config << "' of kernel '" << kernel
     << "': " << to_string(cause);
  if (hazard_count > 0) os << " (" << hazard_count << " hazard(s))";
  if (!detail.empty()) os << " — " << detail;
  return os.str();
}

std::string FallbackDecision::summary() const {
  std::ostringstream os;
  for (const auto& q : quarantined) os << q.str() << "\n";
  if (used_baseline)
    os << "kernel '" << kernel << "': all " << quarantined.size()
       << " candidate(s) quarantined, falling back to the baseline kernel";
  else
    os << "kernel '" << kernel << "': chose '" << chosen_config << "' ("
       << quarantined.size() << " candidate(s) quarantined on the way)";
  return os.str();
}

ConfigEvaluation evaluate_config(const Runner& runner,
                                 const ir::Kernel& kernel,
                                 const transform::NpConfig* config,
                                 const WorkloadFactory& make_workload,
                                 const OutputCheck& check,
                                 const sim::SanitizerEngine::Options* sanitizer,
                                 const CertificationStep* certify) {
  ConfigEvaluation out;
  out.config = config ? config->describe() : "baseline";
  auto fail = [&](FailureCause cause, std::string detail,
                  std::size_t hazard_count = 0) {
    if (!out.failure)
      out.failure = VariantFailure{
          {}, kernel.name, out.config, cause, std::move(detail), hazard_count};
  };

  if (config) {
    try {
      out.variant = NpCompiler::transform(kernel, *config);
    } catch (const CompileError& e) {
      out.transform_error = e.what();
      fail(FailureCause::kTransformError, e.what());
      return out;
    }
  }
  out.transform_ok = true;

  // A refuted variant is proven wrong by a replayable counterexample; a
  // proven one may skip the sanitizer and the output check.
  bool trusted = false;
  if (config && certify) {
    if (certify->cache.load) out.certificate = certify->cache.load(out.config);
    if (!out.certificate) {
      out.certificate = certify->job.certify(out.variant);
      if (certify->cache.save) certify->cache.save(*out.certificate);
    }
    const Certificate& cert = *out.certificate;
    out.verdict = to_string(cert.verdict);
    out.verdict_detail = cert.detail;
    if (cert.verdict == Verdict::kRefuted) {
      fail(FailureCause::kProvenWrong,
           cert.detail + " (counterexample seed " +
               std::to_string(cert.counterexample_seed) + ")");
      if (certify->gate) return out;
    }
    trusted = certify->fast_path && cert.proven();
  }

  out.workload = make_workload();
  ExecutionRequest req =
      config ? ExecutionRequest::transformed(out.variant, out.workload)
             : ExecutionRequest::baseline(kernel, out.workload);
  if (sanitizer && !trusted) req.sanitized(*sanitizer);
  const auto t0 = std::chrono::steady_clock::now();
  try {
    ExecutionResult run = runner.execute(req);
    out.ran = run.ran;
    out.run = run.run;
    out.hazards = run.engine.reports();
  } catch (const SimError& e) {  // unguarded runs only
    if (!config) throw;
    fail(dynamic_cast<const sim::WatchdogError*>(&e)
             ? FailureCause::kWatchdogTrip
             : FailureCause::kRunError,
         e.what());
  }
  out.wall_ms = std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - t0)
                    .count();
  if (out.ran && check && !trusted)
    out.outputs_match = check(*out.workload.mem, &out.mismatch);

  if (out.failure) return out;
  const auto& hazards = out.hazards;
  if (!out.ran) {
    // A launch-scoped fault: the grid never started.
    fail(FailureCause::kLaunchError,
         hazards.empty() ? "" : hazards.back().message);
  } else if (!hazards.empty()) {
    using sim::HazardKind;
    auto trip = std::ranges::find(hazards, HazardKind::kWatchdogTrip,
                                  &sim::HazardReport::kind);
    // Contained SimErrors alone (injected faults, OOB aborts) are a run
    // error, which retry policies treat as possibly transient; races and
    // uninitialized reads are properties of the variant.
    const bool faults_only = std::ranges::count(hazards, HazardKind::kSimFault,
                                                &sim::HazardReport::kind) ==
                             std::ssize(hazards);
    if (trip != hazards.end())
      fail(FailureCause::kWatchdogTrip, trip->message, hazards.size());
    else
      fail(faults_only ? FailureCause::kRunError : FailureCause::kHazards,
           hazards.front().str(), hazards.size());
  } else if (check && !trusted && !out.outputs_match) {
    fail(FailureCause::kOutputMismatch, out.mismatch);
  }
  return out;
}

namespace {

/// The baseline's launch-argument buffers as the reference for variants.
OutputCheck baseline_buffers(const Workload& base,
                             const ValidationOptions& opt) {
  return [&base, &opt](const sim::DeviceMemory& got, std::string* msg) {
    return buffers_match(*base.mem, got, base.launch.args, opt.f32_abs_tol,
                         opt.f32_rel_tol, msg);
  };
}

}  // namespace

FallbackResult NpCompiler::compile_with_fallback(
    const ir::Kernel& kernel, const std::vector<transform::NpConfig>& configs,
    const WorkloadFactory& make_workload, const sim::DeviceSpec& spec,
    const ValidationOptions& opt) {
  FallbackResult out;
  out.decision.kernel = kernel.name;
  const Runner runner(spec, opt.interp);

  // The baseline is the reference for output cross-checks and the final
  // fallback. If it misbehaves itself there is nothing better to offer,
  // so that failure is recorded and the baseline still returned.
  const ConfigEvaluation base = evaluate_config(
      runner, kernel, nullptr, make_workload, {}, &opt.sanitizer, nullptr);
  if (base.failure) {
    out.decision.quarantined.push_back(*base.failure);
    return out;
  }

  // Candidate order: the heuristic's static pick first (next-best choices
  // follow in enumeration order). Duplicates of the heuristic pick are
  // dropped rather than tried twice.
  const int tb = static_cast<int>(base.workload.launch.block.count());
  std::vector<transform::NpConfig> candidates = configs;
  if (candidates.empty()) candidates = enumerate_configs(kernel, tb, spec);
  if (!candidates.empty()) {
    auto it = std::ranges::find(
        candidates, suggest_config(kernel, tb, spec).config.describe(),
        &transform::NpConfig::describe);
    if (it != candidates.end() && it != candidates.begin())
      std::rotate(candidates.begin(), it, it + 1);
    out.decision.first_choice = candidates.front().describe();
  }

  const Certifier certifier(spec, opt.certifier_options());
  JobCertifier job(certifier, kernel, make_workload);
  const CertificationStep certify{job, opt.certificates, true,
                                  opt.certified_fast_path};
  const OutputCheck check = baseline_buffers(base.workload, opt);
  for (const auto& cfg : candidates) {
    ConfigEvaluation e =
        evaluate_config(runner, kernel, &cfg, make_workload, check,
                        &opt.sanitizer, opt.certify ? &certify : nullptr);
    if (e.failure) {
      out.decision.quarantined.push_back(std::move(*e.failure));
      continue;
    }
    out.decision.used_baseline = false;
    out.decision.chosen_config = e.config;
    out.variant = std::move(e.variant);
    break;
  }
  return out;
}

ValidationReport NpCompiler::validate(
    const ir::Kernel& kernel, const std::vector<transform::NpConfig>& configs,
    const WorkloadFactory& make_workload, const sim::DeviceSpec& spec,
    const ValidationOptions& opt) {
  ValidationReport report;
  const Runner runner(spec, opt.interp);
  const ConfigEvaluation base = evaluate_config(
      runner, kernel, nullptr, make_workload, {}, &opt.sanitizer, nullptr);
  report.baseline_ran = base.ran;
  report.baseline_hazards = base.hazards;
  report.baseline_wall_ms = base.wall_ms;

  const Certifier certifier(spec, opt.certifier_options());
  JobCertifier job(certifier, kernel, make_workload);
  const CertificationStep certify{job, opt.certificates};
  // A baseline that failed (tripped, faulted, raced or never launched)
  // is no reference: its partial outputs would blame the variants.
  const OutputCheck check =
      base.failure ? OutputCheck{} : baseline_buffers(base.workload, opt);
  for (const auto& cfg : configs) {  // each evaluation sliced to its entry
    ValidationEntry e =
        evaluate_config(runner, kernel, &cfg, make_workload, check,
                        &opt.sanitizer, opt.certify ? &certify : nullptr);
    if (base.failure && e.ran)
      e.mismatch = std::string("no reference: the baseline failed (") +
                   to_string(base.failure->cause) + ")";
    report.entries.push_back(std::move(e));
  }
  return report;
}

std::string NpCompiler::artifact_key(std::string_view source,
                                     std::string_view options_fingerprint) {
  return Fnv1a().field(source).field(options_fingerprint).hex();
}

}  // namespace cudanp::np
