#include "np/certifier.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <utility>
#include <vector>

#include "np/compiler.hpp"
#include "np/runner.hpp"
#include "sim/symexec.hpp"

namespace cudanp::np {

std::string Certificate::str() const {
  std::ostringstream os;
  os << "certificate '" << config << "' of kernel '" << kernel
     << "': " << to_string(verdict);
  if (verdict == Verdict::kRefuted)
    os << " (counterexample seed " << counterexample_seed << ")";
  if (!detail.empty()) os << " — " << detail;
  return os.str();
}

std::string CertifyOptions::fingerprint() const {
  // Full double precision: tolerances that differ past the 6th digit
  // must not share a certificate cache key. The seed count and the
  // (always on) replay check are constants; they stay in the string so
  // stored certificates keep their keys.
  std::ostringstream os;
  os.precision(17);
  os << "steps=" << max_steps << " gather=" << max_gather_cells
     << " nodes=" << max_nodes << " attempts=" << kCounterexampleAttempts
     << " replay=1 rel=" << f32_rel_tol << " abs=" << f32_abs_tol;
  return os.str();
}

void seed_certify_floats(Workload& w, std::uint64_t seed) {
  for (std::size_t i = 0; i < w.launch.args.size(); ++i) {
    auto pi = static_cast<int>(i);
    if (const auto* id = std::get_if<sim::BufferId>(&w.launch.args[i])) {
      sim::DeviceBuffer& buf = w.mem->buffer(*id);
      if (buf.type() != ir::ScalarType::kFloat) continue;
      auto f = buf.f32();
      for (std::size_t e = 0; e < f.size(); ++e)
        f[e] = sim::sym_float_input(seed, pi, static_cast<std::int64_t>(e));
    } else if (const auto* v = std::get_if<sim::Value>(&w.launch.args[i])) {
      if (v->is_float())
        w.launch.args[i] = sim::LaunchConfig::scalar_float(
            static_cast<double>(sim::sym_float_input(seed, pi, -1)));
    }
  }
}

namespace {

/// One normalized-unequal output cell (candidate counterexample site).
struct DiffCell {
  int arg = 0;
  std::size_t idx = 0;
  std::uint32_t base_id = 0;
  std::uint32_t var_id = 0;
  bool is_float = false;
};

std::string cell_name(const ir::Kernel& k, const DiffCell& d) {
  std::ostringstream os;
  os << "'" << k.params[static_cast<std::size_t>(d.arg)].name << "["
     << d.idx << "]'";
  return os.str();
}

std::string normalization_budget(const CertifyOptions& opt) {
  return "normalization expression budget of " +
         std::to_string(opt.max_nodes) + " nodes exhausted";
}

sim::SymExecOptions sym_options(const CertifyOptions& opt) {
  sim::SymExecOptions sopt;
  sopt.max_steps = opt.max_steps;
  sopt.max_gather_cells = opt.max_gather_cells;
  sopt.max_nodes = opt.max_nodes;
  return sopt;
}

}  // namespace

Certificate Certifier::certify(const ir::Kernel& kernel,
                               const transform::NpConfig& config,
                               const WorkloadFactory& make_workload) const {
  return JobCertifier(*this, kernel, make_workload).certify(config);
}

Certificate JobCertifier::certify(const transform::NpConfig& config) {
  try {
    transform::TransformResult variant =
        NpCompiler::transform(kernel_, config);
    return certify(variant);
  } catch (const CompileError& e) {
    Certificate c;
    c.kernel = kernel_.name;
    c.config = config.describe();
    c.verdict = Verdict::kInconclusive;
    c.detail = std::string("transform error: ") + e.what();
    return c;
  }
}

JobCertifier::Baseline& JobCertifier::baseline() {
  if (baseline_) return *baseline_;
  // The probe workload fixes the proof environment's shape: launch
  // geometry, buffer sizes and all int data are taken concrete from it;
  // float buffers and float scalars are abstracted into symbolic leaves.
  const Workload probe = make_workload_();
  Baseline b;
  b.grid = probe.launch.grid;
  b.block = probe.launch.block;
  {
    std::ostringstream os;
    os << "grid " << b.grid.x << "x" << b.grid.y << "x" << b.grid.z
       << " block " << b.block.x << "x" << b.block.y << "x" << b.block.z;
    b.geometry = os.str();
  }
  for (std::size_t i = 0; i < probe.launch.args.size(); ++i) {
    sim::SymArg a;
    if (const auto* id = std::get_if<sim::BufferId>(&probe.launch.args[i])) {
      const sim::DeviceBuffer& buf = probe.mem->buffer(*id);
      a.type = buf.type();
      a.elems = static_cast<std::int64_t>(buf.size());
      if (buf.type() == ir::ScalarType::kFloat) {
        a.kind = sim::SymArg::Kind::kBufferSymbolic;
      } else {
        a.kind = sim::SymArg::Kind::kBufferConcrete;
        auto iv = buf.i32();
        a.ints.assign(iv.begin(), iv.end());
      }
    } else {
      const auto& v = std::get<sim::Value>(probe.launch.args[i]);
      if (v.is_float()) {
        a.kind = sim::SymArg::Kind::kScalarSymbolic;
        a.type = ir::ScalarType::kFloat;
      } else {
        a.kind = sim::SymArg::Kind::kScalarConcrete;
        a.type = ir::ScalarType::kInt;
        a.scalar = v;
      }
    }
    b.args.push_back(std::move(a));
  }
  const CertifyOptions& opt = certifier_.options();
  b.run = sim::sym_execute(certifier_.spec(), kernel_, b.grid, b.block,
                           b.args, b.arena, sym_options(opt));
  // Every variant runs in this arena and is rolled back to it.
  b.arena.mark();
  return baseline_.emplace(std::move(b));
}

Certificate JobCertifier::certify(const transform::TransformResult& variant) {
  const CertifyOptions& opt = certifier_.options();
  Certificate cert;
  cert.kernel = kernel_.name;
  cert.config = variant.config.describe();
  Baseline& bl = baseline();
  cert.geometry = bl.geometry;

  auto inconclusive = [&](std::string why) {
    cert.verdict = Verdict::kInconclusive;
    cert.detail = std::move(why);
    return cert;
  };

  // The concrete counterexample environment for `seed`; returns true —
  // and commits the refutation — only when the interpreter reproduces a
  // misbehaviour the baseline does not show.
  auto confirm_refute = [&](std::uint64_t seed, const std::string& sym_why) {
    Runner runner(certifier_.spec(), opt.interp);
    // Default (lockstep) sanitize: the simulator's lockstep model is the
    // repo's correctness contract, so a refutation must reproduce under
    // exactly the checks the empirical validation legs apply.
    Workload bw = make_workload_();
    seed_certify_floats(bw, seed);
    ExecutionResult br =
        runner.execute(ExecutionRequest::baseline(kernel_, bw).sanitized());
    if (!br.clean()) return false;  // can't pin the blame on the variant
    Workload vw = make_workload_();
    seed_certify_floats(vw, seed);
    ExecutionResult vr =
        runner.execute(ExecutionRequest::transformed(variant, vw).sanitized());
    std::string evidence;
    if (!vr.clean()) {
      evidence = vr.hazards().empty() ? std::string("variant failed to run")
                                      : vr.hazards().front().str();
    } else if (!buffers_match(*bw.mem, *vw.mem, bw.launch.args,
                              opt.f32_abs_tol, opt.f32_rel_tol, &evidence)) {
      // evidence filled by the comparator
    } else {
      return false;  // did not reproduce
    }
    cert.verdict = Verdict::kRefuted;
    cert.counterexample_seed = seed;
    cert.detail = sym_why + "; replay: " + evidence;
    return true;
  };

  if (!bl.run.ok) return inconclusive("baseline: " + bl.run.reason);
  const sim::SymExecResult& base = bl.run;
  const std::vector<sim::SymArg>& bargs = bl.args;

  // The variant runs on the baseline's environment plus its re-homed
  // scratch buffers, in the post-baseline arena; the arena is rolled
  // back to that state when this certificate is done, normal forms
  // included.
  std::vector<sim::SymArg> vargs = bargs;
  for (const auto& extra : variant.extra_buffers) {
    sim::SymArg a;
    a.kind = sim::SymArg::Kind::kBufferScratch;
    a.type = extra.type;
    a.elems = extra.elems_per_block * bl.grid.count();
    vargs.push_back(a);
  }
  sim::SymArena& arena = bl.arena;
  struct Rollback {
    sim::SymArena& arena;
    ~Rollback() { arena.rollback(); }
  } rollback{arena};
  sim::SymExecResult var =
      sim::sym_execute(certifier_.spec(), *variant.kernel, bl.grid,
                       variant.block_dims, vargs, arena, sym_options(opt));
  if (!var.ok) {
    // A deterministic fault unique to the variant (OOB store, div by
    // zero, warp-level barrier divergence) refutes it — if the
    // interpreter agrees.
    if (var.fault &&
        confirm_refute(0, "variant faults symbolically: " + var.reason))
      return cert;
    return inconclusive("variant: " + var.reason);
  }
  // Cross-warp same-epoch accesses have a deterministic order under the
  // simulator's lockstep contract (NP handoffs rely on it; see
  // SanitizerEngine::RaceMode), so they annotate the certificate
  // instead of gating the verdict.
  std::string note;
  if (!base.races.empty() || !var.races.empty()) {
    const auto& first =
        var.races.empty() ? base.races.front() : var.races.front();
    note = "; note: " + std::to_string(base.races.size() + var.races.size()) +
           " lockstep-ordered cross-warp handoff(s) (portable-model race: " +
           first + ")";
  }

  // Per-output-element comparison over the baseline-visible buffers.
  bool all_raw_equal = true;
  bool all_norm_equal = true;
  bool float_reassoc = false;
  std::vector<DiffCell> diffs;
  try {
    for (std::size_t i = 0; i < bargs.size(); ++i) {
      const auto& bb = base.buffers[i];
      const auto& vv = var.buffers[i];
      if (bb.size() != vv.size())
        return inconclusive("output buffer shapes differ");
      bool is_float = kernel_.params[i].type.scalar == ir::ScalarType::kFloat;
      for (std::size_t e = 0; e < bb.size(); ++e) {
        // A cell the variant left untouched is the baseline's own node;
        // only one that differs raw needs normal forms.
        if (bb[e] == vv[e]) continue;
        all_raw_equal = false;
        const std::uint32_t nb = arena.normalize(bb[e], opt.max_nodes);
        if (nb == sim::SymArena::kInvalid)
          return inconclusive(normalization_budget(opt));
        const std::uint32_t nv = arena.normalize(vv[e], opt.max_nodes);
        if (nv == sim::SymArena::kInvalid)
          return inconclusive(normalization_budget(opt));
        if (nb == nv) {
          if (is_float) float_reassoc = true;
          continue;
        }
        all_norm_equal = false;
        if (diffs.size() < 64)
          diffs.push_back(DiffCell{static_cast<int>(i), e, bb[e], vv[e],
                                   is_float});
      }
    }
  } catch (const sim::SymFault& f) {
    return inconclusive("normalization faulted: " + f.message);
  }

  if (all_raw_equal) {
    cert.verdict = Verdict::kProven;
    cert.detail = note.empty() ? "" : note.substr(2);  // drop "; "
    return cert;
  }
  if (all_norm_equal) {
    cert.verdict =
        float_reassoc ? Verdict::kProvenModuloReassoc : Verdict::kProven;
    cert.detail = note.empty() ? "" : note.substr(2);
    return cert;
  }

  // Normalized expressions differ: hunt for a concrete environment where
  // the values differ beyond tolerance, then make it reproduce.
  for (int attempt = 1; attempt <= kCounterexampleAttempts; ++attempt) {
    auto seed = static_cast<std::uint64_t>(attempt);
    sim::SymEvaluator ev(arena, seed);
    for (const auto& d : diffs) {
      sim::Value a, b;
      if (!ev.eval(d.base_id, &a) || !ev.eval(d.var_id, &b)) continue;
      bool mismatch =
          d.is_float
              ? !floats_close(static_cast<float>(a.as_f()),
                              static_cast<float>(b.as_f()), opt.f32_abs_tol,
                              opt.f32_rel_tol)
              : a.as_i() != b.as_i();
      if (!mismatch) continue;
      std::ostringstream why;
      why << "output " << cell_name(kernel_, d) << " differs: baseline "
          << arena.str(d.base_id, 4) << " = "
          << (d.is_float ? a.as_f() : static_cast<double>(a.as_i()))
          << ", variant " << arena.str(d.var_id, 4) << " = "
          << (d.is_float ? b.as_f() : static_cast<double>(b.as_i()));
      if (confirm_refute(seed, why.str())) return cert;
    }
  }
  return inconclusive(
      "normalized outputs differ at " + std::to_string(diffs.size()) +
      " cell(s) (e.g. " + cell_name(kernel_, diffs.front()) +
      ") but no counterexample reproduced through the interpreter");
}

}  // namespace cudanp::np
