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
  std::ostringstream os;
  os << "steps=" << max_steps << " gather=" << max_gather_cells
     << " nodes=" << max_nodes << " attempts=" << counterexample_attempts
     << " replay=" << (replay_check ? 1 : 0) << " rel=" << f32_rel_tol
     << " abs=" << f32_abs_tol;
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

/// Compares the baseline-visible buffers of two replayed workloads with
/// the certifier's mixed tolerance; fills `msg` on mismatch. Both
/// workloads come from the same (deterministic) factory, so equal
/// allocation order means equal BufferIds.
bool replay_buffers_match(const sim::DeviceMemory& ref,
                          const sim::DeviceMemory& got,
                          const std::vector<sim::KernelArg>& args,
                          double abs_tol, double rel_tol, std::string* msg) {
  for (const auto& arg : args) {
    const auto* id = std::get_if<sim::BufferId>(&arg);
    if (!id) continue;
    const sim::DeviceBuffer& rb = ref.buffer(*id);
    const sim::DeviceBuffer& gb = got.buffer(*id);
    if (rb.type() == ir::ScalarType::kFloat) {
      auto r = rb.f32();
      auto g = gb.f32();
      for (std::size_t i = 0; i < r.size(); ++i) {
        if (floats_close(r[i], g[i], abs_tol, rel_tol)) continue;
        std::ostringstream os;
        os << "buffer " << *id << " element " << i << ": baseline " << r[i]
           << ", variant " << g[i];
        *msg = os.str();
        return false;
      }
    } else {
      auto r = rb.i32();
      auto g = gb.i32();
      for (std::size_t i = 0; i < r.size(); ++i) {
        if (r[i] == g[i]) continue;
        std::ostringstream os;
        os << "buffer " << *id << " element " << i << ": baseline " << r[i]
           << ", variant " << g[i];
        *msg = os.str();
        return false;
      }
    }
  }
  return true;
}

}  // namespace

Certificate Certifier::certify(const ir::Kernel& kernel,
                               const transform::NpConfig& config,
                               const WorkloadFactory& make_workload) const {
  try {
    transform::TransformResult variant = NpCompiler::transform(kernel, config);
    return certify_variant(kernel, variant, make_workload);
  } catch (const CompileError& e) {
    Certificate c;
    c.kernel = kernel.name;
    c.config = config.describe();
    c.verdict = Verdict::kInconclusive;
    c.detail = std::string("transform error: ") + e.what();
    return c;
  }
}

Certificate Certifier::certify_variant(
    const ir::Kernel& kernel, const transform::TransformResult& variant,
    const WorkloadFactory& make_workload) const {
  Certificate cert;
  cert.kernel = kernel.name;
  cert.config = variant.config.describe();

  // The probe workload fixes the proof environment's shape: launch
  // geometry, buffer sizes and all int data are taken concrete from it;
  // float buffers and float scalars are abstracted into symbolic leaves.
  const Workload probe = make_workload();
  const sim::Dim3 grid = probe.launch.grid;
  const sim::Dim3 block = probe.launch.block;
  {
    std::ostringstream os;
    os << "grid " << grid.x << "x" << grid.y << "x" << grid.z << " block "
       << block.x << "x" << block.y << "x" << block.z;
    cert.geometry = os.str();
  }

  auto inconclusive = [&](std::string why) {
    cert.verdict = Verdict::kInconclusive;
    cert.detail = std::move(why);
    return cert;
  };

  // The concrete counterexample environment for `seed`; returns true —
  // and commits the refutation — only when the interpreter reproduces a
  // misbehaviour the baseline does not show. With replay_check off the
  // symbolic evidence is trusted as-is (fuzzing cross-validates this).
  auto confirm_refute = [&](std::uint64_t seed, const std::string& sym_why) {
    if (!opt_.replay_check) {
      cert.verdict = Verdict::kRefuted;
      cert.counterexample_seed = seed;
      cert.detail = sym_why;
      return true;
    }
    Runner runner(spec_, opt_.interp);
    // Default (lockstep) sanitize: the simulator's lockstep model is the
    // repo's correctness contract, so a refutation must reproduce under
    // exactly the checks the empirical validation legs apply.
    Workload bw = make_workload();
    seed_certify_floats(bw, seed);
    ExecutionResult br =
        runner.execute(ExecutionRequest::baseline(kernel, bw).sanitized());
    if (!br.clean()) return false;  // can't pin the blame on the variant
    Workload vw = make_workload();
    seed_certify_floats(vw, seed);
    ExecutionResult vr =
        runner.execute(ExecutionRequest::transformed(variant, vw).sanitized());
    std::string evidence;
    if (!vr.clean()) {
      evidence = vr.hazards().empty() ? std::string("variant failed to run")
                                      : vr.hazards().front().str();
    } else if (!replay_buffers_match(*bw.mem, *vw.mem, bw.launch.args,
                                     opt_.f32_abs_tol, opt_.f32_rel_tol,
                                     &evidence)) {
      // evidence filled by the comparator
    } else {
      return false;  // did not reproduce
    }
    cert.verdict = Verdict::kRefuted;
    cert.counterexample_seed = seed;
    cert.detail = sym_why + "; replay: " + evidence;
    return true;
  };

  // Symbolic environments mirror the probe workload; the variant adds
  // its re-homed scratch buffers.
  std::vector<sim::SymArg> bargs;
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
    bargs.push_back(std::move(a));
  }
  std::vector<sim::SymArg> vargs = bargs;
  for (const auto& extra : variant.extra_buffers) {
    sim::SymArg a;
    a.kind = sim::SymArg::Kind::kBufferScratch;
    a.type = extra.type;
    a.elems = extra.elems_per_block * grid.count();
    vargs.push_back(a);
  }

  sim::SymExecOptions sopt;
  sopt.max_steps = opt_.max_steps;
  sopt.max_gather_cells = opt_.max_gather_cells;
  sopt.max_nodes = opt_.max_nodes;
  sim::SymArena arena;

  sim::SymExecResult base =
      sim::sym_execute(kernel, grid, block, bargs, arena, sopt);
  if (!base.ok) return inconclusive("baseline: " + base.reason);

  sim::SymExecResult var = sim::sym_execute(*variant.kernel, grid,
                                            variant.block_dims, vargs, arena,
                                            sopt);
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
           first.message + ")";
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
      bool is_float = kernel.params[i].type.scalar == ir::ScalarType::kFloat;
      for (std::size_t e = 0; e < bb.size(); ++e) {
        if (bb[e] == vv[e]) continue;
        if (static_cast<std::int64_t>(arena.size()) > opt_.max_nodes)
          return inconclusive("normalization expression budget of " +
                              std::to_string(opt_.max_nodes) +
                              " nodes exhausted");
        all_raw_equal = false;
        std::uint32_t nb = arena.normalize(bb[e]);
        std::uint32_t nv = arena.normalize(vv[e]);
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
  for (int attempt = 1; attempt <= opt_.counterexample_attempts; ++attempt) {
    auto seed = static_cast<std::uint64_t>(attempt);
    sim::SymEvaluator ev(arena, seed);
    for (const auto& d : diffs) {
      sim::Value a, b;
      if (!ev.eval(d.base_id, &a) || !ev.eval(d.var_id, &b)) continue;
      bool mismatch =
          d.is_float
              ? !floats_close(static_cast<float>(a.as_f()),
                              static_cast<float>(b.as_f()), opt_.f32_abs_tol,
                              opt_.f32_rel_tol)
              : a.as_i() != b.as_i();
      if (!mismatch) continue;
      std::ostringstream why;
      why << "output " << cell_name(kernel, d) << " differs: baseline "
          << arena.str(d.base_id, 4) << " = "
          << (d.is_float ? a.as_f() : static_cast<double>(a.as_i()))
          << ", variant " << arena.str(d.var_id, 4) << " = "
          << (d.is_float ? b.as_f() : static_cast<double>(b.as_i()));
      if (confirm_refute(seed, why.str())) return cert;
    }
  }
  return inconclusive(
      "normalized outputs differ at " + std::to_string(diffs.size()) +
      " cell(s) (e.g. " + cell_name(kernel, diffs.front()) +
      ") but no counterexample reproduced through the interpreter");
}

}  // namespace cudanp::np
