// Certifier verdict fuzzing: seeded random reduction kernels are
// certified against their NP variants, and every verdict is
// cross-validated against ground truth the certifier did not use:
//
//   kProven   -> the variant must run hazard-free under the sanitizer
//                and match the baseline's outputs on several concrete
//                input assignments (beyond the proof's replay check);
//   kRefuted  -> the recorded counterexample seed must independently
//                reproduce through Runner::execute (baseline clean,
//                variant hazarding or mismatching).
//
// A proof whose empirical replay fails, or a refutation whose
// counterexample does not reproduce, fails the test. Roughly a third of
// the corpus is deliberately corrupted (sim::FaultInjector skew_index)
// so both halves of the lattice are exercised on every run.
#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <string>
#include <variant>
#include <vector>

#include "frontend/parser.hpp"
#include "np/certifier.hpp"
#include "np/compiler.hpp"
#include "np/runner.hpp"
#include "sim/fault.hpp"
#include "sim/symexec.hpp"

namespace cudanp {
namespace {

using np::Certificate;
using np::Certifier;
using np::NpCompiler;
using np::Verdict;

constexpr double kRelTol = 1e-3;
constexpr double kAbsTol = 1e-4;

// ---------------------------------------------------------------------
// Random kernel generator. Every generated program is a per-thread
// reduction over h iterations — the shape `#pragma np parallel for`
// accepts — with a randomly grown arithmetic term over the float
// inputs. Int data (loop bounds, indices) stays affine in i/tx so the
// kernel is valid for the synthetic 8x8 workload geometry.

struct Rng {
  std::mt19937_64 gen;
  explicit Rng(std::uint64_t seed) : gen(seed) {}
  int pick(int n) {
    return static_cast<int>(
        std::uniform_int_distribution<int>(0, n - 1)(gen));
  }
};

std::string gen_term(Rng& rng, int depth) {
  if (depth <= 0 || rng.pick(3) == 0) {
    switch (rng.pick(5)) {
      case 0: return "a[i * w + tx]";
      case 1: return "b[i]";
      case 2: return "a[i]";
      case 3: return "0.5f";
      default: return "-0.75f";
    }
  }
  std::string x = gen_term(rng, depth - 1);
  std::string y = gen_term(rng, depth - 1);
  switch (rng.pick(6)) {
    case 0: return "(" + x + " + " + y + ")";
    case 1: return "(" + x + " - " + y + ")";
    case 2: return "(" + x + " * " + y + ")";
    case 3: return "fminf(" + x + ", " + y + ")";
    case 4: return "fmaxf(" + x + ", " + y + ")";
    default: return "fabsf(" + x + ")";
  }
}

std::string gen_kernel_source(std::uint64_t seed) {
  Rng rng(seed);
  const char* ops[] = {"+", "*", "min", "max"};
  const char* op = ops[rng.pick(4)];
  std::string term = gen_term(rng, 2);
  std::string init, combine;
  if (op[0] == '+') {
    init = "0.0f";
    combine = "acc += " + term + ";";
  } else if (op[0] == '*') {
    // Inputs are in [-1, 1]; keep multiplicative factors near one so an
    // 8-term product stays far from overflow and from underflow-to-zero
    // (either would let a skewed store hide behind saturated values).
    init = "1.0f";
    combine = "acc *= (0.75f + 0.25f * fabsf(" + term + "));";
  } else if (op[0] == 'm' && op[1] == 'i') {
    init = "1.0e30f";
    combine = "acc = fminf(acc, " + term + ");";
  } else {
    init = "-1.0e30f";
    combine = "acc = fmaxf(acc, " + term + ");";
  }
  std::string post = rng.pick(2) == 0 ? "acc" : "acc * 0.5f";
  std::string src;
  src += "__global__ void k(float* a, float* b, float* c, int w, int h) {\n";
  src += "  float acc = " + init + ";\n";
  src += "  int tx = threadIdx.x + blockIdx.x * blockDim.x;\n";
  src += "  #pragma np parallel for reduction(" + std::string(op) +
         ":acc)\n";
  src += "  for (int i = 0; i < h; i++) {\n";
  src += "    " + combine + "\n";
  src += "  }\n";
  src += "  c[tx] = " + post + ";\n";
  src += "}\n";
  return src;
}

// ---------------------------------------------------------------------
// Empirical ground truth: run one case sanitized and collect every
// float buffer the launch references.

struct RunOut {
  bool clean = false;
  std::vector<std::vector<float>> floats;
};

RunOut run_case(const np::Runner& runner, const ir::Kernel* baseline,
                const transform::TransformResult* variant, np::Workload& w) {
  auto req = baseline != nullptr
                 ? np::ExecutionRequest::baseline(*baseline, w)
                 : np::ExecutionRequest::transformed(*variant, w);
  auto res = runner.execute(req.sanitized());
  RunOut out;
  out.clean = res.clean();
  for (const auto& arg : w.launch.args) {
    if (const auto* id = std::get_if<sim::BufferId>(&arg)) {
      const sim::DeviceBuffer& buf = w.mem->buffer(*id);
      if (buf.type() == ir::ScalarType::kFloat) {
        auto f = buf.f32();
        out.floats.emplace_back(f.begin(), f.end());
      }
    }
  }
  return out;
}

bool outputs_match(const RunOut& ref, const RunOut& got) {
  if (ref.floats.size() != got.floats.size()) return false;
  for (std::size_t b = 0; b < ref.floats.size(); ++b) {
    if (ref.floats[b].size() != got.floats[b].size()) return false;
    for (std::size_t e = 0; e < ref.floats[b].size(); ++e)
      if (!np::floats_close(ref.floats[b][e], got.floats[b][e], kAbsTol,
                            kRelTol))
        return false;
  }
  return true;
}

np::Workload seeded_workload(const ir::Kernel& kernel, std::uint64_t seed) {
  np::Workload w = np::make_synthetic_workload(kernel, 8, 8);
  np::seed_certify_floats(w, seed);
  return w;
}

// ---------------------------------------------------------------------

TEST(CertFuzz, VerdictsAgreeWithEmpiricalGroundTruth) {
  constexpr std::uint64_t kCorpus = 15;
  auto spec = sim::DeviceSpec::gtx680();
  Certifier certifier(spec);
  np::Runner runner(spec);

  int proven_total = 0;
  int refuted_total = 0;
  int inconclusive_total = 0;

  for (std::uint64_t fuzz = 0; fuzz < kCorpus; ++fuzz) {
    const bool corrupt = fuzz % 3 == 2;
    std::string src = gen_kernel_source(fuzz);
    SCOPED_TRACE("fuzz seed " + std::to_string(fuzz) +
                 (corrupt ? " (corrupted)" : "") + "\n" + src);
    auto prog = frontend::parse_program_or_throw(src);
    ir::Kernel& kernel = *prog->find_kernel("k");
    auto factory = [&] { return np::make_synthetic_workload(kernel, 8, 8); };

    for (const auto& cfg : NpCompiler::enumerate_configs(kernel, 8, spec)) {
      transform::TransformResult variant;
      try {
        variant = NpCompiler::transform(kernel, cfg);
      } catch (const CompileError&) {
        continue;  // configuration legitimately inapplicable
      }
      SCOPED_TRACE(cfg.describe());
      if (corrupt) {
        sim::FaultPlan plan;
        plan.skew_index = true;
        if (!sim::FaultInjector(plan).corrupt_kernel(*variant.kernel))
          continue;
      }

      Certificate cert =
          np::JobCertifier(certifier, kernel, factory).certify(variant);

      if (cert.proven()) {
        ++proven_total;
        // A corrupted variant certified as proven would be a soundness
        // hole — the whole point of the skew is an observable change.
        EXPECT_FALSE(corrupt) << cert.str();
        // Cross-validate the proof on concrete inputs the symbolic run
        // never saw: the variant must be hazard-free and match the
        // baseline bit-for-tolerance on every float buffer.
        for (std::uint64_t input_seed : {11u, 42u}) {
          np::Workload wb = seeded_workload(kernel, input_seed);
          np::Workload wv = seeded_workload(kernel, input_seed);
          RunOut ref = run_case(runner, &kernel, nullptr, wb);
          RunOut got = run_case(runner, nullptr, &variant, wv);
          EXPECT_TRUE(ref.clean) << cert.str();
          EXPECT_TRUE(got.clean)
              << "proven variant hazards on input seed " << input_seed
              << "\n" << cert.str();
          EXPECT_TRUE(outputs_match(ref, got))
              << "proven variant mismatches on input seed " << input_seed
              << "\n" << cert.str();
        }
      } else if (cert.verdict == Verdict::kRefuted) {
        ++refuted_total;
        // Refutations may only come from deliberate corruption: a
        // refuted clean transform would mean the transformer (or the
        // certifier) is wrong, and either deserves a red test.
        EXPECT_TRUE(corrupt) << cert.str();
        // Independently reproduce the counterexample: the certifier's
        // own replay already passed, but re-derive it here from nothing
        // but the certificate to pin the recorded seed.
        np::Workload wb = seeded_workload(kernel, cert.counterexample_seed);
        np::Workload wv = seeded_workload(kernel, cert.counterexample_seed);
        RunOut ref = run_case(runner, &kernel, nullptr, wb);
        EXPECT_TRUE(ref.clean) << cert.str();
        RunOut got = run_case(runner, nullptr, &variant, wv);
        bool misbehaves = !got.clean || !outputs_match(ref, got);
        EXPECT_TRUE(misbehaves)
            << "refutation does not reproduce: " << cert.str();
      } else {
        ++inconclusive_total;
      }
    }
  }

  // The corpus must exercise both halves of the verdict lattice, and
  // the symbolic engine must handle the overwhelming share of this
  // deliberately in-envelope grammar.
  EXPECT_GT(proven_total, 0);
  EXPECT_GT(refuted_total, 0);
  EXPECT_LT(inconclusive_total, proven_total);
}

}  // namespace
}  // namespace cudanp
