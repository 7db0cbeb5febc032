// Symbolic equivalence certification: the arena's normalization algebra,
// verdicts on tiny kernels and on every paper benchmark, refutation of
// deliberately corrupted variants, certificate serialization, and the
// compiler integration (kProvenWrong quarantine + certified fast path).
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <map>
#include <string>

#include "frontend/parser.hpp"
#include "kernels/benchmark.hpp"
#include "np/certifier.hpp"
#include "np/compiler.hpp"
#include "np/runner.hpp"
#include "sim/fault.hpp"
#include "sim/symexec.hpp"
#include "support/record.hpp"

namespace cudanp {
namespace {

using np::Certificate;
using np::Certifier;
using np::CertifyOptions;
using np::NpCompiler;
using np::Verdict;
using transform::NpConfig;

constexpr double kTestScale = 0.08;

// ---------------------------------------------------------------------
// floats_close: mixed absolute/relative tolerance (satellite of the
// certification PR — the same comparator backs cross-checks & replays).

TEST(FloatsClose, AbsoluteRegimeNearZero) {
  // Tiny magnitudes: relative error is meaningless, the absolute term
  // must carry the comparison.
  EXPECT_TRUE(np::floats_close(0.0f, 5e-5f, 1e-4, 1e-3));
  EXPECT_TRUE(np::floats_close(-4e-5f, 4e-5f, 1e-4, 1e-3));
  EXPECT_FALSE(np::floats_close(0.0f, 3e-4f, 1e-4, 1e-3));
}

TEST(FloatsClose, RelativeRegimeLargeMagnitude) {
  // Large magnitudes: the absolute term alone would reject reassociated
  // reductions; the relative term must scale with the operands.
  EXPECT_TRUE(np::floats_close(1000.0f, 1000.9f, 1e-4, 1e-3));
  EXPECT_FALSE(np::floats_close(1000.0f, 1002.5f, 1e-4, 1e-3));
  EXPECT_TRUE(np::floats_close(-1000.0f, -1000.9f, 1e-4, 1e-3));
}

TEST(FloatsClose, NanMatchesNanOnly) {
  float nan = std::numeric_limits<float>::quiet_NaN();
  EXPECT_TRUE(np::floats_close(nan, nan, 1e-4, 1e-3));
  EXPECT_FALSE(np::floats_close(nan, 1.0f, 1e-4, 1e-3));
  EXPECT_FALSE(np::floats_close(1.0f, nan, 1e-4, 1e-3));
}

// ---------------------------------------------------------------------
// SymArena: constant folding and normalization algebra.

TEST(SymArena, FoldsIntConstants) {
  sim::SymArena a;
  EXPECT_EQ(a.bin(ir::BinOp::kAdd, a.cint(2), a.cint(3)), a.cint(5));
  EXPECT_EQ(a.bin(ir::BinOp::kMul, a.cint(-4), a.cint(6)), a.cint(-24));
  EXPECT_EQ(a.bin(ir::BinOp::kDiv, a.cint(7), a.cint(2)), a.cint(3));
}

TEST(SymArena, FoldsFloatsThroughF32) {
  sim::SymArena a;
  // The fold must replicate interpreter arithmetic: round through f32.
  float expect = 0.1f + 0.2f;
  EXPECT_EQ(a.bin(ir::BinOp::kAdd, a.cfloat(0.1), a.cfloat(0.2)),
            a.cfloat(static_cast<double>(expect)));
}

TEST(SymArena, IntDivByZeroFaults) {
  sim::SymArena a;
  EXPECT_THROW((void)a.bin(ir::BinOp::kDiv, a.cint(1), a.cint(0)),
               sim::SymFault);
}

TEST(SymArena, NormalizeIsReassociationInvariant) {
  sim::SymArena a;
  auto x = a.input(0, 0, ir::ScalarType::kFloat);
  auto y = a.input(0, 1, ir::ScalarType::kFloat);
  auto z = a.input(0, 2, ir::ScalarType::kFloat);
  auto left = a.bin(ir::BinOp::kAdd, a.bin(ir::BinOp::kAdd, x, y), z);
  auto right = a.bin(ir::BinOp::kAdd, x, a.bin(ir::BinOp::kAdd, y, z));
  EXPECT_NE(left, right);  // raw DAGs differ
  EXPECT_EQ(a.normalize(left), a.normalize(right));
}

TEST(SymArena, NormalizeIsCommutationInvariant) {
  sim::SymArena a;
  auto x = a.input(0, 0, ir::ScalarType::kFloat);
  auto y = a.input(0, 1, ir::ScalarType::kFloat);
  EXPECT_EQ(a.normalize(a.bin(ir::BinOp::kMul, x, y)),
            a.normalize(a.bin(ir::BinOp::kMul, y, x)));
}

TEST(SymArena, NormalizeRewritesSubIntoAddNeg) {
  sim::SymArena a;
  auto x = a.input(0, 0, ir::ScalarType::kFloat);
  auto y = a.input(0, 1, ir::ScalarType::kFloat);
  auto sub = a.bin(ir::BinOp::kSub, x, y);
  auto addneg = a.bin(ir::BinOp::kAdd, x,
                      a.bin(ir::BinOp::kMul, a.cint(-1), y));
  EXPECT_EQ(a.normalize(sub), a.normalize(addneg));
}

TEST(SymArena, NormalizeRewritesSelectOverLessIntoMin) {
  sim::SymArena a;
  auto x = a.input(0, 0, ir::ScalarType::kFloat);
  auto y = a.input(0, 1, ir::ScalarType::kFloat);
  auto sel = a.select(a.bin(ir::BinOp::kLt, x, y), x, y);
  auto fmin = a.call(sim::SymFn::kFminf, {x, y});
  EXPECT_EQ(a.normalize(sel), a.normalize(fmin));
  auto selmax = a.select(a.bin(ir::BinOp::kLt, x, y), y, x);
  auto fmax = a.call(sim::SymFn::kFmaxf, {x, y});
  EXPECT_EQ(a.normalize(selmax), a.normalize(fmax));
}

// ---------------------------------------------------------------------
// Certificate serialization.

TEST(Certificate, JsonRoundTripIsExact) {
  Certificate c;
  c.kernel = "tmv";
  c.config = "inter-warp slave=4 \"quoted\"";
  c.verdict = Verdict::kRefuted;
  c.counterexample_seed = 3;
  c.geometry = "grid 2x1x1 block 8x1x1";
  c.detail = "output 'c[0]' differs: line1\nline2";
  auto back = Certificate::from_json(c.json());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->json(), c.json());
  EXPECT_EQ(back->verdict, Verdict::kRefuted);
  EXPECT_EQ(back->counterexample_seed, 3u);
  EXPECT_EQ(back->detail, c.detail);
  EXPECT_FALSE(Certificate::from_json("{\"verdict\":\"bogus\"}").has_value());
  EXPECT_FALSE(Certificate::from_json("not json").has_value());
}

TEST(Certificate, VerdictStringsRoundTrip) {
  for (const auto& row : np::kVerdictSlugs) {
    EXPECT_STREQ(np::to_string(row.value), row.text);
    auto back = record::from_slug(np::kVerdictSlugs, row.text);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, row.value);
  }
  EXPECT_FALSE(
      record::from_slug(np::kVerdictSlugs, "almost-proven").has_value());
}

// ---------------------------------------------------------------------
// Certifying small hand-written kernels.

constexpr const char* kDotSrc = R"(
__global__ void k(float* a, float* b, float* c, int w, int h) {
  float sum = 0.0f;
  int tx = threadIdx.x + blockIdx.x * blockDim.x;
  #pragma np parallel for reduction(+:sum)
  for (int i = 0; i < h; i++)
    sum += a[i * w + tx] * b[i];
  c[tx] = sum;
}
)";

ir::Kernel& parse_kernel(std::unique_ptr<ir::Program>& holder,
                         const char* src) {
  holder = frontend::parse_program_or_throw(src);
  return *holder->find_kernel("k");
}

TEST(Certifier, ProvesNpReductionVariants) {
  std::unique_ptr<ir::Program> prog;
  ir::Kernel& kernel = parse_kernel(prog, kDotSrc);
  auto factory = [&] { return np::make_synthetic_workload(kernel, 8, 8); };
  auto spec = sim::DeviceSpec::gtx680();
  Certifier certifier(spec);
  int proven = 0;
  for (const auto& cfg : NpCompiler::enumerate_configs(kernel, 8, spec)) {
    SCOPED_TRACE(cfg.describe());
    transform::TransformResult variant;
    try {
      variant = NpCompiler::transform(kernel, cfg);
    } catch (const CompileError&) {
      continue;  // configuration legitimately inapplicable
    }
    Certificate cert = certifier.certify_variant(kernel, variant, factory);
    EXPECT_TRUE(cert.proven()) << cert.str();
    proven += cert.proven() ? 1 : 0;
  }
  EXPECT_GT(proven, 0);
}

TEST(Certifier, SkewedStoreIndexIsRefutedWithReplay) {
  std::unique_ptr<ir::Program> prog;
  ir::Kernel& kernel = parse_kernel(prog, kDotSrc);
  auto factory = [&] { return np::make_synthetic_workload(kernel, 8, 8); };
  auto spec = sim::DeviceSpec::gtx680();
  auto configs = NpCompiler::enumerate_configs(kernel, 8, spec);
  ASSERT_FALSE(configs.empty());
  int refuted = 0;
  for (const auto& cfg : configs) {
    transform::TransformResult variant;
    try {
      variant = NpCompiler::transform(kernel, cfg);
    } catch (const CompileError&) {
      continue;
    }
    SCOPED_TRACE(cfg.describe());
    sim::FaultPlan plan;
    plan.skew_index = true;
    sim::FaultInjector injector(plan);
    ASSERT_TRUE(injector.corrupt_kernel(*variant.kernel));
    Certificate cert =
        Certifier(spec).certify_variant(kernel, variant, factory);
    // A skewed store lands out of bounds or on the wrong cell; either
    // way the certifier may only call it refuted with interpreter
    // evidence — and must never call it proven.
    EXPECT_FALSE(cert.proven()) << cert.str();
    if (cert.verdict == Verdict::kRefuted) {
      ++refuted;
      EXPECT_NE(cert.detail.find("replay"), std::string::npos) << cert.str();
    }
  }
  EXPECT_GT(refuted, 0);
}

TEST(Certifier, DroppedBarrierIsFlaggedOnTheCertificate) {
  std::unique_ptr<ir::Program> prog;
  ir::Kernel& kernel = parse_kernel(prog, kDotSrc);
  // 16-thread baseline so slave-sliced blocks span several warps: a
  // dropped __syncthreads in a single-warp block is invisible (warps
  // are lockstep), so only multi-warp variants make a meaningful test.
  auto factory = [&] { return np::make_synthetic_workload(kernel, 16, 16); };
  auto spec = sim::DeviceSpec::gtx680();
  int corrupted = 0;
  for (const auto& cfg : NpCompiler::enumerate_configs(kernel, 16, spec)) {
    transform::TransformResult variant;
    try {
      variant = NpCompiler::transform(kernel, cfg);
    } catch (const CompileError&) {
      continue;
    }
    if (variant.block_dims.count() <= 32) continue;  // single warp
    SCOPED_TRACE(cfg.describe());
    sim::FaultPlan plan;
    plan.drop_barrier = true;
    sim::FaultInjector injector(plan);
    if (!injector.corrupt_kernel(*variant.kernel))
      continue;  // this variant has no barrier to drop
    ++corrupted;
    Certificate cert =
        Certifier(spec).certify_variant(kernel, variant, factory);
    // Under the simulator's lockstep contract a dropped barrier leaves
    // the values bit-identical (the documented execution model orders
    // the handoff deterministically), so the verdict stays a proof —
    // but the certificate must carry the portable-model race note so
    // the hazard is never silently absorbed.
    if (cert.proven())
      EXPECT_NE(cert.detail.find("portable-model race"), std::string::npos)
          << cert.str();
  }
  EXPECT_GT(corrupted, 0);
}

// ---------------------------------------------------------------------
// The headline guarantee: every paper benchmark certifies as equivalent
// (exactly, or modulo float reassociation) under every applicable NP
// configuration.

class BenchmarkCertification : public ::testing::TestWithParam<std::string> {};

TEST_P(BenchmarkCertification, EveryNpVariantIsProven) {
  // Proofs are per-workload-shape, so certify at a reduced scale: the
  // expression DAGs grow with the iteration count, and the full test
  // scale proves the same structure at several times the cost.
  constexpr double kCertifyScale = 0.02;
  auto bench = kernels::make_benchmark(GetParam(), kCertifyScale);
  auto spec = sim::DeviceSpec::gtx680();
  auto factory = [&] { return bench->make_workload(); };
  auto probe = bench->make_workload();
  auto configs = NpCompiler::enumerate_configs(
      bench->kernel(), static_cast<int>(probe.launch.block.count()), spec);
  ASSERT_FALSE(configs.empty());
  Certifier certifier(spec);
  int certified = 0;
  for (const auto& cfg : configs) {
    SCOPED_TRACE(cfg.describe());
    transform::TransformResult variant;
    try {
      variant = NpCompiler::transform(bench->kernel(), cfg);
    } catch (const CompileError&) {
      continue;  // configuration legitimately inapplicable
    }
    Certificate cert =
        certifier.certify_variant(bench->kernel(), variant, factory);
    EXPECT_TRUE(cert.proven()) << cert.str();
    certified += cert.proven() ? 1 : 0;
  }
  EXPECT_GT(certified, 0);
}

INSTANTIATE_TEST_SUITE_P(AllBenchmarks, BenchmarkCertification,
                         ::testing::ValuesIn(kernels::benchmark_names()));

// ---------------------------------------------------------------------
// Compiler integration: kProvenWrong quarantine and the certified fast
// path.

TEST(CompilerCertification, ValidateRecordsVerdicts) {
  std::unique_ptr<ir::Program> prog;
  ir::Kernel& kernel = parse_kernel(prog, kDotSrc);
  auto factory = [&] { return np::make_synthetic_workload(kernel, 8, 8); };
  auto spec = sim::DeviceSpec::gtx680();
  np::ValidationOptions opt;
  opt.certify = true;
  auto configs = NpCompiler::enumerate_configs(kernel, 8, spec);
  auto report = NpCompiler::validate(kernel, configs, factory, spec, opt);
  ASSERT_FALSE(report.entries.empty());
  for (const auto& e : report.entries) {
    if (!e.transform_ok) continue;
    EXPECT_TRUE(e.verdict == "proven" || e.verdict == "proven-modulo-reassoc")
        << e.config << ": " << e.verdict << " (" << e.verdict_detail << ")";
  }
}

TEST(CompilerCertification, RefutedCertificateQuarantinesBeforeAnyRun) {
  std::unique_ptr<ir::Program> prog;
  ir::Kernel& kernel = parse_kernel(prog, kDotSrc);
  auto factory = [&] { return np::make_synthetic_workload(kernel, 8, 8); };
  auto spec = sim::DeviceSpec::gtx680();
  auto configs = NpCompiler::enumerate_configs(kernel, 8, spec);
  ASSERT_FALSE(configs.empty());

  np::ValidationOptions opt;
  opt.certify = true;
  // A provider that swears every variant is proven wrong: the compiler
  // must quarantine them all (kProvenWrong) and fall back to baseline
  // without ever spawning a variant run.
  opt.certificates.load = [](const std::string& config) {
    Certificate c;
    c.config = config;
    c.verdict = Verdict::kRefuted;
    c.counterexample_seed = 7;
    c.detail = "cached refutation";
    return std::optional<Certificate>(c);
  };
  auto result =
      NpCompiler::compile_with_fallback(kernel, configs, factory, spec, opt);
  EXPECT_TRUE(result.decision.used_baseline);
  ASSERT_FALSE(result.decision.quarantined.empty());
  for (const auto& f : result.decision.quarantined) {
    EXPECT_EQ(f.cause, np::FailureCause::kProvenWrong) << f.str();
    EXPECT_NE(f.detail.find("counterexample seed 7"), std::string::npos)
        << f.detail;
  }
}

TEST(CompilerCertification, ProviderSavesFreshCertificates) {
  std::unique_ptr<ir::Program> prog;
  ir::Kernel& kernel = parse_kernel(prog, kDotSrc);
  auto factory = [&] { return np::make_synthetic_workload(kernel, 8, 8); };
  auto spec = sim::DeviceSpec::gtx680();
  auto configs = NpCompiler::enumerate_configs(kernel, 8, spec);

  std::map<std::string, Certificate> store;
  int loads = 0;
  np::ValidationOptions opt;
  opt.certify = true;
  opt.certificates.load =
      [&](const std::string& config) -> std::optional<Certificate> {
    ++loads;
    auto it = store.find(config);
    if (it == store.end()) return std::nullopt;
    return it->second;
  };
  opt.certificates.save = [&](const Certificate& c) { store[c.config] = c; };

  (void)NpCompiler::compile_with_fallback(kernel, configs, factory, spec, opt);
  EXPECT_FALSE(store.empty());
  for (const auto& [config, cert] : store) {
    EXPECT_TRUE(cert.proven()) << cert.str();
    EXPECT_EQ(cert.config, config);
  }
  // Second compile: every certificate must come from the cache (loads
  // only, no growth).
  auto size_before = store.size();
  (void)NpCompiler::compile_with_fallback(kernel, configs, factory, spec, opt);
  EXPECT_EQ(store.size(), size_before);
  EXPECT_GT(loads, 0);
}

TEST(CompilerCertification, CertifiedFastPathPicksTheSameVariant) {
  std::unique_ptr<ir::Program> prog;
  ir::Kernel& kernel = parse_kernel(prog, kDotSrc);
  auto factory = [&] { return np::make_synthetic_workload(kernel, 8, 8); };
  auto spec = sim::DeviceSpec::gtx680();
  auto configs = NpCompiler::enumerate_configs(kernel, 8, spec);

  np::ValidationOptions plain;
  auto ref =
      NpCompiler::compile_with_fallback(kernel, configs, factory, spec, plain);

  np::ValidationOptions fast;
  fast.certify = true;
  fast.certified_fast_path = true;
  auto got =
      NpCompiler::compile_with_fallback(kernel, configs, factory, spec, fast);

  EXPECT_EQ(got.decision.used_baseline, ref.decision.used_baseline);
  EXPECT_EQ(got.decision.chosen_config, ref.decision.chosen_config);
  EXPECT_EQ(got.decision.quarantined.size(), ref.decision.quarantined.size());
}

}  // namespace
}  // namespace cudanp
