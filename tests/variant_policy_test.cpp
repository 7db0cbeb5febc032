// The three variant-evaluation policies, pinned and cross-checked.
// NpCompiler::validate, NpCompiler::compile_with_fallback and
// Autotuner::tune each try configurations of one kernel and judge them;
// golden/variant_policy.txt records what each of them says about every
// configuration of the paper suite at scale 0.02: validate's entries
// over config_space, the fallback decision, and every tune entry and
// quarantine record, with certification off and on, and on the failure
// paths policy_text() lists. Host wall-clock fields are left out. On a
// mismatch the test prints the first differing line; the actual text is
// written to the working directory as variant_policy.txt, and a
// deliberate change is re-recorded by copying that file over the golden
// one.
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "kernels/benchmark.hpp"
#include "np/autotuner.hpp"
#include "np/compiler.hpp"
#include "sim/fault.hpp"
#include "support/json.hpp"

namespace cudanp::np {
namespace {

constexpr double kScale = 0.02;

std::string quoted(const std::string& s) {
  return "\"" + json::escape(s) + "\"";
}

std::string hazards_str(const std::vector<sim::HazardReport>& hazards) {
  return std::to_string(hazards.size()) + " first_hazard=" +
         quoted(hazards.empty() ? "" : hazards.front().str());
}

/// validate over `space`, then compile_with_fallback and tune over
/// `configs` (empty: their own enumeration), of one kernel: every field
/// but the host wall-clock, one line each. Each policy call gets its own
/// factory from `factories`.
void emit(std::ostream& os, const std::string& tag, const ir::Kernel& kernel,
          const std::function<WorkloadFactory()>& factories,
          const std::vector<transform::NpConfig>& space,
          const std::vector<transform::NpConfig>& configs,
          const ValidationOptions& opt, bool with_tune) {
  const auto spec = sim::DeviceSpec::gtx680();
  const ValidationReport report =
      NpCompiler::validate(kernel, space, factories(), spec, opt);
  os << tag << " validate baseline ran=" << report.baseline_ran
     << " hazards=" << hazards_str(report.baseline_hazards) << "\n";
  for (const auto& e : report.entries)
    os << tag << " validate config=" << quoted(e.config)
       << " transform_ok=" << e.transform_ok
       << " transform_error=" << quoted(e.transform_error) << " ran=" << e.ran
       << " hazards=" << hazards_str(e.hazards)
       << " outputs_match=" << e.outputs_match
       << " mismatch=" << quoted(e.mismatch) << " verdict=" << quoted(e.verdict)
       << " verdict_detail=" << quoted(e.verdict_detail) << "\n";
  os << tag << " fallback "
     << NpCompiler::compile_with_fallback(kernel, configs, factories(), spec,
                                          opt)
            .decision.json()
     << "\n";
  if (!with_tune) return;
  TuneResult tune;
  TuneOptions topt;
  topt.configs = configs;
  try {
    tune = Autotuner(Runner(spec, opt.interp)).tune(kernel, factories(), topt);
  } catch (const std::exception& e) {
    os << tag << " tune threw " << quoted(e.what()) << "\n";
    return;
  }
  for (const auto& e : tune.entries)
    os << tag << " tune config=" << quoted(e.config.describe())
       << " ok=" << e.ok << " note=" << quoted(e.note) << "\n";
  for (const auto& f : tune.failures)
    os << tag << " tune failure " << f.json() << "\n";
}

/// A factory whose every workload after the first has 64 flipped bits and
/// a CPU validator that fails after its first call: variants mismatch the
/// baseline's buffers, and tune's variants fail validation.
WorkloadFactory chaos_factory(const kernels::Benchmark& bench) {
  sim::FaultPlan plan;
  plan.seed = 0xb17f11b5ULL;
  plan.bit_flips = 64;
  auto injector = std::make_shared<sim::FaultInjector>(plan);
  auto calls = std::make_shared<int>(0);
  auto checks = std::make_shared<int>(0);
  return [&bench, injector, calls, checks] {
    Workload w = bench.make_workload();
    if (++*calls > 1) (void)injector->corrupt_memory(*w.mem);
    w.validate = [inner = w.validate, checks](const sim::DeviceMemory& m,
                                              std::string* msg) {
      if (++*checks == 1) return inner(m, msg);
      *msg = "injected validation failure";
      return false;
    };
    return w;
  };
}

/// Per benchmark: its own workload with certification off (with tune)
/// and on, then the failure paths: the certified fast path, a per-block
/// watchdog budget of 2000 steps (the baselines of LU, MV, SS, TMV and NN
/// trip it), the serve layer's synthetic 32-element workload (MC, LU and
/// LE fault under it), a 2048-thread block no launch accepts,
/// chaos_factory, and an inapplicable configuration.
std::string policy_text() {
  const auto spec = sim::DeviceSpec::gtx680();
  std::ostringstream os;
  os << "# variant policy golden: validate, compile_with_fallback and tune "
        "over the paper suite, scale="
     << kScale << " device=gtx680\n";
  for (const auto& b : kernels::make_benchmark_suite(kScale)) {
    const kernels::Benchmark& bench = *b;
    const ir::Kernel& kernel = bench.kernel();
    WorkloadFactory factory = [&bench] { return bench.make_workload(); };
    auto same = [&factory] { return factory; };
    const int tb = static_cast<int>(factory().launch.block.count());
    const auto space = NpCompiler::config_space(kernel, tb, spec);
    const std::string name = bench.name();
    ValidationOptions opt;
    emit(os, name + " certify=0", kernel, same, space, {}, opt, true);
    opt.certify = true;
    emit(os, name + " certify=1", kernel, same, space, {}, opt, false);
    opt.certified_fast_path = true;
    emit(os, name + " fast-path", kernel, same, space, {}, opt, false);

    ValidationOptions tight;
    tight.interp.limits.max_steps_per_block = 2000;
    emit(os, name + " watchdog=2000", kernel, same, space, {}, tight, true);
    auto synthetic = [&kernel]() -> WorkloadFactory {
      return [&kernel] { return make_synthetic_workload(kernel, 32, 32); };
    };
    emit(os, name + " synthetic", kernel, synthetic,
         NpCompiler::config_space(kernel, 32, spec), {}, {}, true);
    auto oversized = [&kernel]() -> WorkloadFactory {
      return [&kernel] { return make_synthetic_workload(kernel, 32, 2048); };
    };
    emit(os, name + " oversized", kernel, oversized, {}, {}, {}, true);
    emit(os, name + " chaos", kernel, [&bench] { return chaos_factory(bench); },
         space, {}, {}, true);

    transform::NpConfig bad;
    bad.np_type = ir::NpType::kIntraWarp;
    bad.slave_size = 3;
    bad.master_count = tb;
    emit(os, name + " inapplicable", kernel, same, {bad}, {bad}, {}, true);
  }
  return os.str();
}

std::vector<std::string> lines_of(std::istream& in) {
  std::vector<std::string> out;
  for (std::string line; std::getline(in, line);) out.push_back(line);
  return out;
}

TEST(VariantPolicy, MatchesGolden) {
  const std::string text = policy_text();
  std::ofstream("variant_policy.txt") << text;
  std::ifstream golden_file(CUDANP_VARIANT_POLICY_GOLDEN);
  ASSERT_TRUE(golden_file) << "cannot read " << CUDANP_VARIANT_POLICY_GOLDEN;
  const auto golden = lines_of(golden_file);
  std::istringstream text_in(text);
  const auto actual = lines_of(text_in);
  for (std::size_t i = 0; i < std::min(golden.size(), actual.size()); ++i)
    ASSERT_EQ(golden[i], actual[i]) << "line " << i + 1;
  EXPECT_EQ(golden.size(), actual.size());
}

// The fallback policy is validate's report read in candidate order: the
// chosen configuration is the first whose entry transforms and is clean,
// and the baseline is chosen when there is none or when the baseline
// itself does not run clean.
TEST(VariantPolicy, FallbackPicksTheFirstCleanValidateEntry) {
  const auto spec = sim::DeviceSpec::gtx680();
  for (const auto& b : kernels::make_benchmark_suite(kScale)) {
    const kernels::Benchmark& bench = *b;
    SCOPED_TRACE(bench.name());
    const ir::Kernel& kernel = bench.kernel();
    auto factory = [&bench] { return bench.make_workload(); };
    const int tb = static_cast<int>(factory().launch.block.count());
    const FallbackDecision d =
        NpCompiler::compile_with_fallback(kernel, {}, factory, spec).decision;

    // Candidate order: the first choice, then the rest of the
    // enumeration in its order.
    auto candidates = NpCompiler::enumerate_configs(kernel, tb, spec);
    auto first = std::find_if(
        candidates.begin(), candidates.end(),
        [&](const transform::NpConfig& c) {
          return c.describe() == d.first_choice;
        });
    if (first != candidates.end())
      std::rotate(candidates.begin(), first, first + 1);
    const ValidationReport report =
        NpCompiler::validate(kernel, candidates, factory, spec);

    std::string expected;
    if (report.baseline_ran && report.baseline_hazards.empty()) {
      for (const auto& e : report.entries) {
        if (e.transform_ok && e.clean()) {
          expected = e.config;
          break;
        }
      }
    }
    EXPECT_EQ(d.used_baseline, expected.empty()) << d.summary();
    EXPECT_EQ(d.chosen_config, expected) << d.summary();
  }
}

// A baseline that trips its watchdog is no reference: validate runs the
// variants unchecked and says so, and never blames one of them for
// differing from the aborted baseline's partial outputs.
TEST(VariantPolicy, AnAbortedBaselineIsNoReference) {
  const auto spec = sim::DeviceSpec::gtx680();
  for (const auto& b : kernels::make_benchmark_suite(kScale)) {
    if (b->name() != "LU") continue;
    const kernels::Benchmark& bench = *b;
    const ir::Kernel& kernel = bench.kernel();
    auto factory = [&bench] { return bench.make_workload(); };
    const int tb = static_cast<int>(factory().launch.block.count());
    ValidationOptions tight;
    tight.interp.limits.max_steps_per_block = 2000;
    const ValidationReport report = NpCompiler::validate(
        kernel, NpCompiler::config_space(kernel, tb, spec), factory, spec,
        tight);
    ASSERT_FALSE(report.baseline_hazards.empty());
    EXPECT_EQ(report.baseline_hazards.front().kind,
              sim::HazardKind::kWatchdogTrip);
    EXPECT_FALSE(report.all_clean());
    const std::string summary = report.summary();
    EXPECT_EQ(summary.find("OUTPUT MISMATCH"), std::string::npos) << summary;
    int unchecked = 0;
    for (const auto& e : report.entries) {
      if (!e.ran) continue;
      ++unchecked;
      EXPECT_FALSE(e.outputs_match) << e.config;
      EXPECT_EQ(e.mismatch, "no reference: the baseline failed (watchdog-trip)")
          << e.config;
      EXPECT_NE(summary.find(e.config + ": " + e.mismatch), std::string::npos)
          << summary;
    }
    EXPECT_EQ(unchecked, 10);
  }
}

}  // namespace
}  // namespace cudanp::np
