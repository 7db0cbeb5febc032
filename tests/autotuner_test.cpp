#include <gtest/gtest.h>

#include "kernels/benchmark.hpp"
#include "kernels/suite.hpp"
#include "np/autotuner.hpp"

namespace cudanp::np {
namespace {

using transform::NpConfig;

Runner make_runner() { return Runner(sim::DeviceSpec::gtx680()); }

TEST(CompilerFacade, ParseAndTransform) {
  auto prog = NpCompiler::parse(
      "__global__ void k(float* a, int n) {\n"
      "float s = 0.0f;\n"
      "#pragma np parallel for reduction(+:s)\n"
      "for (int i = 0; i < n; i++) s += a[i];\n"
      "a[0] = s; }");
  ASSERT_NE(prog->find_kernel("k"), nullptr);
  NpConfig cfg;
  cfg.slave_size = 4;
  cfg.master_count = 32;
  auto variant = NpCompiler::transform(*prog->find_kernel("k"), cfg);
  EXPECT_EQ(variant.kernel->name, "k_np");
}

TEST(EnumerateConfigs, RespectsBlockSizeCap) {
  auto prog = NpCompiler::parse(
      "__global__ void k(float* a, int n) {\n"
      "#pragma np parallel for\n"
      "for (int i = 0; i < n; i++) a[i] = 0.0f; }");
  auto spec = sim::DeviceSpec::gtx680();
  auto c32 = NpCompiler::enumerate_configs(*prog->find_kernel("k"), 32, spec);
  auto c512 = NpCompiler::enumerate_configs(*prog->find_kernel("k"), 512, spec);
  EXPECT_GT(c32.size(), c512.size());
  for (const auto& c : c512)
    EXPECT_LE(c.block_threads(), spec.max_threads_per_block);
}

TEST(EnumerateConfigs, HonorsPragmaHints) {
  auto prog = NpCompiler::parse(
      "__global__ void k(float* a, int n) {\n"
      "#pragma np parallel for num_threads(8) np_type(inter)\n"
      "for (int i = 0; i < n; i++) a[i] = 0.0f; }");
  auto configs = NpCompiler::enumerate_configs(
      *prog->find_kernel("k"), 32, sim::DeviceSpec::gtx680());
  ASSERT_EQ(configs.size(), 1u);
  EXPECT_EQ(configs[0].slave_size, 8);
  EXPECT_EQ(configs[0].np_type, ir::NpType::kInterWarp);
}

TEST(EnumerateConfigs, IntraWarpRequiresWarpDivisor) {
  auto prog = NpCompiler::parse(
      "__global__ void k(float* a, int n) {\n"
      "#pragma np parallel for np_type(intra)\n"
      "for (int i = 0; i < n; i++) a[i] = 0.0f; }");
  auto configs = NpCompiler::enumerate_configs(
      *prog->find_kernel("k"), 16, sim::DeviceSpec::gtx680());
  for (const auto& c : configs) EXPECT_EQ(32 % c.slave_size, 0);
}

TEST(Autotuner, FindsAWinnerOnTmv) {
  auto bench = kernels::make_tmv(256, 256);
  Autotuner tuner(make_runner());
  auto result =
      tuner.tune(bench->kernel(), [&] { return bench->make_workload(); });
  EXPECT_GT(result.baseline_seconds, 0.0);
  ASSERT_GE(result.best, 0);
  EXPECT_GT(result.best_speedup(), 1.0);
  EXPECT_NE(result.best_config(), nullptr);
  // Every enumerated entry either succeeded or carries a reason.
  for (const auto& e : result.entries)
    EXPECT_TRUE(e.ok || !e.note.empty());
}

TEST(Autotuner, BestEntryHasMinimalTime) {
  auto bench = kernels::make_nn(128, 512);
  Autotuner tuner(make_runner());
  auto result =
      tuner.tune(bench->kernel(), [&] { return bench->make_workload(); });
  ASSERT_GE(result.best, 0);
  double best = result.entries[static_cast<std::size_t>(result.best)].seconds;
  for (const auto& e : result.entries)
    if (e.ok) EXPECT_GE(e.seconds, best);
}

TEST(Autotuner, ExplicitConfigListRestrictsSearch) {
  auto bench = kernels::make_tmv(128, 128);
  Autotuner tuner(make_runner());
  TuneOptions opts;
  NpConfig only;
  only.np_type = ir::NpType::kInterWarp;
  only.slave_size = 4;
  only.master_count = 32;
  opts.configs = {only};
  auto result =
      tuner.tune(bench->kernel(), [&] { return bench->make_workload(); },
                 opts);
  ASSERT_EQ(result.entries.size(), 1u);
  EXPECT_TRUE(result.entries[0].ok);
}

TEST(Autotuner, InvalidConfigRecordedNotThrown) {
  auto bench = kernels::make_tmv(128, 128);
  Autotuner tuner(make_runner());
  TuneOptions opts;
  NpConfig bad;
  bad.np_type = ir::NpType::kIntraWarp;
  bad.slave_size = 3;  // not a power of two
  bad.master_count = 32;
  opts.configs = {bad};
  auto result =
      tuner.tune(bench->kernel(), [&] { return bench->make_workload(); },
                 opts);
  ASSERT_EQ(result.entries.size(), 1u);
  EXPECT_FALSE(result.entries[0].ok);
  EXPECT_NE(result.entries[0].note.find("transform failed"),
            std::string::npos);
  EXPECT_EQ(result.best, -1);
  EXPECT_DOUBLE_EQ(result.best_speedup(), 1.0);  // falls back to baseline
}

TEST(Autotuner, CallsTheFactoryOnce) {
  auto bench = kernels::make_tmv(128, 128);
  Autotuner tuner(make_runner());
  int calls = 0;
  auto result = tuner.tune(bench->kernel(), [&] {
    ++calls;
    return bench->make_workload();
  });
  EXPECT_EQ(calls, 1);
  EXPECT_GT(result.entries.size(), 1u);
}

/// Autotuner::tune as a loop that gives the baseline, the config probe
/// and every variant a fresh workload from the factory.
TuneResult tune_on_fresh_workloads(const Runner& runner,
                                   const ir::Kernel& kernel,
                                   const WorkloadFactory& make) {
  TuneResult r;
  {
    Workload w = make();
    auto run = runner.execute(ExecutionRequest::baseline(kernel, w)).run;
    r.baseline_seconds = run.timing.seconds;
    r.baseline_occupancy = run.occupancy;
    r.baseline_stats = run.stats;
    std::string msg;
    EXPECT_TRUE(w.validate(*w.mem, &msg)) << msg;
  }
  const Workload probe = make();
  for (const auto& cfg : NpCompiler::enumerate_configs(
           kernel, static_cast<int>(probe.launch.block.count()),
           runner.spec())) {
    TuneEntry e;
    e.config = cfg;
    try {
      auto variant = NpCompiler::transform(kernel, cfg);
      Workload w = make();
      auto run = runner.execute(ExecutionRequest::transformed(variant, w)).run;
      std::string msg;
      if (!w.validate(*w.mem, &msg)) {
        e.note = "validation failed: " + msg;
      } else {
        e.ok = true;
        e.seconds = run.timing.seconds;
        e.occupancy = run.occupancy;
        e.timing = run.timing;
        e.stats = run.stats;
        for (const auto& [arr, placement] : variant.placements)
          e.note += arr + "->" + transform::to_string(placement) + " ";
      }
    } catch (const CompileError& err) {
      e.note = std::string("transform failed: ") + err.what();
    } catch (const sim::WatchdogError& err) {
      e.note = std::string("watchdog tripped: ") + err.what();
    } catch (const SimError& err) {
      e.note = std::string("run failed: ") + err.what();
    }
    if (e.ok && (r.best < 0 ||
                 e.seconds < r.entries[static_cast<std::size_t>(r.best)]
                                 .seconds))
      r.best = static_cast<int>(r.entries.size());
    r.entries.push_back(std::move(e));
  }
  return r;
}

void expect_same(const sim::KernelStats& a, const sim::KernelStats& b) {
  EXPECT_EQ(a.blocks, b.blocks);
  EXPECT_EQ(a.warps, b.warps);
  EXPECT_EQ(a.issue_slots, b.issue_slots);
  EXPECT_EQ(a.dram_transactions, b.dram_transactions);
  EXPECT_EQ(a.global_transactions, b.global_transactions);
  EXPECT_EQ(a.local_transactions, b.local_transactions);
  EXPECT_EQ(a.local_l1_misses, b.local_l1_misses);
  EXPECT_EQ(a.smem_accesses, b.smem_accesses);
  EXPECT_EQ(a.smem_replays, b.smem_replays);
  EXPECT_EQ(a.shfl_ops, b.shfl_ops);
  EXPECT_EQ(a.sync_ops, b.sync_ops);
  EXPECT_EQ(a.divergent_branches, b.divergent_branches);
  EXPECT_EQ(a.crit_path_cycles, b.crit_path_cycles);
}

void expect_same(const sim::Occupancy& a, const sim::Occupancy& b) {
  EXPECT_EQ(a.threads_per_block, b.threads_per_block);
  EXPECT_EQ(a.blocks_per_smx, b.blocks_per_smx);
  EXPECT_EQ(a.warps_per_block, b.warps_per_block);
  EXPECT_EQ(a.active_warps, b.active_warps);
  EXPECT_EQ(a.limit_blocks, b.limit_blocks);
  EXPECT_EQ(a.limit_threads, b.limit_threads);
  EXPECT_EQ(a.limit_registers, b.limit_registers);
  EXPECT_EQ(a.limit_shared_mem, b.limit_shared_mem);
  EXPECT_EQ(a.limiting_factor, b.limiting_factor);
}

TEST(Autotuner, SharedWorkloadMatchesFreshWorkloadPerRun) {
  Runner runner = make_runner();
  Autotuner tuner(runner);
  for (const char* name : {"TMV", "LU", "NN"}) {
    SCOPED_TRACE(name);
    auto bench = kernels::make_benchmark(name, 0.1);
    auto make = [&] { return bench->make_workload(); };
    const TuneResult got = tuner.tune(bench->kernel(), make);
    const TuneResult want =
        tune_on_fresh_workloads(runner, bench->kernel(), make);
    EXPECT_EQ(got.baseline_seconds, want.baseline_seconds);
    expect_same(got.baseline_occupancy, want.baseline_occupancy);
    expect_same(got.baseline_stats, want.baseline_stats);
    EXPECT_EQ(got.best, want.best);
    ASSERT_EQ(got.entries.size(), want.entries.size());
    for (std::size_t i = 0; i < got.entries.size(); ++i) {
      const TuneEntry& g = got.entries[i];
      const TuneEntry& w = want.entries[i];
      SCOPED_TRACE(w.config.describe());
      EXPECT_EQ(g.config.describe(), w.config.describe());
      EXPECT_EQ(g.ok, w.ok);
      EXPECT_EQ(g.note, w.note);
      EXPECT_EQ(g.seconds, w.seconds);
      expect_same(g.occupancy, w.occupancy);
      EXPECT_EQ(g.timing.seconds, w.timing.seconds);
      EXPECT_EQ(g.timing.waves, w.timing.waves);
      EXPECT_EQ(g.timing.t_issue_cycles, w.timing.t_issue_cycles);
      EXPECT_EQ(g.timing.t_dram_cycles, w.timing.t_dram_cycles);
      EXPECT_EQ(g.timing.t_smem_cycles, w.timing.t_smem_cycles);
      EXPECT_EQ(g.timing.t_crit_cycles, w.timing.t_crit_cycles);
      EXPECT_EQ(std::string(g.timing.bound), std::string(w.timing.bound));
      expect_same(g.stats, w.stats);
    }
    // A failure record per failed entry, in entry order.
    std::size_t failed = 0;
    for (const auto& e : want.entries) failed += e.ok ? 0 : 1;
    EXPECT_EQ(got.failures.size(), failed);
  }
}

TEST(Runner, VariantAllocatesExtraBuffers) {
  // LE with a forced-global local array needs one extra buffer per launch.
  auto bench = kernels::make_le(64);
  NpConfig cfg;
  cfg.np_type = ir::NpType::kInterWarp;
  cfg.slave_size = 4;
  cfg.master_count = 32;
  cfg.placement = transform::LocalPlacement::kGlobal;
  auto variant = NpCompiler::transform(bench->kernel(), cfg);
  ASSERT_EQ(variant.extra_buffers.size(), 1u);
  Runner runner = make_runner();
  auto w = bench->make_workload();
  std::size_t before = w.mem->buffer_count();
  auto run = runner.execute(ExecutionRequest::transformed(variant, w)).run;
  EXPECT_EQ(w.mem->buffer_count(), before + 1);
  EXPECT_GT(run.timing.seconds, 0.0);
  std::string msg;
  EXPECT_TRUE(w.validate(*w.mem, &msg)) << msg;
}

}  // namespace
}  // namespace cudanp::np
