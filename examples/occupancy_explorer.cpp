// Example: exploring WHY CUDA-NP helps, using the simulator's occupancy
// calculator and timing breakdown.
//
// For one benchmark (default LE) it prints, per slave size, the
// transformed kernel's resource usage, the resident warps per SMX, and
// which term of the timing model bounds the run — making the latency ->
// throughput transition of the paper's Sec. 2.2 argument visible.
#include <cstdio>
#include <iostream>
#include <string>

#include "analysis/resources.hpp"
#include "kernels/benchmark.hpp"
#include "np/compiler.hpp"
#include "support/string_utils.hpp"
#include "support/table.hpp"

using namespace cudanp;

int main(int argc, char** argv) {
  std::string name = argc > 1 ? argv[1] : "LE";
  auto spec = sim::DeviceSpec::gtx680();
  auto bench = kernels::make_benchmark(name, 0.25);
  np::Runner runner(spec);

  // Each version runs on its own copy of one workload, and its outputs
  // are checked against the benchmark's CPU reference.
  const np::Workload pristine = bench->make_workload();
  auto evaluate = [&](const transform::NpConfig* cfg) {
    return np::evaluate_config(
        runner, bench->kernel(), cfg, [&] { return pristine.copy(); },
        pristine.validate, nullptr, nullptr);
  };

  Table table({"version", "threads/blk", "regs", "smemB", "localB",
               "warps/SMX", "bound", "us", "speedup"});

  const auto base = evaluate(nullptr);
  if (base.failure) {
    std::fprintf(stderr, "%s\n", base.failure->str().c_str());
    return 1;
  }
  const int threads = static_cast<int>(pristine.launch.block.count());
  auto base_res = runner.resources(bench->kernel());
  table.add_row({"baseline", std::to_string(threads),
                 std::to_string(base_res.usage.registers_per_thread),
                 std::to_string(base_res.usage.shared_mem_per_block),
                 std::to_string(base_res.usage.local_mem_per_thread),
                 std::to_string(base.run.occupancy.active_warps),
                 base.run.timing.bound,
                 format_double(base.run.timing.seconds * 1e6, 4), "1.00x"});

  for (int s : {2, 4, 8, 16}) {
    transform::NpConfig cfg;
    cfg.np_type = ir::NpType::kInterWarp;
    cfg.slave_size = s;
    cfg.master_count = threads;
    if (cfg.block_threads() > spec.max_threads_per_block) continue;
    const std::string label = "inter S=" + std::to_string(s);
    const auto e = evaluate(&cfg);
    if (e.failure) {
      table.add_row({label, "-", "-", "-", "-", "-", "error",
                     e.failure->detail, "-"});
      continue;
    }
    auto res = runner.resources(*e.variant.kernel);
    table.add_row(
        {label, std::to_string(cfg.block_threads()),
         std::to_string(res.usage.registers_per_thread),
         std::to_string(res.usage.shared_mem_per_block),
         std::to_string(res.usage.local_mem_per_thread),
         std::to_string(e.run.occupancy.active_warps), e.run.timing.bound,
         format_double(e.run.timing.seconds * 1e6, 4),
         format_double(base.run.timing.seconds / e.run.timing.seconds, 3) +
             "x"});
  }
  std::printf("How CUDA-NP shifts '%s' from latency-bound to "
              "throughput-bound (GTX 680 model):\n\n", name.c_str());
  table.print(std::cout);
  return 0;
}
