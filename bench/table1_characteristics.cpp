// Table 1: benchmark characteristics and per-thread resource usage for
// the baseline (BL) and the best CUDA-NP version (OPT).
//
// Columns mirror the paper: PL (number of parallel loops), LC (largest
// loop count), R/S (reduction / scan / neither), and REG/SM/LM bytes per
// thread. Absolute register counts come from our estimator, not ptxas,
// so they track the paper's relative story (which resource limits TLP and
// how CUDA-NP shifts it) rather than its exact numbers.
#include "analysis/resources.hpp"
#include "bench_common.hpp"

using namespace cudanp;

int main(int argc, char** argv) {
  auto opt = bench::BenchOptions::parse(argc, argv);
  auto spec = sim::DeviceSpec::gtx680();
  bench::print_header(
      "Table 1: benchmark characteristics (PL, LC, R/S) and bytes per "
      "thread",
      "small loop counts; LE/LIB/CFD local-memory heavy, LU/MV/SS/BK "
      "shared-memory heavy; CUDA-NP shifts local arrays out of local "
      "memory",
      spec, opt);

  Table table({"Name", "PL", "LC", "R/S", "BL REG B", "BL SM B", "BL LM B",
               "OPT REG B", "OPT SM B", "OPT LM B", "best config"});

  for (auto& bench_ptr : kernels::make_benchmark_suite(opt.scale)) {
    auto& b = *bench_ptr;
    auto row = b.table1();
    auto bl = analysis::estimate_resources(b.kernel(), spec);
    auto workload = b.make_workload();
    int master = static_cast<int>(workload.launch.block.count());

    // Tune and measure the winner's resources.
    auto tune = bench::tune_benchmark(b, spec);
    std::string cfg_text = "(baseline)";
    analysis::ResourceEstimate optr = bl;
    std::int64_t opt_smem_per_block = bl.usage.shared_mem_per_block;
    int opt_threads = master;
    if (tune.best_config()) {
      auto variant = np::NpCompiler::transform(b.kernel(),
                                               *tune.best_config());
      optr = analysis::estimate_resources(*variant.kernel, spec);
      opt_smem_per_block = optr.usage.shared_mem_per_block;
      opt_threads = tune.best_config()->block_threads();
      cfg_text = tune.best_config()->describe();
    }
    table.add_row(
        {b.name(), std::to_string(row.parallel_loops),
         std::to_string(row.max_loop_count), row.reduce_scan,
         std::to_string(bl.usage.registers_per_thread * 4),
         std::to_string(master > 0 ? bl.usage.shared_mem_per_block / master
                                   : 0),
         std::to_string(bl.usage.local_mem_per_thread),
         std::to_string(optr.usage.registers_per_thread * 4),
         std::to_string(opt_threads > 0 ? opt_smem_per_block / opt_threads
                                        : 0),
         std::to_string(optr.usage.local_mem_per_thread), cfg_text});
  }
  table.print(std::cout);
  std::printf(
      "\nPaper Table 1 (for comparison): LE BL LM=600->OPT 24; LIB BL "
      "LM=960->640(global)/0(reg); TMV BL SM=0 -> OPT 4 B/thread; shared-"
      "memory-bound benchmarks (LU/MV/SS/BK) shrink SM per thread.\n");
  return 0;
}
