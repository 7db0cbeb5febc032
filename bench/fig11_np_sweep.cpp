// Figure 11: inter-warp vs intra-warp NP across slave sizes.
//
// Paper observations this bench regenerates:
//  - LU and NN are the only benchmarks where intra-warp beats inter-warp
//    (LU: the `master_id < 16` divergence disappears intra-warp; NN:
//    memory-access pattern);
//  - MC/LIB/LE suffer slave imbalance intra-warp (loop counts 12/80/150
//    do not divide the power-of-two group sizes);
//  - larger slave counts eventually stop helping (CFD with LC=4 most
//    visibly).
#include "bench_common.hpp"

using namespace cudanp;

int main(int argc, char** argv) {
  auto opt = bench::BenchOptions::parse(argc, argv);
  auto spec = sim::DeviceSpec::gtx680();
  bench::print_header(
      "Figure 11: inter-warp vs intra-warp NP across slave sizes "
      "(speedup over baseline; '-' = configuration not applicable)",
      "intra wins only for LU and NN; more slaves is not always better",
      spec, opt);

  const std::vector<int> sizes = {2, 4, 8, 16, 32};
  std::vector<std::string> header = {"Name", "type"};
  for (int s : sizes) header.push_back("S=" + std::to_string(s));
  Table table(header);

  for (auto& b : kernels::make_benchmark_suite(opt.scale)) {
    transform::NpConfig base;
    base.master_count =
        static_cast<int>(b->make_workload().launch.block.count());
    auto tune =
        bench::tune_benchmark(*b, spec, {bench::config_grid(base, sizes)});
    bench::print_faults(tune);
    std::size_t i = 0;
    for (const char* type : {"inter", "intra"}) {
      std::vector<std::string> row = {b->name(), type};
      for (std::size_t k = 0; k < sizes.size(); ++k, ++i) {
        const np::TuneEntry& e = tune.entries[i];
        row.push_back(e.ok ? bench::fmt(tune.baseline_seconds / e.seconds, 3)
                           : "-");
      }
      table.add_row(std::move(row));
    }
    std::fflush(stdout);
  }
  table.print(std::cout);
  return 0;
}
