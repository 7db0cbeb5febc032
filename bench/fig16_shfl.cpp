// Figure 16: benefit of the __shfl instruction for reduction/scan when
// applying intra-warp NP, normalized to the best inter-warp version.
//
// Paper: shfl helps most on MC and LU (their shared memory is already
// under pressure, so shared-memory reductions hurt occupancy); the impact
// is minor elsewhere because reductions are a small share of runtime.
#include <limits>

#include "bench_common.hpp"

using namespace cudanp;

int main(int argc, char** argv) {
  auto opt = bench::BenchOptions::parse(argc, argv);
  auto spec = sim::DeviceSpec::gtx680();
  bench::print_header(
      "Figure 16: __shfl vs shared-memory reduction/scan under intra-warp "
      "NP (normalized to the best inter-warp version)",
      "shfl is a big win for the smem-pressured MC and LU, minor "
      "elsewhere",
      spec, opt);

  Table table({"benchmark", "best inter us", "intra+smem / inter",
               "intra+shfl / inter", "shfl speedup over smem"});
  const std::vector<int> sizes = {2, 4, 8, 16, 32};

  for (auto& b : kernels::make_benchmark_suite(opt.scale)) {
    if (std::string(b->table1().reduce_scan) == "X") continue;  // needs R/S
    // Inter and intra with shared-memory communication, then intra with
    // __shfl: three slices of sizes.size() entries.
    transform::NpConfig base;
    base.master_count =
        static_cast<int>(b->make_workload().launch.block.count());
    base.use_shfl = false;
    np::TuneOptions sweep{bench::config_grid(base, sizes)};
    base.use_shfl = true;
    for (const auto& cfg :
         bench::config_grid(base, sizes, {ir::NpType::kIntraWarp}))
      sweep.configs.push_back(cfg);
    const auto tune = bench::tune_benchmark(*b, spec, sweep);
    bench::print_faults(tune);

    auto best_time = [&](std::size_t slice) {
      const np::TuneEntry* e =
          bench::fastest(tune, slice * sizes.size(), sizes.size());
      return e ? e->seconds : std::numeric_limits<double>::infinity();
    };
    double inter = best_time(0);
    double intra_smem = best_time(1);
    double intra_shfl = best_time(2);
    table.add_row({b->name(), bench::fmt(inter * 1e6, 4),
                   bench::fmt(inter / intra_smem, 3) + "x",
                   bench::fmt(inter / intra_shfl, 3) + "x",
                   bench::fmt(intra_smem / intra_shfl, 3) + "x"});
    std::fflush(stdout);
  }
  table.print(std::cout);
  return 0;
}
