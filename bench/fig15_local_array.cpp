// Figure 15: comparing the three ways to re-home a live local-memory
// array (paper Sec. 3.3) on LE and LIB, the two benchmarks where all
// three apply.
//
// Paper: global memory does not help (off-chip vs L1-cached local);
// shared memory helps LIB but hurts LE (LE's array is ~2x larger, so the
// shared-memory pressure kills occupancy); the register-file partition is
// best for both.
#include "bench_common.hpp"

using namespace cudanp;

int main(int argc, char** argv) {
  auto opt = bench::BenchOptions::parse(argc, argv);
  auto spec = sim::DeviceSpec::gtx680();
  bench::print_header(
      "Figure 15: local-array placement (speedup over baseline, best "
      "slave size per placement)",
      "register > shared (helps LIB, hurts LE) > global",
      spec, opt);

  Table table({"benchmark", "placement", "best speedup", "best config",
               "notes"});
  const std::vector<int> sizes = {2, 4, 8, 16};
  const transform::LocalPlacement placements[] = {
      transform::LocalPlacement::kRegister, transform::LocalPlacement::kShared,
      transform::LocalPlacement::kGlobal};

  for (const char* name : {"LE", "LIB"}) {
    auto bench = kernels::make_benchmark(name, opt.scale);
    transform::NpConfig base;
    base.master_count =
        static_cast<int>(bench->make_workload().launch.block.count());
    np::TuneOptions sweep;  // one inter+intra grid per placement
    for (auto placement : placements) {
      base.placement = placement;
      for (const auto& cfg : bench::config_grid(base, sizes))
        sweep.configs.push_back(cfg);
    }
    const auto tune = bench::tune_benchmark(*bench, spec, sweep);

    const std::size_t per_placement = 2 * sizes.size();
    for (std::size_t p = 0; p < std::size(placements); ++p) {
      const std::size_t first = p * per_placement;
      const np::TuneEntry* best = bench::fastest(tune, first, per_placement);
      // With nothing applicable, say why the last configuration failed.
      table.add_row(
          {name, transform::to_string(placements[p]),
           best ? bench::fmt(tune.baseline_seconds / best->seconds, 3) + "x"
                : "-",
           best ? best->config.describe() : "(none applicable)",
           best ? "" : bench::failure_detail(tune, first + per_placement - 1)
                           .substr(0, 48)});
      std::fflush(stdout);
    }
  }
  table.print(std::cout);
  return 0;
}
