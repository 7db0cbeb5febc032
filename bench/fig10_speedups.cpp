// Figure 10: speedup of the auto-tuned CUDA-NP version over the baseline
// for every benchmark, plus the geometric mean.
//
// Paper: 1.36x - 6.69x, geometric mean 2.18x across the ten benchmarks.
#include <vector>

#include "bench_common.hpp"

using namespace cudanp;

int main(int argc, char** argv) {
  auto opt = bench::BenchOptions::parse(argc, argv);
  auto spec = sim::DeviceSpec::gtx680();
  bench::print_header(
      "Figure 10: CUDA-NP speedup over baseline (auto-tuned)",
      "speedups 1.36x-6.69x, GM 2.18x; every benchmark improves",
      spec, opt);

  Table table({"Name", "baseline us", "CUDA-NP us", "speedup",
               "best configuration"});
  std::vector<double> speedups;
  for (auto& b : kernels::make_benchmark_suite(opt.scale)) {
    auto tune = bench::tune_benchmark(*b, spec);
    double sp = tune.best_speedup();
    speedups.push_back(sp);
    table.add_row({b->name(), bench::fmt(tune.baseline_seconds * 1e6, 4),
                   bench::fmt(tune.best_seconds() * 1e6, 4),
                   bench::fmt(sp, 3) + "x",
                   tune.best_config() ? tune.best_config()->describe()
                                      : "(baseline)"});
    std::fflush(stdout);
  }
  auto s = summarize(speedups);
  table.add_row({"GM", "", "", bench::fmt(s.geomean, 3) + "x",
                 "paper GM: 2.18x (range 1.36-6.69)"});
  table.print(std::cout);

  std::printf("\nmeasured range: %.2fx - %.2fx, GM %.2fx\n", s.min, s.max,
              s.geomean);
  return 0;
}
