// Figure 13: TMV on GTX 680 for matrices with variable widths and a
// constant height (2K), against the CUBLAS-style library kernel.
//
// Paper: the baseline performs like CUBLAS; CUDA-NP is significantly
// faster everywhere, and most dramatically at small widths where the
// baseline cannot fill the SMXs — 4.9x over CUBLAS at width 1K.
#include "bench_common.hpp"

using namespace cudanp;

int main(int argc, char** argv) {
  auto opt = bench::BenchOptions::parse(argc, argv);
  auto spec = sim::DeviceSpec::gtx680();
  bench::print_header(
      "Figure 13: TMV vs CUBLAS-style gemv-T across widths (height 2K)",
      "baseline ~ CUBLAS; CUDA-NP wins everywhere, up to 4.9x over CUBLAS "
      "at width 1K where baseline TLP is lowest",
      spec, opt);

  const int height = static_cast<int>(2048 * opt.scale) / 32 * 32;
  Table table({"width", "baseline us", "cublas us", "CUDA-NP us",
               "NP vs baseline", "NP vs cublas"});

  // Paper Sec. 6: "using 3 or 7 slave threads achieves close-to-optimal
  // performance for all benchmarks" — the sweep here tunes over the
  // nearby power-of-two sizes to keep the width sweep fast.
  transform::NpConfig base;
  base.master_count = 32;
  const np::TuneOptions sweep{bench::config_grid(base, {4, 8, 16})};

  for (int w : bench::scaled_sizes({512, 1024, 2048, 4096, 8192}, opt.scale,
                                   128)) {
    auto baseline = kernels::make_tmv(w, height);
    auto cublas = kernels::make_tmv_cublas(w, height);
    auto tune = bench::tune_benchmark(*baseline, spec, sweep);
    double base_s = tune.baseline_seconds;
    double cublas_s = bench::run_baseline_seconds(*cublas, spec);
    double np_s = tune.best_seconds();
    table.add_row({std::to_string(w), bench::fmt(base_s * 1e6, 4),
                   bench::fmt(cublas_s * 1e6, 4), bench::fmt(np_s * 1e6, 4),
                   bench::fmt(base_s / np_s, 3) + "x",
                   bench::fmt(cublas_s / np_s, 3) + "x"});
    std::fflush(stdout);
  }
  table.print(std::cout);
  return 0;
}
