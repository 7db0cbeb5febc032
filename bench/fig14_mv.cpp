// Figure 14: MV on GTX 680 for matrices with variable heights and a
// constant width (2K), against the CUBLAS-style gemv-N and the SMM [42]
// reference.
//
// Paper: CUDA-NP always outperforms both SMM and CUBLAS; the height sets
// the baseline's total thread count, so small heights favor CUDA-NP most.
#include "bench_common.hpp"

using namespace cudanp;

int main(int argc, char** argv) {
  auto opt = bench::BenchOptions::parse(argc, argv);
  auto spec = sim::DeviceSpec::gtx680();
  bench::print_header(
      "Figure 14: MV vs CUBLAS-style gemv-N and SMM across heights "
      "(width 2K)",
      "CUDA-NP > SMM > CUBLAS across all heights",
      spec, opt);

  const int width = std::max(static_cast<int>(2048 * opt.scale) / 32 * 32, 64);
  Table table({"height", "baseline us", "cublas us", "SMM us", "CUDA-NP us",
               "NP vs cublas", "NP vs SMM"});

  // Restricted tuning (see fig13: the paper reports 3/7 slaves are
  // close-to-optimal everywhere).
  transform::NpConfig base;
  base.master_count = 32;
  const np::TuneOptions sweep{bench::config_grid(base, {4, 8, 16})};

  for (int h : bench::scaled_sizes({1024, 4096, 16384, 65536}, opt.scale,
                                   256)) {
    auto baseline = kernels::make_mv(width, h);
    auto cublas = kernels::make_mv_cublas(width, h);
    auto smm = kernels::make_mv_smm(width, h);
    auto tune = bench::tune_benchmark(*baseline, spec, sweep);
    double base_s = tune.baseline_seconds;
    double cublas_s = bench::run_baseline_seconds(*cublas, spec);
    double smm_s = bench::run_baseline_seconds(*smm, spec);
    double np_s = tune.best_seconds();
    table.add_row({std::to_string(h), bench::fmt(base_s * 1e6, 4),
                   bench::fmt(cublas_s * 1e6, 4), bench::fmt(smm_s * 1e6, 4),
                   bench::fmt(np_s * 1e6, 4),
                   bench::fmt(cublas_s / np_s, 3) + "x",
                   bench::fmt(smm_s / np_s, 3) + "x"});
    std::fflush(stdout);
  }
  table.print(std::cout);
  return 0;
}
