// Ablation: how much of the exhaustive auto-tuner's benefit does the
// paper's Sec.-6 heuristic (static coalescing/divergence analysis +
// "3 or 7 slaves") capture, at zero tuning cost?
//
// The paper argues the search space is small enough to tune
// exhaustively; this ablation quantifies the alternative it sketches.
#include <algorithm>
#include <vector>

#include "bench_common.hpp"
#include "np/heuristic.hpp"

using namespace cudanp;

int main(int argc, char** argv) {
  auto opt = bench::BenchOptions::parse(argc, argv);
  auto spec = sim::DeviceSpec::gtx680();
  bench::print_header(
      "Ablation: static heuristic pick vs exhaustive auto-tuning",
      "Sec. 6: coalescing/divergence decide inter vs intra; 3 or 7 "
      "slaves are close-to-optimal",
      spec, opt);

  Table table({"Name", "heuristic pick", "rationale", "heuristic speedup",
               "exhaustive best", "captured"});
  std::vector<double> captured;

  for (auto& b : kernels::make_benchmark_suite(opt.scale)) {
    int master = static_cast<int>(b->make_workload().launch.block.count());
    auto choice = np::suggest_config(b->kernel(), master, spec);

    // One exhaustive sweep that also measures the heuristic's pick.
    np::TuneOptions sweep{
        np::NpCompiler::enumerate_configs(b->kernel(), master, spec)};
    const auto pick = static_cast<std::size_t>(
        std::ranges::find(sweep.configs, choice.config.describe(),
                          &transform::NpConfig::describe) -
        sweep.configs.begin());
    if (pick == sweep.configs.size()) sweep.configs.push_back(choice.config);
    auto tune = bench::tune_benchmark(*b, spec, sweep);

    const np::TuneEntry& picked = tune.entries[pick];
    double heuristic_speedup =
        picked.ok ? tune.baseline_seconds / picked.seconds : 0;
    double best = tune.best_speedup();
    double frac = best > 0 ? heuristic_speedup / best : 0;
    captured.push_back(std::max(frac, 1e-6));
    table.add_row({b->name(), choice.config.describe(),
                   choice.rationale.substr(0, 44),
                   picked.ok ? bench::fmt(heuristic_speedup, 3) + "x"
                             : bench::failure_detail(tune, pick).substr(0, 24),
                   bench::fmt(best, 3) + "x",
                   bench::fmt(100 * frac, 3) + "%"});
    std::fflush(stdout);
  }
  table.print(std::cout);
  std::printf(
      "\nGM of captured fraction: %.1f%% — a single static pick vs %s\n",
      100 * geometric_mean(captured),
      "testing every version on the simulator (the paper's approach).");
  return 0;
}
