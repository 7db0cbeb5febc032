// Figure 12: padding vs no-padding on LE (inter-warp NP).
//
// LE's loop count is 150. Power-of-two slave counts require padding the
// loop to a multiple of the group size, which adds idle guarded
// iterations; slave counts that divide 150 exactly (3, 5, 10, 15) need no
// padding. The paper compares adjacent pairs (2P vs 3NP, 4P vs 5NP,
// 8P vs 10NP, 16P vs 15NP) and finds no-padding always wins; the best
// no-padding version reaches 2.25x over baseline.
#include "bench_common.hpp"

using namespace cudanp;

int main(int argc, char** argv) {
  auto opt = bench::BenchOptions::parse(argc, argv);
  auto spec = sim::DeviceSpec::gtx680();
  bench::print_header(
      "Figure 12: impact of padding on LE (inter-warp NP, loop count 150)",
      "no-padding (slave counts dividing 150) beats padding at comparable "
      "slave counts; best version 2.25x over baseline",
      spec, opt);

  auto bench = kernels::make_benchmark("LE", opt.scale);

  struct Pair {
    int padded;
    int unpadded;
  };
  // The paper's comparable-slave-count pairs.
  const Pair pairs[] = {{2, 3}, {4, 5}, {8, 10}, {16, 15}};
  np::TuneOptions sweep;  // per pair: padded, then unpadded
  for (const auto& p : pairs) {
    for (int slave : {p.padded, p.unpadded}) {
      transform::NpConfig cfg;
      cfg.np_type = ir::NpType::kInterWarp;
      cfg.slave_size = slave;
      cfg.master_count = 32;
      cfg.pad_loops = slave == p.padded;
      sweep.configs.push_back(cfg);
    }
  }
  const auto tune = bench::tune_benchmark(*bench, spec, sweep);
  auto speedup = [&](std::size_t i) {
    const np::TuneEntry& e = tune.entries[i];
    return e.ok ? tune.baseline_seconds / e.seconds : 0.0;
  };
  auto cell = [](double sp) { return sp > 0 ? bench::fmt(sp, 3) + "x" : "-"; };

  Table table({"pair", "padded (P)", "speedup", "no padding (NP)",
               "speedup", "NP wins?"});
  double best = 0;
  for (std::size_t k = 0; k < std::size(pairs); ++k) {
    const Pair& p = pairs[k];
    double sp_p = speedup(2 * k);
    double sp_np = speedup(2 * k + 1);
    best = std::max({best, sp_p, sp_np});
    table.add_row({std::to_string(p.padded) + "P vs " +
                       std::to_string(p.unpadded) + "NP",
                   std::to_string(p.padded) + " slaves (pad 150->" +
                       std::to_string((150 + p.padded - 1) / p.padded *
                                      p.padded) +
                       ")",
                   cell(sp_p), std::to_string(p.unpadded) + " slaves",
                   cell(sp_np), sp_np > sp_p ? "yes" : "no"});
  }
  table.print(std::cout);
  bench::print_faults(tune);
  std::printf("\nbest LE speedup over baseline: %.2fx (paper: 2.25x)\n",
              best);
  return 0;
}
