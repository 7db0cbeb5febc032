// Shared scaffolding for the paper-figure bench binaries.
//
// Every binary regenerates one table or figure from the paper's
// evaluation section and prints (a) the measured rows and (b) the paper's
// reported values where the paper gives them, so shape agreement can be
// checked at a glance. Common flags (--help lists them):
//   --scale=<f>   shrink input sizes (default 1.0 = paper sizes)
//   --quick       equivalent to --scale=0.25
// Any other flag, or a malformed --scale, is a usage error (exit 1).
#pragma once

#include <cstdio>
#include <iostream>
#include <string>

#include "kernels/benchmark.hpp"
#include "kernels/reference_kernels.hpp"
#include "kernels/suite.hpp"
#include "np/autotuner.hpp"
#include "support/flags.hpp"
#include "support/stats.hpp"
#include "support/string_utils.hpp"
#include "support/table.hpp"

namespace cudanp::bench {

struct BenchOptions {
  double scale = 1.0;

  /// Unknown or malformed flags are usage errors (exit 1).
  static BenchOptions parse(int argc, char** argv) {
    BenchOptions opt;
    std::string tool = argv[0];
    tool = tool.substr(tool.find_last_of('/') + 1);
    FlagTable(tool, "usage: " + tool + " [--scale=<f>] [--quick]\n")
        .positive("--scale", "shrink input sizes (1 = paper sizes)",
                  &opt.scale)
        .set("--quick", "equivalent to --scale=0.25", 0.25, &opt.scale)
        .parse(argc, argv);
    return opt;
  }
};

inline void print_header(const char* figure, const char* claim,
                         const BenchOptions& opt) {
  std::printf("==============================================================\n");
  std::printf("%s\n", figure);
  std::printf("Paper claim: %s\n", claim);
  std::printf("Device model: GTX 680 (GK104) simulator; scale=%.2f\n",
              opt.scale);
  std::printf("==============================================================\n\n");
}

/// Autotunes one benchmark and returns the result (validating outputs).
inline np::TuneResult tune_benchmark(const kernels::Benchmark& bench,
                                     const sim::DeviceSpec& spec,
                                     np::TuneOptions opts = {}) {
  np::Autotuner tuner{np::Runner(spec)};
  return tuner.tune(bench.kernel(), [&] { return bench.make_workload(); },
                    opts);
}

/// Runs one kernel (no NP) and returns simulated seconds.
inline double run_baseline_seconds(const kernels::Benchmark& bench,
                                   const sim::DeviceSpec& spec) {
  np::Runner runner(spec);
  auto w = bench.make_workload();
  auto r =
      runner.execute(np::ExecutionRequest::baseline(bench.kernel(), w)).run;
  std::string msg;
  if (w.validate && !w.validate(*w.mem, &msg))
    throw SimError(bench.name() + " failed validation: " + msg);
  return r.timing.seconds;
}

inline std::string fmt(double v, int digits = 3) {
  return format_double(v, digits);
}

}  // namespace cudanp::bench
