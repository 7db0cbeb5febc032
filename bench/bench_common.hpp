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

#include <algorithm>
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

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

/// The figure's banner; `spec` is the device model it simulates.
inline void print_header(const char* figure, const char* claim,
                         const sim::DeviceSpec& spec,
                         const BenchOptions& opt) {
  std::printf("==============================================================\n");
  std::printf("%s\n", figure);
  std::printf("Paper claim: %s\n", claim);
  std::printf("Device model: %s simulator; scale=%.2f\n", spec.name.c_str(),
              opt.scale);
  std::printf("==============================================================\n\n");
}

/// Autotunes one benchmark and returns the result (validating outputs).
/// Every figure that measures an NP variant reads it from here.
inline np::TuneResult tune_benchmark(const kernels::Benchmark& bench,
                                     const sim::DeviceSpec& spec,
                                     np::TuneOptions opts = {}) {
  np::Autotuner tuner{np::Runner(spec)};
  return tuner.tune(bench.kernel(), [&] { return bench.make_workload(); },
                    opts);
}

/// Runs one kernel (no NP) through np::evaluate_config and returns
/// simulated seconds; for the baselines that have no NP variant to tune
/// (library stand-ins, memcopy, the CDP rows).
inline double run_baseline_seconds(const kernels::Benchmark& bench,
                                   const sim::DeviceSpec& spec) {
  const np::Workload pristine = bench.make_workload();
  const np::ConfigEvaluation e = np::evaluate_config(
      np::Runner(spec), bench.kernel(), nullptr,
      [&] { return pristine.copy(); }, pristine.validate, nullptr, nullptr);
  if (e.failure)
    throw SimError(bench.name() + " failed validation: " + e.failure->detail);
  return e.run.timing.seconds;
}

/// `sizes` scaled by `scale` and rounded down to a multiple of `step`
/// (at least one step), each distinct size once: at small scales several
/// sizes round to the same one, which would tune the same problem again.
inline std::vector<int> scaled_sizes(const std::vector<int>& sizes,
                                     double scale, int step) {
  std::vector<int> out;
  for (int s : sizes) {
    const int v = std::max(static_cast<int>(s * scale) / step * step, step);
    if (out.empty() || out.back() != v) out.push_back(v);
  }
  return out;
}

/// The sweep grid the figures tune over: `base` at every slave size in
/// `sizes` for each NP type in `types` (type-major order).
inline std::vector<transform::NpConfig> config_grid(
    transform::NpConfig base, const std::vector<int>& sizes,
    const std::vector<ir::NpType>& types = {ir::NpType::kInterWarp,
                                            ir::NpType::kIntraWarp}) {
  std::vector<transform::NpConfig> configs;
  for (auto type : types) {
    for (int s : sizes) {
      base.np_type = type;
      base.slave_size = s;
      configs.push_back(base);
    }
  }
  return configs;
}

/// The fastest clean entry among tune.entries[first, first + count), or
/// null when none of them ran clean.
inline const np::TuneEntry* fastest(const np::TuneResult& tune,
                                    std::size_t first, std::size_t count) {
  const np::TuneEntry* best = nullptr;
  for (std::size_t i = first; i < first + count; ++i) {
    const np::TuneEntry& e = tune.entries[i];
    if (e.ok && (!best || e.seconds < best->seconds)) best = &e;
  }
  return best;
}

/// Why tune.entries[i] failed: the transform, run or validation error
/// text. TuneResult::failures lists the failed entries in entry order.
inline const std::string& failure_detail(const np::TuneResult& tune,
                                         std::size_t i) {
  std::size_t failed_before = 0;
  for (std::size_t k = 0; k < i; ++k)
    if (!tune.entries[k].ok) ++failed_before;
  return tune.failures[failed_before].detail;
}

/// Prints a note for each variant of `tune` that transformed but failed
/// to run or to validate; a configuration the transform rejects is only
/// inapplicable ('-' in the tables).
inline void print_faults(const np::TuneResult& tune) {
  for (const auto& f : tune.failures)
    if (f.cause != np::FailureCause::kTransformError)
      std::printf("note: %s\n", f.str().c_str());
}

inline std::string fmt(double v, int digits = 3) {
  return format_double(v, digits);
}

}  // namespace cudanp::bench
