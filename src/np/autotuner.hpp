// Auto-tuner: exhaustively evaluates every candidate NP configuration on
// the simulator and picks the fastest (paper Sec. 6: "Since CUDA-NP only
// generates a small number of versions, the optimal version can be found
// by testing these versions exhaustively").
#pragma once

#include <limits>
#include <string>
#include <vector>

#include "np/compiler.hpp"
#include "np/runner.hpp"
#include "np/workload.hpp"

namespace cudanp::np {

struct TuneEntry {
  transform::NpConfig config;
  bool ok = false;
  std::string note;  // failure reason, or placement summary
  double seconds = std::numeric_limits<double>::infinity();
  sim::Occupancy occupancy;
  sim::TimingBreakdown timing;
  sim::KernelStats stats;
};

struct TuneResult {
  double baseline_seconds = 0;
  sim::Occupancy baseline_occupancy;
  sim::KernelStats baseline_stats;
  std::vector<TuneEntry> entries;
  int best = -1;  // index into entries; -1 when nothing beat validation
  /// Structured quarantine records mirroring the failed entries (same
  /// causes as NpCompiler::compile_with_fallback), so sweep harnesses get
  /// a machine-readable account of every disqualified variant.
  std::vector<VariantFailure> failures;

  [[nodiscard]] double best_seconds() const {
    return best >= 0 ? entries[static_cast<std::size_t>(best)].seconds
                     : baseline_seconds;
  }
  [[nodiscard]] double best_speedup() const {
    return baseline_seconds / best_seconds();
  }
  [[nodiscard]] const transform::NpConfig* best_config() const {
    return best >= 0 ? &entries[static_cast<std::size_t>(best)].config
                     : nullptr;
  }
};

struct TuneOptions {
  /// Restrict to these configs instead of enumerate_configs.
  std::vector<transform::NpConfig> configs;
};

class Autotuner {
 public:
  explicit Autotuner(Runner runner) : runner_(std::move(runner)) {}

  /// Tunes `kernel` (its baseline block size is taken from the factory's
  /// launch config). The factory is called once; the baseline and every
  /// variant run unguarded on their own copy of that workload
  /// (Workload::copy), so each run still gets fresh, unshared memory and
  /// outputs do not leak between runs. When the workload has a CPU
  /// validator, a variant producing wrong answers is disqualified and a
  /// baseline producing them throws, as does a baseline run error.
  [[nodiscard]] TuneResult tune(const ir::Kernel& kernel,
                                const WorkloadFactory& make_workload,
                                const TuneOptions& options = {}) const;

  [[nodiscard]] const Runner& runner() const { return runner_; }

 private:
  Runner runner_;
};

}  // namespace cudanp::np
