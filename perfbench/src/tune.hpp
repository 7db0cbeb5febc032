// The `tune` workload (see README.md).
#pragma once

#include <string>

#include "common.hpp"

namespace perfbench {

/// Runs the workload: untraced prints the end-to-end metrics, traced
/// the per-layer ones. The golden-digest gate applies to both.
[[nodiscard]] Result run_tune(const Options& opt);

/// The golden digest of the workload's suite (perfbench --emit-tune-golden).
[[nodiscard]] std::string tune_golden_text(int jobs);

}  // namespace perfbench
