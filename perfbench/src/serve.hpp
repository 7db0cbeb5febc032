// The `serve-cold` and `serve-warm` workloads (see README.md).
#pragma once

#include <string>

#include "common.hpp"

namespace perfbench {

/// Runs a serve workload against a live `cudanp-cc --serve` daemon.
/// Untraced prints the end-to-end metrics; traced also replays the
/// served jobs in-process through each layer's public functions and
/// prints the per-layer ones.
[[nodiscard]] Result run_serve(const Options& opt);

/// The expected-outcome table of the serve pools
/// (perfbench --emit-serve-golden).
[[nodiscard]] std::string serve_golden_text(const Options& opt);

}  // namespace perfbench
