// A Workload is everything needed to launch one kernel on the simulator:
// device memory with inputs filled in, the baseline launch geometry, and
// an optional output validator (CPU reference check).
#pragma once

#include <functional>
#include <memory>
#include <string>

#include "sim/launch.hpp"
#include "sim/memory.hpp"

namespace cudanp::np {

/// Checks device outputs against a reference (a CPU reference, or a
/// baseline run's buffers); returns true when they match and fills `msg`
/// with a description on mismatch.
using OutputCheck =
    std::function<bool(const sim::DeviceMemory& got, std::string* msg)>;

struct Workload {
  std::unique_ptr<sim::DeviceMemory> mem = std::make_unique<sim::DeviceMemory>();
  sim::LaunchConfig launch;
  /// The CPU reference check; null when not validating.
  OutputCheck validate;

  /// An independent copy: its own device memory (same buffers, ids and
  /// addresses), the same launch and the same validator.
  [[nodiscard]] Workload copy() const {
    Workload w;
    *w.mem = *mem;
    w.launch = launch;
    w.validate = validate;
    return w;
  }
};

using WorkloadFactory = std::function<Workload()>;

}  // namespace cudanp::np
