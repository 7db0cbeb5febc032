// Bytecode VM: the kernel engine.
//
// Executes the flat instruction stream produced by sim/bytecode.cpp with
// a dispatch loop over SoA lane state — virtual registers are plain
// int64 / double lane arrays typed by the lowering, masks are per-warp
// active words — so a launch pays no per-node heap allocation and no
// recursion. All semantics (charges, watchdog, sanitizer, errors) come
// from exec::BlockCore; every control op forwards to the region stack
// the symbolic executor shares (exec::Regions, sim/lanes.hpp), and the
// VM supplies only the concrete mask split of an if.
//
// Implementation detail of sim/; include only from the interpreter and
// tests.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/binder.hpp"
#include "sim/bytecode.hpp"
#include "sim/exec_core.hpp"
#include "sim/interpreter.hpp"
#include "sim/launch.hpp"
#include "sim/memory.hpp"

namespace cudanp::sim::vm {

/// Per kernel parameter, the element type of the buffer bound to it by
/// `cfg` (the declared type for non-pointer parameters and arguments that
/// are no valid buffer): what bytecode::lower types buffer loads with.
[[nodiscard]] std::vector<ir::ScalarType> buffer_types(
    const ir::Kernel& kernel, const LaunchConfig& cfg,
    const DeviceMemory& mem);

/// Runs one block of a launch over the lowered program and returns its
/// stats; hazards go to `san`. Throws SimError when a pointer argument's
/// buffer has an element type other than the one `program` was lowered
/// for.
[[nodiscard]] KernelStats run_block(const bytecode::Program& program,
                                    const DeviceSpec& spec, DeviceMemory& mem,
                                    const Interpreter::Options& opt,
                                    const BoundKernel& bound,
                                    const LaunchConfig& cfg, Dim3 block_idx,
                                    int resident_blocks,
                                    exec::BlockSanitizer* san,
                                    std::int64_t flat_block,
                                    std::int64_t max_steps);

}  // namespace cudanp::sim::vm
