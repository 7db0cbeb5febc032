// NpTransformer: the CUDA-NP compiler algorithm (paper Fig. 7).
//
// Given a kernel with `#pragma np parallel for` annotations and an
// NpConfig (inter/intra warp, slave_size, local-array placement), it
// produces a new kernel in which:
//   - the thread block grows a slave dimension (Sec. 3 / Fig. 3);
//   - sequential statements either run redundantly in all group threads
//     (group-uniform pure arithmetic, Sec. 3.1) or are guarded with
//     `if (slave_id == 0)`;
//   - scalar live-ins are broadcast master -> slaves via __shfl or shared
//     memory (Sec. 3.1);
//   - parallel loops are distributed cyclically over the group (Fig. 3b),
//     or in contiguous chunks for scan loops;
//   - reduction / scan / select live-outs are combined back (Sec. 3.2);
//   - live local arrays are re-homed to global memory, shared memory, or
//     per-slave register partitions (Sec. 3.3).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "ir/kernel.hpp"
#include "sim/launch.hpp"
#include "support/diagnostics.hpp"
#include "transform/np_config.hpp"

namespace cudanp::transform {

struct TransformResult {
  std::unique_ptr<ir::Kernel> kernel;
  /// Block dimensions for launching the transformed kernel; the grid is
  /// unchanged from the baseline launch.
  sim::Dim3 block_dims;
  /// Buffers the host must allocate for globally re-homed local arrays.
  std::vector<ExtraBuffer> extra_buffers;
  NpConfig config;
  /// Human-readable log of decisions (placements, broadcasts, ...).
  std::vector<std::string> notes;
  /// Per-array placement actually chosen (after kAuto resolution).
  std::vector<std::pair<std::string, LocalPlacement>> placements;
};

/// The kernel's first call of a __shfl builtin, or null. Intra-warp NP
/// moves each master to threadIdx.y and packs its slaves into the lanes
/// of one warp, so a __shfl the kernel makes itself would read another
/// master's thread: apply_np_transform rejects intra-warp for such a
/// kernel, and np::NpCompiler::enumerate_configs does not offer it.
[[nodiscard]] const ir::CallExpr* first_shfl_call(const ir::Kernel& kernel);

/// Transforms `kernel` under `config`. Throws CompileError on invalid
/// configurations or unsupported kernel shapes; accumulates warnings in
/// `diags`.
[[nodiscard]] TransformResult apply_np_transform(const ir::Kernel& kernel,
                                                 const NpConfig& config,
                                                 cudanp::DiagnosticEngine& diags);

}  // namespace cudanp::transform
