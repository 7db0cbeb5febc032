// Quickstart: compile a kernel with a `#pragma np` annotation, inspect
// the transformed source, and measure the speedup on the simulated GPU.
//
//   $ ./examples/quickstart
//
// This walks through the full CUDA-NP pipeline on the paper's running
// example (transposed-matrix-vector multiplication, Fig. 2/3).
#include <cstdio>
#include <iostream>

#include "frontend/parser.hpp"
#include "ir/printer.hpp"
#include "np/autotuner.hpp"
#include "support/rng.hpp"

using namespace cudanp;

// The paper's Fig. 2 kernel, annotated with one CUDA-NP pragma: the dot
// product loop is parallel with a sum reduction.
static const char* kSource = R"(
__global__ void tmv(float* a, float* b, float* c, int w, int h) {
  float sum = 0.0f;
  int tx = threadIdx.x + blockIdx.x * blockDim.x;
  #pragma np parallel for reduction(+:sum)
  for (int i = 0; i < h; i++)
    sum += a[i * w + tx] * b[i];
  c[tx] = sum;
}
)";

int main() {
  const int w = 1024, h = 1024;

  // 1. Parse the annotated kernel.
  auto program = np::NpCompiler::parse(kSource);
  const ir::Kernel& kernel = *program->find_kernel("tmv");
  std::printf("parsed kernel '%s' with %zu parallel loop(s)\n\n",
              kernel.name.c_str(), kernel.parallel_loop_count());

  // 2. Apply one NP transformation and show the source-to-source output.
  transform::NpConfig cfg;
  cfg.np_type = ir::NpType::kIntraWarp;  // slaves share the master's warp
  cfg.slave_size = 4;                    // 1 master + 3 slaves
  cfg.master_count = 32;                 // baseline thread-block size
  auto variant = np::NpCompiler::transform(kernel, cfg);
  std::printf("---- transformed kernel (%s) ----\n%s\n",
              cfg.describe().c_str(),
              ir::print_kernel(*variant.kernel).c_str());

  // 3. Build a workload: device buffers + launch config. It attaches no
  //    CPU validator, so the tuner checks no outputs.
  auto make_workload = [&] {
    np::Workload wl;
    auto A = wl.mem->alloc(ir::ScalarType::kFloat,
                           static_cast<std::size_t>(w) * h);
    auto B = wl.mem->alloc(ir::ScalarType::kFloat, h);
    auto C = wl.mem->alloc(ir::ScalarType::kFloat, w);
    SplitMix64 rng(1);
    for (auto& x : wl.mem->buffer(A).f32()) x = rng.next_float(-1, 1);
    for (auto& x : wl.mem->buffer(B).f32()) x = rng.next_float(-1, 1);
    wl.launch.grid = {w / 32, 1, 1};
    wl.launch.block = {32, 1, 1};
    wl.launch.args = {A, B, C, sim::Value::of_int(w), sim::Value::of_int(h)};
    return wl;
  };

  // 4. Auto-tune: try every legal {inter,intra} x slave_size variant on
  //    the simulated GTX 680 and pick the fastest (paper Sec. 6).
  np::Autotuner tuner{np::Runner(sim::DeviceSpec::gtx680())};
  auto result = tuner.tune(kernel, make_workload);

  std::printf("baseline: %.1f us\n", result.baseline_seconds * 1e6);
  for (const auto& e : result.entries) {
    if (e.ok)
      std::printf("  %-46s %8.1f us  (%.2fx)\n", e.config.describe().c_str(),
                  e.seconds * 1e6, result.baseline_seconds / e.seconds);
    else
      std::printf("  %-46s skipped: %s\n", e.config.describe().c_str(),
                  e.note.c_str());
  }
  std::printf("\nbest: %s -> %.2fx speedup\n",
              result.best_config() ? result.best_config()->describe().c_str()
                                   : "(baseline)",
              result.best_speedup());
  return 0;
}
