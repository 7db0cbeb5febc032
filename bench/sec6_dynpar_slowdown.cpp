// Section 6 (text): slowdowns of dynamic-parallelism rewrites.
//
// Paper: CDP versions of NN, TMV, LE, LIB and CFD run 28.92, 7.61,
// 13.45, 125.67 and 52.29 times slower than their baselines, because
// per-master child launches are tiny and parent->child communication must
// round-trip through global memory. (NN optimized to one launch per TB is
// still 3.25x slower.)
#include "bench_common.hpp"
#include "sim/dynpar.hpp"

using namespace cudanp;

namespace {

/// Shape parameters of a CDP rewrite: one child launch per master thread
/// executing the kernel's parallel loops, with the masters' live state
/// round-tripping through global memory.
struct CdpShape {
  const char* name;
  double paper_slowdown;
  /// Live bytes a parent must exchange with its child per launch
  /// (live-ins + live-outs + re-homed local arrays).
  std::int64_t comm_bytes;
};

}  // namespace

int main(int argc, char** argv) {
  auto opt = bench::BenchOptions::parse(argc, argv);
  // The paper ran CDP on the K20c (sm_35); baselines here are simulated
  // on the same device model for a like-for-like ratio.
  auto spec = sim::DeviceSpec::k20c();
  bench::print_header(
      "Section 6: slowdown of dynamic-parallelism versions (K20c model)",
      "NN/TMV/LE/LIB/CFD are 28.92/7.61/13.45/125.67/52.29x slower with "
      "CDP",
      spec, opt);

  sim::DynamicParallelismModel cdp(spec);

  const CdpShape shapes[] = {
      {"NN", 28.92, 16},      // two query coords in, best distance out
      {"TMV", 7.61, 8},       // column index in, dot product out
      {"LE", 13.45, 640},     // 600 B gradient array + scalars
      {"LIB", 125.67, 1024},  // three 320 B path arrays + scalars
      {"CFD", 52.29, 48},     // cell state in, four flux sums out
  };

  Table table({"benchmark", "baseline us", "child launches", "CDP us",
               "slowdown", "paper slowdown"});
  for (const auto& s : shapes) {
    auto bench = kernels::make_benchmark(s.name, opt.scale);
    double baseline = bench::run_baseline_seconds(*bench, spec);
    auto w = bench->make_workload();
    // One child launch per master thread (the paper's straightforward
    // CDP rewrite launches a child per parent thread per parallel loop).
    std::int64_t masters = w.launch.total_threads();
    std::int64_t loops =
        static_cast<std::int64_t>(bench->kernel().parallel_loop_count());
    std::int64_t launches = masters * loops;
    double cdp_secs =
        cdp.cdp_kernel_seconds(baseline, launches, 1.0, s.comm_bytes);
    table.add_row({s.name, bench::fmt(baseline * 1e6, 4),
                   std::to_string(launches), bench::fmt(cdp_secs * 1e6, 4),
                   bench::fmt(cdp_secs / baseline, 3) + "x",
                   bench::fmt(s.paper_slowdown, 4) + "x"});
    std::fflush(stdout);
  }
  table.print(std::cout);
  std::printf(
      "\nEvery CDP rewrite loses badly: the available nested parallelism "
      "(loop counts of 4-2K) is far too small to amortize child-launch "
      "overhead, which is the paper's motivating observation.\n");
  return 0;
}
