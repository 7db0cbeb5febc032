// Figure 1: throughput of the memory-copy microbenchmark under dynamic
// parallelism on a Tesla K20c.
//
// Paper: copying 64M floats achieves 142 GB/s without CDP; merely
// compiling with CDP enabled drops it to 63 GB/s; splitting the copy into
// child launches degrades it further — 34 GB/s when each child has 16K
// threads, and rapidly worse with smaller children.
#include "bench_common.hpp"
#include "sim/dynpar.hpp"

using namespace cudanp;

int main(int argc, char** argv) {
  auto opt = bench::BenchOptions::parse(argc, argv);
  auto spec = sim::DeviceSpec::k20c();
  bench::print_header(
      "Figure 1: dynamic-parallelism memory-copy throughput (K20c)",
      "142 GB/s plain -> 63 GB/s CDP-enabled -> 34 GB/s @16K-thread "
      "children, degrading rapidly with more launches",
      spec, opt);

  sim::DynamicParallelismModel model(spec);
  const std::int64_t total = static_cast<std::int64_t>(64e6 * opt.scale);

  // Cross-check the no-CDP baseline against the execution simulator with
  // a real copy kernel (scaled down so interpretation stays fast).
  {
    auto copy = kernels::make_memcopy(1 << 20);
    double secs = bench::run_baseline_seconds(*copy, spec);
    double bytes = 2.0 * (1 << 20) * 4;
    std::printf("simulated copy kernel achieves %.1f GB/s "
                "(analytic baseline %.1f GB/s, paper 142 GB/s)\n\n",
                bytes / secs / 1e9, model.baseline_copy_bandwidth_gbs());
  }

  Table table({"parent threads m", "child threads n", "launches",
               "GB/s", "paper GB/s"});
  table.add_row({"(no CDP)", "-", "0",
                 bench::fmt(model.baseline_copy_bandwidth_gbs()), "142"});
  table.add_row({"(CDP compiled, unused)", "-", "0",
                 bench::fmt(model.cdp_copy_bandwidth_gbs(total, total)),
                 "63"});
  struct Point {
    std::int64_t child;
    const char* paper;
  };
  const Point points[] = {
      {1 << 24, "-"}, {1 << 22, "-"}, {1 << 20, "-"},
      {1 << 18, "-"}, {1 << 16, "-"}, {1 << 14, "34"},
      {1 << 12, "-"}, {1 << 10, "-"},
  };
  for (const auto& p : points) {
    if (p.child > total) continue;
    std::int64_t m = total / p.child;
    table.add_row({std::to_string(m), std::to_string(p.child),
                   std::to_string(m),
                   bench::fmt(model.cdp_copy_bandwidth_gbs(total, p.child)),
                   p.paper});
  }
  table.print(std::cout);
  return 0;
}
