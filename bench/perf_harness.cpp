// Perf-regression harness for the simulator host path.
//
// Times parse -> transform -> simulate for the paper benchmark suite at
// jobs=1 (serial) and jobs=N (parallel grid execution, see
// docs/performance.md), cross-checks that the two runs produce
// bit-identical stats, timing and output buffers, and writes a machine-
// readable BENCH_perf.json so CI can track host wall-clock regressions.
//
// Every benchmark also runs serially on the AST walker, the reference
// implementation the bytecode VM is checked against (see
// docs/performance.md); the per-engine wall-clocks land as columns in
// the report and the two engines' stats, modeled timing and output
// buffers must be bit-identical or the harness fails.
//
// Note the distinction from the fig*_ benches: those report *modeled GPU
// time* (sim seconds), which is independent of the jobs count by
// construction. This harness reports *host wall-clock* of the simulator
// itself, which is what the parallel scheduler improves.
//
//   perf_harness [--scale=<f>] [--jobs=<n>] [--reps=<n>]
//                [--benchmarks=A,B,...] [--out=<file>]
//
// Exit status: 0 on success, 1 on usage errors, 2 when the serial and
// parallel runs disagree or the engines diverge (determinism
// regression).
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "kernels/benchmark.hpp"
#include "np/compiler.hpp"
#include "np/runner.hpp"
#include "support/string_utils.hpp"

using namespace cudanp;
using Clock = std::chrono::steady_clock;

namespace {

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

struct HarnessOptions {
  double scale = 0.25;
  int jobs = 8;
  int reps = 3;
  std::vector<std::string> benchmarks;  // empty = whole suite
  std::string out = "BENCH_perf.json";
};

[[noreturn]] void usage_exit() {
  std::fprintf(stderr,
               "usage: perf_harness [--scale=<f>] [--jobs=<n>] "
               "[--reps=<n>] [--benchmarks=A,B,...] [--out=<file>]\n");
  std::exit(1);
}

/// A malformed or out-of-range numeric flag is a usage error with a
/// message, never a silent prefix parse.
[[noreturn]] void bad_value(const char* flag, const char* text,
                            const char* expected) {
  std::fprintf(stderr, "perf_harness: bad value for %s: '%s' (expected %s)\n",
               flag, text, expected);
  usage_exit();
}

HarnessOptions parse_args(int argc, char** argv) {
  HarnessOptions opt;
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    if (std::strncmp(a, "--scale=", 8) == 0) {
      auto v = parse_f64(a + 8);
      if (!v || !(*v > 0.0)) bad_value("--scale", a + 8, "a positive number");
      opt.scale = *v;
    } else if (std::strncmp(a, "--jobs=", 7) == 0) {
      auto v = parse_int(a + 7, 1);
      if (!v) bad_value("--jobs", a + 7, "an integer >= 1");
      opt.jobs = *v;
    } else if (std::strncmp(a, "--reps=", 7) == 0) {
      auto v = parse_int(a + 7, 1);
      if (!v) bad_value("--reps", a + 7, "an integer >= 1");
      opt.reps = *v;
    } else if (std::strncmp(a, "--benchmarks=", 13) == 0) {
      std::stringstream ss(a + 13);
      std::string name;
      while (std::getline(ss, name, ','))
        if (!name.empty()) opt.benchmarks.push_back(name);
    } else if (std::strncmp(a, "--out=", 6) == 0) {
      opt.out = a + 6;
    } else {
      usage_exit();
    }
  }
  return opt;
}

bool stats_equal(const sim::KernelStats& a, const sim::KernelStats& b) {
  return a.blocks == b.blocks && a.warps == b.warps &&
         a.issue_slots == b.issue_slots &&
         a.dram_transactions == b.dram_transactions &&
         a.global_transactions == b.global_transactions &&
         a.local_transactions == b.local_transactions &&
         a.local_l1_misses == b.local_l1_misses &&
         a.smem_accesses == b.smem_accesses &&
         a.smem_replays == b.smem_replays && a.shfl_ops == b.shfl_ops &&
         a.sync_ops == b.sync_ops &&
         a.divergent_branches == b.divergent_branches &&
         a.crit_path_cycles == b.crit_path_cycles;
}

bool memories_equal(const sim::DeviceMemory& a, const sim::DeviceMemory& b) {
  if (a.buffer_count() != b.buffer_count()) return false;
  for (std::size_t i = 0; i < a.buffer_count(); ++i) {
    const auto& ba = a.buffer(static_cast<sim::BufferId>(i));
    const auto& bb = b.buffer(static_cast<sim::BufferId>(i));
    if (ba.type() != bb.type() || ba.size() != bb.size()) return false;
    if (ba.type() == ir::ScalarType::kFloat) {
      auto fa = ba.f32();
      auto fb = bb.f32();
      if (!std::equal(fa.begin(), fa.end(), fb.begin(),
                      [](float x, float y) {
                        return std::memcmp(&x, &y, sizeof(float)) == 0;
                      }))
        return false;
    } else {
      auto ia = ba.i32();
      auto ib = bb.i32();
      if (!std::equal(ia.begin(), ia.end(), ib.begin())) return false;
    }
  }
  return true;
}

struct TimedRun {
  double wall_ms = 0;  // best of reps
  sim::RunResult result;
  std::unique_ptr<sim::DeviceMemory> mem;  // from the last rep
};

/// Runs the baseline kernel `reps` times at the given job count and keeps
/// the best wall-clock plus the final state for the identity cross-check.
TimedRun timed_run(const kernels::Benchmark& bench, const ir::Kernel& kernel,
                   const sim::DeviceSpec& spec, bool ast_reference, int jobs,
                   int reps) {
  TimedRun out;
  sim::Interpreter::Options iopt;
  iopt.jobs = jobs;
  iopt.ast_reference = ast_reference;
  np::Runner runner(spec, iopt);
  out.wall_ms = std::numeric_limits<double>::infinity();
  for (int r = 0; r < reps; ++r) {
    np::Workload w = bench.make_workload();
    auto t0 = Clock::now();
    out.result =
        runner.execute(np::ExecutionRequest::baseline(kernel, w)).run;
    out.wall_ms = std::min(out.wall_ms, ms_since(t0));
    if (r == reps - 1) out.mem = std::move(w.mem);
  }
  return out;
}

struct Row {
  std::string name;
  double parse_ms = 0;
  double transform_ms = 0;
  std::int64_t blocks = 0;
  double ast_ms = 0;
  double vm_ms = 0;
  double engine_speedup = 0;   // ast_ms / vm_ms
  bool engines_identical = false;
  double serial_ms = 0;
  double parallel_ms = 0;
  double speedup = 0;
  bool identical = false;  // serial==parallel AND ast==vm
};

bool runs_identical(const TimedRun& a, const TimedRun& b) {
  return stats_equal(a.result.stats, b.result.stats) &&
         a.result.timing.seconds == b.result.timing.seconds &&
         memories_equal(*a.mem, *b.mem);
}

}  // namespace

int main(int argc, char** argv) {
  HarnessOptions opt = parse_args(argc, argv);

  auto spec = sim::DeviceSpec::gtx680();
  std::vector<std::unique_ptr<kernels::Benchmark>> suite;
  if (opt.benchmarks.empty()) {
    suite = kernels::make_benchmark_suite(opt.scale);
  } else {
    for (const auto& name : opt.benchmarks)
      suite.push_back(kernels::make_benchmark(name, opt.scale));
  }

  std::printf("perf_harness: %zu benchmark(s), scale=%.2f, "
              "jobs=1 vs %d, reps=%d (hardware_concurrency=%u)\n\n",
              suite.size(), opt.scale, opt.jobs, opt.reps,
              std::thread::hardware_concurrency());
  std::printf("%-6s %9s %12s %8s %8s %8s %6s %10s %12s %8s %s\n", "name",
              "parse ms", "transform ms", "blocks", "ast ms", "vm ms", "vmx",
              "serial ms", "parallel ms", "speedup", "identical");

  std::vector<Row> rows;
  bool all_identical = true;
  for (auto& b : suite) {
    Row row;
    row.name = b->name();

    auto t0 = Clock::now();
    auto program = np::NpCompiler::parse(b->source());
    row.parse_ms = ms_since(t0);
    const ir::Kernel* kernel = program->find_kernel(b->kernel_name());
    if (!kernel) {
      std::fprintf(stderr, "perf_harness: kernel '%s' missing in %s\n",
                   b->kernel_name().c_str(), row.name.c_str());
      return 1;
    }

    np::Workload probe = b->make_workload();
    auto configs = np::NpCompiler::enumerate_configs(
        *kernel, probe.launch.block.x, spec);
    if (!configs.empty()) {
      auto t1 = Clock::now();
      try {
        (void)np::NpCompiler::transform(*kernel, configs.front());
        row.transform_ms = ms_since(t1);
      } catch (const CompileError&) {
        row.transform_ms = 0;  // config inapplicable; parse/sim still timed
      }
    }
    row.blocks = probe.launch.grid.count();

    // Engine comparison: the AST reference and the VM serially,
    // bit-identity required.
    TimedRun ast = timed_run(*b, *kernel, spec, true, 1, opt.reps);
    TimedRun vm = timed_run(*b, *kernel, spec, false, 1, opt.reps);
    row.ast_ms = ast.wall_ms;
    row.vm_ms = vm.wall_ms;
    row.engine_speedup = vm.wall_ms > 0 ? ast.wall_ms / vm.wall_ms : 0;
    row.engines_identical = runs_identical(ast, vm);

    // Determinism across job counts on the VM; the serial VM run above
    // is the jobs=1 side.
    TimedRun parallel = timed_run(*b, *kernel, spec, false, opt.jobs, opt.reps);
    row.serial_ms = vm.wall_ms;
    row.parallel_ms = parallel.wall_ms;
    row.speedup = parallel.wall_ms > 0 ? vm.wall_ms / parallel.wall_ms : 0;
    row.identical = runs_identical(vm, parallel) && row.engines_identical;
    all_identical = all_identical && row.identical;

    std::printf(
        "%-6s %9.2f %12.2f %8lld %8.2f %8.2f %5.2fx %10.2f %12.2f %7.2fx "
        "%s\n",
        row.name.c_str(), row.parse_ms, row.transform_ms,
        static_cast<long long>(row.blocks), row.ast_ms, row.vm_ms,
        row.engine_speedup, row.serial_ms, row.parallel_ms, row.speedup,
        row.identical ? "yes" : "NO");
    std::fflush(stdout);
    rows.push_back(std::move(row));
  }

  double log_sum = 0;
  int counted = 0;
  double elog_sum = 0;
  int ecounted = 0;
  for (const auto& r : rows) {
    if (r.speedup > 0) {
      log_sum += std::log(r.speedup);
      ++counted;
    }
    if (r.engine_speedup > 0) {
      elog_sum += std::log(r.engine_speedup);
      ++ecounted;
    }
  }
  double geomean = counted ? std::exp(log_sum / counted) : 0;
  double engine_geomean = ecounted ? std::exp(elog_sum / ecounted) : 0;
  std::printf("\ngeomean host speedup (jobs=%d vs serial): %.2fx\n", opt.jobs,
              geomean);
  std::printf("geomean engine speedup (vm vs ast, jobs=1): %.2fx\n",
              engine_geomean);

  std::ofstream js(opt.out);
  if (!js) {
    std::fprintf(stderr, "perf_harness: cannot write %s\n", opt.out.c_str());
    return 1;
  }
  js << "{\n"
     << "  \"scale\": " << opt.scale << ",\n"
     << "  \"jobs\": " << opt.jobs << ",\n"
     << "  \"reps\": " << opt.reps << ",\n"
     << "  \"hardware_concurrency\": "
     << std::thread::hardware_concurrency() << ",\n"
     << "  \"geomean_speedup\": " << geomean << ",\n"
     << "  \"geomean_engine_speedup\": " << engine_geomean << ",\n"
     << "  \"all_identical\": " << (all_identical ? "true" : "false") << ",\n"
     << "  \"benchmarks\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    js << "    {\"name\": \"" << r.name << "\", \"parse_ms\": " << r.parse_ms
       << ", \"transform_ms\": " << r.transform_ms
       << ", \"blocks\": " << r.blocks << ", \"ast_ms\": " << r.ast_ms
       << ", \"vm_ms\": " << r.vm_ms
       << ", \"engine_speedup\": " << r.engine_speedup
       << ", \"engines_identical\": "
       << (r.engines_identical ? "true" : "false")
       << ", \"serial_ms\": " << r.serial_ms
       << ", \"parallel_ms\": " << r.parallel_ms
       << ", \"speedup\": " << r.speedup << ", \"identical\": "
       << (r.identical ? "true" : "false") << "}"
       << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  js << "  ]\n}\n";
  std::printf("wrote %s\n", opt.out.c_str());

  return all_identical ? 0 : 2;
}
