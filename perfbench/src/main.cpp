// perfbench: the repository benchmark's runner (see perfbench/README.md).
//
//   perfbench --workload tune|serve-cold|serve-warm --seed <n>
//             --seconds <s> --trace 0|1 --root <checkout> --cc <cudanp-cc>
//             --work <dir> [--tune-golden <f>] [--serve-golden <f>]
//             [--trace-out <f>] [--perturb-reference]
//   perfbench --emit-tune-golden
//   perfbench --emit-serve-golden --root <checkout>
//
// Prints one JSON object as the last line of stdout:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// and exits 0 when every correctness gate held, 1 otherwise.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>

#include "common.hpp"
#include "serve.hpp"
#include "tune.hpp"

namespace {

using perfbench::Options;
using perfbench::Result;

void print_result(const Result& r) {
  for (const auto& e : r.errors) std::fprintf(stderr, "perfbench: %s\n", e.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              r.correct ? "true" : "false",
              static_cast<long long>(r.attempted),
              static_cast<long long>(r.failed));
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const auto& m = r.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i ? ", " : "", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr, "perfbench: %s (see perfbench/README.md)\n", why);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  opt.jobs = static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  bool emit_tune = false, emit_serve = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + a).c_str());
      return argv[++i];
    };
    if (a == "--workload") opt.workload = next();
    else if (a == "--seed") opt.seed = std::strtoull(next().c_str(), nullptr, 10);
    else if (a == "--seconds") opt.seconds = std::atof(next().c_str());
    else if (a == "--trace") opt.trace = next() == "1";
    else if (a == "--root") opt.root = next();
    else if (a == "--cc") opt.cc = next();
    else if (a == "--work") opt.work = next();
    else if (a == "--trace-out") opt.trace_out = next();
    else if (a == "--tune-golden") opt.tune_golden = next();
    else if (a == "--serve-golden") opt.serve_golden = next();
    else if (a == "--perturb-reference") opt.perturb_reference = true;
    else if (a == "--emit-tune-golden") emit_tune = true;
    else if (a == "--emit-serve-golden") emit_serve = true;
    else usage(("unknown argument " + a).c_str());
  }
  if (emit_tune) {
    std::fputs(perfbench::tune_golden_text(opt.jobs).c_str(), stdout);
    return 0;
  }
  if (emit_serve) {
    std::fputs(perfbench::serve_golden_text(opt).c_str(), stdout);
    return 0;
  }
  if (opt.seconds <= 0) usage("--seconds must be positive");
  if (opt.work.empty()) usage("--work is required");
  if (opt.tune_golden.empty())
    opt.tune_golden = opt.root + "/perfbench/golden/tune_digest.txt";
  if (opt.serve_golden.empty())
    opt.serve_golden = opt.root + "/perfbench/golden/serve_expected.txt";
  if (opt.trace_out.empty())
    opt.trace_out = opt.work + ".trace.json";

  std::error_code ec;
  std::filesystem::remove_all(opt.work, ec);
  std::filesystem::create_directories(opt.work, ec);
  if (ec) usage(("cannot create " + opt.work).c_str());

  Result r;
  if (opt.workload == "tune") {
    r = perfbench::run_tune(opt);
  } else if (opt.workload == "serve-cold" || opt.workload == "serve-warm") {
    if (opt.cc.empty()) usage("--cc is required for serve workloads");
    r = perfbench::run_serve(opt);
  } else {
    usage(("unknown workload '" + opt.workload + "'").c_str());
  }
  std::filesystem::remove_all(opt.work, ec);
  print_result(r);
  return r.correct ? 0 : 1;
}
