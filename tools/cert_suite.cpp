// cert-suite: symbolic certification sweep over the paper benchmark
// suite — every benchmark, every applicable NP configuration — emitting
// a machine-readable verdict document. This is the CI "cert-smoke"
// artifact: the headline guarantee that every shipped NP variant is
// proven equivalent to its baseline (exactly or modulo float
// reassociation), with any refutation failing the build.
//
//   cert-suite [--scale=<f>] [--bench=<name>] [-o <file>]
//
//   --scale=<f>   workload scale in (0, 1]; default 0.02. Proofs are
//                 per-workload-shape, so a reduced scale proves the same
//                 expression structure at a fraction of the cost.
//   --bench=<n>   restrict to one benchmark (paper name, e.g. TMV)
//   -o <file>     write the verdict JSON to a file (default stdout)
//
// Exit status: 0 when every certified variant is proven or the verdict
// fell back to inconclusive (the empirical checks keep the final say),
// 1 on usage errors, 11 when any variant was REFUTED — a replayable
// counterexample proves a transform bug, matching cudanp-cc --certify.
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "kernels/benchmark.hpp"
#include "np/certifier.hpp"
#include "np/compiler.hpp"
#include "sim/device.hpp"
#include "support/diagnostics.hpp"
#include "support/json.hpp"
#include "support/string_utils.hpp"

using namespace cudanp;

namespace {

struct Options {
  double scale = 0.02;
  std::string bench;
  std::string output;
};

void usage() {
  std::cerr << "usage: cert-suite [--scale=<f>] [--bench=<name>] "
               "[-o <file>]\n";
}

bool parse_args(int argc, char** argv, Options* opt) {
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    if (a.rfind("--scale=", 0) == 0) {
      const char* text = a.c_str() + std::strlen("--scale=");
      auto v = parse_f64(text);
      if (!v || !(*v > 0.0) || *v > 1.0) {
        std::cerr << "cert-suite: bad value for --scale: '" << text
                  << "' (expected a number in (0, 1])\n";
        return false;
      }
      opt->scale = *v;
    } else if (a.rfind("--bench=", 0) == 0) {
      opt->bench = a.substr(std::strlen("--bench="));
      if (opt->bench.empty()) return false;
    } else if (a == "-o") {
      if (++i >= argc) return false;
      opt->output = argv[i];
    } else if (a == "--help" || a == "-h") {
      usage();
      std::exit(0);
    } else {
      std::cerr << "cert-suite: unknown option: " << a << "\n";
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse_args(argc, argv, &opt)) {
    usage();
    return 1;
  }

  std::ofstream out_file;
  std::ostream* os = &std::cout;
  if (!opt.output.empty()) {
    out_file.open(opt.output);
    if (!out_file) {
      std::cerr << "cert-suite: cannot write " << opt.output << "\n";
      return 1;
    }
    os = &out_file;
  }

  try {
    auto spec = sim::DeviceSpec::gtx680();
    const np::Certifier certifier(spec);

    std::vector<std::unique_ptr<kernels::Benchmark>> suite;
    if (opt.bench.empty()) {
      suite = kernels::make_benchmark_suite(opt.scale);
    } else {
      suite.push_back(kernels::make_benchmark(opt.bench, opt.scale));
    }

    int proven = 0, reassoc = 0, refuted = 0, inconclusive = 0, skipped = 0;
    std::ostringstream body;
    body.precision(17);
    for (std::size_t b = 0; b < suite.size(); ++b) {
      const kernels::Benchmark& bench = *suite[b];
      auto factory = [&bench] { return bench.make_workload(); };
      np::Workload probe = bench.make_workload();
      auto configs = np::NpCompiler::enumerate_configs(
          bench.kernel(), static_cast<int>(probe.launch.block.count()),
          spec);
      if (b) body << ",";
      body << "{\"name\":\"" << json::escape(bench.name())
           << "\",\"kernel\":\"" << json::escape(bench.kernel().name)
           << "\",\"certificates\":[";
      bool first = true;
      for (const auto& cfg : configs) {
        transform::TransformResult variant;
        try {
          variant = np::NpCompiler::transform(bench.kernel(), cfg);
        } catch (const CompileError&) {
          ++skipped;  // configuration legitimately inapplicable
          continue;
        }
        np::Certificate cert =
            certifier.certify_variant(bench.kernel(), variant, factory);
        switch (cert.verdict) {
          case np::Verdict::kProven: ++proven; break;
          case np::Verdict::kProvenModuloReassoc: ++reassoc; break;
          case np::Verdict::kRefuted: ++refuted; break;
          case np::Verdict::kInconclusive: ++inconclusive; break;
        }
        if (cert.verdict == np::Verdict::kRefuted)
          std::cerr << "cert-suite: REFUTED: " << bench.name() << " "
                    << cert.str() << "\n";
        if (!first) body << ",";
        first = false;
        body << cert.json();
      }
      body << "]}";
      std::cerr << "cert-suite: " << bench.name() << " done\n";
    }

    *os << "{\"scale\":" << opt.scale << ",\"proven\":" << proven
        << ",\"proven_modulo_reassoc\":" << reassoc
        << ",\"refuted\":" << refuted
        << ",\"inconclusive\":" << inconclusive
        << ",\"not_applicable\":" << skipped << ",\"benchmarks\":[";
    *os << body.str() << "]}\n";
    std::cerr << "cert-suite: " << proven << " proven, " << reassoc
              << " proven-modulo-reassoc, " << refuted << " refuted, "
              << inconclusive << " inconclusive, " << skipped
              << " not applicable\n";
    if (refuted > 0) return 11;
  } catch (const std::exception& e) {
    std::cerr << "cert-suite: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
