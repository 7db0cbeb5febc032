// cert-suite: symbolic certification sweep over the paper benchmark
// suite — every benchmark, every applicable NP configuration — emitting
// a machine-readable verdict document. This is the CI "cert-smoke"
// artifact: the headline guarantee that every shipped NP variant is
// proven equivalent to its baseline (exactly or modulo float
// reassociation), with any refutation failing the build.
//
//   cert-suite [--scale=<f>] [--bench=<name>] [-o <file>]
//
// (--help describes each flag.) The default scale is small on purpose:
// proofs are per workload shape, so a reduced scale proves the same
// expression structure at a fraction of the cost.
//
// Exit status: 0 when every certified variant is proven or the verdict
// fell back to inconclusive (the empirical checks keep the final say),
// 1 on usage errors, 11 when any variant was REFUTED — a replayable
// counterexample proves a transform bug, matching cudanp-cc --certify.
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
#include "support/flags.hpp"
#include "support/json.hpp"

using namespace cudanp;

int main(int argc, char** argv) {
  double scale = 0.02;
  std::string bench_name;
  std::string output;
  FlagTable("cert-suite",
            "usage: cert-suite [--scale=<f>] [--bench=<name>] [-o <file>]\n")
      .positive("--scale", "workload scale", &scale, 1.0)
      .text("--bench", "<name>", "restrict to one benchmark (e.g. TMV)",
            &bench_name)
      .separate("-o", "<file>", "write the verdict JSON (default stdout)",
                &output)
      .parse(argc, argv);

  std::ofstream out_file;
  std::ostream* os = &std::cout;
  if (!output.empty()) {
    out_file.open(output);
    if (!out_file) {
      std::cerr << "cert-suite: cannot write " << output << "\n";
      return 1;
    }
    os = &out_file;
  }

  try {
    auto spec = sim::DeviceSpec::gtx680();
    const np::Certifier certifier(spec);

    std::vector<std::unique_ptr<kernels::Benchmark>> suite;
    if (bench_name.empty()) {
      suite = kernels::make_benchmark_suite(scale);
    } else {
      suite.push_back(kernels::make_benchmark(bench_name, scale));
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
      np::JobCertifier job(certifier, bench.kernel(), factory);
      for (const auto& cfg : configs) {
        transform::TransformResult variant;
        try {
          variant = np::NpCompiler::transform(bench.kernel(), cfg);
        } catch (const CompileError&) {
          ++skipped;  // configuration legitimately inapplicable
          continue;
        }
        np::Certificate cert = job.certify(variant);
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

    *os << "{\"scale\":" << scale << ",\"proven\":" << proven
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
