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
#include <string>
#include <vector>

#include "kernels/benchmark.hpp"
#include "np/certifier.hpp"
#include "np/compiler.hpp"
#include "sim/device.hpp"
#include "support/diagnostics.hpp"
#include "support/flags.hpp"
#include "support/record.hpp"

using namespace cudanp;

namespace {

/// One benchmark's certificates, one per applicable configuration.
struct BenchmarkVerdicts : record::Codec<BenchmarkVerdicts> {
  std::string name;
  std::string kernel;
  std::vector<np::Certificate> certificates;

  static constexpr auto fields() {
    using R = BenchmarkVerdicts;
    using record::field;
    return std::tuple{field("name", &R::name), field("kernel", &R::kernel),
                      field("certificates", &R::certificates)};
  }
};

/// The verdict document: the sweep's counts, then every benchmark.
struct SuiteVerdicts : record::Codec<SuiteVerdicts> {
  double scale = 0.0;
  int proven = 0;
  int proven_modulo_reassoc = 0;
  int refuted = 0;
  int inconclusive = 0;
  int not_applicable = 0;
  std::vector<BenchmarkVerdicts> benchmarks;

  static constexpr auto fields() {
    using R = SuiteVerdicts;
    using record::field;
    return std::tuple{
        field("scale", &R::scale), field("proven", &R::proven),
        field("proven_modulo_reassoc", &R::proven_modulo_reassoc),
        field("refuted", &R::refuted), field("inconclusive", &R::inconclusive),
        field("not_applicable", &R::not_applicable),
        field("benchmarks", &R::benchmarks)};
  }
};

}  // namespace

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

    SuiteVerdicts doc;
    doc.scale = scale;
    for (const auto& bench : suite) {
      auto factory = [&bench] { return bench->make_workload(); };
      np::Workload probe = bench->make_workload();
      auto configs = np::NpCompiler::enumerate_configs(
          bench->kernel(), static_cast<int>(probe.launch.block.count()),
          spec);
      BenchmarkVerdicts& b = doc.benchmarks.emplace_back();
      b.name = bench->name();
      b.kernel = bench->kernel().name;
      np::JobCertifier job(certifier, bench->kernel(), factory);
      for (const auto& cfg : configs) {
        transform::TransformResult variant;
        try {
          variant = np::NpCompiler::transform(bench->kernel(), cfg);
        } catch (const CompileError&) {
          ++doc.not_applicable;  // configuration legitimately inapplicable
          continue;
        }
        np::Certificate cert = job.certify(variant);
        switch (cert.verdict) {
          case np::Verdict::kProven: ++doc.proven; break;
          case np::Verdict::kProvenModuloReassoc:
            ++doc.proven_modulo_reassoc;
            break;
          case np::Verdict::kRefuted: ++doc.refuted; break;
          case np::Verdict::kInconclusive: ++doc.inconclusive; break;
        }
        if (cert.verdict == np::Verdict::kRefuted)
          std::cerr << "cert-suite: REFUTED: " << bench->name() << " "
                    << cert.str() << "\n";
        b.certificates.push_back(std::move(cert));
      }
      std::cerr << "cert-suite: " << bench->name() << " done\n";
    }

    *os << doc.json() << "\n";
    std::cerr << "cert-suite: " << doc.proven << " proven, "
              << doc.proven_modulo_reassoc << " proven-modulo-reassoc, "
              << doc.refuted << " refuted, " << doc.inconclusive
              << " inconclusive, " << doc.not_applicable
              << " not applicable\n";
    if (doc.refuted > 0) return 11;
  } catch (const std::exception& e) {
    std::cerr << "cert-suite: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
