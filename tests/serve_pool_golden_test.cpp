// The serve pool's certificates, pinned byte for byte. The pool is the
// one perfbench serves: the ten paper kernels at scale 1.0 plus
// examples/tmv.cu and examples/scale_rows.cu, each at elems 32 and 64
// with 32 threads per block, on the GTX 680. Every certificate is built
// the way BatchService::run_job builds it (one JobCertifier over
// np::make_synthetic_workload, one certificate per config of
// enumerate_configs), and its Certificate::json() must equal its line of
// golden/serve_pool_certificates.txt, in pool order. A mismatch prints
// the actual line.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "kernels/benchmark.hpp"
#include "np/certifier.hpp"
#include "np/compiler.hpp"
#include "np/runner.hpp"
#include "sim/device.hpp"

namespace cudanp {
namespace {

constexpr int kPoolElems[] = {32, 64};
constexpr int kPoolTb = 32;

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// The pool's base sources, in perfbench's order.
std::vector<std::string> pool_sources() {
  std::vector<std::string> out;
  for (const auto& b : kernels::make_benchmark_suite(1.0))
    out.push_back(b->source());
  for (const char* f : {"tmv.cu", "scale_rows.cu"})
    out.push_back(read_file(std::string(CUDANP_EXAMPLES_DIR) + "/" + f));
  return out;
}

std::vector<std::string> golden_lines() {
  std::ifstream in(CUDANP_POOL_CERTIFICATES);
  std::vector<std::string> out;
  for (std::string line; std::getline(in, line);) out.push_back(line);
  return out;
}

TEST(ServePoolCertificates, MatchGolden) {
  const auto spec = sim::DeviceSpec::gtx680();
  np::CertifyOptions copt;  // BatchService's: default tolerances, jobs 1
  copt.interp.jobs = 1;
  const np::Certifier certifier(spec, copt);
  const std::vector<std::string> golden = golden_lines();
  std::size_t line = 0;
  for (const std::string& source : pool_sources()) {
    auto program = np::NpCompiler::parse(source);
    const ir::Kernel* kernel = np::NpCompiler::pick_kernel(*program, "");
    ASSERT_NE(kernel, nullptr);
    ASSERT_GT(kernel->parallel_loop_count(), 0u) << kernel->name;
    for (const int elems : kPoolElems) {
      SCOPED_TRACE(kernel->name + " elems=" + std::to_string(elems));
      const ir::Kernel& k = *kernel;
      np::JobCertifier job(certifier, k, [&k, elems] {
        return np::make_synthetic_workload(k, elems, kPoolTb);
      });
      for (const auto& cfg :
           np::NpCompiler::enumerate_configs(k, kPoolTb, spec)) {
        const std::string got = job.certify(cfg).json();
        if (line >= golden.size()) {
          ADD_FAILURE() << "no golden line " << line + 1
                        << "; actual line:\n" << got;
        } else {
          EXPECT_EQ(golden[line], got)
              << "line " << line + 1 << " differs; actual line:\n" << got;
        }
        ++line;
      }
    }
  }
  EXPECT_EQ(line, golden.size()) << "the pool has " << line
                                 << " certificates";
}

}  // namespace
}  // namespace cudanp
