// The serve pool's certificates, pinned byte for byte. The pool is the
// one perfbench serves: the ten paper kernels at scale 1.0 plus
// examples/tmv.cu and examples/scale_rows.cu, each at elems 32 and 64
// with 32 threads per block, on the GTX 680. golden/serve_pool_
// certificates.txt holds, in pool order, the Certificate::json() of
// every config of enumerate_configs, built by one JobCertifier per job
// over np::make_synthetic_workload. MatchGolden rebuilds every line;
// ServedCertificatesAreTheConsultedOnes runs the pool through
// BatchService and checks that it stores exactly the certificates its
// attempts consulted, each equal to its line. A mismatch prints the
// actual line.
#include <gtest/gtest.h>

#include <fstream>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "kernels/benchmark.hpp"
#include "np/certifier.hpp"
#include "np/compiler.hpp"
#include "np/runner.hpp"
#include "serve/artifact_cache.hpp"
#include "serve/service.hpp"
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

/// One pool job: a base source at one size.
struct PoolJob {
  std::string name;  // the benchmark's or the example file's
  std::string source;
  std::shared_ptr<ir::Program> program;
  const ir::Kernel* kernel = nullptr;
  int elems = 0;
};

/// The pool's jobs, in perfbench's order: each base source at each size.
std::vector<PoolJob> pool_jobs() {
  std::vector<std::pair<std::string, std::string>> sources;
  for (const auto& b : kernels::make_benchmark_suite(1.0))
    sources.emplace_back(b->name(), b->source());
  for (const char* f : {"tmv.cu", "scale_rows.cu"})
    sources.emplace_back(
        f, read_file(std::string(CUDANP_EXAMPLES_DIR) + "/" + f));
  std::vector<PoolJob> out;
  for (const auto& [name, source] : sources) {
    std::shared_ptr<ir::Program> program = np::NpCompiler::parse(source);
    const ir::Kernel* kernel = np::NpCompiler::pick_kernel(*program, "");
    for (const int elems : kPoolElems)
      out.push_back(PoolJob{name, source, program, kernel, elems});
  }
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
  for (const PoolJob& pj : pool_jobs()) {
    ASSERT_NE(pj.kernel, nullptr);
    ASSERT_GT(pj.kernel->parallel_loop_count(), 0u) << pj.kernel->name;
    SCOPED_TRACE(pj.name + " elems=" + std::to_string(pj.elems));
    const ir::Kernel& k = *pj.kernel;
    const int elems = pj.elems;
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
  EXPECT_EQ(line, golden.size()) << "the pool has " << line
                                 << " certificates";
}

TEST(ServePoolCertificates, ServedCertificatesAreTheConsultedOnes) {
  const auto spec = sim::DeviceSpec::gtx680();
  const std::vector<PoolJob> pool = pool_jobs();
  std::vector<serve::JobSpec> jobs;
  for (const PoolJob& pj : pool) {
    serve::JobSpec j;
    j.name = pj.name + " elems=" + std::to_string(pj.elems);
    j.source = pj.source;
    j.elems = pj.elems;
    j.tb = kPoolTb;
    jobs.push_back(std::move(j));
  }
  serve::ArtifactCache cache(serve::ArtifactCacheOptions{});
  serve::ServiceOptions opt;
  opt.certify = true;
  opt.artifact_cache = &cache;
  const serve::ServiceReport report =
      serve::BatchService(spec, opt).run(jobs);
  ASSERT_EQ(report.jobs.size(), pool.size());

  // A job's attempt consults its first choice, the config it chose when
  // it succeeded; a job whose baseline faults consults none.
  np::CertifyOptions copt;
  copt.f32_rel_tol = opt.f32_rel_tol;
  copt.interp.jobs = 1;
  const std::set<std::string> faulting = {"MC", "LU", "LE"};
  const std::vector<std::string> golden = golden_lines();
  std::size_t line = 0;
  std::size_t stored = 0;
  for (std::size_t j = 0; j < pool.size(); ++j) {
    const PoolJob& pj = pool[j];
    const serve::JobResult& r = report.jobs[j];
    SCOPED_TRACE(r.name);
    const bool succeeded = r.state == serve::JobState::kSucceeded;
    EXPECT_NE(succeeded, faulting.count(pj.name) > 0);
    for (const auto& cfg :
         np::NpCompiler::enumerate_configs(*pj.kernel, kPoolTb, spec)) {
      const std::string config = cfg.describe();
      const auto got = cache.lookup(serve::certificate_cache_key(
          pj.source, pj.kernel->name, "gtx680", spec.sm_version, pj.elems,
          kPoolTb, config, copt));
      const bool consulted = succeeded && config == r.chosen_config;
      EXPECT_EQ(got.has_value(), consulted) << config;
      if (got && line < golden.size()) {
        ++stored;
        EXPECT_EQ(golden[line], *got)
            << "line " << line + 1 << " differs; actual line:\n" << *got;
      }
      ++line;
    }
  }
  EXPECT_EQ(line, golden.size());
  EXPECT_EQ(stored, 18u);
}

}  // namespace
}  // namespace cudanp
