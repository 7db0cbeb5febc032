// Certified serving: symbolic equivalence certificates as first-class
// serve artifacts. An attempt certifies each candidate variant it
// consults, once (content-addressed in the artifact cache, and shipped
// with later attempts), quarantines refuted variants as proven-wrong
// before they can serve an answer, and — under the certified fast path
// — lets proven variants skip the per-run sanitized cross-check. None
// of this may change a clean report: certification is evidence, not
// behaviour.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "np/certifier.hpp"
#include "np/compiler.hpp"
#include "np/runner.hpp"
#include "serve/artifact_cache.hpp"
#include "serve/service.hpp"
#include "sim/device.hpp"

namespace cudanp {
namespace {

// Paper Fig. 1 kernel: compiles cleanly, has candidates, and its NP
// reduction certifies (modulo float reassociation).
const char* kTmv = R"(
__global__ void tmv(float* a, float* b, float* c, int w, int h) {
  float sum = 0.0f;
  int tx = threadIdx.x + blockIdx.x * blockDim.x;
  #pragma np parallel for reduction(+:sum)
  for (int i = 0; i < h; i++)
    sum += a[i * w + tx] * b[i];
  c[tx] = sum;
}
)";

// A loop-carried dependence the pragma does not declare: every NP
// variant of it is wrong, and the certifier refutes each one with a
// counterexample it replays through the interpreter. Its baseline runs
// at most 14 statements per block at elems 16, tb 8; half of its
// variants run more than 20.
const char* kCarry = R"(
__global__ void carry(float* a, float* c) {
  int tx = threadIdx.x + blockIdx.x * blockDim.x;
  float u = a[tx] * 2.0f;
  float v = a[tx] + 1.0f;
  float w = a[tx] - 3.0f;
  #pragma np parallel for
  for (int i = 1; i < 3; i++)
    c[tx * 4 + i] = c[tx * 4 + i - 1] + u * v + w;
}
)";

serve::JobSpec tmv_job(const std::string& name) {
  serve::JobSpec j;
  j.name = name;
  j.source = kTmv;
  j.elems = 16;
  j.tb = 8;
  return j;
}

serve::JobSpec carry_job(const std::string& name) {
  serve::JobSpec j = tmv_job(name);
  j.source = kCarry;
  return j;
}

serve::ServiceReport run_batch(const std::vector<serve::JobSpec>& jobs,
                               serve::ServiceOptions opt) {
  serve::BatchService service(sim::DeviceSpec::gtx680(), opt);
  return service.run(jobs);
}

// The candidate configurations a job enumerates, in compiler order —
// the set whose stored certificates the service looks up.
std::vector<std::string> job_configs(const serve::JobSpec& job) {
  auto program = np::NpCompiler::parse(job.source);
  const ir::Kernel& k = *program->kernels.front();
  np::Workload probe = np::make_synthetic_workload(k, job.elems, job.tb);
  std::vector<std::string> out;
  for (const auto& cfg : np::NpCompiler::enumerate_configs(
           k, static_cast<int>(probe.launch.block.count()),
           sim::DeviceSpec::gtx680()))
    out.push_back(cfg.describe());
  return out;
}

// The certifier options the service builds for a job — must stay in
// sync with BatchService::run_job for cache-key poisoning to land.
np::CertifyOptions service_copt(const serve::ServiceOptions& opt) {
  np::CertifyOptions copt;
  copt.f32_rel_tol = opt.f32_rel_tol;
  copt.interp.jobs = 1;
  return copt;
}

std::string cert_key(const serve::JobSpec& job, const std::string& kernel,
                     const std::string& config,
                     const serve::ServiceOptions& opt) {
  return serve::certificate_cache_key(job.source, kernel, "gtx680", 30,
                                      job.elems, job.tb, config,
                                      service_copt(opt));
}

// The stored certificate of each of `configs`, "" where none is stored.
std::vector<std::string> stored_certificates(
    serve::ArtifactCache& cache, const serve::JobSpec& job,
    const std::string& kernel, const std::vector<std::string>& configs,
    const serve::ServiceOptions& opt) {
  std::vector<std::string> out;
  for (const std::string& config : configs)
    out.push_back(
        cache.lookup(cert_key(job, kernel, config, opt)).value_or(""));
  return out;
}

np::Certificate refutation(const std::string& kernel,
                           const std::string& config) {
  np::Certificate cert;
  cert.kernel = kernel;
  cert.config = config;
  cert.verdict = np::Verdict::kRefuted;
  cert.detail = "poisoned for test";
  cert.counterexample_seed = 7;
  return cert;
}

// ---------------------------------------------------------------------
// Certification must not change a clean report: off, on, and fast-path
// runs of the same batch render byte-identical ServiceReports.

TEST(CertifiedBatch, CleanReportIsByteIdenticalAcrossCertModes) {
  std::vector<serve::JobSpec> jobs = {tmv_job("a"), tmv_job("b")};

  serve::ServiceOptions off;
  serve::ServiceReport plain = run_batch(jobs, off);
  ASSERT_EQ(plain.succeeded, 2u);

  serve::ServiceOptions on = off;
  on.certify = true;
  serve::ServiceReport certified = run_batch(jobs, on);

  serve::ServiceOptions fast = on;
  fast.certified_fast_path = true;
  serve::ServiceReport fast_path = run_batch(jobs, fast);

  EXPECT_EQ(plain.json(), certified.json());
  EXPECT_EQ(plain.json(), fast_path.json());
  EXPECT_EQ(plain.str(), fast_path.str());
}

// ---------------------------------------------------------------------
// Certificates are content-addressed serve artifacts. A job stores the
// certificate of each config its attempt consulted (for a clean TMV
// job, only the first choice), and a later run that misses the attempt
// cache reuses it instead of re-deriving it.

TEST(CertifiedBatch, CertificatesPersistInTheArtifactCache) {
  serve::ArtifactCache cache(serve::ArtifactCacheOptions{});
  serve::ServiceOptions opt;
  opt.certify = true;
  opt.artifact_cache = &cache;

  serve::JobSpec job = tmv_job("a");
  serve::ServiceReport first = run_batch({job}, opt);
  ASSERT_EQ(first.succeeded, 1u);
  const auto after_first = cache.stats();
  // The chosen config's certificate plus the attempt entry.
  EXPECT_EQ(after_first.stores, 2);
  const std::vector<std::string> configs = job_configs(job);
  const std::string chosen = first.jobs[0].chosen_config;
  for (const std::string& config : configs) {
    auto stored = cache.lookup(cert_key(job, "tmv", config, opt));
    EXPECT_EQ(stored.has_value(), config == chosen) << config;
    if (stored) {
      auto cert = np::Certificate::from_json(*stored);
      ASSERT_TRUE(cert.has_value());
      EXPECT_TRUE(cert->proven()) << cert->str();
    }
  }

  // Another watchdog budget is another attempt key, so the second run
  // executes again; its consulted certificate comes from the cache.
  const auto before_second = cache.stats();
  job.watchdog_steps = 1 << 20;
  serve::ServiceReport second = run_batch({job}, opt);
  const auto after_second = cache.stats();
  // Hits: the chosen config's certificate. Misses: the other configs'
  // certificates and the attempt. Stores: the attempt.
  EXPECT_EQ(after_second.hits, before_second.hits + 1);
  EXPECT_EQ(after_second.misses,
            before_second.misses +
                static_cast<std::int64_t>(configs.size()));
  EXPECT_EQ(after_second.stores, before_second.stores + 1);
  // Caching can never change the report.
  EXPECT_EQ(first.json(), second.json());
}

// ---------------------------------------------------------------------
// Chaos: a damaged stored certificate (corrupt or torn) is quarantined
// as a miss and the variant re-certified — never trusted, and never a
// behaviour change. Each damaged run uses its own watchdog budget, so
// it misses the attempt cache and its attempt consults the certificate.

TEST(CertifiedBatch, DamagedCertificatesAreQuarantinedAndRederived) {
  serve::ArtifactCache cache(serve::ArtifactCacheOptions{});
  serve::ServiceOptions opt;
  opt.certify = true;
  opt.certified_fast_path = true;
  opt.artifact_cache = &cache;

  serve::ServiceReport clean = run_batch({tmv_job("a")}, opt);
  ASSERT_EQ(clean.succeeded, 1u);
  const std::string key =
      cert_key(tmv_job("a"), "tmv", clean.jobs[0].chosen_config, opt);
  const std::string certificate = cache.lookup(key).value_or("");
  ASSERT_FALSE(certificate.empty());
  const auto before = cache.stats();

  serve::JobSpec corrupt = tmv_job("a");
  corrupt.fault.corrupt_cert = true;  // serve-layer fault: no inject
  corrupt.watchdog_steps = 1 << 20;
  serve::ServiceReport after_corrupt = run_batch({corrupt}, opt);
  EXPECT_EQ(clean.json(), after_corrupt.json());
  EXPECT_GT(cache.stats().quarantined_corrupt, before.quarantined_corrupt);
  EXPECT_EQ(cache.lookup(key).value_or(""), certificate);  // re-derived

  serve::JobSpec torn = tmv_job("a");
  torn.fault.tear_cert = true;
  torn.watchdog_steps = 1 << 21;
  serve::ServiceReport after_torn = run_batch({torn}, opt);
  EXPECT_EQ(clean.json(), after_torn.json());
  EXPECT_GT(cache.stats().quarantined_torn, before.quarantined_torn);
  EXPECT_EQ(cache.lookup(key).value_or(""), certificate);
}

// ---------------------------------------------------------------------
// A refuted certificate is binding: poison the cache with a refutation
// for every candidate config and the job degrades straight to the
// guaranteed baseline with the permanent proven-wrong cause — no
// retries (a proof is not transient), no variant execution.

TEST(CertifiedBatch, RefutedCertificateQuarantinesBeforeExecution) {
  serve::ArtifactCache cache(serve::ArtifactCacheOptions{});
  serve::ServiceOptions opt;
  opt.certify = true;
  opt.artifact_cache = &cache;
  opt.retry.max_attempts = 3;

  serve::JobSpec job = tmv_job("a");
  for (const std::string& config : job_configs(job))
    cache.store(cert_key(job, "tmv", config, opt),
                refutation("tmv", config).json());

  serve::ServiceReport report = run_batch({job}, opt);
  ASSERT_EQ(report.jobs.size(), 1u);
  const serve::JobResult& r = report.jobs[0];
  EXPECT_EQ(r.state, serve::JobState::kDegraded);
  EXPECT_EQ(r.cause, "proven-wrong");
  EXPECT_EQ(r.chosen_config, "baseline");
  // Proven-wrong is permanent evidence, not a transient blip: exactly
  // one attempt, every candidate quarantined with the same cause.
  EXPECT_EQ(r.attempts, 1);
  ASSERT_FALSE(r.quarantined.empty());
  for (const auto& q : r.quarantined)
    EXPECT_EQ(q.cause, np::FailureCause::kProvenWrong);
}

// ---------------------------------------------------------------------
// Only consulted configs are certified: with the first choice refuted
// in the cache, the attempt quarantines it without running it, moves on
// to the next candidate, and certifies that one alone.

TEST(CertifiedBatch, RefutedFirstChoiceCertifiesOnlyTheNextCandidate) {
  serve::ServiceOptions opt;
  opt.certify = true;
  serve::JobSpec job = tmv_job("a");
  const std::string first_choice =
      run_batch({job}, opt).jobs[0].chosen_config;
  // Candidates after the first choice follow in enumeration order.
  std::vector<std::string> configs = job_configs(job);
  std::vector<std::string> rest = configs;
  std::erase(rest, first_choice);
  ASSERT_EQ(rest.size() + 1, configs.size());
  const std::string next = rest.front();

  serve::ArtifactCache cache(serve::ArtifactCacheOptions{});
  opt.artifact_cache = &cache;
  cache.store(cert_key(job, "tmv", first_choice, opt),
              refutation("tmv", first_choice).json());
  serve::ServiceReport report = run_batch({job}, opt);
  ASSERT_EQ(report.jobs.size(), 1u);
  const serve::JobResult& r = report.jobs[0];
  EXPECT_EQ(r.chosen_config, next);
  EXPECT_EQ(r.attempts, 1);
  ASSERT_EQ(r.quarantined.size(), 1u);
  EXPECT_EQ(r.quarantined[0].config, first_choice);
  EXPECT_EQ(r.quarantined[0].cause, np::FailureCause::kProvenWrong);

  // Exactly one new certificate: the next candidate's, and it proves.
  const std::vector<std::string> stored =
      stored_certificates(cache, job, "tmv", configs, opt);
  for (std::size_t i = 0; i < configs.size(); ++i) {
    SCOPED_TRACE(configs[i]);
    if (configs[i] == first_choice) {
      EXPECT_EQ(stored[i], refutation("tmv", first_choice).json());
    } else if (configs[i] == next) {
      auto cert = np::Certificate::from_json(stored[i]);
      ASSERT_TRUE(cert.has_value());
      EXPECT_TRUE(cert->proven()) << cert->str();
    } else {
      EXPECT_EQ(stored[i], "");
    }
  }
}

// ---------------------------------------------------------------------
// A certificate is a fact about the source, not about the attempt that
// derived it: the attempt's watchdog budget and fault hooks do not reach
// the certifier's replays. Here both would: an injected fault at step 17
// and a 20-step watchdog spare the baseline but stop the variant replays
// that confirm each refutation.

TEST(CertifiedBatch, CertificatesIgnoreTheAttemptsHooksAndWatchdog) {
  serve::ServiceOptions opt;
  opt.certify = true;
  serve::JobSpec clean = carry_job("a");
  serve::JobSpec chaos = clean;
  chaos.inject = true;
  chaos.transient_attempts = 1;
  chaos.fault.sim_error_at_step = 17;
  chaos.watchdog_steps = 20;

  serve::ArtifactCache clean_cache(serve::ArtifactCacheOptions{});
  opt.artifact_cache = &clean_cache;
  serve::ServiceReport clean_report = run_batch({clean}, opt);
  serve::ArtifactCache chaos_cache(serve::ArtifactCacheOptions{});
  opt.artifact_cache = &chaos_cache;
  serve::ServiceReport chaos_report = run_batch({chaos}, opt);

  // Every config is refuted, so the attempt consults them all.
  for (const serve::ServiceReport* r : {&clean_report, &chaos_report}) {
    ASSERT_EQ(r->jobs.size(), 1u);
    EXPECT_EQ(r->jobs[0].cause, "proven-wrong");
    EXPECT_EQ(r->jobs[0].attempts, 1);
  }
  const std::vector<std::string> configs = job_configs(clean);
  const std::vector<std::string> want =
      stored_certificates(clean_cache, clean, "carry", configs, opt);
  const std::vector<std::string> got =
      stored_certificates(chaos_cache, chaos, "carry", configs, opt);
  for (std::size_t i = 0; i < configs.size(); ++i) {
    SCOPED_TRACE(configs[i]);
    auto cert = np::Certificate::from_json(want[i]);
    ASSERT_TRUE(cert.has_value());
    EXPECT_EQ(cert->verdict, np::Verdict::kRefuted);
    EXPECT_NE(cert->detail.find("replay: buffer"), std::string::npos)
        << cert->detail;
    EXPECT_EQ(got[i], want[i]);
  }
}

// ---------------------------------------------------------------------
// Under --isolate=process the worker certifies, and the certificates
// travel back beside the attempt result: the sandboxed batch stores the
// bytes the in-process batch stores, and reports the same.

TEST(CertifiedBatch, SandboxedWorkersStoreTheInProcessCertificates) {
  const std::vector<serve::JobSpec> jobs = {tmv_job("a"), carry_job("b")};
  serve::ServiceOptions opt;
  opt.certify = true;
  serve::ArtifactCache inproc_cache(serve::ArtifactCacheOptions{});
  opt.artifact_cache = &inproc_cache;
  serve::ServiceReport inproc = run_batch(jobs, opt);

  serve::ArtifactCache sandbox_cache(serve::ArtifactCacheOptions{});
  opt.artifact_cache = &sandbox_cache;
  opt.isolate = serve::IsolationMode::kProcess;
  opt.supervisor.worker_cmd = {CUDANP_CC_PATH, "--worker"};
  serve::ServiceReport sandboxed = run_batch(jobs, opt);
  EXPECT_EQ(inproc.json(), sandboxed.json());

  // tmv stores its first choice, carry all ten refutations.
  std::size_t stored = 0;
  for (const serve::JobSpec& job : jobs) {
    const std::string kernel = job.source == kCarry ? "carry" : "tmv";
    const std::vector<std::string> configs = job_configs(job);
    const std::vector<std::string> want =
        stored_certificates(inproc_cache, job, kernel, configs, opt);
    const std::vector<std::string> got =
        stored_certificates(sandbox_cache, job, kernel, configs, opt);
    for (std::size_t i = 0; i < configs.size(); ++i) {
      EXPECT_EQ(got[i], want[i]) << kernel << " " << configs[i];
      if (!want[i].empty()) ++stored;
    }
  }
  EXPECT_EQ(stored, 11u);
}

}  // namespace
}  // namespace cudanp
