// The serve workloads: a live `cudanp-cc --serve` daemon (process
// isolation, certification, journal directory, artifact cache) driven
// over its wire protocol.
//
//   serve-cold  closed loop, one client; every job a unique source, so
//               every job misses the cache.
//   serve-warm  open loop at a fixed Poisson rate over <= nproc
//               connections and 4 tenants; jobs come from a pool that
//               set-up warmed into the cache.
#include "serve.hpp"

#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <thread>

#include "kernels/benchmark.hpp"
#include "np/certifier.hpp"
#include "np/runner.hpp"
#include "serve/artifact_cache.hpp"
#include "serve/daemon.hpp"
#include "serve/journal.hpp"
#include "serve/manifest.hpp"
#include "serve/service.hpp"
#include "serve/supervisor.hpp"
#include "serve/wire.hpp"
#include "serve/worker.hpp"
#include "sim/binder.hpp"
#include "sim/bytecode.hpp"
#include "support/diagnostics.hpp"
#include "support/json.hpp"

namespace perfbench {

using namespace cudanp;

namespace {

constexpr int kElems[] = {32, 64};
constexpr int kTenants = 4;
/// serve-warm offered load, requests per second: at 50 the loop fell
/// behind in 2 of 5 runs on a 4-core host; 20 keeps well clear.
constexpr double kWarmRate = 20;
constexpr int kMaxJobsPerRequest = 8;
/// Served reports re-run in-process for the byte-identity gate, per run.
constexpr int kIdentityChecks = 2;
/// Open-loop validity bounds: the generator's p90 lateness and the most
/// requests ever due but not yet sent.
constexpr double kLagBoundMs = 100;
constexpr int kBacklogBound = 16;
/// Daemon set-ups per run; setup_s is their median.
constexpr int kSpawns = 7;
/// Reply deadline for one request (real ms).
constexpr int kReplyTimeoutMs = 150000;

/// One base kernel of the serve pools: the ten paper kernels plus the
/// two examples.
struct Base {
  std::string name;
  std::string source;
};

/// One pool entry: a base kernel at one workload size.
struct Item {
  int base = 0;
  int elems = 32;
};

std::vector<Base> base_kernels(const std::string& root) {
  std::vector<Base> out;
  for (const auto& b : kernels::make_benchmark_suite(1.0))
    out.push_back({b->name(), b->source()});
  for (const char* f : {"tmv.cu", "scale_rows.cu"})
    out.push_back({f, read_file(root + "/examples/" + f)});
  return out;
}

std::vector<Item> pool(const std::vector<Base>& bases) {
  std::vector<Item> out;
  for (int b = 0; b < static_cast<int>(bases.size()); ++b)
    for (int e : kElems) out.push_back({b, e});
  return out;
}

std::string item_key(const std::vector<Base>& bases, const Item& it) {
  return bases[static_cast<std::size_t>(it.base)].name + "|" +
         std::to_string(it.elems);
}

/// The daemon's defaults for flags this benchmark does not pass, so an
/// in-process BatchService runs the identical pipeline.
serve::ServiceOptions reference_options(int jobs) {
  serve::ServiceOptions so;
  so.jobs = jobs;
  so.certify = true;
  return so;
}

serve::ManifestDefaults cli_defaults() {
  serve::ManifestDefaults d;
  d.elems = 64;
  return d;
}

std::string final_config(const serve::JobResult& j) {
  return j.chosen_config.empty() ? "baseline" : j.chosen_config;
}

// --- The daemon process. -------------------------------------------------

class Daemon {
 public:
  Daemon(const Options& opt, std::string dir) : opt_(opt), dir_(std::move(dir)) {}
  ~Daemon() { stop(); }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Spawns the daemon and waits until healthz reports ok. Returns the
  /// seconds that took, or a negative value on failure.
  double start() {
    std::error_code ec;
    std::filesystem::create_directories(dir_ + "/journal", ec);
    sock_ = dir_ + "/d.sock";
    const auto t0 = Clock::now();
    std::vector<std::string> args = {
        opt_.cc,
        "--serve=" + sock_,
        "--isolate=process",
        "--certify",
        "--journal-dir=" + dir_ + "/journal",
        "--cache-entries=8192",
        "--jobs=" + std::to_string(opt_.jobs)};
    pid_ = ::fork();
    if (pid_ < 0) return -1;
    if (pid_ == 0) {
      ::setpgid(0, 0);
      int log = ::open((dir_ + "/daemon.log").c_str(),
                       O_WRONLY | O_CREAT | O_TRUNC, 0644);
      if (log >= 0) {
        ::dup2(log, 1);
        ::dup2(log, 2);
      }
      std::vector<char*> argv;
      for (auto& a : args) argv.push_back(a.data());
      argv.push_back(nullptr);
      ::execv(argv[0], argv.data());
      ::_exit(127);
    }
    ::setpgid(pid_, pid_);
    while (ms_since(t0) < 30000) {
      int status = 0;
      if (::waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        return -1;
      }
      if (auto h = query("healthz");
          h && h->find("\"status\":\"ok\"") != std::string::npos)
        return ms_since(t0) / 1000.0;
      // Fine-grained polling: spawn-to-healthy takes ~3-4 ms, and 1 ms
      // polls quantized it into two modes a poll period apart.
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    return -1;
  }

  /// One status-frame round trip ("status" or "healthz").
  std::optional<std::string> query(const char* what) const {
    int fd = serve::connect_unix(sock_);
    if (fd < 0) return std::nullopt;
    serve::Frame f;
    bool ok = serve::write_frame(fd, serve::kFrameStatus, what) &&
              serve::read_frame(fd, &f, 5000) == serve::ReadStatus::kOk &&
              f.type == serve::kFrameStatusReply;
    ::close(fd);
    if (!ok) return std::nullopt;
    return f.payload;
  }

  /// Graceful drain via a shutdown frame; SIGKILLs the process group if
  /// the daemon has not exited within 20 s. Always reaps.
  void stop() {
    if (pid_ <= 0) return;
    if (int fd = serve::connect_unix(sock_); fd >= 0) {
      (void)serve::write_frame(fd, serve::kFrameShutdown, "");
      ::close(fd);
    } else {
      ::kill(pid_, SIGTERM);
    }
    const auto t0 = Clock::now();
    int status = 0;
    while (::waitpid(pid_, &status, WNOHANG) == 0) {
      if (ms_since(t0) > 20000) {
        ::kill(-pid_, SIGKILL);
        ::waitpid(pid_, &status, 0);
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    // Workers share the daemon's process group: make sure none outlives
    // it (kill(-pgid, 0) fails once the group is empty).
    ::kill(-pid_, SIGKILL);
    for (const auto t1 = Clock::now();
         ::kill(-pid_, 0) == 0 && ms_since(t1) < 5000;)
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    pid_ = -1;
  }

  [[nodiscard]] pid_t pid() const { return pid_; }
  [[nodiscard]] const std::string& socket() const { return sock_; }

 private:
  const Options& opt_;
  std::string dir_;
  std::string sock_;
  pid_t pid_ = -1;
};

/// Daemon spawn-to-healthy, kSpawns times; the last daemon stays up.
double spawn_median(const Options& opt, std::unique_ptr<Daemon>* keep,
                    Result* res) {
  std::vector<double> s;
  for (int i = 0; i < kSpawns; ++i) {
    keep->reset();
    auto d = std::make_unique<Daemon>(opt, opt.work + "/daemon" +
                                               std::to_string(i));
    const double secs = d->start();
    if (secs < 0) {
      res->fail("daemon did not become healthy");
      return 0;
    }
    s.push_back(secs);
    *keep = std::move(d);
  }
  return median(s);
}

struct CacheCounts {
  std::int64_t hits = 0;
  std::int64_t misses = 0;
};

CacheCounts cache_counts(const Daemon& d) {
  CacheCounts c;
  if (auto s = d.query("status")) {
    if (auto v = json::parse(*s)) {
      if (const json::Value* cache = v->find("cache")) {
        c.hits = cache->get_i64("hits");
        c.misses = cache->get_i64("misses");
      }
    }
  }
  return c;
}

// --- Requests. -----------------------------------------------------------

struct Request {
  std::string tenant = "t0";
  std::vector<Item> items;
  std::vector<std::string> sources;  // one per item
  std::string manifest;
};

/// Writes the request's sources under `dir` and renders its manifest;
/// job names make every manifest distinct.
void render(Request& r, const std::vector<Base>& bases, const std::string& dir,
            const std::string& tag) {
  std::ostringstream m;
  for (std::size_t j = 0; j < r.items.size(); ++j) {
    const Item& it = r.items[j];
    const std::string name =
        tag + "-j" + std::to_string(j) + "-" +
        bases[static_cast<std::size_t>(it.base)].name + "-e" +
        std::to_string(it.elems);
    const std::string file = name + ".cu";
    (void)write_file(dir + "/" + file, r.sources[j]);
    m << "file=" << file << " name=" << name << " elems=" << it.elems << "\n";
  }
  r.manifest = m.str();
}

struct Reply {
  bool ok = false;
  std::string error;
  serve::SubmitReply reply;
  serve::ServiceReport report;
};

Reply submit(int fd, const Request& r, const std::string& base_dir) {
  Reply out;
  serve::SubmitRequest req;
  req.tenant = r.tenant;
  req.manifest = r.manifest;
  req.base_dir = base_dir;
  serve::Frame f;
  if (!serve::write_frame(fd, serve::kFrameSubmit, req.json()) ||
      serve::read_frame(fd, &f, kReplyTimeoutMs) != serve::ReadStatus::kOk) {
    out.error = "no reply from daemon";
    return out;
  }
  if (f.type != serve::kFrameReport) {
    out.error = "rejected: " + f.payload;
    return out;
  }
  auto reply = serve::SubmitReply::from_json(f.payload);
  auto report =
      reply ? serve::ServiceReport::from_json(reply->report_json) : std::nullopt;
  if (!report) {
    out.error = "malformed report";
    return out;
  }
  out.ok = true;
  out.reply = std::move(*reply);
  out.report = std::move(*report);
  return out;
}

/// Expected terminal state and chosen config per pool item.
std::map<std::string, std::string> load_expected(const std::string& path) {
  std::map<std::string, std::string> out;
  std::istringstream in(read_file(path));
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const auto a = line.find('|');
    const auto b = line.find('|', a + 1);
    if (a == std::string::npos || b == std::string::npos) continue;
    out[line.substr(0, b)] = line.substr(b + 1);
  }
  return out;
}

/// Tallies of served jobs, plus the per-job golden-table gate.
struct Tally {
  std::int64_t jobs = 0;
  std::int64_t not_ok = 0;    // degraded, rejected or shed
  std::int64_t rejected = 0;  // never answered
  std::int64_t attempts = 0;
  std::vector<double> latency_ms;
  std::vector<double> cpu_ms;  // daemon + workers, per cold request
};

void account(const Request& r, const Reply& rep, const std::vector<Base>& bases,
             const std::map<std::string, std::string>& expected, Tally* t,
             Result* res) {
  t->jobs += static_cast<std::int64_t>(r.items.size());
  if (!rep.ok) {
    t->not_ok += static_cast<std::int64_t>(r.items.size());
    t->rejected += static_cast<std::int64_t>(r.items.size());
    res->fail("request failed: " + rep.error);
    return;
  }
  const serve::ServiceReport& sr = rep.report;
  if (sr.jobs.size() != r.items.size()) {
    res->fail("report job count differs from the manifest");
    return;
  }
  t->not_ok += static_cast<std::int64_t>(sr.degraded + sr.shed +
                                         sr.rejected_admission +
                                         sr.rejected_execution + sr.drained);
  t->rejected += static_cast<std::int64_t>(sr.shed + sr.rejected_admission +
                                           sr.rejected_execution + sr.drained);
  for (std::size_t j = 0; j < sr.jobs.size(); ++j) {
    const serve::JobResult& jr = sr.jobs[j];
    t->attempts += jr.attempts;
    const std::string key = item_key(bases, r.items[j]);
    const std::string got =
        std::string(serve::to_string(jr.state)) + "|" + final_config(jr);
    auto it = expected.find(key);
    if (it == expected.end() || it->second != got)
      res->fail("job " + jr.name + " ended " + got + ", expected " +
                (it == expected.end() ? "<missing>" : it->second));
  }
}

/// The byte-identity gate: an in-process BatchService::run of the same
/// manifest (isolate=none, no cache, no journal) must reproduce the
/// served report exactly.
void check_identity(const Options& opt, const Request& r, const Reply& rep,
                    const std::string& base_dir, Result* res) {
  std::string err;
  auto jobs = serve::parse_manifest(r.manifest, base_dir, cli_defaults(), &err);
  if (jobs.empty()) {
    res->fail("reference manifest: " + err);
    return;
  }
  serve::BatchService svc(sim::DeviceSpec::gtx680(),
                          reference_options(opt.jobs));
  const serve::ServiceReport ref = svc.run(jobs);
  std::string ref_json = ref.json();
  if (opt.perturb_reference) ref_json += " ";
  if (ref.str() != rep.reply.report_text || ref_json != rep.reply.report_json)
    res->fail("served report differs from the in-process reference for:\n" +
              r.manifest);
}

// --- Workload streams. ---------------------------------------------------

/// The seeded job stream of both serve workloads; every run draws each
/// pool item equally often.
///
/// serve-cold: cycles of 12 requests, one per base kernel in seeded
/// order, each carrying that kernel at both sizes (seeded order). Fixed
/// pairs rather than seeded 1-8 groupings: a cold cycle costs ~12 s, so a
/// 40 s run serves only 3 cycles, and over so few requests the grouping
/// alone moved the latency median 45% and peak RSS 23% between seeds
/// (which certification-heavy jobs shared a request). With fixed pairs
/// every seed serves the same requests; only order and sources vary.
///
/// serve-warm: items in cycles of seeded permutations of the pool,
/// request sizes in seeded permutations of 1..8.
class JobStream {
 public:
  JobStream(const std::vector<Base>& bases, std::uint64_t seed, bool cold)
      : bases_(static_cast<int>(bases.size())), items_(pool(bases)),
        rng_(seed), cold_(cold) {}

  /// The next request's items; *cycle_end is set when the request
  /// closes a cycle.
  std::vector<Item> next(bool* cycle_end) {
    std::vector<Item> out;
    if (cold_) {
      if (pos_ >= order_.size()) {
        order_ = shuffled(bases_, rng_);
        pos_ = 0;
      }
      const int b = order_[pos_++];
      const std::size_t first = rng_.next_below(2);
      out.push_back({b, kElems[first]});
      out.push_back({b, kElems[1 - first]});
      *cycle_end = pos_ >= order_.size();
      return out;
    }
    if (sizes_.empty())
      for (int i : shuffled(kMaxJobsPerRequest, rng_)) sizes_.push_back(i + 1);
    const auto k = static_cast<std::size_t>(sizes_.back());
    sizes_.pop_back();
    while (out.size() < k) {
      if (pos_ >= order_.size()) {
        order_ = shuffled(static_cast<int>(items_.size()), rng_);
        pos_ = 0;
      }
      out.push_back(items_[static_cast<std::size_t>(order_[pos_++])]);
    }
    *cycle_end = pos_ >= order_.size();
    return out;
  }

  /// Seeded draws from the same generator.
  std::uint64_t below(std::uint64_t n) { return rng_.next_below(n); }
  double uniform() { return rng_.next_double(); }

 private:
  int bases_;
  std::vector<Item> items_;
  cudanp::SplitMix64 rng_;
  bool cold_;
  std::vector<int> order_;
  std::size_t pos_ = 0;
  std::vector<int> sizes_;
};

/// serve-cold: every job's source is its base kernel plus a seeded
/// comment, so no two jobs (within or across runs) share a cache entry.
Request cold_request(JobStream& stream, const std::vector<Base>& bases,
                     std::uint64_t seed, int n, const std::string& dir,
                     bool* cycle_end) {
  Request r;
  r.items = stream.next(cycle_end);
  for (std::size_t j = 0; j < r.items.size(); ++j)
    r.sources.push_back(
        bases[static_cast<std::size_t>(r.items[j].base)].source +
        "\n// perfbench cold job: seed " + std::to_string(seed) +
        " request " + std::to_string(n) + " job " + std::to_string(j) + "\n");
  render(r, bases, dir, "c" + std::to_string(n));
  return r;
}

/// serve-warm: the seeded open-loop schedule, generated up front.
/// round(rate * seconds) arrivals at sorted uniform times — a Poisson
/// process conditioned on its count, so every run offers the same load.
struct Scheduled {
  double due_ms = 0;
  Request req;
};

std::vector<Scheduled> warm_schedule(const std::vector<Base>& bases,
                                     std::uint64_t seed, double rate,
                                     double seconds, const std::string& dir) {
  JobStream stream(bases, seed, /*cold=*/false);
  const auto n = static_cast<std::size_t>(std::llround(rate * seconds));
  std::vector<double> due;
  for (std::size_t i = 0; i < n; ++i)
    due.push_back(stream.uniform() * seconds * 1000.0);
  std::sort(due.begin(), due.end());
  std::vector<Scheduled> out;
  for (std::size_t i = 0; i < n; ++i) {
    Scheduled s;
    s.due_ms = due[i];
    s.req.tenant = "t" + std::to_string(stream.below(kTenants));
    bool cycle_end = false;
    s.req.items = stream.next(&cycle_end);
    for (const Item& it : s.req.items)
      s.req.sources.push_back(bases[static_cast<std::size_t>(it.base)].source);
    render(s.req, bases, dir, "w" + std::to_string(i));
    out.push_back(std::move(s));
  }
  return out;
}

struct OpenLoopRun {
  std::vector<Reply> replies;
  std::vector<double> latency_ms;
  std::vector<double> lag_ms;
  int max_backlog = 0;
  double elapsed_s = 0;
};

/// Sends each request at its due time over a pool of connections;
/// latency is timed from the due time, so generator stalls count.
OpenLoopRun open_loop(const Daemon& d, const std::vector<Scheduled>& sched,
                      const std::string& base_dir, int conns) {
  OpenLoopRun run;
  const std::size_t n = sched.size();
  run.replies.resize(n);
  run.latency_ms.assign(n, 0);
  run.lag_ms.assign(n, 0);
  std::vector<double> due(n);
  for (std::size_t i = 0; i < n; ++i) due[i] = sched[i].due_ms;
  std::atomic<std::size_t> next{0};
  std::atomic<int> backlog{0};
  const auto start = Clock::now() + std::chrono::milliseconds(20);
  auto worker = [&] {
    int fd = serve::connect_unix(d.socket());
    for (;;) {
      const std::size_t k = next.fetch_add(1);
      if (k >= n) break;
      const auto due_tp =
          start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double, std::milli>(due[k]));
      std::this_thread::sleep_until(due_tp);
      const auto send = Clock::now();
      const double now_ms = ms_between(start, send);
      const auto due_now = static_cast<int>(
          std::upper_bound(due.begin(), due.end(), now_ms) - due.begin());
      int b = std::max(0, due_now - static_cast<int>(k) - 1);
      for (int cur = backlog.load(); b > cur &&
                                     !backlog.compare_exchange_weak(cur, b);) {
      }
      run.lag_ms[k] = ms_between(due_tp, send);
      if (fd < 0) {
        run.replies[k].error = "cannot connect";
      } else {
        run.replies[k] = submit(fd, sched[k].req, base_dir);
      }
      run.latency_ms[k] = ms_between(due_tp, Clock::now());
    }
    if (fd >= 0) ::close(fd);
  };
  std::vector<std::thread> threads;
  for (int c = 0; c < conns; ++c) threads.emplace_back(worker);
  for (auto& t : threads) t.join();
  run.max_backlog = backlog.load();
  run.elapsed_s = ms_since(start) / 1000.0;
  return run;
}

// --- In-process traced replay. -------------------------------------------

const ir::Kernel* pick_kernel(const ir::Program& program) {
  for (const auto& k : program.kernels)
    if (k->parallel_loop_count() > 0) return k.get();
  return program.kernels.empty() ? nullptr : program.kernels.front().get();
}

/// Cache key of one attempt: the source plus every request field that
/// can change its result.
std::string attempt_key(const serve::AttemptRequest& req) {
  std::ostringstream os;
  os << req.elems << '|' << req.tb << '|' << req.device << '|'
     << req.sm_version << '|' << req.max_steps << '|' << req.error_limit
     << '|' << req.certify;
  return np::NpCompiler::artifact_key(req.source, os.str());
}

struct ReplayStats {
  std::int64_t jobs = 0;
  std::int64_t certify_calls = 0;
  std::int64_t inconclusive = 0;
  std::int64_t fallback_calls = 0;
  std::int64_t fallback_candidates = 0;
  std::int64_t attempts = 0;
  std::int64_t launches = 0;
  std::int64_t variants = 0;
  std::int64_t inapplicable = 0;
  double warp_insts = 0;
  double sanitized_ms = 0;    // launches that ran clean both ways
  double unsanitized_ms = 0;
  double pool_ms[3] = {0, 0, 0};
  double job_ms = 0;          // sum of serve.job wall time
};

/// Everything one replay pass shares across its jobs.
struct Replayer {
  const Options& opt;
  Tracer& tr;
  serve::ArtifactCache& cache;
  serve::WorkerSupervisor& sup;
  ReplayStats st;
  bool probes = false;
  sim::DeviceSpec spec = sim::DeviceSpec::gtx680();
  serve::ServiceOptions so = reference_options(1);
  Result* res;

  /// One job through the layers BatchService::run_job, execute_attempt
  /// and compile_with_fallback call, in their order; returns the
  /// outcome the daemon would journal.
  serve::JobOutcome job(const std::string& source, int elems,
                        std::size_t index) {
    serve::JobOutcome out;
    out.ran = true;
    out.deadline_ms = so.default_deadline_ms;
    auto root = tr.span("serve.job");
    std::unique_ptr<ir::Program> program;
    {
      auto s = tr.span("frontend.parse");
      program = np::NpCompiler::parse(source);
    }
    const ir::Kernel& k = *pick_kernel(*program);
    out.breaker_key = k.name;
    serve::AttemptRequest req;
    req.source = source;
    req.elems = elems;
    req.tb = 32;
    req.certify = true;
    const int tb = req.tb;
    auto factory = [&k, elems, tb] {
      return np::make_synthetic_workload(k, elems, tb);
    };

    np::CertifyOptions copt;
    copt.f32_rel_tol = so.f32_rel_tol;
    copt.interp.jobs = 1;
    const np::Certifier certifier(spec, copt);
    std::vector<transform::NpConfig> configs;
    {
      auto s = tr.span("transform.enumerate");
      np::Workload probe = factory();
      configs = np::NpCompiler::enumerate_configs(
          k, static_cast<int>(probe.launch.block.count()), spec);
    }
    for (const auto& cfg : configs) {
      const std::string key = serve::certificate_cache_key(
          source, k.name, req.device, req.sm_version, elems, tb,
          cfg.describe(), copt);
      std::optional<std::string> hit;
      {
        auto s = tr.span("serve.cache_lookup");
        hit = cache.lookup(key);
      }
      if (hit) {
        req.certificates.push_back(std::move(*hit));
        continue;
      }
      np::Certificate cert;
      {
        auto s = tr.span("np.certify");
        cert = certifier.certify(k, cfg, factory);
      }
      ++st.certify_calls;
      if (cert.verdict == np::Verdict::kInconclusive) ++st.inconclusive;
      std::string payload = cert.json();
      {
        auto s = tr.span("serve.cache_store");
        cache.store(key, payload);
      }
      req.certificates.push_back(std::move(payload));
    }

    sim::ExecutionLimits limits;
    std::int64_t elapsed = 0;
    for (int attempt = 1;; ++attempt) {
      const std::int64_t remaining = out.deadline_ms - elapsed;
      limits.deadline_steps = remaining * so.steps_per_ms;
      req.max_steps = limits.resolve();
      const std::string key = attempt_key(req);
      std::optional<serve::AttemptResult> cached;
      {
        auto s = tr.span("serve.cache_lookup");
        if (auto hit = cache.lookup(key))
          cached = serve::AttemptResult::from_json(*hit);
      }
      serve::AttemptResult result;
      if (cached) {
        result = std::move(*cached);
      } else {
        {
          auto s = tr.span("serve.attempt_inproc");
          result = serve::execute_attempt(req, spec);
        }
        serve::SupervisedAttempt sa;
        {
          auto s = tr.span("serve.worker_roundtrip");
          sa = sup.execute(req);
        }
        if (sa.status != serve::AttemptStatus::kCompleted ||
            sa.result.json() != result.json())
          res->fail("worker attempt differs from the in-process attempt");
        np::FallbackResult fb;
        {
          auto s = tr.span("np.fallback");
          fb = np::NpCompiler::compile_with_fallback(k, {}, factory, spec,
                                                     validation(req));
        }
        ++st.fallback_calls;
        st.fallback_candidates +=
            static_cast<std::int64_t>(fb.decision.quarantined.size()) +
            (fb.decision.used_baseline ? 0 : 1);
        if (fb.decision.json() != result.decision.json())
          res->fail("compile_with_fallback replay differs from the attempt");
        std::string payload = result.json();
        auto s = tr.span("serve.cache_store");
        cache.store(key, payload);
      }
      ++st.attempts;
      out.attempts = attempt;
      out.decision = result.decision;
      bool transient = false;
      for (const auto& q : out.decision.quarantined)
        transient = transient || np::transient(q.cause);
      elapsed += std::min(so.attempt_cost_ms, remaining);
      out.virtual_ms = elapsed;
      if (out.decision.pristine()) {
        out.success = true;
        break;
      }
      if (!transient || attempt >= so.retry.max_attempts) break;
      elapsed += std::min(so.retry.backoff_ms(index, attempt),
                          out.deadline_ms - elapsed);
      out.virtual_ms = elapsed;
    }
    st.job_ms += root.elapsed_ms();
    ++st.jobs;
    return out;
  }

  np::ValidationOptions validation(const serve::AttemptRequest& req) const {
    np::ValidationOptions v;
    v.sanitizer = so.sanitizer;
    v.f32_rel_tol = so.f32_rel_tol;
    v.certify = true;
    v.interp.jobs = 1;
    v.interp.limits.max_steps_per_block = req.max_steps;
    const std::vector<std::string>* payloads = &req.certificates;
    v.certificates.load =
        [payloads](const std::string& config) -> std::optional<np::Certificate> {
      for (const std::string& p : *payloads)
        if (auto c = np::Certificate::from_json(p); c && c->config == config)
          return c;
      return std::nullopt;
    };
    return v;
  }

  /// Per-job measurement probes outside the replayed path: sanitized
  /// versus plain baseline launch, lowering of the launched kernels,
  /// and exec-pool scaling.
  void probe(const std::string& source, int elems,
             const std::string& chosen) {
    auto root = tr.span("probe");
    auto program = np::NpCompiler::parse(source);
    const ir::Kernel& k = *pick_kernel(*program);
    np::Runner runner(spec);
    double sanitized = 0, plain = 0;
    bool clean = true;
    {
      np::Workload w = np::make_synthetic_workload(k, elems, 32);
      auto s = tr.span("sim.sanitize");
      auto r = runner.execute(np::ExecutionRequest::baseline(k, w)
                                  .sanitized(so.sanitizer)
                                  .with_jobs(1));
      clean = r.clean();
      sanitized = s.elapsed_ms();
    }
    try {
      np::Workload w = np::make_synthetic_workload(k, elems, 32);
      auto s = tr.span("sim.execute");
      auto r = runner.execute(np::ExecutionRequest::baseline(k, w).with_jobs(1));
      plain = s.elapsed_ms();
      st.warp_insts += r.run.stats.issue_slots;
      ++st.launches;
    } catch (const SimError&) {
      clean = false;  // the baseline faults under this workload
    }
    if (clean) {
      st.sanitized_ms += sanitized;
      st.unsanitized_ms += plain;
    }
    std::vector<std::unique_ptr<ir::Kernel>> launched;
    launched.push_back(k.clone());
    if (chosen != "baseline") {
      np::Workload w = np::make_synthetic_workload(k, elems, 32);
      for (const auto& cfg : np::NpCompiler::enumerate_configs(
               k, static_cast<int>(w.launch.block.count()), spec)) {
        if (cfg.describe() != chosen) continue;
        try {
          auto s = tr.span("transform.apply");
          launched.push_back(np::NpCompiler::transform(k, cfg).kernel->clone());
          ++st.variants;
        } catch (const CompileError&) {
          ++st.inapplicable;
        }
      }
    }
    for (auto& kernel : launched) {
      auto s = tr.span("sim.lower");
      auto bound = sim::bind_kernel(*kernel);
      (void)sim::bytecode::lower(*bound);
    }
    const int jobs[3] = {1, opt.jobs, 2 * opt.jobs};
    for (int j = 0; j < 3; ++j) {
      np::Workload w = np::make_synthetic_workload(k, elems, 32);
      const auto t0 = Clock::now();
      try {
        (void)runner.execute(
            np::ExecutionRequest::baseline(k, w).with_jobs(jobs[j]));
      } catch (const SimError&) {
      }
      st.pool_ms[j] += ms_since(t0);
    }
  }

  /// Probe inputs queued by the traced pass; run after it, so probes
  /// never interleave with the replayed jobs.
  struct Pending {
    std::string source;
    int elems;
    std::string chosen;
  };
  std::vector<Pending> pending;

  void run_probes() {
    for (const Pending& p : pending) probe(p.source, p.elems, p.chosen);
  }

  /// One request: its jobs, their journal records and the report.
  void request(const Request& r, std::size_t n, const std::string& dir) {
    std::optional<serve::JournalWriter> journal;
    {
      auto s = tr.span("serve.journal_create");
      std::string err;
      journal = serve::JournalWriter::create(
          dir + "/replay-" + std::to_string(n) + ".journal",
          "replay-" + std::to_string(n), &err);
    }
    serve::ServiceReport rep;
    for (std::size_t j = 0; j < r.items.size(); ++j) {
      serve::JobOutcome o = job(r.sources[j], r.items[j].elems, j);
      if (journal) {
        auto s = tr.span("serve.journal_append");
        (void)journal->append(j, o);
      }
      serve::JobResult jr;
      jr.index = j;
      jr.name = "job" + std::to_string(j);
      jr.state = o.success ? (o.attempts > 1
                                  ? serve::JobState::kSucceededAfterRetry
                                  : serve::JobState::kSucceeded)
                           : serve::JobState::kDegraded;
      jr.chosen_config =
          o.decision.used_baseline ? "baseline" : o.decision.chosen_config;
      jr.breaker_key = o.breaker_key;
      jr.attempts = o.attempts;
      jr.deadline_ms = o.deadline_ms;
      jr.virtual_ms = o.virtual_ms;
      jr.quarantined = o.decision.quarantined;
      if (probes) pending.push_back({r.sources[j], r.items[j].elems,
                                     jr.chosen_config});
      rep.jobs.push_back(std::move(jr));
    }
    rep.submitted = rep.accepted = rep.jobs.size();
    auto s = tr.span("serve.report_render");
    (void)rep.str();
    (void)rep.json();
  }
};

serve::SupervisorOptions supervisor_options(const Options& opt) {
  serve::SupervisorOptions so;
  so.worker_cmd = {opt.cc, "--worker"};
  return so;
}

/// Replays `reqs` once untraced and once traced, each with a fresh
/// worker pool, and adds the per-layer metrics of the traced pass. Cold
/// passes start from an empty cache; warm ones share a cache that an
/// untimed first pass filled, so both measured passes take the hit path.
void replay_layers(const Options& opt, const std::vector<Request>& reqs,
                   bool warm, Layers* L, Result* res) {
  const std::string dir = opt.work + "/replay";
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  serve::ArtifactCacheOptions co;
  co.max_entries = 8192;
  serve::ArtifactCache warm_cache(co);
  double job_ms[2] = {0, 0};
  Tracer tr(false);
  ReplayStats st;
  for (int pass = warm ? -1 : 0; pass < 2; ++pass) {
    tr.set_enabled(pass == 1);
    serve::ArtifactCache cold_cache(co);
    serve::WorkerSupervisor sup(supervisor_options(opt));
    Replayer rp{opt, tr, warm ? warm_cache : cold_cache, sup, {}, pass == 1,
                sim::DeviceSpec::gtx680(), reference_options(1), res, {}};
    for (std::size_t n = 0; n < reqs.size(); ++n) {
      tr.set_op(static_cast<int>(n));
      rp.request(reqs[n], n, dir);
    }
    if (pass >= 0) job_ms[pass] = rp.st.job_ms;
    rp.run_probes();
    st = rp.st;
  }
  const double jobs = static_cast<double>(std::max<std::int64_t>(1, st.jobs));
  auto self = tr.self_ms();
  auto calls = tr.calls();
  auto per_job = [&](const char* span) { return self[span] / jobs; };
  (*L)["frontend.parse_ms"] = per_job("frontend.parse");
  (*L)["frontend.parse_calls"] =
      static_cast<double>(calls["frontend.parse"]) / jobs;
  (*L)["transform.enumerate_ms"] = per_job("transform.enumerate");
  (*L)["transform.apply_ms"] = per_job("transform.apply");
  (*L)["transform.variants"] = static_cast<double>(st.variants) / jobs;
  (*L)["transform.inapplicable"] = static_cast<double>(st.inapplicable) / jobs;
  (*L)["sim.execute_ms"] = per_job("sim.execute");
  (*L)["sim.launches"] = static_cast<double>(st.launches) / jobs;
  (*L)["sim.warp_insts"] = st.warp_insts / jobs;
  (*L)["sim.ns_per_warp_inst"] =
      st.warp_insts > 0 ? self["sim.execute"] * 1e6 / st.warp_insts : 0;
  (*L)["sim.pool_speedup_nproc"] = st.pool_ms[0] / st.pool_ms[1];
  (*L)["sim.pool_speedup_2xnproc"] = st.pool_ms[0] / st.pool_ms[2];
  (*L)["sim.lower_ms"] = per_job("sim.lower");
  (*L)["sim.sanitize_ms"] = per_job("sim.sanitize");
  (*L)["sim.sanitizer_overhead"] =
      st.unsanitized_ms > 0 ? st.sanitized_ms / st.unsanitized_ms : 0;
  (*L)["np.certify_ms"] = per_job("np.certify");
  (*L)["np.certify_calls"] = static_cast<double>(st.certify_calls) / jobs;
  (*L)["np.certify_inconclusive_ratio"] =
      st.certify_calls ? static_cast<double>(st.inconclusive) /
                             static_cast<double>(st.certify_calls)
                       : 0;
  (*L)["np.fallback_ms"] = per_job("np.fallback");
  (*L)["np.fallback_candidates"] =
      st.fallback_calls ? static_cast<double>(st.fallback_candidates) /
                              static_cast<double>(st.fallback_calls)
                        : 0;
  (*L)["serve.attempt_inproc_ms"] = per_job("serve.attempt_inproc");
  (*L)["serve.worker_roundtrip_ms"] = per_job("serve.worker_roundtrip");
  (*L)["serve.ipc_overhead_ms"] =
      (*L)["serve.worker_roundtrip_ms"] - (*L)["serve.attempt_inproc_ms"];
  (*L)["serve.cache_lookup_ms"] = per_job("serve.cache_lookup");
  (*L)["serve.cache_store_ms"] = per_job("serve.cache_store");
  (*L)["serve.journal_append_ms"] = per_job("serve.journal_append");
  (*L)["serve.report_render_ms"] = per_job("serve.report_render");
  (*L)["trace.overhead"] = job_ms[1] / job_ms[0] - 1.0;
  (void)tr.write_chrome(opt.trace_out);
}

}  // namespace

std::string serve_golden_text(const Options& opt) {
  const auto bases = base_kernels(opt.root);
  std::ostringstream os;
  os << "# serve expected outcomes: <kernel>|<elems>|<state>|<config>\n"
        "# regenerate with perfbench --emit-serve-golden\n";
  for (const Item& it : pool(bases)) {
    serve::JobSpec j;
    j.source = bases[static_cast<std::size_t>(it.base)].source;
    j.elems = it.elems;
    serve::BatchService svc(sim::DeviceSpec::gtx680(),
                            reference_options(opt.jobs));
    const serve::ServiceReport rep = svc.run({j});
    os << item_key(bases, it) << "|" << serve::to_string(rep.jobs[0].state)
       << "|" << final_config(rep.jobs[0]) << "\n";
  }
  return os.str();
}

Result run_serve(const Options& opt) {
  Result res;
  const bool warm = opt.workload == "serve-warm";
  const auto bases = base_kernels(opt.root);
  for (const Base& b : bases)
    if (b.source.empty()) res.fail("missing kernel source " + b.name);
  const auto expected = load_expected(opt.serve_golden);
  if (expected.size() != pool(bases).size())
    res.fail("cannot read serve golden " + opt.serve_golden);
  if (!res.correct) return res;
  const std::string src_dir = opt.work + "/jobs";
  std::error_code ec;
  std::filesystem::create_directories(src_dir, ec);
  const std::string base_dir = std::filesystem::absolute(src_dir).string();

  // Set-up: daemon spawn to healthy (median of kSpawns); serve-warm adds
  // one warm-up request carrying the whole pool.
  std::unique_ptr<Daemon> daemon;
  double setup_s = spawn_median(opt, &daemon, &res);
  if (!res.correct) return res;
  Tally tally;
  if (warm) {
    Request w;
    w.tenant = "warmup";
    w.items = pool(bases);
    for (const Item& it : w.items)
      w.sources.push_back(bases[static_cast<std::size_t>(it.base)].source);
    render(w, bases, src_dir, "warmup");
    const auto t0 = Clock::now();
    int fd = serve::connect_unix(daemon->socket());
    Reply rep = fd >= 0 ? submit(fd, w, base_dir) : Reply{};
    if (fd >= 0) ::close(fd);
    setup_s += ms_since(t0) / 1000.0;
    Tally ignored;
    account(w, rep, bases, expected, &ignored, &res);
  }

  // The measured window (a shorter one when traced: the traced run's
  // daemon phase only feeds the status-frame and lateness metrics).
  const double window_s = opt.trace ? std::min(opt.seconds, 5.0) : opt.seconds;
  const CacheCounts before = cache_counts(*daemon);
  const double cpu_before = group_cpu_ms(daemon->pid());
  std::vector<Request> served;
  std::vector<Reply> replies;
  double elapsed_s = 0;
  double lag_p90 = 0;
  if (!warm) {
    JobStream stream(bases, opt.seed, /*cold=*/true);
    int fd = serve::connect_unix(daemon->socket());
    const auto t0 = Clock::now();
    // Whole cycles only, so every run serves each pool item equally
    // often; stop at the cycle boundary nearest to the window's end.
    int cycles = 0;
    for (bool cycle_end = false;;) {
      Request r = cold_request(stream, bases, opt.seed,
                               static_cast<int>(served.size()), src_dir,
                               &cycle_end);
      const double c1 = group_cpu_ms(daemon->pid());
      const auto t1 = Clock::now();
      Reply rep = fd >= 0 ? submit(fd, r, base_dir) : Reply{};
      tally.latency_ms.push_back(ms_since(t1));
      tally.cpu_ms.push_back(group_cpu_ms(daemon->pid()) - c1);
      account(r, rep, bases, expected, &tally, &res);
      served.push_back(std::move(r));
      replies.push_back(std::move(rep));
      if (!cycle_end) continue;
      ++cycles;
      const double ms = ms_since(t0);
      if (opt.trace || ms + 0.5 * ms / cycles >= window_s * 1000.0) break;
    }
    elapsed_s = ms_since(t0) / 1000.0;
    if (fd >= 0) ::close(fd);
  } else {
    auto sched =
        warm_schedule(bases, opt.seed, kWarmRate, window_s, src_dir);
    OpenLoopRun run =
        open_loop(*daemon, sched, base_dir, std::min(opt.jobs, kTenants));
    for (std::size_t k = 0; k < sched.size(); ++k) {
      account(sched[k].req, run.replies[k], bases, expected, &tally, &res);
      served.push_back(std::move(sched[k].req));
      replies.push_back(std::move(run.replies[k]));
    }
    tally.latency_ms = run.latency_ms;
    elapsed_s = run.elapsed_s;
    lag_p90 = quantile(run.lag_ms, 0.9);
    std::fprintf(stderr,
                 "perfbench: open loop %zu requests, lag p90 %.3f ms, "
                 "max backlog %d\n",
                 sched.size(), lag_p90, run.max_backlog);
    if (lag_p90 > kLagBoundMs || run.max_backlog > kBacklogBound)
      res.fail("open loop fell behind its schedule (lag p90 " +
               std::to_string(lag_p90) + " ms, backlog " +
               std::to_string(run.max_backlog) + ")");
  }
  const CacheCounts after = cache_counts(*daemon);
  const double cpu_ms = group_cpu_ms(daemon->pid()) - cpu_before;
  const double rss = peak_rss_mb(std::to_string(daemon->pid()));
  daemon->stop();

  for (std::size_t i = 0; i < served.size() && i < kIdentityChecks; ++i)
    if (replies[i].ok) check_identity(opt, served[i], replies[i], base_dir, &res);

  res.attempted = tally.jobs;
  res.failed = tally.rejected;
  const double jobs = static_cast<double>(std::max<std::int64_t>(1, tally.jobs));
  if (!opt.trace) {
    emit_end_to_end(setup_s, cpu_ms, tally.jobs,
                    static_cast<double>(tally.jobs - tally.not_ok) / jobs,
                    &res);
    std::fprintf(stderr, "perfbench: %zu requests, %lld jobs in %.3f s\n",
                 served.size(), static_cast<long long>(tally.jobs), elapsed_s);
    return res;
  }

  Layers L;
  const double lookups = static_cast<double>((after.hits - before.hits) +
                                             (after.misses - before.misses));
  L["serve.cache_hit_ratio"] =
      lookups > 0 ? static_cast<double>(after.hits - before.hits) / lookups : 0;
  L["serve.attempts_per_job"] = static_cast<double>(tally.attempts) / jobs;
  L["bench.send_lag_p90_ms"] = lag_p90;
  L["bench.peak_rss_mb"] = rss;
  // serve-warm's requests overlap, so CPU time per request is not
  // attributable there and its bench.cpu_p*_ms read 0.
  add_per_op(tally.latency_ms, tally.cpu_ms, tally.jobs, elapsed_s, &L);
  replay_layers(opt, served, warm, &L, &res);
  emit_layers(L, &res);
  return res;
}

}  // namespace perfbench
