// The `tune` workload: a closed loop of np::Autotuner::tune calls over the
// ten paper benchmarks (the paper's exhaustive variant search, Sec. 6).
#include "tune.hpp"

#include <cstdio>
#include <map>
#include <memory>
#include <sstream>

#include "kernels/benchmark.hpp"
#include "np/autotuner.hpp"
#include "sim/binder.hpp"
#include "sim/bytecode.hpp"
#include "support/diagnostics.hpp"

namespace perfbench {

using namespace cudanp;

namespace {

/// Paper-suite input scale: a pass over all ten benchmarks takes about
/// 1.2 s with jobs = 4, so a run tunes each one dozens of times.
constexpr double kScale = 0.1;

using Suite = std::vector<std::unique_ptr<kernels::Benchmark>>;

std::string stats_str(const sim::KernelStats& s) {
  char buf[512];
  std::snprintf(buf, sizeof buf,
                "%lld,%lld,%.17g,%lld,%lld,%lld,%lld,%lld,%lld,%lld,%lld,"
                "%lld,%.17g",
                static_cast<long long>(s.blocks),
                static_cast<long long>(s.warps), s.issue_slots,
                static_cast<long long>(s.dram_transactions),
                static_cast<long long>(s.global_transactions),
                static_cast<long long>(s.local_transactions),
                static_cast<long long>(s.local_l1_misses),
                static_cast<long long>(s.smem_accesses),
                static_cast<long long>(s.smem_replays),
                static_cast<long long>(s.shfl_ops),
                static_cast<long long>(s.sync_ops),
                static_cast<long long>(s.divergent_branches),
                s.crit_path_cycles);
  return buf;
}

std::string seconds_str(double s) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", s);
  return buf;
}

/// The golden-digest lines of one tune result: the baseline's and every
/// entry's modeled seconds and KernelStats, plus the chosen config.
std::string digest(const std::string& bench, const np::TuneResult& r) {
  std::ostringstream os;
  os << bench << " baseline seconds=" << seconds_str(r.baseline_seconds)
     << " stats=" << stats_str(r.baseline_stats) << "\n";
  for (const auto& e : r.entries) {
    os << bench << " entry " << e.config.describe() << " ok=" << e.ok;
    if (e.ok)
      os << " seconds=" << seconds_str(e.seconds)
         << " stats=" << stats_str(e.stats);
    else
      os << " failure=" << e.note.substr(0, e.note.find(':'));
    os << "\n";
  }
  const transform::NpConfig* best = r.best_config();
  os << bench << " best " << (best ? best->describe() : "baseline") << "\n";
  return os.str();
}

/// Golden file: digest lines grouped by their first token (benchmark).
std::map<std::string, std::string> load_golden(const std::string& path) {
  std::map<std::string, std::string> out;
  std::istringstream in(read_file(path));
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    out[line.substr(0, line.find(' '))] += line + "\n";
  }
  return out;
}

bool validation_failure(const np::TuneEntry& e) {
  return !e.ok && e.note.rfind("validation failed", 0) == 0;
}

Suite build_suite() {
  Suite suite = kernels::make_benchmark_suite(kScale);
  for (auto& b : suite) (void)b->kernel();  // first parse
  return suite;
}

/// Set-up: building the suite through its first parse, nine times (one
/// takes about 1 ms, so a single one is mostly timer and cache noise).
double setup_seconds(Suite* keep) {
  std::vector<double> s;
  for (int i = 0; i < 9; ++i) {
    auto t0 = Clock::now();
    Suite suite = build_suite();
    s.push_back(ms_since(t0) / 1000.0);
    *keep = std::move(suite);
  }
  return median(s);
}

np::Runner make_runner(int jobs) {
  sim::Interpreter::Options iopt;
  iopt.jobs = jobs;
  return np::Runner(sim::DeviceSpec::gtx680(), iopt);
}

void check_digest(const std::string& name, const np::TuneResult& r,
                  const std::map<std::string, std::string>& golden,
                  Result* res) {
  auto it = golden.find(name);
  const std::string got = digest(name, r);
  if (it == golden.end() || it->second != got)
    res->fail("tune golden digest drift on " + name + ":\n" + got);
}

/// Replays one Autotuner::tune call step by step through the layers'
/// public functions, with a span around each call.
struct ReplayCounts {
  double warp_insts = 0;
  std::int64_t launches = 0;
  std::int64_t variants = 0;
  std::int64_t inapplicable = 0;
};

/// Keeps every kernel a replay launched alive for the lowering probe.
struct Launched {
  std::unique_ptr<ir::Program> program;
  std::vector<transform::TransformResult> variants;
  std::vector<const ir::Kernel*> kernels;
};

std::string replay_tune(const kernels::Benchmark& b, const np::Runner& runner,
                        Tracer& tr, ReplayCounts* c, Launched* out) {
  {
    auto s = tr.span("frontend.parse");
    out->program = np::NpCompiler::parse(b.source());
  }
  const ir::Kernel* kernel = out->program->find_kernel(b.kernel_name());
  out->kernels.push_back(kernel);
  auto make = [&] {
    auto s = tr.span("kernels.make_workload");
    return b.make_workload();
  };
  // One launch plus its CPU-reference check; returns (valid, seconds).
  auto run_checked = [&](const np::ExecutionRequest& req, np::Workload& w) {
    sim::RunResult run;
    {
      auto s = tr.span("sim.execute");
      run = runner.execute(req).run;
    }
    c->warp_insts += run.stats.issue_slots;
    ++c->launches;
    std::string msg;
    auto s = tr.span("kernels.validate");
    const bool ok = !w.validate || w.validate(*w.mem, &msg);
    return std::make_pair(ok, run.timing.seconds);
  };

  np::Workload base = make();
  (void)run_checked(np::ExecutionRequest::baseline(*kernel, base), base);

  np::Workload probe = make();
  std::vector<transform::NpConfig> configs;
  {
    auto s = tr.span("transform.enumerate");
    configs = np::NpCompiler::enumerate_configs(
        *kernel, static_cast<int>(probe.launch.block.count()),
        runner.spec());
  }
  std::string best = "baseline";
  double best_s = 0;
  for (const auto& cfg : configs) {
    transform::TransformResult variant;
    try {
      auto s = tr.span("transform.apply");
      variant = np::NpCompiler::transform(*kernel, cfg);
    } catch (const CompileError&) {
      ++c->inapplicable;
      continue;
    }
    ++c->variants;
    np::Workload w = make();
    try {
      auto [ok, secs] =
          run_checked(np::ExecutionRequest::transformed(variant, w), w);
      if (ok && (best == "baseline" || secs < best_s)) {
        best = cfg.describe();
        best_s = secs;
      }
    } catch (const SimError&) {
      continue;
    }
    out->kernels.push_back(variant.kernel.get());
    out->variants.push_back(std::move(variant));
  }
  return best;
}

}  // namespace

std::string tune_golden_text(int jobs) {
  Suite suite = build_suite();
  np::Autotuner tuner(make_runner(jobs));
  std::ostringstream os;
  os << "# tune golden digest: scale=" << kScale
     << " device=gtx680; regenerate with perfbench --emit-tune-golden\n";
  for (auto& b : suite) {
    const kernels::Benchmark& bench = *b;
    os << digest(bench.name(),
                 tuner.tune(bench.kernel(),
                            [&bench] { return bench.make_workload(); }));
  }
  return os.str();
}

Result run_tune(const Options& opt) {
  Result res;
  const auto golden = load_golden(opt.tune_golden);
  if (golden.empty()) {
    res.fail("cannot read tune golden " + opt.tune_golden);
    return res;
  }
  Suite suite;
  const double setup_s = setup_seconds(&suite);
  cudanp::SplitMix64 rng(opt.seed);
  np::Autotuner tuner(make_runner(opt.jobs));
  const int n = static_cast<int>(suite.size());

  if (!opt.trace) {
    double cpu_ms = 0;
    std::int64_t variants = 0, failed_variants = 0;
    const auto t0 = Clock::now();
    // Whole passes only, so every run tunes each benchmark equally often.
    for (int pass = 0; pass == 0 || ms_since(t0) < opt.seconds * 1000.0;
         ++pass) {
      for (int idx : shuffled(n, rng)) {
        const kernels::Benchmark& b = *suite[static_cast<std::size_t>(idx)];
        const double c1 = process_cpu_ms();
        np::TuneResult r;
        try {
          r = tuner.tune(b.kernel(), [&b] { return b.make_workload(); });
        } catch (const std::exception& e) {
          ++res.failed;
          res.fail("tune " + b.name() + " threw: " + e.what());
          continue;
        }
        cpu_ms += process_cpu_ms() - c1;
        ++res.attempted;
        variants += static_cast<std::int64_t>(r.entries.size());
        for (const auto& e : r.entries)
          if (validation_failure(e)) ++failed_variants;
        check_digest(b.name(), r, golden, &res);
      }
    }
    emit_end_to_end(setup_s, cpu_ms, res.attempted,
                    variants ? static_cast<double>(variants - failed_variants) /
                                   static_cast<double>(variants)
                             : 0,
                    &res);
    return res;
  }

  // Traced run: one seeded pass. Each operation is an untraced
  // Autotuner::tune call (np.tune) followed by a traced step-by-step
  // replay of the same search; the replay's total against np.tune's is
  // the tracing overhead. Probes (lowering, pool scaling) run outside
  // the replay.
  Tracer tr(true);
  const np::Runner& runner = tuner.runner();
  ReplayCounts counts;
  double tune_total = 0, replay_total = 0;
  double pool_ms[3] = {0, 0, 0};
  const int pool_jobs[3] = {1, opt.jobs, 2 * opt.jobs};
  std::map<std::string, double> tune_ms;
  std::vector<double> tune_lat, tune_cpu;
  int op = 0;
  for (int idx : shuffled(n, rng)) {
    const kernels::Benchmark& b = *suite[static_cast<std::size_t>(idx)];
    tr.set_op(op++);
    auto root = tr.span("tune.op");
    np::TuneResult r;
    {
      auto s = tr.span("np.tune");
      const double c1 = process_cpu_ms();
      r = tuner.tune(b.kernel(), [&b] { return b.make_workload(); });
      tune_cpu.push_back(process_cpu_ms() - c1);
      tune_ms[b.name()] = s.elapsed_ms();
    }
    tune_total += tune_ms[b.name()];
    tune_lat.push_back(tune_ms[b.name()]);
    ++res.attempted;
    check_digest(b.name(), r, golden, &res);

    Launched launched;
    std::string best;
    {
      auto s = tr.span("tune.replay");
      best = replay_tune(b, runner, tr, &counts, &launched);
      replay_total += s.elapsed_ms();
    }
    const transform::NpConfig* want = r.best_config();
    if (best != (want ? want->describe() : "baseline"))
      res.fail("tune replay of " + b.name() + " chose " + best);

    for (const ir::Kernel* k : launched.kernels) {
      auto fresh = k->clone();
      auto s = tr.span("sim.lower");
      auto bound = sim::bind_kernel(*fresh);
      (void)sim::bytecode::lower(*bound);
    }
    for (int j = 0; j < 3; ++j) {
      np::Workload w = b.make_workload();
      auto t1 = Clock::now();
      (void)runner.execute(np::ExecutionRequest::baseline(b.kernel(), w)
                               .with_jobs(pool_jobs[j]));
      pool_ms[j] += ms_since(t1);
    }
  }
  const double ops = static_cast<double>(res.attempted);
  auto self = tr.self_ms();
  auto calls = tr.calls();
  Layers L;
  L["frontend.parse_ms"] = self["frontend.parse"] / ops;
  L["frontend.parse_calls"] = static_cast<double>(calls["frontend.parse"]) / ops;
  L["transform.enumerate_ms"] = self["transform.enumerate"] / ops;
  L["transform.apply_ms"] = self["transform.apply"] / ops;
  L["transform.variants"] = static_cast<double>(counts.variants) / ops;
  L["transform.inapplicable"] = static_cast<double>(counts.inapplicable) / ops;
  L["kernels.make_workload_ms"] = self["kernels.make_workload"] / ops;
  L["kernels.validate_ms"] = self["kernels.validate"] / ops;
  L["sim.execute_ms"] = self["sim.execute"] / ops;
  L["sim.launches"] = static_cast<double>(counts.launches) / ops;
  L["sim.warp_insts"] = counts.warp_insts / ops;
  L["sim.ns_per_warp_inst"] =
      counts.warp_insts > 0 ? self["sim.execute"] * 1e6 / counts.warp_insts : 0;
  L["sim.pool_speedup_nproc"] = pool_ms[0] / pool_ms[1];
  L["sim.pool_speedup_2xnproc"] = pool_ms[0] / pool_ms[2];
  L["sim.lower_ms"] = self["sim.lower"] / ops;
  for (const auto& [name, ms] : tune_ms) L["np.tune_ms." + name] = ms;
  L["trace.overhead"] = replay_total / tune_total - 1.0;
  add_per_op(tune_lat, tune_cpu, res.attempted, tune_total / 1000.0, &L);
  L["bench.peak_rss_mb"] = peak_rss_mb();
  emit_layers(L, &res);
  (void)tr.write_chrome(opt.trace_out);
  return res;
}

}  // namespace perfbench
