#include "common.hpp"

#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <cmath>
#include <fstream>
#include <sstream>

namespace perfbench {

namespace {

struct LayerMetric {
  const char* name;
  const char* unit;
};

// Kept in step with "per_layer" in BENCHMARK.json (the self-test checks).
constexpr LayerMetric kLayerMetrics[] = {
    {"frontend.parse_ms", "ms/op"},
    {"frontend.parse_calls", "count/op"},
    {"transform.enumerate_ms", "ms/op"},
    {"transform.apply_ms", "ms/op"},
    {"transform.variants", "count/op"},
    {"transform.inapplicable", "count/op"},
    {"kernels.make_workload_ms", "ms/op"},
    {"kernels.validate_ms", "ms/op"},
    {"sim.execute_ms", "ms/op"},
    {"sim.launches", "count/op"},
    {"sim.warp_insts", "count/op"},
    {"sim.ns_per_warp_inst", "ns"},
    {"sim.pool_speedup_nproc", "x"},
    {"sim.pool_speedup_2xnproc", "x"},
    {"sim.lower_ms", "ms/op"},
    {"sim.sanitize_ms", "ms/op"},
    {"sim.sanitizer_overhead", "x"},
    {"np.tune_ms.MC", "ms"},
    {"np.tune_ms.LU", "ms"},
    {"np.tune_ms.LE", "ms"},
    {"np.tune_ms.MV", "ms"},
    {"np.tune_ms.SS", "ms"},
    {"np.tune_ms.LIB", "ms"},
    {"np.tune_ms.CFD", "ms"},
    {"np.tune_ms.BK", "ms"},
    {"np.tune_ms.TMV", "ms"},
    {"np.tune_ms.NN", "ms"},
    {"np.certify_ms", "ms/op"},
    {"np.certify_calls", "count/op"},
    {"np.certify_inconclusive_ratio", "ratio"},
    {"np.fallback_ms", "ms/op"},
    {"np.fallback_candidates", "count/op"},
    {"serve.attempt_inproc_ms", "ms/op"},
    {"serve.worker_roundtrip_ms", "ms/op"},
    {"serve.ipc_overhead_ms", "ms/op"},
    {"serve.attempts_per_job", "count/op"},
    {"serve.cache_lookup_ms", "ms/op"},
    {"serve.cache_store_ms", "ms/op"},
    {"serve.journal_append_ms", "ms/op"},
    {"serve.report_render_ms", "ms/op"},
    {"serve.cache_hit_ratio", "ratio"},
    {"bench.jobs_per_s", "1/s"},
    {"bench.latency_p50_ms", "ms"},
    {"bench.latency_p90_ms", "ms"},
    {"bench.cpu_p50_ms", "ms"},
    {"bench.cpu_p90_ms", "ms"},
    {"bench.send_lag_p90_ms", "ms"},
    {"bench.peak_rss_mb", "MiB"},
    {"trace.overhead", "ratio"},
};

}  // namespace

void emit_end_to_end(double setup_s, double cpu_ms, std::int64_t jobs,
                     double ok_ratio, Result* res) {
  res->add("setup_s", setup_s, "s");
  res->add("cpu_ms_per_job",
           cpu_ms / static_cast<double>(std::max<std::int64_t>(1, jobs)),
           "ms");
  res->add("ok_ratio", ok_ratio, "ratio");
}

void add_per_op(const std::vector<double>& latency_ms,
                const std::vector<double>& cpu_ms, std::int64_t jobs,
                double seconds, Layers* layers) {
  (*layers)["bench.jobs_per_s"] = static_cast<double>(jobs) / seconds;
  (*layers)["bench.latency_p50_ms"] = quantile(latency_ms, 0.5);
  (*layers)["bench.latency_p90_ms"] = quantile(latency_ms, 0.9);
  (*layers)["bench.cpu_p50_ms"] = quantile(cpu_ms, 0.5);
  (*layers)["bench.cpu_p90_ms"] = quantile(cpu_ms, 0.9);
}

void emit_layers(const Layers& values, Result* res) {
  for (const LayerMetric& m : kLayerMetrics) {
    auto it = values.find(m.name);
    res->add(m.name, it == values.end() ? 0.0 : it->second, m.unit);
  }
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

std::vector<int> shuffled(int n, cudanp::SplitMix64& rng) {
  std::vector<int> p(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) p[static_cast<std::size_t>(i)] = i;
  for (int i = n - 1; i > 0; --i) {
    const auto j = static_cast<int>(rng.next_below(
        static_cast<std::uint64_t>(i) + 1));
    std::swap(p[static_cast<std::size_t>(i)], p[static_cast<std::size_t>(j)]);
  }
  return p;
}

double process_cpu_ms() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) / 1e6;
}

double group_cpu_ms(int pgid) {
  const double ms_per_tick = 1000.0 / static_cast<double>(sysconf(_SC_CLK_TCK));
  double ticks = 0;
  std::error_code ec;
  for (const auto& e : std::filesystem::directory_iterator("/proc", ec)) {
    const std::string text = read_file(e.path().string() + "/stat");
    const auto paren = text.rfind(')');
    if (paren == std::string::npos) continue;
    // After the command: state ppid pgrp ... utime(11) stime cutime cstime.
    std::istringstream is(text.substr(paren + 1));
    std::vector<std::string> f;
    for (std::string w; f.size() < 15 && is >> w;) f.push_back(w);
    if (f.size() < 15 || std::stol(f[2]) != pgid) continue;
    for (int i = 11; i < 15; ++i) ticks += std::stod(f[static_cast<std::size_t>(i)]);
  }
  return ticks * ms_per_tick;
}

double peak_rss_mb(const std::string& pid) {
  std::ifstream in("/proc/" + pid + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream is(line.substr(6));
      double kb = 0;
      is >> kb;
      return kb / 1024.0;
    }
  }
  return 0;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

bool write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
  return static_cast<bool>(out);
}

Tracer::Scope::Scope(Tracer* t, const char* name)
    : t_(t), start_(Clock::now()) {
  if (!t_->enabled_) return;
  index_ = static_cast<int>(t_->spans_.size());
  Span s;
  s.name = name;
  s.start = start_;
  s.parent = t_->stack_.empty() ? -1 : t_->stack_.back();
  s.op = t_->op_;
  t_->spans_.push_back(std::move(s));
  t_->stack_.push_back(index_);
}

Tracer::Scope::~Scope() {
  if (index_ < 0) return;
  t_->spans_[static_cast<std::size_t>(index_)].end = Clock::now();
  t_->stack_.pop_back();
}

std::map<std::string, double> Tracer::self_ms() const {
  // Children of one parent run serially inside it, so the part of the
  // parent they cover is the sum of their durations.
  std::vector<double> child_ms(spans_.size(), 0.0);
  for (const Span& s : spans_)
    if (s.parent >= 0)
      child_ms[static_cast<std::size_t>(s.parent)] +=
          ms_between(s.start, s.end);
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i)
    out[spans_[i].name] +=
        ms_between(spans_[i].start, spans_[i].end) - child_ms[i];
  return out;
}

std::map<std::string, std::int64_t> Tracer::calls() const {
  std::map<std::string, std::int64_t> out;
  for (const Span& s : spans_) ++out[s.name];
  return out;
}

bool Tracer::write_chrome(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  out << "{\"traceEvents\":[";
  auto us = [&](Clock::time_point t) {
    return std::chrono::duration<double, std::micro>(t - epoch_).count();
  };
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << (i ? ",\n" : "\n") << "{\"name\":\"" << s.name
        << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":" << us(s.start)
        << ",\"dur\":" << us(s.end) - us(s.start) << ",\"args\":{\"id\":"
        << i << ",\"parent\":" << s.parent << ",\"op\":" << s.op << "}}";
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

}  // namespace perfbench
