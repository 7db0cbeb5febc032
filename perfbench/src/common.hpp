// Shared plumbing of the repository benchmark: options, the seeded
// generator, timing and quantile helpers, the result line, and the
// in-memory span recorder used by traced runs.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "support/rng.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double ms_between(Clock::time_point a,
                                       Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
[[nodiscard]] inline double ms_since(Clock::time_point t0) {
  return ms_between(t0, Clock::now());
}

/// Everything a workload needs from the command line.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Checkout root (holds examples/ and the perfbench/ goldens).
  std::string root = ".";
  /// cudanp-cc built from this checkout (the serve daemon).
  std::string cc;
  /// Scratch directory for this run; created and removed by the run.
  std::string work;
  /// Chrome trace-event JSON written by traced runs.
  std::string trace_out;
  std::string tune_golden;
  std::string serve_golden;
  /// Self-test hook: damage each reference report before the identity
  /// comparison, which must then fail.
  bool perturb_reference = false;
  /// Host threads (the Runner's / daemon's --jobs).
  int jobs = 1;
};

/// One metric of the result line.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// The result line every run prints last (see README.md).
struct Result {
  bool correct = true;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<Metric> metrics;
  /// Human-readable reasons the gates failed (printed to stderr).
  std::vector<std::string> errors;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void fail(std::string why) {
    correct = false;
    errors.push_back(std::move(why));
  }
};

/// Adds the end-to-end metrics, in the order BENCHMARK.json lists them.
/// Time is CPU time (see README.md): `cpu_ms` is the run's total over
/// `jobs` jobs.
void emit_end_to_end(double setup_s, double cpu_ms, std::int64_t jobs,
                     double ok_ratio, Result* res);

/// Per-layer metric values by name (see emit_layers).
using Layers = std::map<std::string, double>;

/// Adds every per-layer metric, in the order BENCHMARK.json lists them,
/// with its unit. A layer the workload does not exercise reads 0.
void emit_layers(const Layers& values, Result* res);

/// The per-operation view of an untraced stretch of a traced run:
/// bench.jobs_per_s, bench.latency_p50_ms / _p90_ms (wall clock) and
/// bench.cpu_p50_ms / _p90_ms (CPU time per operation: a tune call, a
/// served request).
void add_per_op(const std::vector<double>& latency_ms,
                const std::vector<double>& cpu_ms, std::int64_t jobs,
                double seconds, Layers* layers);

/// Linear-interpolated quantile (q in [0, 1]); 0 for an empty sample.
[[nodiscard]] double quantile(std::vector<double> v, double q);
[[nodiscard]] inline double median(std::vector<double> v) {
  return quantile(std::move(v), 0.5);
}

/// Seed-derived permutation of [0, n).
[[nodiscard]] std::vector<int> shuffled(int n, cudanp::SplitMix64& rng);

/// CPU time (user + system, all threads) this process has used, in ms.
[[nodiscard]] double process_cpu_ms();

/// CPU time of every live process in process group `pgid` plus the
/// children they reaped, in ms (clock-tick resolution).
[[nodiscard]] double group_cpu_ms(int pgid);

/// Peak resident set (VmHWM) of a process in MiB; "self" for this one.
[[nodiscard]] double peak_rss_mb(const std::string& pid = "self");

[[nodiscard]] std::string read_file(const std::string& path);
bool write_file(const std::string& path, const std::string& text);

/// Span recorder for traced runs. Spans stay in memory: name, start,
/// end, parent span and operation id. Single-threaded by design — the
/// traced replays run serially so each layer's self time is its own.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  [[nodiscard]] bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }
  /// Operation id stamped on every span opened from now on.
  void set_op(int op) { op_ = op; }

  class Scope {
   public:
    Scope(Tracer* t, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    /// Milliseconds since the scope opened (valid with tracing off).
    [[nodiscard]] double elapsed_ms() const { return ms_since(start_); }

   private:
    Tracer* t_;
    int index_ = -1;
    Clock::time_point start_;
  };

  [[nodiscard]] Scope span(const char* name) { return Scope(this, name); }

  /// Self time per span name: duration minus the time its direct child
  /// spans cover.
  [[nodiscard]] std::map<std::string, double> self_ms() const;
  [[nodiscard]] std::map<std::string, std::int64_t> calls() const;

  /// Chrome trace-event JSON ("X" events, microseconds).
  bool write_chrome(const std::string& path) const;

 private:
  struct Span {
    std::string name;
    Clock::time_point start;
    Clock::time_point end;
    int parent = -1;
    int op = -1;
  };

  bool enabled_;
  int op_ = -1;
  std::vector<Span> spans_;
  std::vector<int> stack_;
  Clock::time_point epoch_ = Clock::now();
};

}  // namespace perfbench
