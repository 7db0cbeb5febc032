// FaultInjector: the chaos-harness side of the robustness layer.
//
// A seeded FaultPlan describes a deterministic campaign of faults to
// inject into a run: bit flips in device buffers between launches,
// SimErrors thrown at the Nth interpreted statement of a chosen block,
// AST corruption of a transform variant (drop a __syncthreads, skew a
// store index), and block stalls that must be caught by the interpreter
// watchdog. tests/chaos_test.cpp drives campaigns over every fault class
// and asserts each one is caught by the sanitizer, the watchdog, or
// NpCompiler::validate — never silently absorbed. See docs/robustness.md
// for the plan format and the detection contract.
//
// The injector is wired into execution through
// Interpreter::Options::fault; production runs leave that null, so the
// hot path pays one branch per statement.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "ir/kernel.hpp"
#include "sim/memory.hpp"
#include "support/record.hpp"
#include "support/source_location.hpp"

namespace cudanp::sim {

/// One seeded campaign. Every field is independent; a default plan
/// injects nothing. All randomness derives from `seed`, so a plan
/// replays byte-identically. Its json() is how fault plans ride the
/// worker-process wire protocol and enter journal fingerprints.
struct FaultPlan : record::Codec<FaultPlan> {
  std::uint64_t seed = 0x5eedULL;
  /// Flip this many randomly chosen bits across the allocated device
  /// buffers when corrupt_memory runs (between launches).
  int bit_flips = 0;
  /// When > 0, throw a SimError at exactly this interpreted-statement
  /// count (watchdog step counter) of the targeted block.
  std::int64_t sim_error_at_step = 0;
  /// Flat block index sim_error_at_step applies to; -1 = every block.
  std::int64_t fault_block = -1;
  /// AST corruption (corrupt_kernel): remove the first __syncthreads()
  /// statement. Invisible to the lockstep execution model by design —
  /// only SanitizerEngine's kPortable race mode can catch it.
  bool drop_barrier = false;
  /// AST corruption (corrupt_kernel): skew the index of the first
  /// indexed store by a small seeded offset, modelling a transform bug
  /// in slot arithmetic. Caught as an OOB kSimFault or as an output
  /// mismatch in NpCompiler::validate.
  bool skew_index = false;
  /// When >= 0, this flat block spins consuming watchdog budget until
  /// the step limit trips (requires a finite watchdog; with the watchdog
  /// disabled the stall degrades to an immediate injected SimError).
  std::int64_t stall_block = -1;
  /// When > 0, raise SIGSEGV (a genuine native crash, not an exception)
  /// at exactly this interpreted-statement count of the targeted block.
  /// Kills the whole process — survivable only under the serve layer's
  /// --isolate=process worker sandbox, which is the point.
  std::int64_t crash_at_step = 0;
  /// When > 0, attempt a single allocation of this many MiB before the
  /// first launch of the attempt (serve::execute_attempt). Under a
  /// worker RLIMIT_AS cap the allocation fails and the attempt is
  /// classified resource-limit; without a cap the probe is allocated,
  /// never touched, and immediately freed (harmless).
  std::int64_t oom_mb = 0;
  /// Worker-only fault: the execution worker stops responding entirely
  /// (no heartbeat, no result) while holding the job, modelling a wedged
  /// process. Caught by the supervisor's read timeout; ignored by
  /// in-process execution.
  bool wedge_worker = false;
  /// Serve-layer fault: before this job's artifact-cache lookup, flip a
  /// byte in the stored entry's payload (checksum mismatch). The cache
  /// must quarantine the entry and recompile, never serve it. Ignored
  /// when the batch runs without a cache.
  bool corrupt_cache = false;
  /// Serve-layer fault: truncate the stored cache entry (a torn write),
  /// which must be quarantined exactly like corruption.
  bool tear_cache = false;
  /// Serve-layer fault: flip a byte in this job's stored equivalence
  /// certificates before lookup. A corrupt certificate must be
  /// quarantined as a miss and the variant re-certified from scratch —
  /// never trusted for the certified fast path.
  bool corrupt_cert = false;
  /// Serve-layer fault: truncate the stored certificates (torn write),
  /// quarantined exactly like corruption.
  bool tear_cert = false;

  static constexpr auto fields() {
    using R = FaultPlan;
    using record::field;
    return std::tuple{field("seed", &R::seed),
                      field("bit_flips", &R::bit_flips),
                      field("sim_error_at_step", &R::sim_error_at_step),
                      field("fault_block", &R::fault_block),
                      field("drop_barrier", &R::drop_barrier),
                      field("skew_index", &R::skew_index),
                      field("stall_block", &R::stall_block),
                      field("crash_at_step", &R::crash_at_step),
                      field("oom_mb", &R::oom_mb),
                      field("wedge_worker", &R::wedge_worker),
                      field("corrupt_cache", &R::corrupt_cache),
                      field("tear_cache", &R::tear_cache),
                      field("corrupt_cert", &R::corrupt_cert),
                      field("tear_cert", &R::tear_cert)};
  }
};

class FaultInjector {
 public:
  FaultInjector() = default;
  explicit FaultInjector(FaultPlan plan) : plan_(plan) {}

  [[nodiscard]] const FaultPlan& plan() const { return plan_; }

  /// Applies FaultPlan::bit_flips to the buffers in `mem`, seeded and
  /// logged. Returns the number of bits actually flipped (empty memory
  /// flips nothing).
  int corrupt_memory(DeviceMemory& mem);

  /// Applies the AST-corruption faults (drop_barrier / skew_index) to
  /// `kernel` in place and invalidates its cached simulator binding.
  /// Must run before the kernel's first interpretation, like a real
  /// transform bug would exist before any launch. Returns true when at
  /// least one mutation was applied.
  bool corrupt_kernel(ir::Kernel& kernel);

  /// Interpreter hook, called once per interpreted statement with the
  /// block's deterministic step counter: throws the planned SimError at
  /// the configured step. Thread-safe (const, no logging).
  void maybe_fault(std::int64_t flat_block, std::int64_t step,
                   const SourceLoc& loc) const;

  /// Interpreter hook: true when `flat_block` must stall until the
  /// watchdog trips.
  [[nodiscard]] bool should_stall(std::int64_t flat_block) const {
    return plan_.stall_block >= 0 && flat_block == plan_.stall_block;
  }

  /// Human-readable record of every fault applied by corrupt_memory /
  /// corrupt_kernel, in application order.
  [[nodiscard]] const std::vector<std::string>& log() const { return log_; }

 private:
  FaultPlan plan_;
  std::vector<std::string> log_;
};

}  // namespace cudanp::sim
