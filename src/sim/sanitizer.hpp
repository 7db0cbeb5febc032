// SanitizerEngine: a compute-sanitizer-style hazard detector for the
// block-lockstep interpreter.
//
// When an engine is attached through sim::Interpreter::Options::sanitizer,
// execution is instrumented with shadow state:
//   - per shared-memory word: a hazard::Cell (sim/hazards.hpp), the
//     rulebook the certifier's symbolic executor shares;
//   - per warp: a barrier-arrival counter (Kepler's bar.sync counts *warp*
//     arrivals, so a warp whose live lanes branch around a __syncthreads
//     deadlocks the block on real hardware);
//   - per variable / local-array element / tracked global buffer element:
//     an initialization bit.
//
// Hazards are collected as structured HazardReports instead of thrown, so
// a faulty kernel yields a full report. SimErrors raised while executing a
// block (out-of-bounds, division by zero, ...) are downgraded to kSimFault
// reports and the rest of the grid keeps running — the graceful-degradation
// mode the production pipeline is gated on. See docs/sanitizer.md.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "sim/launch.hpp"
#include "support/source_location.hpp"

namespace cudanp::sim {

enum class HazardKind : std::uint8_t {
  /// Conflicting accesses to one shared-memory word (see RaceMode).
  kSharedRace,
  /// __syncthreads not reached by every warp with live threads.
  kBarrierDivergence,
  /// Read of a register / shared word / tracked global element that no
  /// thread has written.
  kUninitRead,
  /// __shfl from an inactive or out-of-range source lane.
  kShflHazard,
  /// A SimError (OOB access, div-by-zero, bad launch, ...) contained to
  /// the faulting block instead of aborting the run.
  kSimFault,
  /// A block exceeded its interpreted-statement budget
  /// (Interpreter::Options::max_steps_per_block); the launch is cancelled
  /// cooperatively and deterministically. See docs/robustness.md.
  kWatchdogTrip,
};

[[nodiscard]] const char* to_string(HazardKind k);

/// One detected hazard: what, where in the source, and which thread.
struct HazardReport {
  HazardKind kind = HazardKind::kSimFault;
  std::string kernel;
  Dim3 block;
  /// Flat thread id within the block; -1 when the hazard is block-wide.
  int thread = -1;
  SourceLoc loc;
  std::string message;

  [[nodiscard]] std::string str() const;
};

/// Control-flow signal thrown by SanitizerEngine::report when the error
/// limit is reached. Deliberately not derived from std::exception: it must
/// never escape Interpreter::run, which catches it and stops the grid.
struct HazardLimitReached {};

class SanitizerEngine {
 public:
  enum class RaceMode : std::uint8_t {
    /// Default: flag only what is a race even under the simulator's
    /// documented block-lockstep execution model — several lanes storing
    /// different values to the same shared word in one vector access.
    /// NP-transformed kernels must be clean here.
    kLockstep,
    /// compute-sanitizer racecheck style: any pair of same-barrier-interval
    /// accesses to one shared word from different warps with >= 1 write
    /// (and differing values for write-write) is flagged. Stricter than
    /// the lockstep model; the NP transform's master->slave handoffs rely
    /// on lockstep ordering and intentionally report under this mode.
    kPortable,
  };

  struct Options {
    /// Stop the run after this many distinct reports (the triggering
    /// report is kept); 0 = unlimited.
    std::size_t error_limit = 100;
    RaceMode race_mode = RaceMode::kLockstep;
    /// Keep only the first report per (kind, kernel, source location);
    /// repeats still count toward total_detected().
    bool dedupe = true;
  };

  SanitizerEngine() = default;
  explicit SanitizerEngine(Options opt) : opt_(opt) {}

  /// Records a hazard. Throws HazardLimitReached when the distinct-report
  /// count reaches the error limit.
  void report(HazardReport r);

  [[nodiscard]] const Options& options() const { return opt_; }
  [[nodiscard]] const std::vector<HazardReport>& reports() const {
    return reports_;
  }
  [[nodiscard]] std::size_t count(HazardKind k) const;
  /// Every observation, including deduplicated repeats.
  [[nodiscard]] std::size_t total_detected() const { return total_; }
  [[nodiscard]] bool limit_reached() const { return limit_reached_; }
  [[nodiscard]] bool clean() const { return reports_.empty(); }
  [[nodiscard]] std::string summary() const;
  void clear();

  // ---- launch-scoped global-buffer shadow state ----
  /// Marks a buffer as device scratch whose elements must be written by
  /// the kernel before being read (e.g. the extra buffers backing globally
  /// re-homed local arrays). Buffers never registered here are treated as
  /// host-initialized.
  void mark_buffer_uninitialized(BufferId id, std::size_t elems);
  /// Per-element init bitmap for a tracked buffer; nullptr when the buffer
  /// is treated as fully initialized.
  [[nodiscard]] std::vector<std::uint8_t>* buffer_shadow(BufferId id);

 private:
  Options opt_;
  std::vector<HazardReport> reports_;
  std::size_t total_ = 0;
  bool limit_reached_ = false;
  std::unordered_set<std::string> seen_;
  std::unordered_map<BufferId, std::vector<std::uint8_t>> buffer_shadows_;
};

}  // namespace cudanp::sim
