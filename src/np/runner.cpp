#include "np/runner.hpp"

#include <algorithm>
#include <utility>
#include <vector>

#include "support/rng.hpp"

namespace cudanp::np {

namespace {

/// Builds the variant launch config: block dims swapped, extra buffers
/// for globally re-homed local arrays allocated and appended.
sim::LaunchConfig variant_config(
    const transform::TransformResult& variant, Workload& workload,
    std::vector<std::pair<sim::BufferId, std::size_t>>* extras) {
  sim::LaunchConfig cfg = workload.launch;
  cfg.block = variant.block_dims;
  for (const auto& extra : variant.extra_buffers) {
    std::size_t elems = static_cast<std::size_t>(extra.elems_per_block) *
                        static_cast<std::size_t>(cfg.grid.count());
    sim::BufferId id = workload.mem->alloc(extra.type, elems);
    if (extras) extras->emplace_back(id, elems);
    cfg.args.push_back(id);
  }
  return cfg;
}

/// Returns variant scratch buffers to the workload's free pool once the
/// run is over; a later variant of the same shape reuses them instead of
/// growing device memory for every (variant, config) pair an autotuner
/// sweep tries.
void release_extras(
    Workload& workload,
    const std::vector<std::pair<sim::BufferId, std::size_t>>& extras) {
  for (const auto& [id, elems] : extras) {
    (void)elems;
    workload.mem->release(id);
  }
}

/// Records a launch-scoped failure (invalid launch geometry, zero
/// occupancy, bad arguments, a watchdog trip that escaped as an
/// exception) as a structured hazard so sanitized callers always get a
/// report instead of an exception. sim::validate_launch produces the
/// "invalid launch: ..." messages recorded here.
void record_launch_fault(sim::SanitizerEngine& engine,
                         const std::string& kernel, const char* what,
                         sim::HazardKind kind = sim::HazardKind::kSimFault,
                         SourceLoc loc = {}) {
  sim::HazardReport r;
  r.kind = kind;
  r.kernel = kernel;
  r.loc = loc;
  r.message = what;
  try {
    engine.report(std::move(r));
  } catch (const sim::HazardLimitReached&) {
    // Already at the limit; the fault still made it into the report list
    // or was deduplicated — either way there is nothing left to run.
  }
}

}  // namespace

ExecutionResult Runner::execute(const ExecutionRequest& req) const {
  if ((req.kernel != nullptr) == (req.variant != nullptr))
    throw SimError(
        "ExecutionRequest needs exactly one of kernel (baseline) or variant");
  if (req.workload == nullptr)
    throw SimError("ExecutionRequest needs a workload");
  Workload& workload = *req.workload;
  const ir::Kernel& kernel = req.variant ? *req.variant->kernel : *req.kernel;

  std::vector<std::pair<sim::BufferId, std::size_t>> extras;
  sim::LaunchConfig cfg = req.variant
                              ? variant_config(*req.variant, workload, &extras)
                              : workload.launch;

  ExecutionResult out;
  sim::Interpreter::Options iopt = opt_;
  if (req.limits) iopt.limits = *req.limits;
  if (req.jobs) iopt.jobs = *req.jobs;
  if (req.fault) iopt.fault = req.fault;
  if (req.sanitize) {
    out.engine = sim::SanitizerEngine(req.sanitizer_options);
    // Extra buffers are device scratch: the kernel must write an element
    // before reading it back.
    for (const auto& [id, elems] : extras)
      out.engine.mark_buffer_uninitialized(id, elems);
    iopt.sanitizer = &out.engine;
  }

  auto res = analysis::estimate_resources(kernel, spec_);
  try {
    out.run = sim::run_and_time(spec_, *workload.mem, kernel, cfg, res.usage,
                                iopt);
    out.ran = true;
  } catch (const sim::WatchdogError& e) {
    if (!req.sanitize) {
      release_extras(workload, extras);
      throw;
    }
    record_launch_fault(out.engine, kernel.name, e.what(),
                        sim::HazardKind::kWatchdogTrip, e.loc());
  } catch (const SimError& e) {
    if (!req.sanitize) {
      release_extras(workload, extras);
      throw;
    }
    record_launch_fault(out.engine, kernel.name, e.what());
  } catch (...) {
    release_extras(workload, extras);
    throw;
  }
  release_extras(workload, extras);
  return out;
}

Workload make_synthetic_workload(const ir::Kernel& kernel, int n, int tb) {
  Workload w;
  SplitMix64 rng(0x5eedu);
  std::size_t buf_elems =
      static_cast<std::size_t>(n) * static_cast<std::size_t>(n);
  for (const auto& p : kernel.params) {
    if (p.type.is_pointer) {
      sim::BufferId id = w.mem->alloc(p.type.scalar, buf_elems);
      auto& buf = w.mem->buffer(id);
      if (p.type.scalar == ir::ScalarType::kFloat) {
        for (auto& v : buf.f32()) v = rng.next_float(-1.f, 1.f);
      } else {
        for (auto& v : buf.i32())
          v = static_cast<std::int32_t>(rng.next_below(7));
      }
      w.launch.args.push_back(id);
    } else if (p.type.scalar == ir::ScalarType::kFloat) {
      w.launch.args.push_back(sim::LaunchConfig::scalar_float(1.0));
    } else {
      w.launch.args.push_back(sim::LaunchConfig::scalar_int(n));
    }
  }
  w.launch.block = {tb, 1, 1};
  w.launch.grid = {std::max(1, (n + tb - 1) / tb), 1, 1};
  return w;
}

}  // namespace cudanp::np
