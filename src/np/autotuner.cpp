#include "np/autotuner.hpp"

#include "support/diagnostics.hpp"

namespace cudanp::np {

TuneResult Autotuner::tune(const ir::Kernel& kernel,
                           const WorkloadFactory& make_workload,
                           const TuneOptions& options) const {
  TuneResult result;
  // Every run gets its own copy of this one, so inputs and references are
  // generated once and no run sees another's outputs.
  const Workload pristine = make_workload();

  // Baseline.
  {
    Workload w = pristine.copy();
    auto run = runner_.execute(ExecutionRequest::baseline(kernel, w)).run;
    result.baseline_seconds = run.timing.seconds;
    result.baseline_occupancy = run.occupancy;
    result.baseline_stats = run.stats;
    if (options.validate && w.validate) {
      std::string msg;
      if (!w.validate(*w.mem, &msg))
        throw SimError("baseline kernel '" + kernel.name +
                       "' failed validation: " + msg);
    }
  }

  std::vector<transform::NpConfig> configs = options.configs;
  if (configs.empty())
    configs = NpCompiler::enumerate_configs(
        kernel, static_cast<int>(pristine.launch.block.count()),
        runner_.spec());

  auto quarantine = [&](const transform::NpConfig& cfg, FailureCause cause,
                        std::string detail) {
    VariantFailure f;
    f.kernel = kernel.name;
    f.config = cfg.describe();
    f.cause = cause;
    f.detail = std::move(detail);
    result.failures.push_back(std::move(f));
  };

  for (const auto& cfg : configs) {
    TuneEntry entry;
    entry.config = cfg;
    try {
      auto variant = NpCompiler::transform(kernel, cfg);
      Workload w = pristine.copy();
      auto run =
          runner_.execute(ExecutionRequest::transformed(variant, w)).run;
      if (options.validate && w.validate) {
        std::string msg;
        if (!w.validate(*w.mem, &msg)) {
          entry.note = "validation failed: " + msg;
          quarantine(cfg, FailureCause::kOutputMismatch, msg);
          result.entries.push_back(std::move(entry));
          continue;
        }
      }
      entry.ok = true;
      entry.seconds = run.timing.seconds;
      entry.occupancy = run.occupancy;
      entry.timing = run.timing;
      entry.stats = run.stats;
      for (const auto& [arr, placement] : variant.placements)
        entry.note += arr + "->" + transform::to_string(placement) + " ";
    } catch (const CompileError& e) {
      entry.note = std::string("transform failed: ") + e.what();
      quarantine(cfg, FailureCause::kTransformError, e.what());
    } catch (const sim::WatchdogError& e) {
      entry.note = std::string("watchdog tripped: ") + e.what();
      quarantine(cfg, FailureCause::kWatchdogTrip, e.what());
    } catch (const SimError& e) {
      entry.note = std::string("run failed: ") + e.what();
      quarantine(cfg, FailureCause::kRunError, e.what());
    }
    result.entries.push_back(std::move(entry));
  }

  for (std::size_t i = 0; i < result.entries.size(); ++i) {
    if (!result.entries[i].ok) continue;
    if (result.best < 0 ||
        result.entries[i].seconds <
            result.entries[static_cast<std::size_t>(result.best)].seconds)
      result.best = static_cast<int>(i);
  }
  return result;
}

}  // namespace cudanp::np
