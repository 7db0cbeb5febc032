#include "np/autotuner.hpp"

#include "support/diagnostics.hpp"

namespace cudanp::np {

namespace {

/// TuneEntry::note's wording of each cause an unguarded run can report.
const char* note_prefix(FailureCause cause) {
  switch (cause) {
    case FailureCause::kTransformError: return "transform failed: ";
    case FailureCause::kWatchdogTrip: return "watchdog tripped: ";
    case FailureCause::kOutputMismatch: return "validation failed: ";
    default: return "run failed: ";
  }
}

}  // namespace

TuneResult Autotuner::tune(const ir::Kernel& kernel,
                           const WorkloadFactory& make_workload,
                           const TuneOptions& options) const {
  TuneResult result;
  // Every run gets its own copy of this one, so inputs and references are
  // generated once and no run sees another's outputs.
  const Workload pristine = make_workload();
  const WorkloadFactory copy = [&pristine] { return pristine.copy(); };
  const OutputCheck& check = pristine.validate;

  const ConfigEvaluation base =
      evaluate_config(runner_, kernel, nullptr, copy, check, nullptr, nullptr);
  if (check && !base.outputs_match)
    throw SimError("baseline kernel '" + kernel.name +
                   "' failed validation: " + base.mismatch);
  result.baseline_seconds = base.run.timing.seconds;
  result.baseline_occupancy = base.run.occupancy;
  result.baseline_stats = base.run.stats;

  std::vector<transform::NpConfig> configs = options.configs;
  if (configs.empty())
    configs = NpCompiler::enumerate_configs(
        kernel, static_cast<int>(pristine.launch.block.count()),
        runner_.spec());

  for (const auto& cfg : configs) {
    ConfigEvaluation e =
        evaluate_config(runner_, kernel, &cfg, copy, check, nullptr, nullptr);
    TuneEntry entry;
    entry.config = cfg;
    if (e.failure) {
      entry.note = note_prefix(e.failure->cause) + e.failure->detail;
      result.failures.push_back(std::move(*e.failure));
    } else {
      entry.ok = true;
      entry.seconds = e.run.timing.seconds;
      entry.occupancy = e.run.occupancy;
      entry.timing = e.run.timing;
      entry.stats = e.run.stats;
      for (const auto& [arr, placement] : e.variant.placements)
        entry.note += arr + "->" + transform::to_string(placement) + " ";
      if (result.best < 0 ||
          entry.seconds <
              result.entries[static_cast<std::size_t>(result.best)].seconds)
        result.best = static_cast<int>(result.entries.size());
    }
    result.entries.push_back(std::move(entry));
  }
  return result;
}

}  // namespace cudanp::np
