// Batch manifest: the `cudanp-cc --batch=<file>` input format.
//
// One job per line; blank lines and `#` comments are skipped. A line is
// whitespace-separated `key=value` fields (plus bare flag keys):
//
//   file=examples/tmv.cu kernel=tmv elems=64 tb=32 deadline-ms=500
//   file=bad.cu fault-step=5 fault-block=0 transient-attempts=1
//   file=spin.cu stall-block=0 deadline-ms=50 name=hang
//
// The keys are the rows of one FlagTable (manifest_keys in
// manifest.cpp), so each field goes through the checked parser every
// tool flag uses: `elems=64x` is a "line N: bad value for elems: '64x'
// (expected ...)" error, not a silent 64 (or 0), and a repeated key's
// last value wins. A bare key is the same as `key=`, and a switch key
// (wedge, drop-barrier, ...) ignores any value. The rows, with their
// ranges and help strings, are the key list. The five job-shape rows
// come from add_job_shape below, which cudanp-cc's flag table uses too,
// so a manifest key and its flag accept the same values.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <tuple>
#include <vector>

#include "serve/service.hpp"
#include "support/flags.hpp"

namespace cudanp::serve {

/// The name and help line of one job-shape row.
struct ShapeRow {
  std::string name;
  std::string help;
};
/// The five rows that give a job its shape, as one table names them.
struct JobShapeRows {
  ShapeRow elems, tb, deadline_ms, attempts, watchdog_steps;
};

/// Adds the five job-shape rows to `t`, in this order and with the one
/// set of ranges cudanp-cc's flags and the manifest keys share: elems in
/// [1, 2^20], tb in [1, 1024], deadline-ms in [1, INT64_MAX / 2],
/// attempts in [1, 1000], and watchdog-steps over all of int64 (0 = the
/// default budget, negative disables). Each row stores through the
/// pointers of its `*_also` tuple (the first one's value is the default
/// --help shows) and into its field of `shape` (a JobSpec, or the
/// ManifestDefaults); a non-empty `elems_default` is the elems row's
/// FlagTable::defaults_to.
template <class Shape, class... Deadline, class... Attempts, class... Watchdog>
FlagTable& add_job_shape(FlagTable& t, const JobShapeRows& rows, Shape& shape,
                         std::string_view elems_default,
                         std::tuple<Deadline*...> deadline_also,
                         std::tuple<Attempts*...> attempts_also,
                         std::tuple<Watchdog*...> watchdog_also) {
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  t.integer(rows.elems.name, rows.elems.help, 1, 1 << 20, &shape.elems);
  if (!elems_default.empty()) t.defaults_to(elems_default);
  t.integer(rows.tb.name, rows.tb.help, 1, 1024, &shape.tb);
  std::apply(
      [&](auto*... also) {
        t.integer(rows.deadline_ms.name, rows.deadline_ms.help, 1, kMax / 2,
                  also..., &shape.deadline_ms);
      },
      deadline_also);
  std::apply(
      [&](auto*... also) {
        t.integer(rows.attempts.name, rows.attempts.help, 1, 1000,
                  also..., &shape.max_attempts);
      },
      attempts_also);
  std::apply(
      [&](auto*... also) {
        t.integer(rows.watchdog_steps.name, rows.watchdog_steps.help,
                  std::numeric_limits<std::int64_t>::min(), kMax,
                  also..., &shape.watchdog_steps);
      },
      watchdog_also);
  return t;
}

/// Defaults applied to fields a manifest line does not set.
struct ManifestDefaults {
  int elems = 32;
  int tb = 32;
  std::int64_t deadline_ms = 0;      // 0 = ServiceOptions default
  int max_attempts = 0;              // 0 = retry policy default
  long long watchdog_steps = 0;
};

/// Parses manifest text. On success returns the jobs (kernel sources
/// loaded from each line's file=, resolved relative to `base_dir` when
/// not absolute). On failure returns an empty vector and sets *error to
/// a "line N: ..." message.
[[nodiscard]] std::vector<JobSpec> parse_manifest(
    const std::string& text, const std::string& base_dir,
    const ManifestDefaults& defaults, std::string* error);

/// Reads and parses a manifest file (base_dir = the manifest's parent
/// directory, so file= entries resolve relative to the manifest).
[[nodiscard]] std::vector<JobSpec> load_manifest(
    const std::string& path, const ManifestDefaults& defaults,
    std::string* error);

}  // namespace cudanp::serve
