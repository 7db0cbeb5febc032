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
// ranges and help strings, are the key list.
#pragma once

#include <string>
#include <vector>

#include "serve/service.hpp"

namespace cudanp::serve {

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
