#include "serve/manifest.hpp"

#include <iterator>
#include <limits>
#include <sstream>

#include "support/flags.hpp"
#include "support/string_utils.hpp"

namespace cudanp::serve {

namespace {

/// The manifest keys, one row each, bound to the fields of `job` (and
/// `file`) they set. The keys that arm the interpreter's fault plan
/// mark `job.inject`; the cache and certificate faults act on the
/// artifact cache instead, so the attempt itself stays clean.
FlagTable manifest_keys(JobSpec& job, std::string& file) {
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  sim::FaultPlan& f = job.fault;
  FlagTable t("manifest", "");
  t.text("file", "<path>", "kernel source file (required)", &file,
         /*allow_empty=*/true)
      .text("name", "<label>", "report label (unset: file:line)", &job.name,
            /*allow_empty=*/true)
      .text("kernel", "<name>", "kernel to compile (unset: as --kernel)",
            &job.kernel, /*allow_empty=*/true);
  add_job_shape(
      t,
      {{"elems", "synthetic workload size"},
       {"tb", "baseline thread-block size"},
       {"deadline-ms", "virtual deadline (unset: --deadline-ms)"},
       {"attempts", "attempt cap (unset: --retries)"},
       {"watchdog-steps", "as --watchdog-steps; the deadline clamps it"}},
      job, "", std::tuple{}, std::tuple{}, std::tuple{})
      .integer("seed", "fault plan seed", 0, kMax, &f.seed)
      .marks(&job.inject)
      .integer("fault-step", "throw a SimError at the Nth statement", 1, kMax,
               &f.sim_error_at_step)
      .marks(&job.inject)
      .integer("fault-block", "the SimError's block; -1 = all", -1, kMax,
               &f.fault_block)
      .marks(&job.inject)
      .integer("stall-block", "block that spins until the watchdog trips", 0,
               kMax, &f.stall_block)
      .marks(&job.inject)
      .integer("transient-attempts", "inject on the first N attempts only", 0,
               1000, &job.transient_attempts)
      .integer("crash-step", "SIGSEGV at the Nth statement (needs a worker)",
               1, kMax, &f.crash_at_step)
      .marks(&job.inject)
      .integer("oom-mb", "allocate N MiB first (vs --worker-mem-mb)", 1,
               1 << 20, &f.oom_mb)
      .marks(&job.inject)
      .set("wedge", "the worker goes silent (--worker-timeout-ms)", true,
           &f.wedge_worker)
      .marks(&job.inject)
      .set("drop-barrier", "remove the first __syncthreads", true,
           &f.drop_barrier)
      .marks(&job.inject)
      .set("skew-index", "skew the first indexed store", true, &f.skew_index)
      .marks(&job.inject)
      .set("cache-corrupt", "flip a byte of the job's cache entry", true,
           &f.corrupt_cache)
      .set("cache-torn", "truncate the job's cache entry", true, &f.tear_cache)
      .set("cert-corrupt", "flip a byte of the job's certificates", true,
           &f.corrupt_cert)
      .set("cert-torn", "truncate the job's certificates", true, &f.tear_cert);
  return t;
}

}  // namespace

std::vector<JobSpec> parse_manifest(const std::string& text,
                                    const std::string& base_dir,
                                    const ManifestDefaults& defaults,
                                    std::string* error) {
  std::vector<JobSpec> jobs;
  auto fail = [&](int line_no, const std::string& msg) {
    if (error) *error = "line " + std::to_string(line_no) + ": " + msg;
    jobs.clear();
    return jobs;
  };

  // What a line that sets no key runs.
  JobSpec blank;
  blank.elems = defaults.elems;
  blank.tb = defaults.tb;
  blank.deadline_ms = defaults.deadline_ms;
  blank.max_attempts = defaults.max_attempts;
  blank.watchdog_steps = defaults.watchdog_steps;
  JobSpec job;
  std::string file;
  const FlagTable keys = manifest_keys(job, file);
  int line_no = 0;
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    ++line_no;
    std::string_view sv = trim(line);
    if (sv.empty() || sv[0] == '#') continue;

    job = blank;
    file.clear();
    std::istringstream in{std::string(sv)};
    const std::vector<std::string> fields{
        std::istream_iterator<std::string>(in), {}};
    if (auto e = keys.try_parse_fields(fields); !e.empty())
      return fail(line_no, e);
    if (file.empty()) return fail(line_no, "missing file=");
    std::string path = file;
    if (!base_dir.empty() && file[0] != '/') path = base_dir + "/" + file;
    auto source = read_file(path);
    if (!source) return fail(line_no, "cannot read " + path);
    job.source = std::move(*source);
    if (job.name.empty())  // the file's basename (npos + 1 == 0)
      job.name = file.substr(file.find_last_of('/') + 1) + ":" +
                 std::to_string(line_no);
    jobs.push_back(std::move(job));
  }
  return jobs;
}

std::vector<JobSpec> load_manifest(const std::string& path,
                                   const ManifestDefaults& defaults,
                                   std::string* error) {
  auto text = read_file(path);
  if (!text) {
    if (error) *error = "cannot read manifest " + path;
    return {};
  }
  std::size_t slash = path.find_last_of('/');
  std::string base_dir =
      slash == std::string::npos ? "" : path.substr(0, slash);
  return parse_manifest(*text, base_dir, defaults, error);
}

}  // namespace cudanp::serve
