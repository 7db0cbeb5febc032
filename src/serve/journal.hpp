// Write-ahead commit journal: durable batch recovery for BatchService.
//
// Layout (one JSON document per line):
//
//   {"cudanp_journal":1,"fingerprint":"<16 hex>"}     header
//   {"k":0,"outcome":{...}}                           one per outcome,
//   {"k":1,"outcome":{...}}                           accepted-queue
//   ...                                               order
//
// The journal records JobOutcomes — execution results — not JobResults.
// The commit pass (virtual clock, breakers, counters) is a pure
// function of outcomes in admission order, so replaying journaled
// outcomes and re-deriving the commit yields a ServiceReport
// byte-identical to the uninterrupted run. That is the whole recovery
// contract: `--journal=J` then SIGKILL at any instant, then
// `--journal=J --resume` finishes the batch with the exact report.
//
// Durability discipline (the temp-file satellite of the issue):
//   - the header segment is created as a pid-unique O_EXCL temp file,
//     fsync'd, then renamed into place (and the directory fsync'd), so
//     a crash during creation leaves either nothing or a valid header —
//     never a half-written journal at the final path;
//   - every record append is fsync'd before the outcome commits;
//   - a SIGKILL mid-append leaves a torn final line, which load_journal
//     tolerates (the record is simply re-executed on resume) and
//     open_for_resume truncates before appending;
//   - temp segments are registered with serve::cleanup so signal exit
//     unlinks them.
//
// The fingerprint (FNV-1a over every job spec + every
// determinism-relevant service option) guards resume: replaying a
// journal against a different batch would silently fabricate a report,
// so it raises ResumeMismatchError instead (cudanp-cc exit 9).
#pragma once

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "serve/service.hpp"

namespace cudanp::serve {

/// `--resume` against a journal written for a different batch (or
/// different determinism-relevant options). Deliberately an exception:
/// this is operator error, not job misbehaviour, and must not produce a
/// report at all.
class ResumeMismatchError : public std::runtime_error {
 public:
  explicit ResumeMismatchError(const std::string& what)
      : std::runtime_error(what) {}
};

/// The first line of a journal.
struct JournalHeader : record::Codec<JournalHeader> {
  std::int64_t cudanp_journal = 0;  // format version
  std::string fingerprint;

  static constexpr auto fields() {
    using R = JournalHeader;
    using record::field;
    return std::tuple{field("cudanp_journal", &R::cudanp_journal),
                      field("fingerprint", &R::fingerprint)};
  }
};

/// Every later line: one outcome.
struct JournalRecord : record::Codec<JournalRecord> {
  std::size_t k = 0;  // accepted-queue position
  JobOutcome outcome;

  static constexpr auto fields() {
    using R = JournalRecord;
    using record::field;
    return std::tuple{field("k", &R::k), field("outcome", &R::outcome)};
  }
};

struct JournalContents {
  std::string fingerprint;
  std::vector<JournalRecord> records;
  /// Byte offset just past the last intact line; a torn tail (SIGKILL
  /// mid-append) lies beyond it and is discarded on resume.
  std::int64_t valid_bytes = 0;
};

/// FNV-1a over the job specs, the device model (name and sm_version)
/// and every service option that feeds the report. Two batches with
/// equal fingerprints produce byte-identical reports from equal
/// outcomes.
[[nodiscard]] std::string batch_fingerprint(
    const std::vector<JobSpec>& jobs, const sim::DeviceSpec& spec,
    const ServiceOptions& opt);

/// Reads a journal back. Returns nullopt (with *error) when the file is
/// missing or its header is unreadable; a torn final record is not an
/// error. Does not check the fingerprint — the caller compares against
/// batch_fingerprint and raises ResumeMismatchError on a mismatch.
[[nodiscard]] std::optional<JournalContents> load_journal(
    const std::string& path, std::string* error);

class JournalWriter {
 public:
  /// Creates a fresh journal at `path` (replacing any previous one)
  /// via the O_EXCL-temp + fsync + rename discipline above.
  [[nodiscard]] static std::optional<JournalWriter> create(
      const std::string& path, const std::string& fingerprint,
      std::string* error);

  /// Opens an existing journal to continue a resumed batch: truncates
  /// the torn tail at `valid_bytes` and appends after it.
  [[nodiscard]] static std::optional<JournalWriter> open_for_resume(
      const std::string& path, std::int64_t valid_bytes,
      std::string* error);

  JournalWriter(JournalWriter&& other) noexcept;
  JournalWriter& operator=(JournalWriter&& other) noexcept;
  JournalWriter(const JournalWriter&) = delete;
  JournalWriter& operator=(const JournalWriter&) = delete;
  ~JournalWriter();

  /// Appends one outcome record and fsyncs it. Returns false on an I/O
  /// error (the batch continues — journaling is belt, not suspenders —
  /// but the failure is sticky and visible via ok()).
  bool append(std::size_t k, const JobOutcome& outcome);

  [[nodiscard]] bool ok() const { return fd_ >= 0 && !write_failed_; }

 private:
  JournalWriter() = default;

  int fd_ = -1;
  bool write_failed_ = false;
};

}  // namespace cudanp::serve
