#include "serve/journal.hpp"

#include <errno.h>
#include <fcntl.h>
#include <string.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <sstream>

#include "serve/supervisor.hpp"
#include "support/hash.hpp"
#include "support/json.hpp"
#include "support/string_utils.hpp"

namespace cudanp::serve {

namespace {

constexpr int kJournalVersion = 1;

std::string dirname_of(const std::string& path) {
  std::size_t slash = path.find_last_of('/');
  if (slash == std::string::npos) return ".";
  if (slash == 0) return "/";
  return path.substr(0, slash);
}

/// fsync the directory so the rename (or append target) itself is
/// durable, not just the file contents.
void fsync_dir(const std::string& dir) {
  int fd = open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return;
  (void)fsync(fd);
  close(fd);
}

}  // namespace

std::string batch_fingerprint(const std::vector<JobSpec>& jobs,
                              const sim::DeviceSpec& spec,
                              const ServiceOptions& opt) {
  Fnv1a h;
  auto i64 = [&h](std::int64_t v) { h.field(std::to_string(v)); };
  i64(kJournalVersion);
  // The device model decides which variants apply (sm_version gates
  // __shfl), so it is part of every outcome.
  h.field(spec.name);
  i64(spec.sm_version);
  i64(static_cast<std::int64_t>(jobs.size()));
  for (const JobSpec& j : jobs) {
    h.field(j.name);
    h.field(j.source);
    h.field(j.kernel);
    i64(j.elems);
    i64(j.tb);
    i64(j.deadline_ms);
    i64(j.max_attempts);
    i64(j.watchdog_steps);
    i64(j.inject ? 1 : 0);
    h.field(j.fault.json());
    i64(j.transient_attempts);
  }
  // Every option that can change an outcome or the commit derivation.
  // --jobs and commit_chunk are deliberately absent: reports are
  // bit-identical across both.
  i64(opt.queue_capacity);
  i64(opt.default_deadline_ms);
  i64(opt.min_feasible_ms);
  i64(opt.steps_per_ms);
  i64(opt.attempt_cost_ms);
  i64(opt.drain_before_job);
  i64(opt.retry.max_attempts);
  i64(opt.retry.base_backoff_ms);
  i64(opt.retry.max_backoff_ms);
  i64(opt.retry.jitter_ms);
  i64(static_cast<std::int64_t>(opt.retry.seed));
  i64(opt.breaker.failure_threshold);
  i64(opt.breaker.cooldown_ms);
  i64(static_cast<std::int64_t>(opt.sanitizer.error_limit));
  i64(static_cast<std::int64_t>(opt.sanitizer.race_mode));
  i64(opt.sanitizer.dedupe ? 1 : 0);
  std::ostringstream tol;
  tol.precision(17);
  tol << opt.f32_rel_tol;
  h.field(tol.str());
  h.field(to_string(opt.isolate));
  i64(opt.supervisor.worker_mem_mb);
  i64(opt.certify ? 1 : 0);
  i64(opt.certified_fast_path ? 1 : 0);

  return h.hex();
}

std::optional<JournalContents> load_journal(const std::string& path,
                                            std::string* error) {
  const auto file = read_file(path);
  if (!file) {
    if (error) *error = "cannot open journal " + path;
    return std::nullopt;
  }
  const std::string& text = *file;
  JournalContents out;
  std::size_t pos = 0;
  bool have_header = false;
  while (pos < text.size()) {
    std::size_t nl = text.find('\n', pos);
    if (nl == std::string::npos) break;  // torn tail: no newline yet
    // A torn or corrupt line ends the intact prefix; everything after
    // it is re-executed on resume. So does a record with no outcome,
    // which the codec would read as a default one.
    auto v = json::parse(std::string_view(text).substr(pos, nl - pos));
    if (!v) break;
    if (!have_header) {
      auto header = record::read<JournalHeader>(*v);
      if (!header) break;
      if (header->cudanp_journal != kJournalVersion) {
        if (error) *error = path + ": not a cudanp journal";
        return std::nullopt;
      }
      out.fingerprint = std::move(header->fingerprint);
      have_header = true;
    } else {
      auto rec = v->find("outcome") ? record::read<JournalRecord>(*v)
                                    : std::nullopt;
      if (!rec) break;
      out.records.push_back(std::move(*rec));
    }
    pos = nl + 1;
  }
  if (!have_header) {
    if (error) *error = path + ": missing journal header";
    return std::nullopt;
  }
  out.valid_bytes = static_cast<std::int64_t>(pos);
  return out;
}

std::optional<JournalWriter> JournalWriter::create(
    const std::string& path, const std::string& fingerprint,
    std::string* error) {
  // pid-unique temp segment, O_EXCL so two racing batches can never
  // interleave writes into one half-written header.
  const std::string tmp =
      path + ".tmp." + std::to_string(static_cast<long>(getpid()));
  int fd = open(tmp.c_str(), O_WRONLY | O_CREAT | O_EXCL, 0644);
  if (fd < 0) {
    if (error)
      *error = "cannot create journal segment " + tmp + ": " +
               strerror(errno);
    return std::nullopt;
  }
  cleanup::register_path(tmp);
  JournalHeader header;
  header.cudanp_journal = kJournalVersion;
  header.fingerprint = fingerprint;
  bool ok = write_all(fd, header.json() + "\n") && fsync(fd) == 0;
  if (!ok || rename(tmp.c_str(), path.c_str()) != 0) {
    close(fd);
    unlink(tmp.c_str());
    cleanup::unregister_path(tmp);
    if (error) *error = "cannot write journal " + path;
    return std::nullopt;
  }
  cleanup::unregister_path(tmp);
  fsync_dir(dirname_of(path));
  JournalWriter w;
  w.fd_ = fd;
  return w;
}

std::optional<JournalWriter> JournalWriter::open_for_resume(
    const std::string& path, std::int64_t valid_bytes,
    std::string* error) {
  int fd = open(path.c_str(), O_WRONLY);
  if (fd < 0) {
    if (error) *error = "cannot open journal " + path;
    return std::nullopt;
  }
  // Drop the torn tail before appending: the journal must stay a clean
  // prefix of intact lines at all times.
  if (ftruncate(fd, static_cast<off_t>(valid_bytes)) != 0 ||
      lseek(fd, 0, SEEK_END) < 0) {
    close(fd);
    if (error) *error = "cannot truncate journal " + path;
    return std::nullopt;
  }
  JournalWriter w;
  w.fd_ = fd;
  return w;
}

JournalWriter::JournalWriter(JournalWriter&& other) noexcept
    : fd_(other.fd_), write_failed_(other.write_failed_) {
  other.fd_ = -1;
}

JournalWriter& JournalWriter::operator=(JournalWriter&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) close(fd_);
    fd_ = other.fd_;
    write_failed_ = other.write_failed_;
    other.fd_ = -1;
  }
  return *this;
}

JournalWriter::~JournalWriter() {
  if (fd_ >= 0) close(fd_);
}

bool JournalWriter::append(std::size_t k, const JobOutcome& outcome) {
  if (fd_ < 0 || write_failed_) return false;
  JournalRecord rec;
  rec.k = k;
  rec.outcome = outcome;
  if (!write_all(fd_, rec.json() + "\n") || fsync(fd_) != 0) {
    write_failed_ = true;
    return false;
  }
  return true;
}

}  // namespace cudanp::serve
