#include "serve/artifact_cache.hpp"

#include <dirent.h>
#include <fcntl.h>
#include <stdio.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstring>

#include "serve/wire.hpp"
#include "support/hash.hpp"
#include "support/string_utils.hpp"

namespace cudanp::serve {

namespace {

std::uint64_t fnv1a(std::string_view s) { return Fnv1a().bytes(s).value(); }

bool key_is_safe(const std::string& key) {
  for (char c : key)
    if (!((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f') ||
          (c >= 'A' && c <= 'F')))
      return false;
  return !key.empty();
}

}  // namespace

/// First line of an entry file; the payload follows it.
struct ArtifactHeader : record::Codec<ArtifactHeader> {
  std::int64_t cudanp_artifact = 0;  // format version
  std::string key;
  std::int64_t len = -1;  // missing reads as torn
  std::string checksum;   // hex16 of the payload's FNV-1a

  static constexpr auto fields() {
    using R = ArtifactHeader;
    using record::field;
    return std::tuple{field("cudanp_artifact", &R::cudanp_artifact),
                      field("key", &R::key), field("len", &R::len),
                      field("checksum", &R::checksum)};
  }
};

ArtifactCache::ArtifactCache(ArtifactCacheOptions opt)
    : opt_(std::move(opt)) {
  std::lock_guard<std::mutex> lk(mu_);
  if (!opt_.dir.empty()) {
    ::mkdir(opt_.dir.c_str(), 0755);
    load_dir_locked();
  }
}

std::string ArtifactCache::file_path(const std::string& key) const {
  return opt_.dir + "/" + key + ".art";
}

void ArtifactCache::persist_locked(const std::string& key,
                                   const Entry& e) const {
  if (opt_.dir.empty()) return;
  const std::string final_path = file_path(key);
  const std::string tmp = final_path + ".tmp." + std::to_string(getpid());
  int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return;
  ArtifactHeader h;
  h.cudanp_artifact = 1;
  h.key = key;
  h.len = static_cast<std::int64_t>(e.declared_len);
  h.checksum = hex16(e.checksum);
  const bool ok = write_all(fd, h.json() + "\n" + e.payload);
  if (ok) (void)::fsync(fd);
  ::close(fd);
  if (!ok || ::rename(tmp.c_str(), final_path.c_str()) != 0)
    ::unlink(tmp.c_str());
}

void ArtifactCache::load_dir_locked() {
  DIR* d = ::opendir(opt_.dir.c_str());
  if (!d) return;
  // Collect names first so quarantine order is deterministic (readdir
  // order is not).
  std::map<std::string, std::string> files;  // key -> path
  while (dirent* ent = ::readdir(d)) {
    std::string name = ent->d_name;
    if (name.size() <= 4 || name.substr(name.size() - 4) != ".art")
      continue;
    files.emplace(name.substr(0, name.size() - 4), opt_.dir + "/" + name);
  }
  ::closedir(d);
  for (const auto& [key, path] : files) {
    auto text = read_file(path);
    if (!text) continue;
    const std::size_t nl = text->find('\n');
    std::string payload =
        nl == std::string::npos ? std::string() : text->substr(nl + 1);
    auto h = ArtifactHeader::from_json(std::string_view(*text).substr(0, nl));
    const bool valid =
        h && h->cudanp_artifact == 1 && h->key == key && key_is_safe(key);
    const bool torn =
        valid && static_cast<std::int64_t>(payload.size()) != h->len;
    if (!valid || torn || h->checksum != hex16(fnv1a(payload))) {
      ::unlink(path.c_str());
      ++(torn ? stats_.quarantined_torn : stats_.quarantined_corrupt);
      continue;
    }
    insert_locked(key, std::move(payload));
  }
  evict_past_capacity_locked();
}

const ArtifactCache::Entry& ArtifactCache::insert_locked(
    const std::string& key, std::string payload) {
  lru_.push_front(key);
  Entry e;
  e.payload = std::move(payload);
  e.declared_len = e.payload.size();
  e.checksum = fnv1a(e.payload);
  e.lru_it = lru_.begin();
  return entries_.emplace(key, std::move(e)).first->second;
}

void ArtifactCache::quarantine_locked(const std::string& key, bool torn) {
  auto it = entries_.find(key);
  if (it == entries_.end()) return;
  lru_.erase(it->second.lru_it);
  entries_.erase(it);
  if (!opt_.dir.empty()) ::unlink(file_path(key).c_str());
  ++(torn ? stats_.quarantined_torn : stats_.quarantined_corrupt);
}

void ArtifactCache::evict_past_capacity_locked() {
  const std::size_t cap =
      opt_.max_entries > 0 ? static_cast<std::size_t>(opt_.max_entries) : 0;
  while (entries_.size() > cap) {
    const std::string victim = lru_.back();
    lru_.pop_back();
    entries_.erase(victim);
    if (!opt_.dir.empty()) ::unlink(file_path(victim).c_str());
    ++stats_.evictions;
  }
}

std::optional<std::string> ArtifactCache::lookup(const std::string& key) {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = entries_.find(key);
  if (it == entries_.end()) {
    ++stats_.misses;
    return std::nullopt;
  }
  Entry& e = it->second;
  if (e.payload.size() != e.declared_len) {
    quarantine_locked(key, /*torn=*/true);
    ++stats_.misses;
    return std::nullopt;
  }
  if (fnv1a(e.payload) != e.checksum) {
    quarantine_locked(key, /*torn=*/false);
    ++stats_.misses;
    return std::nullopt;
  }
  lru_.erase(e.lru_it);
  lru_.push_front(key);
  e.lru_it = lru_.begin();
  ++stats_.hits;
  return e.payload;
}

void ArtifactCache::store(const std::string& key, std::string_view payload) {
  std::lock_guard<std::mutex> lk(mu_);
  if (opt_.max_entries <= 0) return;
  auto it = entries_.find(key);
  if (it != entries_.end()) {
    lru_.erase(it->second.lru_it);
    entries_.erase(it);
  }
  persist_locked(key, insert_locked(key, std::string(payload)));
  ++stats_.stores;
  evict_past_capacity_locked();
}

bool ArtifactCache::corrupt_entry(const std::string& key) {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = entries_.find(key);
  if (it == entries_.end() || it->second.payload.empty()) return false;
  // Flip one byte mid-payload; declared_len and checksum stay stale, so
  // the next lookup sees a full-length mismatch (corrupt, not torn).
  it->second.payload[it->second.payload.size() / 2] ^=
      static_cast<char>(0x40);
  persist_locked(key, it->second);
  return true;
}

bool ArtifactCache::tear_entry(const std::string& key) {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = entries_.find(key);
  if (it == entries_.end() || it->second.payload.empty()) return false;
  // Truncate to half: the payload no longer matches declared_len, which
  // is exactly what a write cut short by a crash looks like.
  it->second.payload.resize(it->second.payload.size() / 2);
  persist_locked(key, it->second);
  return true;
}

CacheStats ArtifactCache::stats() const {
  std::lock_guard<std::mutex> lk(mu_);
  return stats_;
}

std::size_t ArtifactCache::size() const {
  std::lock_guard<std::mutex> lk(mu_);
  return entries_.size();
}

}  // namespace cudanp::serve
