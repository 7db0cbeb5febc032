// Content-addressed compile cache for the serve layer.
//
// An ArtifactCache maps np::NpCompiler::artifact_key(source, options)
// to the serialized AttemptResult that key produced, so a daemon
// serving many tenants compiles each (source, options) pair once.
// Because execution is deterministic, a hit returns bytes identical to
// what recompilation would produce — caching changes wall time, never a
// ServiceReport (the determinism contract tests assert exactly this).
//
// Crash safety is the headline:
//   - every entry carries its payload length and an FNV-1a checksum;
//   - lookup() verifies both. A wrong-length payload is a *torn* entry
//     (a write that did not finish), a right-length payload with a
//     checksum mismatch is a *corrupt* one. Either way the entry is
//     quarantined — removed and counted, never served — and the caller
//     recompiles and re-stores;
//   - when backed by a directory, entry files are written to a
//     pid-unique temp name and rename()d into place, and a reload scan
//     quarantines any file that fails its own header check, so a daemon
//     killed mid-store restarts with only verified entries.
//
// Capacity is LRU-bounded (max_entries); eviction also unlinks the
// disk file. corrupt_entry()/tear_entry() are the chaos hooks behind
// the manifest's `cache-corrupt` / `cache-torn` fault keys: they damage
// a stored entry in place to prove the quarantine-and-recompile path.
//
// Thread-safe: BatchService calls lookup/store from exec_pool workers.
#pragma once

#include <cstdint>
#include <list>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>

#include "support/record.hpp"

namespace cudanp::serve {

/// Operator counters, exported through the daemon's `status` request.
struct CacheStats : record::Codec<CacheStats> {
  std::int64_t hits = 0;
  std::int64_t misses = 0;
  std::int64_t stores = 0;
  std::int64_t evictions = 0;
  /// Entries quarantined for a checksum mismatch at full length.
  std::int64_t quarantined_corrupt = 0;
  /// Entries quarantined for a payload shorter than declared.
  std::int64_t quarantined_torn = 0;

  static constexpr auto fields() {
    using R = CacheStats;
    using record::field;
    return std::tuple{field("hits", &R::hits), field("misses", &R::misses),
                      field("stores", &R::stores),
                      field("evictions", &R::evictions),
                      field("quarantined_corrupt", &R::quarantined_corrupt),
                      field("quarantined_torn", &R::quarantined_torn)};
  }
};

struct ArtifactCacheOptions {
  /// LRU capacity; <= 0 disables storing entirely (every lookup misses).
  int max_entries = 1024;
  /// Optional backing directory: entries persist across restarts via
  /// temp-file + rename. Empty = memory only.
  std::string dir;
};

class ArtifactCache {
 public:
  explicit ArtifactCache(ArtifactCacheOptions opt);

  ArtifactCache(const ArtifactCache&) = delete;
  ArtifactCache& operator=(const ArtifactCache&) = delete;

  /// Returns the verified payload for `key`, or nullopt on a miss. A
  /// damaged entry (torn or corrupt) is quarantined — erased from
  /// memory and disk, counted in stats — and reported as a miss.
  [[nodiscard]] std::optional<std::string> lookup(const std::string& key);

  /// Inserts (or refreshes) an entry, evicting the least recently used
  /// one past capacity.
  void store(const std::string& key, std::string_view payload);

  /// Chaos hooks: damage the stored entry for `key` in place (memory
  /// and disk). Return false when no such entry exists.
  bool corrupt_entry(const std::string& key);
  bool tear_entry(const std::string& key);

  [[nodiscard]] CacheStats stats() const;
  [[nodiscard]] std::size_t size() const;

 private:
  struct Entry {
    std::string payload;
    /// Length and checksum recorded at store time; lookup re-verifies
    /// the payload against both.
    std::size_t declared_len = 0;
    std::uint64_t checksum = 0;
    std::list<std::string>::iterator lru_it;
  };

  /// Adds a verified entry at the front of the LRU list (the key must
  /// be absent).
  const Entry& insert_locked(const std::string& key, std::string payload);
  void quarantine_locked(const std::string& key, bool torn);
  void evict_past_capacity_locked();
  [[nodiscard]] std::string file_path(const std::string& key) const;
  void persist_locked(const std::string& key, const Entry& e) const;
  void load_dir_locked();

  ArtifactCacheOptions opt_;
  mutable std::mutex mu_;
  /// Most recently used at the front.
  std::list<std::string> lru_;
  std::map<std::string, Entry> entries_;
  CacheStats stats_;
};

}  // namespace cudanp::serve
