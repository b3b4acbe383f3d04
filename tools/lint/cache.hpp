// Content-hash result cache shared by snnsec_lint and snnsec_analyze.
//
// Keyed on (path, content digest) and stamped with a tool version
// string that callers bump whenever the rule set or the serialized payload
// format changes — a version mismatch discards the whole cache. The payload
// is an opaque text blob: snnsec_lint stores serialized findings per file,
// snnsec_analyze stores the serialized per-file semantic model. Incremental
// tree scans then only re-parse files whose bytes changed.
//
// On-disk format (text, length-prefixed payloads so they may contain
// anything):
//   snnsec-cache v1 <tool-version>\n
//   <digest-hex> <payload-bytes> <path>\n
//   <payload>\n
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>

namespace snnsec::lint {

class FileCache {
 public:
  /// Loads `path` if it exists and its version stamp matches `version`.
  /// An empty `path` makes the cache a no-op (every lookup misses, save()
  /// does nothing) so callers need no branching.
  FileCache(std::string path, std::string version);

  /// Payload for `file` when cached under the same content digest.
  /// Counts a hit or a miss.
  std::optional<std::string> lookup(const std::string& file,
                                    std::uint64_t digest);

  /// Record the payload for `file` at `digest` (replaces any stale entry).
  void store(const std::string& file, std::uint64_t digest,
             std::string payload);

  /// Write the cache back to disk (write-temp-then-rename). Returns false
  /// on IO failure; the cache is an accelerator, so callers may ignore it.
  bool save() const;

  std::size_t hits() const { return hits_; }
  std::size_t misses() const { return misses_; }
  std::size_t entries() const { return entries_.size(); }

 private:
  struct Entry {
    std::uint64_t digest = 0;
    std::string payload;
  };
  std::string path_;
  std::string version_;
  std::unordered_map<std::string, Entry> entries_;
  std::size_t hits_ = 0;
  std::size_t misses_ = 0;
};

}  // namespace snnsec::lint
