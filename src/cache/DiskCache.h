//===-- cache/DiskCache.h - Persistent content-addressed cache --*- C++ -*-===//
//
// Part of the gpuc project: a reproduction of "A GPGPU Compiler for Memory
// Optimization and Parallelism Management" (PLDI 2010).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A persistent, content-addressed cache for the compiler's two expensive
/// pure functions:
///
///   - performance simulations (sim/SimCache's second tier): keyed by the
///     alpha-invariant structural kernel hash ⊕ DeviceSpec ⊕ PerfOptions
///   - full design-space searches: keyed by the naive kernel hash ⊕
///     DeviceSpec ⊕ the pipeline/sampling options, storing the winner's
///     emitted text and merge factors (gpucc's warm fast path)
///
/// Both keys additionally fold in SchemaVersion, so a cache directory
/// written by an older (or newer) gpuc never aliases current entries.
///
/// On-disk layout, one file per entry, fanned out by the top key byte:
///
///   <dir>/ab/ab12...cd.sim        performance-run entry
///   <dir>/ab/ab12...cd.txt        search-winner entry
///   <dir>/tmp/                    in-flight writes (unique names)
///   <dir>/quarantine/             corrupt entries moved aside
///
/// Every entry is MAGIC + schema version + kind + payload length + FNV-1a
/// payload checksum + payload. Writers serialize to <dir>/tmp and
/// atomically rename into place, so readers — in this process or another —
/// never observe a partial entry, and concurrent writers of the same key
/// simply race to publish identical bytes. Any malformed entry (bad magic,
/// foreign version, wrong kind, short file, checksum mismatch, undecodable
/// payload, zero length) is quarantined and reported as a miss: the caller
/// recomputes, and the poisoned file can never corrupt a result.
///
/// Thread safety: all methods are safe to call concurrently; counters are
/// atomic and the filesystem provides entry-level atomicity. Multiple
/// DiskCache instances (e.g. two gpucc processes) may share one directory.
///
//===----------------------------------------------------------------------===//

#ifndef GPUC_CACHE_DISKCACHE_H
#define GPUC_CACHE_DISKCACHE_H

#include "cache/Serialize.h"
#include "sim/SimCache.h"

#include <atomic>
#include <cstdint>
#include <string>

namespace gpuc {

/// Plain-value snapshot of the cache's traffic counters.
struct DiskCacheStats {
  uint64_t SimHits = 0;
  uint64_t SimMisses = 0;
  uint64_t TextHits = 0;
  uint64_t TextMisses = 0;
  uint64_t Writes = 0;
  uint64_t WriteErrors = 0;
  /// Malformed entries detected (each is also quarantined when possible).
  uint64_t Corrupt = 0;
  uint64_t Quarantined = 0;

  uint64_t hits() const { return SimHits + TextHits; }
  uint64_t misses() const { return SimMisses + TextMisses; }
  /// Disk-level hit rate in [0, 1]; 1 when there was no traffic.
  double hitRate() const {
    uint64_t Total = hits() + misses();
    return Total ? static_cast<double>(hits()) / Total : 1.0;
  }
};

/// The persistent second tier. Implements SimCacheBackend so a SimCache
/// can fall through to it transparently.
class DiskCache : public SimCacheBackend {
public:
  /// Bump on any change to the entry format, the payload encodings, the
  /// key derivation, or the compiler pipeline's observable output; old
  /// entries then quarantine on first touch instead of aliasing.
  // v2: kernel hashes cover the affine block remap and searches carry the
  // layout dimension (compileCacheKey bit 8).
  // v3: bit 8 is gone, so the default key equals v2's heuristic-search
  // key; a v2 winner stored under it may not be the layout search's.
  static constexpr uint32_t SchemaVersion = 3;

  enum class Kind : uint32_t { Perf = 1, Text = 2 };

  /// Opens (creating if needed) the cache rooted at \p Dir. On failure
  /// valid() is false and every operation degrades to a no-op miss.
  explicit DiskCache(std::string Dir);

  const std::string &directory() const { return Dir; }
  bool valid() const { return Valid; }

  // SimCacheBackend: performance-run entries.
  bool load(uint64_t Key, PerfResult &Out) override;
  void store(uint64_t Key, const PerfResult &Result) override;

  // Search-winner entries.
  bool loadText(uint64_t Key, CachedCompile &Out);
  void storeText(uint64_t Key, const CachedCompile &Entry);

  DiskCacheStats stats() const;

  /// The file an entry lives at (exists or not) — exposed so tests and
  /// tools can inspect, corrupt, or count entries.
  std::string entryPath(uint64_t Key, Kind K) const;

  /// Creates a fresh, uniquely named cache directory under the system
  /// temp directory (tests and benches).
  static std::string makeTempDir(const std::string &Prefix);

  /// Process-wide count of DiskCache instances ever constructed. The
  /// compile daemon's contract is one open per daemon lifetime no matter
  /// how many clients or batch rounds it serves (tests pin the delta).
  static uint64_t openCount();

private:
  bool loadEntry(uint64_t Key, Kind K, std::string &Payload);
  void storeEntry(uint64_t Key, Kind K, const std::string &Payload);
  void quarantine(const std::string &Path);

  std::string Dir;
  bool Valid = false;
  std::atomic<uint64_t> SimHits{0}, SimMisses{0};
  std::atomic<uint64_t> TextHits{0}, TextMisses{0};
  std::atomic<uint64_t> Writes{0}, WriteErrors{0};
  std::atomic<uint64_t> Corrupt{0}, Quarantined{0};
};

} // namespace gpuc

#endif // GPUC_CACHE_DISKCACHE_H
