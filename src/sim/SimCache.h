//===-- sim/SimCache.h - Performance-run memoization ------------*- C++ -*-===//
//
// Part of the gpuc project: a reproduction of "A GPGPU Compiler for Memory
// Optimization and Parallelism Management" (PLDI 2010).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Memoizes Simulator::runPerformance results. The design-space search and
/// the staged benchmark pipelines (Figure 12's optimization prefixes)
/// repeatedly build structurally identical kernels; a performance run is a
/// pure function of (kernel structure, device, sampling options), so its
/// result can be reused.
///
/// The key is ast/Hash's alpha-invariant structural hash combined with a
/// hash of the DeviceSpec and the PerfOptions — kernels that differ only
/// in generated temp names or in the kernel's own name share an entry.
/// The cache is thread-safe; the parallel search shares one instance
/// across variant-simulation tasks.
///
/// The table is two-tier: an optional SimCacheBackend (cache/DiskCache is
/// the persistent implementation) backs the in-memory map. A memory miss
/// falls through to the backend; a backend hit is promoted into memory; a
/// fresh insert is written through to the backend. The backend must be
/// thread-safe and may be shared by several SimCache instances and by
/// other processes.
///
//===----------------------------------------------------------------------===//

#ifndef GPUC_SIM_SIMCACHE_H
#define GPUC_SIM_SIMCACHE_H

#include "sim/Simulator.h"

#include <atomic>
#include <cstdint>
#include <mutex>
#include <unordered_map>

namespace gpuc {

class KernelFunction;

/// Hash of the device parameters that influence a performance run.
uint64_t hashDevice(const DeviceSpec &Dev);

/// Hash of the sampling parameters (TrackSites included: it changes the
/// Sites payload of the result).
uint64_t hashPerfOptions(const PerfOptions &Options);

/// Combined memoization key for one performance run.
uint64_t simCacheKey(const KernelFunction &K, const DeviceSpec &Dev,
                     const PerfOptions &Options);

/// The same key from the kernel's hashKernel value, for callers that
/// already hold it.
uint64_t simCacheKey(uint64_t KernelHash, const DeviceSpec &Dev,
                     const PerfOptions &Options);

/// A persistent (or otherwise external) second tier behind SimCache.
/// Implementations must be thread-safe; load/store failures must degrade
/// to misses/no-ops, never to errors observable by the search.
class SimCacheBackend {
public:
  virtual ~SimCacheBackend() = default;

  /// \returns true and fills \p Out when the backend holds \p Key.
  virtual bool load(uint64_t Key, PerfResult &Out) = 0;

  /// Persists \p Result under \p Key (idempotent; concurrent stores of
  /// one key write identical content).
  virtual void store(uint64_t Key, const PerfResult &Result) = 0;
};

/// Thread-safe memo table for performance runs, with hit/miss counters
/// and an optional persistent second tier. One mutex guards the in-memory
/// map for the duration of a find, copy or emplace; backend I/O runs
/// outside it.
class SimCache {
public:
  /// \returns true and fills \p Out when \p Key is present in memory or
  /// in the backend (backend hits are promoted into memory).
  bool lookup(uint64_t Key, PerfResult &Out);

  /// Records \p Result under \p Key (first write wins) and writes it
  /// through to the backend.
  void insert(uint64_t Key, const PerfResult &Result);

  /// Attaches the second tier (null detaches). Attach before sharing the
  /// cache across threads; the pointer itself is read atomically.
  void setBackend(SimCacheBackend *B) { Backend.store(B); }
  SimCacheBackend *backend() const { return Backend.load(); }

  /// In-memory hits.
  uint64_t hits() const { return Hits.load(); }
  /// Misses in both tiers (a backend hit is neither a hit() nor a miss()).
  uint64_t misses() const { return Misses.load(); }
  /// Memory misses answered by the backend.
  uint64_t diskHits() const { return DiskHits.load(); }
  size_t size() const;

  /// Drops the in-memory tier and resets counters; the backend's contents
  /// are untouched (a persistent cache outlives any one process).
  void clear();

private:
  mutable std::mutex Mu;
  std::unordered_map<uint64_t, PerfResult> Entries;
  std::atomic<SimCacheBackend *> Backend{nullptr};
  std::atomic<uint64_t> Hits{0};
  std::atomic<uint64_t> Misses{0};
  std::atomic<uint64_t> DiskHits{0};
};

} // namespace gpuc

#endif // GPUC_SIM_SIMCACHE_H
