//===-- sim/SimCache.cpp - Performance-run memoization --------------------===//

#include "sim/SimCache.h"

#include "ast/Hash.h"

using namespace gpuc;

uint64_t gpuc::hashDevice(const DeviceSpec &Dev) {
  uint64_t H = 0x6a09e667f3bcc908ull;
  H = hashString(H, Dev.Name);
  H = hashCombine(H, static_cast<uint64_t>(Dev.NumSMs));
  H = hashCombine(H, static_cast<uint64_t>(Dev.SPsPerSM));
  H = hashBytes(H, &Dev.CoreClockGHz, sizeof(double));
  H = hashCombine(H, static_cast<uint64_t>(Dev.RegFileBytesPerSM));
  H = hashCombine(H, static_cast<uint64_t>(Dev.SharedBytesPerSM));
  H = hashCombine(H, static_cast<uint64_t>(Dev.MaxThreadsPerSM));
  H = hashCombine(H, static_cast<uint64_t>(Dev.MaxBlocksPerSM));
  H = hashCombine(H, static_cast<uint64_t>(Dev.MaxThreadsPerBlock));
  H = hashCombine(H, static_cast<uint64_t>(Dev.WarpSize));
  H = hashCombine(H, static_cast<uint64_t>(Dev.HalfWarp));
  H = hashCombine(H, static_cast<uint64_t>(Dev.LatencyHideThreads));
  H = hashCombine(H, static_cast<uint64_t>(Dev.NumPartitions));
  H = hashCombine(H, static_cast<uint64_t>(Dev.PartitionBytes));
  H = hashCombine(H, static_cast<uint64_t>(Dev.CoalesceSegBytes));
  H = hashCombine(H, static_cast<uint64_t>(Dev.MinTransactionBytes));
  H = hashCombine(H, Dev.RelaxedCoalescing ? 1 : 0);
  H = hashCombine(H, Dev.PreferWideVectors ? 1 : 0);
  H = hashBytes(H, &Dev.BWFloatGBs, sizeof(double));
  H = hashBytes(H, &Dev.BWFloat2GBs, sizeof(double));
  H = hashBytes(H, &Dev.BWFloat4GBs, sizeof(double));
  H = hashCombine(H, static_cast<uint64_t>(Dev.SharedBanks));
  H = hashBytes(H, &Dev.LaunchOverheadUs, sizeof(double));
  H = hashBytes(H, &Dev.GlobalLatencyCycles, sizeof(double));
  return H;
}

uint64_t gpuc::hashPerfOptions(const PerfOptions &Options) {
  uint64_t H = 0xbb67ae8584caa73bull;
  H = hashCombine(H, static_cast<uint64_t>(Options.SampleClusters));
  H = hashCombine(H, static_cast<uint64_t>(Options.BlocksPerCluster));
  H = hashCombine(H, static_cast<uint64_t>(Options.LoopSampleThreshold));
  H = hashCombine(H, static_cast<uint64_t>(Options.LoopSampleCount));
  H = hashCombine(H, static_cast<uint64_t>(Options.WorkPerBlockRef));
  H = hashCombine(H, Options.TrackSites ? 1 : 0);
  return H;
}

uint64_t gpuc::simCacheKey(const KernelFunction &K, const DeviceSpec &Dev,
                           const PerfOptions &Options) {
  return simCacheKey(hashKernel(K), Dev, Options);
}

uint64_t gpuc::simCacheKey(uint64_t KernelHash, const DeviceSpec &Dev,
                           const PerfOptions &Options) {
  uint64_t H = hashCombine(KernelHash, hashDevice(Dev));
  return hashCombine(H, hashPerfOptions(Options));
}

bool SimCache::lookup(uint64_t Key, PerfResult &Out) {
  {
    std::lock_guard<std::mutex> L(Mu);
    auto It = Entries.find(Key);
    if (It != Entries.end()) {
      Out = It->second;
      Hits.fetch_add(1);
      return true;
    }
  }
  // Second tier, outside the lock: backend loads do file I/O. Two threads
  // may both miss here and recompute; the first insert wins, as always.
  if (SimCacheBackend *B = Backend.load()) {
    if (B->load(Key, Out)) {
      DiskHits.fetch_add(1);
      // Promote into memory without writing back to the tier the result
      // just came from.
      std::lock_guard<std::mutex> L(Mu);
      Entries.emplace(Key, Out);
      return true;
    }
  }
  Misses.fetch_add(1);
  return false;
}

void SimCache::insert(uint64_t Key, const PerfResult &Result) {
  {
    std::lock_guard<std::mutex> L(Mu);
    Entries.emplace(Key, Result);
  }
  if (SimCacheBackend *B = Backend.load())
    B->store(Key, Result);
}

size_t SimCache::size() const {
  std::lock_guard<std::mutex> L(Mu);
  return Entries.size();
}

void SimCache::clear() {
  {
    std::lock_guard<std::mutex> L(Mu);
    Entries.clear();
  }
  Hits.store(0);
  Misses.store(0);
  DiskHits.store(0);
}
