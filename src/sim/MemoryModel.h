//===-- sim/MemoryModel.h - Coalescing/partition/bank model -----*- C++ -*-===//
//
// Part of the gpuc project: a reproduction of "A GPGPU Compiler for Memory
// Optimization and Parallelism Management" (PLDI 2010).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Groups the per-thread global/shared accesses of one executed statement
/// into half-warps and applies the hardware rules of Section 2:
///
///  * a half-warp access is coalesced into one contiguous, aligned segment
///    (16 * element size bytes) iff thread k reads word k of the segment;
///    otherwise each thread issues a separate (min 32-byte) transaction;
///  * each transaction lands in memory partition
///    (address / partition width) % number of partitions;
///  * shared-memory accesses serialize per bank ((word index) % 16) with a
///    broadcast exception when all lanes read the same word.
///
//===----------------------------------------------------------------------===//

#ifndef GPUC_SIM_MEMORYMODEL_H
#define GPUC_SIM_MEMORYMODEL_H

#include "sim/DeviceSpec.h"
#include "sim/Stats.h"

#include <cstdint>
#include <map>
#include <vector>

namespace gpuc {

/// Traffic attributed to one access expression (for performance reports:
/// which access moves the bytes).
struct SiteTraffic {
  const void *Site = nullptr;
  bool IsStore = false;
  double HalfWarps = 0;
  double CoalescedHalfWarps = 0;
  double Transactions = 0;
  double BytesMoved = 0;
};

/// Collects one statement's worth of memory accesses, then folds them into
/// SimStats at endStatement(). Accesses are bucketed by site; a window
/// (beginStatement to endStatement) clears and folds only the buckets
/// recorded into since it opened, so its cost follows the sites the
/// statement touches, not every site the run has seen.
class MemoryModel {
public:
  explicit MemoryModel(const DeviceSpec &Device) : Dev(Device) {}

  /// Additionally attribute traffic to individual access sites.
  void enableSiteTracking() { TrackSites = true; }
  const std::map<const void *, SiteTraffic> &siteTraffic() const {
    return Sites;
  }

  /// One thread's recorded access (Tid = linear id within its block).
  struct Access {
    long long Tid;
    long long Addr; // byte address (global) or byte offset (shared)
  };

  /// Opens a window: drops whatever was recorded since the last one
  /// closed (a loop header's accesses, which no window folds).
  void beginStatement();

  /// Records one thread's access to global memory at device address
  /// \p Addr. \p Site identifies the access expression (accesses from
  /// different expressions never coalesce with each other). \p Tid is the
  /// thread's linear id within its block.
  void recordGlobal(const void *Site, long long Tid, long long Addr,
                    int ElemBytes, bool IsStore);

  /// Records one thread's access to shared memory at byte offset
  /// \p Offset within the block's shared region.
  void recordShared(const void *Site, long long Tid, long long Offset,
                    int ElemBytes);

  /// Bulk-recording variant for the vector executor: returns the pending
  /// access list for \p Site (creating the bucket and stamping its
  /// element size / store flag), so a whole plane of accesses can be
  /// pushed without re-resolving the bucket per thread. Equivalent to
  /// calling recordGlobal/recordShared once per pushed Access.
  std::vector<Access> &globalSink(const void *Site, int ElemBytes,
                                  bool IsStore);
  std::vector<Access> &sharedSink(const void *Site, int ElemBytes);

  /// Folds one already-grouped half-warp of shared accesses (ascending
  /// thread order, one access site) immediately, without buffering.
  /// Equivalent to recordShared per lane plus the endStatement fold:
  /// every shared-memory contribution to SimStats is an integral count
  /// added in double, so the accumulation is exact and order-free.
  void foldSharedGroup(int ElemBytes, const Access *Lanes, int Count,
                       SimStats &Stats);
  int halfWarp() const { return Dev.HalfWarp; }

  /// Classifies all pending accesses and accumulates into \p Stats:
  /// global sites first, then shared sites, each in first-touch order.
  void endStatement(SimStats &Stats);

  /// Partition-camping factor of an accumulated histogram: how much slower
  /// the memory system runs versus perfectly balanced traffic
  /// (max-partition bytes * #partitions / total bytes, >= 1).
  static double campingFactor(const std::vector<double> &PartitionBytes);

private:
  struct Bucket {
    std::vector<Access> Accesses;
    int ElemBytes = 4;
    bool IsStore = false;
    /// Listed in the touched list since the last window opened or closed.
    bool Touched = false;
  };

  /// Map nodes are stable and kept for the whole run, with each bucket's
  /// capacity: sites repeat every statement.
  using BucketMap = std::map<const void *, Bucket>;
  /// The buckets recorded into since the last window opened or closed.
  using TouchedList = std::vector<BucketMap::value_type *>;

  static Bucket &touch(BucketMap &Pending, TouchedList &Touched,
                       const void *Site);
  void foldTouched(TouchedList &Touched, bool IsShared, SimStats &Stats);
  void foldGlobalHalfWarp(const void *Site, const Bucket &B,
                          const Access *Lanes, int Count, SimStats &Stats);
  void foldSharedHalfWarp(int ElemBytes, const Access *Lanes, int Count,
                          SimStats &Stats);
  void addPartitionBytes(SimStats &Stats, long long Addr, double Bytes);

  const DeviceSpec &Dev;
  BucketMap PendingGlobal;
  BucketMap PendingShared;
  TouchedList TouchedGlobal;
  TouchedList TouchedShared;
  /// A GT200 half-warp's segment ids; cleared per group, capacity kept.
  std::vector<long long> SegIds;
  bool TrackSites = false;
  std::map<const void *, SiteTraffic> Sites;
};

} // namespace gpuc

#endif // GPUC_SIM_MEMORYMODEL_H
