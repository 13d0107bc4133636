//===-- sim/MemoryModel.cpp - Coalescing/partition/bank model -------------===//

#include "sim/MemoryModel.h"

#include <algorithm>
#include <cassert>

using namespace gpuc;

MemoryModel::Bucket &MemoryModel::touch(BucketMap &Pending,
                                        TouchedList &Touched,
                                        const void *Site) {
  BucketMap::value_type &Entry = *Pending.try_emplace(Site).first;
  if (!Entry.second.Touched) {
    Entry.second.Touched = true;
    Touched.push_back(&Entry);
  }
  return Entry.second;
}

void MemoryModel::beginStatement() {
  // Only a listed bucket can hold accesses.
  for (TouchedList *List : {&TouchedGlobal, &TouchedShared}) {
    for (BucketMap::value_type *Entry : *List) {
      Entry->second.Accesses.clear();
      Entry->second.Touched = false;
    }
    List->clear();
  }
}

void MemoryModel::recordGlobal(const void *Site, long long Tid,
                               long long Addr, int ElemBytes, bool IsStore) {
  globalSink(Site, ElemBytes, IsStore).push_back({Tid, Addr});
}

void MemoryModel::recordShared(const void *Site, long long Tid,
                               long long Offset, int ElemBytes) {
  sharedSink(Site, ElemBytes).push_back({Tid, Offset});
}

std::vector<MemoryModel::Access> &
MemoryModel::globalSink(const void *Site, int ElemBytes, bool IsStore) {
  Bucket &B = touch(PendingGlobal, TouchedGlobal, Site);
  B.ElemBytes = ElemBytes;
  B.IsStore = IsStore;
  return B.Accesses;
}

std::vector<MemoryModel::Access> &MemoryModel::sharedSink(const void *Site,
                                                          int ElemBytes) {
  Bucket &B = touch(PendingShared, TouchedShared, Site);
  B.ElemBytes = ElemBytes;
  return B.Accesses;
}

void MemoryModel::addPartitionBytes(SimStats &Stats, long long Addr,
                                    double Bytes) {
  if (Stats.PartitionBytes.size() !=
      static_cast<size_t>(Dev.NumPartitions))
    Stats.PartitionBytes.assign(Dev.NumPartitions, 0.0);
  int Part = static_cast<int>((Addr / Dev.PartitionBytes) % Dev.NumPartitions);
  Stats.PartitionBytes[static_cast<size_t>(Part)] += Bytes;
}

void MemoryModel::foldGlobalHalfWarp(const void *Site, const Bucket &B,
                                     const Access *Lanes, int Count,
                                     SimStats &Stats) {
  assert(Count > 0 && "empty half-warp group");
  SimStats Before = TrackSites ? Stats : SimStats();
  const int ElemBytes = B.ElemBytes;
  const long long SegBytes = static_cast<long long>(Dev.HalfWarp) * ElemBytes;

  if (B.IsStore)
    Stats.GlobalStoreHalfWarps += 1;
  else
    Stats.GlobalLoadHalfWarps += 1;
  Stats.UsefulBytes += static_cast<double>(Count) * ElemBytes;

  // Coalescing rule (Section 2a / 3.2): lane k must access word k of a
  // SegBytes-aligned segment.
  long long SegBase = Lanes[0].Addr - (Lanes[0].Tid % Dev.HalfWarp) * ElemBytes;
  bool Coalesced = SegBase % SegBytes == 0;
  if (Coalesced) {
    for (int I = 0; I < Count; ++I) {
      if (Lanes[I].Addr !=
          SegBase + (Lanes[I].Tid % Dev.HalfWarp) * ElemBytes) {
        Coalesced = false;
        break;
      }
    }
  }

  double *MovedClass = ElemBytes >= 16  ? &Stats.BytesMovedFloat4
                       : ElemBytes >= 8 ? &Stats.BytesMovedFloat2
                                        : &Stats.BytesMovedFloat;
  auto Attribute = [&] {
    if (!TrackSites)
      return;
    SiteTraffic &T = Sites[Site];
    T.Site = Site;
    T.IsStore = B.IsStore;
    T.HalfWarps += 1;
    T.CoalescedHalfWarps += Stats.CoalescedHalfWarps - Before.CoalescedHalfWarps;
    T.Transactions += Stats.Transactions - Before.Transactions;
    T.BytesMoved += Stats.bytesMovedTotal() - Before.bytesMovedTotal();
  };
  if (Coalesced) {
    Stats.CoalescedHalfWarps += 1;
    // float -> one 64B transaction; float2 -> one 128B; float4 -> two 128B.
    Stats.Transactions += ElemBytes >= 16 ? 2 : 1;
    *MovedClass += static_cast<double>(SegBytes);
    addPartitionBytes(Stats, SegBase, static_cast<double>(SegBytes));
    Attribute();
    return;
  }

  Stats.UncoalescedHalfWarps += 1;
  const int TxBytes = std::max(Dev.MinTransactionBytes, ElemBytes);
  if (!Dev.RelaxedCoalescing) {
    // G80: one separate transaction per lane.
    for (int I = 0; I < Count; ++I) {
      Stats.Transactions += 1;
      *MovedClass += TxBytes;
      addPartitionBytes(Stats, Lanes[I].Addr, TxBytes);
    }
    Attribute();
    return;
  }
  // GT200: minimal set of aligned 32-byte segments covering the lanes.
  SegIds.clear();
  for (int I = 0; I < Count; ++I) {
    long long First = Lanes[I].Addr / TxBytes;
    long long Last = (Lanes[I].Addr + ElemBytes - 1) / TxBytes;
    for (long long S = First; S <= Last; ++S)
      SegIds.push_back(S);
  }
  std::sort(SegIds.begin(), SegIds.end());
  SegIds.erase(std::unique(SegIds.begin(), SegIds.end()), SegIds.end());
  for (long long S : SegIds) {
    Stats.Transactions += 1;
    *MovedClass += TxBytes;
    addPartitionBytes(Stats, S * TxBytes, TxBytes);
  }
  Attribute();
}

void MemoryModel::foldSharedGroup(int ElemBytes, const Access *Lanes,
                                  int Count, SimStats &Stats) {
  foldSharedHalfWarp(ElemBytes, Lanes, Count, Stats);
}

void MemoryModel::foldSharedHalfWarp(int ElemBytes, const Access *Lanes,
                                     int Count, SimStats &Stats) {
  Stats.SharedAccessHalfWarps += 1;
  // Bank = word index modulo 16. A multi-word element occupies
  // ElemBytes/4 consecutive banks (float2 shared accesses serialize).
  const int WordsPerElem = std::max(1, ElemBytes / 4);
  if (WordsPerElem == 1) {
    const long long FirstWord = Lanes[0].Addr / 4;
    int I = 1;
    while (I < Count && Lanes[I].Addr / 4 == FirstWord)
      ++I;
    if (I == Count)
      return; // broadcast
  }
  // Offsets are non-negative, so a power-of-two bank count masks.
  const long long Banks = Dev.SharedBanks;
  const long long Mask = (Banks & (Banks - 1)) == 0 ? Banks - 1 : -1;
  int BankCount[32] = {0};
  int MaxPerBank = 0;
  for (int I = 0; I < Count; ++I) {
    const long long Word = Lanes[I].Addr / 4;
    for (int W = 0; W < WordsPerElem; ++W) {
      const long long Bank = Mask >= 0 ? (Word + W) & Mask : (Word + W) % Banks;
      MaxPerBank = std::max(MaxPerBank, ++BankCount[Bank]);
    }
  }
  Stats.SharedBankExtraCycles += std::max(0, MaxPerBank - 1);
}

void MemoryModel::foldTouched(TouchedList &Touched, bool IsShared,
                              SimStats &Stats) {
  // First-touch order: every contribution is an integral count summed in
  // double, so the order the buckets fold in cannot change SimStats.
  for (BucketMap::value_type *Entry : Touched) {
    const void *Site = Entry->first;
    Bucket &B = Entry->second;
    B.Touched = false;
    if (B.Accesses.empty())
      continue;
    // Both engines emit accesses in ascending thread order, so the sort
    // is a no-op guard for exotic callers; probe before paying for it.
    auto ByTid = [](const Access &A1, const Access &A2) {
      return A1.Tid < A2.Tid;
    };
    if (!std::is_sorted(B.Accesses.begin(), B.Accesses.end(), ByTid))
      std::sort(B.Accesses.begin(), B.Accesses.end(), ByTid);
    size_t I = 0;
    while (I < B.Accesses.size()) {
      long long HalfWarpId = B.Accesses[I].Tid / Dev.HalfWarp;
      size_t J = I;
      while (J < B.Accesses.size() &&
             B.Accesses[J].Tid / Dev.HalfWarp == HalfWarpId)
        ++J;
      int Count = static_cast<int>(J - I);
      if (IsShared)
        foldSharedHalfWarp(B.ElemBytes, &B.Accesses[I], Count, Stats);
      else
        foldGlobalHalfWarp(Site, B, &B.Accesses[I], Count, Stats);
      I = J;
    }
    B.Accesses.clear();
  }
  Touched.clear();
}

void MemoryModel::endStatement(SimStats &Stats) {
  foldTouched(TouchedGlobal, /*IsShared=*/false, Stats);
  foldTouched(TouchedShared, /*IsShared=*/true, Stats);
}

double MemoryModel::campingFactor(const std::vector<double> &PartitionBytes) {
  double Total = 0, Max = 0;
  for (double B : PartitionBytes) {
    Total += B;
    Max = std::max(Max, B);
  }
  if (Total <= 0 || PartitionBytes.empty())
    return 1.0;
  double Factor = Max * static_cast<double>(PartitionBytes.size()) / Total;
  return std::max(1.0, Factor);
}
