//===-- sim/Simulator.cpp - Simulation facade -----------------------------===//

#include "sim/Simulator.h"

#include "ast/Printer.h"
#include "ast/Walk.h"
#include "sim/BlockMemo.h"
#include "sim/SimCache.h"

#include <algorithm>
#include <limits>

using namespace gpuc;

/// Floor for the work-normalized per-cluster block count: at least two
/// consecutive blocks are needed for the partition-camping model to see
/// co-resident conflicts.
static constexpr long long MinBlocksPerCluster = 2;

bool Simulator::runFunctional(const KernelFunction &K, BufferSet &Buffers,
                              DiagnosticsEngine &Diags,
                              RaceLog *Races) const {
  Interpreter Interp(Dev, K, Buffers, Diags);
  if (!Interp.prepare())
    return false;
  InterpOptions Opt; // no statistics, full execution
  Opt.Races = Races;
  Opt.Backend = Backend;
  if (Interp.hasGlobalSync())
    Interp.runGrid(Opt);
  else
    Interp.runBlocks(0, K.launch().numBlocks(), Opt);
  noteFallback(Interp);
  return Interp.ok();
}

bool Simulator::runPipelineFunctional(
    const std::vector<const KernelFunction *> &Stages, BufferSet &Buffers,
    DiagnosticsEngine &Diags, RaceLog *Races) const {
  // Sequential launches against one buffer set: arrays are bound by
  // parameter name, so a producer's output is simply there when the next
  // stage binds the same name. Kernel-launch boundaries are the grid-wide
  // barrier the unfused pipeline relies on.
  for (const KernelFunction *S : Stages)
    if (!runFunctional(*S, Buffers, Diags, Races))
      return false;
  return true;
}

PerfResult Simulator::runPerformance(const KernelFunction &K,
                                     DiagnosticsEngine &Diags,
                                     const PerfOptions &Options,
                                     BlockMemo *Memo,
                                     const KernelFacts *Facts) const {
  uint64_t Key = 0;
  if (Cache) {
    Key = Facts ? simCacheKey(Facts->Hash, Dev, Options)
                : simCacheKey(K, Dev, Options);
    PerfResult Cached;
    if (Cache->lookup(Key, Cached))
      return Cached;
  }

  PerfResult R;
  R.Occ = Facts ? Facts->Occ : computeOccupancy(Dev, K);
  if (R.Occ.Infeasible) {
    R.Valid = false;
    R.TimeMs = std::numeric_limits<double>::infinity();
    return R;
  }

  // A memoized block carries no per-site traffic.
  if (Options.TrackSites)
    Memo = nullptr;
  // Nothing is bound: every array reads lazy zero pages and every scalar
  // its compile-time binding, so the result depends on nothing the cache
  // key leaves out.
  BufferSet Unbound;
  Interpreter Interp(Dev, K, Unbound, Diags);
  if (!Interp.prepare(UnboundArrays::LazyZeroPages))
    return R;

  SimStats Sampled;
  MemoryModel MM(Dev);
  if (Options.TrackSites)
    MM.enableSiteTracking();
  InterpOptions Opt;
  Opt.CollectStats = true;
  Opt.MM = &MM;
  Opt.Backend = Backend;
  // Loop sampling extrapolates aggregate statistics but not the per-site
  // attribution, so site tracking runs loops in full.
  Opt.LoopSampleThreshold =
      Options.TrackSites ? 0 : Options.LoopSampleThreshold;
  Opt.LoopSampleCount = Options.LoopSampleCount;

  const long long NumBlocks = K.launch().numBlocks();
  int Clusters = std::max(1, Options.SampleClusters);
  long long ClusterBudget = Options.BlocksPerCluster;
  if (Options.WorkPerBlockRef > 0) {
    long long BodyStmts = 0;
    forEachStmt(K.body(), [&](Stmt *) { ++BodyStmts; });
    const long long BlockWork = K.launch().threadsPerBlock() * BodyStmts;
    if (BlockWork > Options.WorkPerBlockRef) {
      const long long Scaled =
          (Options.BlocksPerCluster * Options.WorkPerBlockRef + BlockWork -
           1) /
          BlockWork;
      // For the very heaviest blocks even MinBlocksPerCluster per cluster
      // exceeds the work budget; fall back to a single cluster of the
      // minimum pair rather than shrinking a cluster below what the
      // partition model needs.
      if (Scaled < MinBlocksPerCluster)
        Clusters = 1;
      ClusterBudget = std::clamp<long long>(Scaled, MinBlocksPerCluster,
                                            Options.BlocksPerCluster);
    }
  }
  long long PerCluster = std::min<long long>(NumBlocks, ClusterBudget);
  // Clusters of consecutive block ids spread over the grid; consecutive
  // ids co-reside, which is what the partition model needs to see. Each
  // block runs on its own (from zeroed shared memory and registers) into
  // a fresh SimStats that is then added to the total in block order, so a
  // memoized block adds exactly what running it would have.
  long long SampledBlocks = 0;
  long long Stride = NumBlocks / Clusters;
  for (int C = 0; C < Clusters; ++C) {
    long long Begin = std::min<long long>(C * Stride, NumBlocks - PerCluster);
    Begin = std::max<long long>(0, Begin);
    long long End = std::min<long long>(Begin + PerCluster, NumBlocks);
    if (C > 0 && Begin == 0)
      break; // grid smaller than cluster layout
    for (long long B = Begin; B < End && Interp.ok(); ++B) {
      BlockMemo::Key Id{Opt.LoopSampleThreshold, Opt.LoopSampleCount};
      K.launch().logicalBlock(B, Id.BidX, Id.BidY);
      SimStats Block;
      if (Memo && Memo->lookup(Id, Block)) {
        BlocksReused.fetch_add(1, std::memory_order_relaxed);
      } else {
        Opt.Stats = &Block;
        Interp.runBlocks(B, B + 1, Opt);
        BlocksSimulated.fetch_add(1, std::memory_order_relaxed);
        if (Memo && Interp.ok())
          Memo->insert(Id, Block);
      }
      Sampled.add(Block);
    }
    SampledBlocks += End - Begin;
    if (End >= NumBlocks)
      break;
  }
  noteFallback(Interp);
  if (!Interp.ok() || SampledBlocks == 0)
    return R;

  R.Stats = Sampled;
  const double Scale = static_cast<double>(NumBlocks) /
                       static_cast<double>(SampledBlocks);
  R.Stats.scale(Scale);
  if (Options.TrackSites) {
    for (const auto &[Site, Traffic] : MM.siteTraffic()) {
      SiteTraffic T = Traffic;
      T.HalfWarps *= Scale;
      T.CoalescedHalfWarps *= Scale;
      T.Transactions *= Scale;
      T.BytesMoved *= Scale;
      const auto *Ref = static_cast<const ArrayRef *>(Site);
      std::string Label =
          (T.IsStore ? "store " : "load  ") + printExpr(Ref);
      R.Sites.emplace_back(std::move(Label), T);
    }
    // Heaviest mover first; equal traffic goes by label, so the order
    // never depends on the sites' heap addresses.
    std::sort(R.Sites.begin(), R.Sites.end(),
              [](const auto &A, const auto &B) {
                if (A.second.BytesMoved != B.second.BytesMoved)
                  return A.second.BytesMoved > B.second.BytesMoved;
                return A.first < B.first;
              });
  }
  R.Timing = estimateTime(Dev, R.Stats, R.Occ, NumBlocks);
  R.TimeMs = R.Timing.TotalMs;
  R.Valid = true;
  // Memoize successful runs only: failed runs carry diagnostics, which a
  // cache hit would silently drop.
  if (Cache)
    Cache->insert(Key, R);
  return R;
}
