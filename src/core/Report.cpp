//===-- core/Report.cpp - Compilation analysis reports --------------------===//

#include "core/Report.h"

#include "ast/Printer.h"
#include "core/Coalescing.h"
#include "support/StringUtils.h"

#include <sstream>

using namespace gpuc;

std::string gpuc::coalescingReport(KernelFunction &K) {
  std::ostringstream OS;
  OS << "== coalescing analysis (" << K.name() << ") ==\n";
  for (const AccessInfo &A : collectGlobalAccesses(K)) {
    CoalesceInfo CI = checkCoalescing(A, K);
    OS << strFormat("  %-6s %-28s %s\n", A.IsStore ? "store" : "load",
                    printExpr(A.Ref).c_str(),
                    coalesceFailureName(CI.Failure));
  }
  return OS.str();
}

std::string gpuc::planReport(const CompileOutput &Out) {
  std::ostringstream OS;
  OS << strFormat("== merge plan ==\n  block-merge X:%d Y:%d  "
                  "thread-merge X:%d Y:%d%s\n",
                  Out.Plan.BlockMergeX, Out.Plan.BlockMergeY,
                  Out.Plan.ThreadMergeX, Out.Plan.ThreadMergeY,
                  Out.Plan.BlockMergeForThreads ? "  (for thread count)"
                                                : "");
  if (Out.Camping.Detected) {
    std::string Outcome = Out.Camping.AppliedDiagonal
                              ? "diagonal block reordering"
                          : Out.Camping.AppliedOffset
                              ? "address offset inserted"
                              : "not eliminable";
    // A layout-search winner can decorrelate with a family point the
    // paper's heuristic never applies (swap, skew, shift).
    if (Outcome == "not eliminable" && Out.BestVariant.Layout &&
        std::string(Out.BestVariant.Layout) != "identity")
      Outcome = strFormat("%s block remap applied", Out.BestVariant.Layout);
    OS << strFormat("  partition camping: detected, %s\n", Outcome.c_str());
  }
  if (Out.Search.LayoutPoints > 1)
    OS << strFormat("  affine layout: %d point(s) searched, winner %s\n",
                    Out.Search.LayoutPoints,
                    Out.BestVariant.Layout ? Out.BestVariant.Layout
                                           : "identity");
  return OS.str();
}

std::string gpuc::designSpaceReport(const CompileOutput &Out) {
  std::ostringstream OS;
  OS << "== design space ==\n";
  for (const VariantResult &V : Out.Variants) {
    std::string Status;
    if (V.Feasible)
      Status = strFormat("%8.4f ms", V.Perf.TimeMs);
    else if (V.LimitedBy)
      Status = strFormat("infeasible (%s)", V.LimitedBy);
    else if (V.Pruned)
      Status = strFormat("pruned (lower bound %.4f ms)", V.LowerBoundMs);
    else
      Status = "failed";
    std::string LayoutCol =
        Out.Search.LayoutPoints > 1
            ? strFormat("layout=%-9s ", V.Layout ? V.Layout : "identity")
            : std::string();
    OS << strFormat("  %sblocks=%-3d threads=%-3d %s%s\n", LayoutCol.c_str(),
                    V.BlockMergeN, V.ThreadMergeM, Status.c_str(),
                    V.Kernel && V.Kernel == Out.Best ? "  <= selected" : "");
  }
  return OS.str();
}

std::string gpuc::searchStatsReport(const SearchStats &S) {
  std::ostringstream OS;
  OS << "== search stats ==\n";
  OS << strFormat("  jobs=%d  candidates=%d  simulated=%d  probed=%d  "
                  "pruned=%d  statically-pruned=%d  infeasible=%d\n",
                  S.Jobs, S.Candidates, S.Simulated, S.Probed, S.Pruned,
                  S.StaticallyPruned, S.Infeasible);
  OS << strFormat("  sim cache: %llu memory hits, %llu disk hits, "
                  "%llu misses\n",
                  static_cast<unsigned long long>(S.CacheHits),
                  static_cast<unsigned long long>(S.DiskHits),
                  static_cast<unsigned long long>(S.CacheMisses));
  OS << strFormat("  scalar fallbacks: %llu (vector-engine runs executed "
                  "on the scalar walk)\n",
                  static_cast<unsigned long long>(S.ScalarFallbacks));
  OS << strFormat("  blocks: %llu simulated, %llu reused\n",
                  static_cast<unsigned long long>(S.BlocksSimulated),
                  static_cast<unsigned long long>(S.BlocksReused));
  if (S.FusionCandidates > 0)
    OS << strFormat("  fusion: %d pair(s) analyzed, %d legal, %d rejected, "
                    "%d win(s)\n",
                    S.FusionCandidates, S.FusionLegal, S.FusionRejected,
                    S.FusionWins);
  if (S.LayoutPoints > 1)
    OS << strFormat("  affine layout: %d point(s) searched, %d win(s)\n",
                    S.LayoutPoints, S.LayoutWins);
  OS << strFormat("  wall %.3f ms, critical path %.3f ms\n", S.WallMs,
                  S.CritPathMs);
  OS << strFormat("  lane-summed aggregates: compile %.3f ms, simulate "
                  "%.3f ms (exceed wall when lanes overlap)\n",
                  S.CompileMs, S.SimMs);
  return OS.str();
}

std::string gpuc::fusionReport(const ProgramCompileOutput &Out) {
  std::ostringstream OS;
  OS << "== fusion ==\n  pipeline:";
  for (size_t I = 0; I < Out.StageNames.size(); ++I)
    OS << strFormat("%s %s", I ? " ->" : "", Out.StageNames[I].c_str());
  OS << "\n";
  for (const FusionDecision &D : Out.FusionSteps) {
    if (D.Legal) {
      OS << strFormat("  '%s': %s — %s", D.Intermediate.c_str(),
                      fusePlacementName(D.Placement), D.Reason.c_str());
      if (D.Placement == FusePlacement::SharedStage)
        OS << strFormat(" (%lld staged bytes, halo [%d, %d])",
                        D.StagingBytes, D.HaloLo, D.HaloHi);
      OS << "\n";
    } else {
      OS << strFormat("  '%s': illegal — %s\n", D.Intermediate.c_str(),
                      D.Reason.c_str());
    }
  }
  if (!Out.FusionLegal && Out.FusionSteps.empty())
    OS << strFormat("  illegal — %s\n", Out.FusionReason.c_str());
  if (Out.FusionLegal)
    OS << strFormat("  decision: %s (fused %.4f ms vs unfused %.4f ms)\n",
                    Out.UseFused ? "fused" : "unfused", Out.FusedMs,
                    Out.UnfusedMs);
  else
    OS << strFormat("  decision: unfused (fusion illegal; unfused %.4f "
                    "ms)\n",
                    Out.UnfusedMs);
  return OS.str();
}

std::string gpuc::trafficReport(const KernelFunction &K,
                                const DeviceSpec &Device) {
  std::ostringstream OS;
  Simulator Sim(Device);
  DiagnosticsEngine D;
  PerfOptions PO;
  PO.TrackSites = true;
  PerfResult R = Sim.runPerformance(K, D, PO);
  if (!R.Valid)
    return "== traffic ==\n  (performance run failed)\n";
  OS << strFormat("== traffic by access (%s on %s) ==\n", K.name().c_str(),
                  Device.Name.c_str());
  for (const auto &[Label, T] : R.Sites)
    OS << strFormat("  %-40s %12.0f txns %10.2f MB%s\n", Label.c_str(),
                    T.Transactions, T.BytesMoved / 1e6,
                    T.CoalescedHalfWarps + 0.5 < T.HalfWarps
                        ? "  (NOT fully coalesced)"
                        : "");
  OS << strFormat("  total: %.2f MB moved for %.2f MB useful, "
                  "camping factor %.2f, %.4f ms\n",
                  R.Stats.bytesMovedTotal() / 1e6, R.Stats.UsefulBytes / 1e6,
                  R.Timing.CampingFactor, R.TimeMs);
  Occupancy O = computeOccupancy(Device, K);
  OS << strFormat("== occupancy ==\n  %d regs/thread, %lld B shared, "
                  "%d blocks/SM (%s-limited), %d active threads/SM\n",
                  O.RegsPerThread, O.SharedBytesPerBlock, O.BlocksPerSM,
                  O.LimitedBy, O.ActiveThreadsPerSM);
  return OS.str();
}

std::string gpuc::fullReport(KernelFunction &Naive, const CompileOutput &Out,
                             const DeviceSpec &Device) {
  std::string S = coalescingReport(Naive);
  S += "\n" + planReport(Out);
  S += "\n" + designSpaceReport(Out);
  if (Out.Best)
    S += "\n" + trafficReport(*Out.Best, Device);
  return S;
}
