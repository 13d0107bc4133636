//===-- core/Compiler.h - Compilation pipeline ------------------*- C++ -*-===//
//
// Part of the gpuc project: a reproduction of "A GPGPU Compiler for Memory
// Optimization and Parallelism Management" (PLDI 2010).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The end-to-end pipeline of Figure 1: vectorization, coalescing check +
/// conversion, data-sharing analysis, thread/thread-block merge, partition-
/// camping elimination and data prefetching, followed by the empirical
/// design-space exploration of Section 4 that test-runs each generated
/// version (on the simulator substrate) and picks the fastest.
///
/// Note on pass order: the paper inserts prefetching before the partition-
/// camping step; this implementation applies the camping address rotation
/// first so that the prefetch temporary clones the already-rotated index
/// (the two are otherwise inconsistent at the rotation wrap-around).
///
//===----------------------------------------------------------------------===//

#ifndef GPUC_CORE_COMPILER_H
#define GPUC_CORE_COMPILER_H

#include "core/AffineLayout.h"
#include "core/DataSharing.h"
#include "core/Fusion.h"
#include "sim/Simulator.h"
#include "support/Diagnostics.h"

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

namespace gpuc {

class DiskCache;

/// Observer invoked after each pipeline stage of compileVariant with the
/// stage's name and the (mutable) kernel as transformed so far. The
/// sanitizer layer (analysis/Sanitizer.h) race-checks and lints every
/// intermediate kernel through one; \p Final is true for the last
/// invocation on a variant, after folding and verification.
using StageHook =
    std::function<void(const char *Stage, KernelFunction &K, bool Final)>;

/// Makes the StageHook of one compileVariant call, reporting into that
/// call's engine. The factory keeps the design-space search parallel:
/// each search task calls it once with its own DiagnosticsEngine, and
/// the task diagnostics are replayed into the caller's engine in
/// canonical slot order with exact duplicates collapsed — so the
/// diagnostic stream is byte-identical for every lane count. A hook that
/// observes through shared state in a defined order needs Jobs = 1.
using StageHookFactory = std::function<StageHook(DiagnosticsEngine &Diags)>;

/// The stage names compileVariant announces to StageHook, in announcement
/// order ("input" first, "final" last; disabled stages are skipped). The
/// fuzz oracle (fuzz/Oracle.h) snapshots the kernel at each announcement
/// and attributes an equivalence failure to the first diverging stage.
const std::vector<const char *> &pipelineStageNames();

/// Pipeline switches; disabling later stages yields the cumulative
/// configurations of the paper's Figure 12 dissection.
struct CompileOptions {
  DeviceSpec Device = DeviceSpec::gtx280();
  bool Vectorize = true;
  bool Coalesce = true;
  bool Merge = true;
  bool Prefetch = true;
  /// Partition-camping elimination (Section 3.7). The search treats the
  /// bounded affine layout family (core/AffineLayout) as its outermost
  /// dimension, scoring every point with the full analytical model; the
  /// family is only enumerated when camping is detected or possible under
  /// block merging, so camping-free kernels search the identity alone.
  /// Off: the stage never runs and every search is identity-only.
  bool PartitionElim = true;
  /// Algebraic cleanup of the emitted code (understandability).
  bool Fold = true;
  /// Per-stage observer factory (see StageHookFactory); null disables
  /// observation.
  StageHookFactory HookFactory;
  /// Lanes for the design-space search (compiling/simulating candidate
  /// variants concurrently). 0 = hardware concurrency, 1 = serial. A
  /// serial search and a parallel one select the same best variant and
  /// produce identical output (see DESIGN.md §4).
  int Jobs = 0;
  /// Simulate every feasible candidate instead of pruning by the cheap
  /// lower-bound probe. Slower; selects the same winner (test-enforced).
  bool ExhaustiveSearch = false;
  /// External memo table for performance runs shared across compilations;
  /// null uses a search-private cache (see sim/SimCache.h).
  SimCache *Cache = nullptr;
  /// Persistent second tier (cache/DiskCache). When set, performance runs
  /// fall through to disk via the SimCache, and the search's winner text
  /// is stored/cross-checked under compileCacheKey. Null disables disk
  /// caching. The cache is bit-transparent: cached and uncached searches
  /// emit identical text and pick identical winners (test-enforced).
  DiskCache *Disk = nullptr;
  /// Sampling profile for the search's full performance runs (candidate
  /// probes always use PerfOptions::lowerBoundProbe()). The default
  /// work-normalized profile keeps heavily merged variants as cheap to
  /// evaluate as naive ones; set Perf.WorkPerBlockRef = 0 to reproduce the
  /// original fixed-count sampling.
  PerfOptions Perf;
  /// Interpreter engine for the search's simulation runs. Scalar and
  /// Vector are bit-identical (test-enforced), so this is excluded from
  /// compileCacheKey; Scalar is the differential oracle / debug path.
  InterpBackend Interp = InterpBackend::Vector;
  /// Cooperative cancellation (the compile daemon's per-request timeout,
  /// serve/Server). When the pointee becomes true the search stops
  /// launching candidate work at the next per-candidate check, the
  /// partial result is discarded (Best stays null, nothing is published
  /// to the disk cache) and compile() returns with "search cancelled" in
  /// the log. Null disables the checks; excluded from compileCacheKey
  /// like the other wiring-only fields.
  const std::atomic<bool> *CancelFlag = nullptr;
};

/// True when \p Opt carries a cancellation flag that is already set.
inline bool compileCancelled(const CompileOptions &Opt) {
  return Opt.CancelFlag && Opt.CancelFlag->load(std::memory_order_relaxed);
}

/// One explored design point (Section 4 / Figure 10).
struct VariantResult {
  KernelFunction *Kernel = nullptr;
  int BlockMergeN = 1;
  int ThreadMergeM = 1;
  /// Affine layout point this variant was compiled with
  /// (LayoutPoint::name(): "identity", "offset", "diagonal", ...).
  const char *Layout = "identity";
  /// Simulated successfully; false for infeasible, pruned and failed runs
  /// (distinguish via LimitedBy / Pruned).
  bool Feasible = false;
  PerfResult Perf;
  /// Occupancy limiter name when the launch does not fit the device
  /// ("threads/SM", "shared memory", ...); null when it fits.
  const char *LimitedBy = nullptr;
  /// Skipped by the search: the cheap lower-bound estimate already
  /// exceeded the champion's measured time.
  bool Pruned = false;
  /// Rejected before any simulation: the dataflow engine proved the
  /// variant executes an out-of-bounds access or an invalid barrier.
  bool StaticallyPruned = false;
  /// The pruning estimate (ms); 0 when no probe ran.
  double LowerBoundMs = 0;
  /// Wall-clock spent compiling / simulating this variant (a pure-remap
  /// variant's compile is making its kernel over its build's body).
  double CompileWallMs = 0;
  double SimWallMs = 0;
};

/// Counters describing one design-space search (gpucc --search-stats).
struct SearchStats {
  /// Effective lane count used.
  int Jobs = 1;
  int Candidates = 0;
  /// Full performance simulations run.
  int Simulated = 0;
  /// Cheap lower-bound probe simulations run.
  int Probed = 0;
  /// Candidates skipped by the lower-bound threshold.
  int Pruned = 0;
  /// Candidates rejected by the dataflow engine's Violation proof before
  /// any simulation.
  int StaticallyPruned = 0;
  int Infeasible = 0;
  /// SimCache traffic attributable to this search: in-memory hits, misses
  /// in both tiers, and memory misses served by the disk tier. Runs whose
  /// kernels hash equal share a task, so for a cache no other search is
  /// using, hits and misses are the same at every lane count.
  uint64_t CacheHits = 0;
  uint64_t CacheMisses = 0;
  uint64_t DiskHits = 0;
  /// End-to-end search wall-clock.
  double WallMs = 0;
  /// Per-task compile/simulate time SUMMED ACROSS LANES — an aggregate
  /// work measure that exceeds WallMs whenever lanes overlap (never
  /// compare it against wall-clock).
  double CompileMs = 0;
  double SimMs = 0;
  /// Critical-path estimate: the longest single-candidate compile +
  /// simulate chain (a remap copy's chain includes the build it was
  /// copied from). A lower bound on any schedule's wall-clock, and the
  /// number to set against WallMs.
  double CritPathMs = 0;
  /// Interpreter runs in this search that asked for the vector engine but
  /// fell back to the scalar walk (shapes the lane engine cannot run; see
  /// sim/Interpreter.h). Counts actual engine executions — runs answered
  /// from the SimCache do not add to it. Excluded from SimStats/PerfResult
  /// so the scalar/vector bit-identity and cache contracts are untouched.
  uint64_t ScalarFallbacks = 0;
  /// Blocks this search's performance runs (probes included) executed,
  /// and blocks they took from their build's BlockMemo instead
  /// (sim/BlockMemo.h). The runs that share a memo share a task and run
  /// in the one-lane order, so the split is the same at every lane count.
  /// Runs answered from the SimCache add to neither.
  uint64_t BlocksSimulated = 0;
  uint64_t BlocksReused = 0;
  /// Kernel-fusion counters (multi-kernel pipelines; core/Fusion.h):
  /// producer/consumer pairs the legality analysis examined, how many it
  /// proved fusable vs. rejected, and whether the search's winner for the
  /// program was the fused kernel.
  int FusionCandidates = 0;
  int FusionLegal = 0;
  int FusionRejected = 0;
  int FusionWins = 0;
  /// Affine-layout counters: how many family points this search
  /// enumerated (1 = identity only: no camping anywhere in the candidate
  /// set, or PartitionElim off) and whether a non-identity point won.
  int LayoutPoints = 0;
  int LayoutWins = 0;
};

/// Result of a full compilation.
struct CompileOutput {
  KernelFunction *Best = nullptr;
  VariantResult BestVariant;
  std::vector<VariantResult> Variants;
  MergePlan Plan;
  PartitionCampResult Camping;
  std::string Log;
  SearchStats Search;
  /// Modules owning the non-probe builds (each search task builds its
  /// variant in its own Module/ASTContext; keeping them here keeps every
  /// KernelFunction* in Variants alive). A pure-remap copy's
  /// KernelFunction lives in its build's Module, or in the compiler's for
  /// copies of the probe.
  std::vector<std::shared_ptr<Module>> OwnedModules;
};

/// Result of compiling a multi-kernel pipeline (compileProgram). The
/// fused-vs-unfused choice is itself a dimension of the design-space
/// search: when fusion is legal the fused kernel gets its own full search
/// and the program's winner is whichever side the performance model ranks
/// faster. Both sides stay available for differential testing.
struct ProgramCompileOutput {
  /// Stage names in pipeline order.
  std::vector<std::string> StageNames;
  /// Legality verdict for the whole pipeline (all-or-nothing fold).
  bool FusionLegal = false;
  /// First failing pair's reason when !FusionLegal, empty otherwise.
  std::string FusionReason;
  /// Per-pair decisions in stage order (stops at the first illegal pair).
  std::vector<FusionDecision> FusionSteps;
  /// The fully fused kernel (owned by the compiler's Module); null when
  /// fusion is illegal.
  KernelFunction *Fused = nullptr;
  /// True when the search picked the fused kernel for the program.
  bool UseFused = false;
  /// Full search output for the fused kernel (meaningful iff FusionLegal).
  CompileOutput FusedOut;
  /// Per-stage search outputs for the unfused sequence, in stage order.
  std::vector<CompileOutput> StageOuts;
  /// Modeled times driving the decision: the fused winner vs. the sum of
  /// the unfused stage winners (0 when the respective side is infeasible).
  double FusedMs = 0;
  double UnfusedMs = 0;
  /// The emitted program: a deterministic decision header followed by the
  /// chosen kernel text(s).
  std::string ProgramText;
  /// Counters aggregated over every search run for this program, plus the
  /// fusion counters.
  SearchStats Search;
  /// Every search produced a feasible winner (each unfused stage, and the
  /// fused kernel when legal).
  bool AllFeasible = false;
};

/// Content address of one full design-space search: the naive kernel's
/// alpha-invariant structural hash ⊕ the DeviceSpec ⊕ every pipeline and
/// sampling option that can influence the winner. Lane count, hooks and
/// cache wiring are deliberately excluded — they never change the result
/// (test-enforced), so warm lookups are independent of them.
uint64_t compileCacheKey(const KernelFunction &Naive,
                         const CompileOptions &Opt);

/// Content address of a whole pipeline compile: the ordered fold of every
/// stage's compileCacheKey, salted with the stage count. The fusion
/// analysis and decision are pure functions of the stages + options, so
/// the key does not (and must not) encode them separately.
uint64_t programCacheKey(const std::vector<const KernelFunction *> &Stages,
                         const CompileOptions &Opt);

/// The optimizing compiler.
class GpuCompiler {
public:
  GpuCompiler(Module &M, DiagnosticsEngine &Diags) : M(M), Diags(Diags) {}

  /// Builds one optimized variant with fixed merge factors. \p BlockN and
  /// \p ThreadM of 1 disable the respective merge. The partition-camping
  /// stage applies the affine family point \p Layout (core/AffineLayout),
  /// or paperLayoutPoint's choice when \p Layout is null; \p ScanOut,
  /// when set, receives the camping analysis taken at that stage (with
  /// the block-merge scale factors probed), which is what gates the
  /// layout enumeration. \p ViolationOut, when set, receives the dataflow
  /// engine's anyViolation() verdict on the finished kernel: the Verify
  /// step's own engine run, or one run of its own on the paths that end
  /// before it (coalescing off, a domain not tileable by half warps).
  /// \returns null on failure.
  KernelFunction *compileVariant(const KernelFunction &Naive,
                                 const CompileOptions &Opt, int BlockN,
                                 int ThreadM, MergePlan *PlanOut = nullptr,
                                 PartitionCampResult *CampOut = nullptr,
                                 const LayoutPoint *Layout = nullptr,
                                 CampingAnalysis *ScanOut = nullptr,
                                 bool *ViolationOut = nullptr);

  /// Full compilation: enumerates merge-factor candidates, test-runs each
  /// version on the simulator (the paper's empirical search) and returns
  /// the fastest feasible one. Each distinct body is compiled once: the
  /// pure block-remap layout points at one (N, M) are kernels over that
  /// (N, M)'s identity build's body with only LaunchConfig::Remap changed.
  /// A candidate the dataflow engine proves will fault (an out-of-bounds
  /// access or invalid barrier that certainly executes) is rejected
  /// without probing or simulating it: its run could never succeed, so
  /// the rejection cannot change the winner.
  CompileOutput compile(const KernelFunction &Naive,
                        const CompileOptions &Opt = CompileOptions());

  /// Compiles a multi-kernel pipeline (parser order, ≥ 2 stages): runs the
  /// fusion legality analysis, searches the unfused stages individually
  /// and — when fusion is legal — the fused kernel too, then picks the
  /// side the model ranks faster. The winner program text is stored in
  /// the disk cache under programCacheKey (clean compiles only), mirroring
  /// the single-kernel winner store. Fused kernels that stage through
  /// shared memory are searched with merging pinned off: the 16-wide
  /// staging tile encodes the launch geometry the barrier proof relies on.
  ProgramCompileOutput
  compileProgram(const std::vector<const KernelFunction *> &Stages,
                 const CompileOptions &Opt = CompileOptions());

private:
  Module &M;
  DiagnosticsEngine &Diags;
};

} // namespace gpuc

#endif // GPUC_CORE_COMPILER_H
