//===-- sim/Simulator.h - Simulation facade ---------------------*- C++ -*-===//
//
// Part of the gpuc project: a reproduction of "A GPGPU Compiler for Memory
// Optimization and Parallelism Management" (PLDI 2010).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The substrate replacing the paper's physical GTX 8800 / GTX 280 GPUs:
/// functional execution for correctness, sampled execution + analytical
/// timing for performance. The compiler's empirical design-space search
/// (Section 4) test-runs candidate kernels here.
///
//===----------------------------------------------------------------------===//

#ifndef GPUC_SIM_SIMULATOR_H
#define GPUC_SIM_SIMULATOR_H

#include "sim/DeviceSpec.h"
#include "sim/Interpreter.h"
#include "sim/Memory.h"
#include "sim/Occupancy.h"
#include "sim/Timing.h"

#include <atomic>
#include <vector>

namespace gpuc {

/// Sampling parameters for performance runs.
struct PerfOptions {
  /// Number of sampled clusters of consecutive blocks.
  int SampleClusters = 2;
  /// Consecutive blocks per cluster (consecutive block ids are what
  /// co-reside, which is what partition camping depends on).
  int BlocksPerCluster = 8;
  /// Uniform loops longer than this execute sampled iterations only.
  int LoopSampleThreshold = 24;
  int LoopSampleCount = 4;
  /// Work normalization: blocks of merged variants carry 16-32x the work
  /// of naive blocks, so sampling a fixed block count makes the search's
  /// most promising candidates the most expensive to evaluate for no
  /// precision gain. When a block's static weight (threads x body
  /// statements) exceeds this reference, the per-cluster block count
  /// shrinks proportionally, keeping the sampled work roughly constant.
  /// 0 disables the normalization.
  int WorkPerBlockRef = 4096;
  /// Attribute traffic to individual access expressions (reports).
  bool TrackSites = false;

  /// Aggressively down-sampled profile used by the design-space search to
  /// estimate a variant's time cheaply before deciding whether a full
  /// performance run is worth it (the pruning pass of core/Compiler).
  static PerfOptions lowerBoundProbe() {
    PerfOptions P;
    P.SampleClusters = 1;
    P.BlocksPerCluster = 2;
    P.LoopSampleThreshold = 6;
    P.LoopSampleCount = 2;
    return P;
  }
};

/// Result of a performance run.
struct PerfResult {
  bool Valid = false;
  /// Whole-grid extrapolated statistics.
  SimStats Stats;
  Occupancy Occ;
  TimingBreakdown Timing;
  double TimeMs = 0;
  /// Per-access traffic (labelled with the access expression), largest
  /// mover first; filled when PerfOptions::TrackSites is set. Counts are
  /// extrapolated to the whole grid.
  std::vector<std::pair<std::string, SiteTraffic>> Sites;

  double gflops(double UsefulFlops) const {
    return TimeMs > 0 ? UsefulFlops / (TimeMs * 1e6) : 0;
  }
  /// Effective bandwidth in GB/s for \p UsefulBytes of algorithmic traffic.
  double effectiveBandwidthGBs(double UsefulBytes) const {
    return TimeMs > 0 ? UsefulBytes / (TimeMs * 1e6) : 0;
  }
};

/// What a caller already knows about the kernel of a performance run: its
/// ast/Hash structural hash (hashKernel) and its occupancy on the run's
/// device. The design-space search computes both once per slot, and every
/// probe and full run of the slot reuses them.
struct KernelFacts {
  uint64_t Hash = 0;
  Occupancy Occ;
};

class BlockMemo;
class SimCache;

/// Runs kernels on a modeled device. The run methods are const: a single
/// Simulator may be shared by concurrent search tasks, provided no two
/// tasks simulate the same kernel body at once (the interpreter writes
/// resolution scratch on the AST nodes, and kernels made by shareKernel
/// share their nodes).
class Simulator {
public:
  explicit Simulator(DeviceSpec Device) : Dev(std::move(Device)) {}

  const DeviceSpec &device() const { return Dev; }

  /// Attaches a memo table for runPerformance (see sim/SimCache.h); null
  /// disables memoization. The cache itself is thread-safe.
  void setCache(SimCache *C) { Cache = C; }
  SimCache *cache() const { return Cache; }

  /// Selects the interpreter engine (DESIGN.md section 14). Results are
  /// bit-identical either way, so the choice is excluded from cache keys;
  /// Scalar exists as the differential oracle and for debugging.
  void setInterpBackend(InterpBackend B) { Backend = B; }
  InterpBackend interpBackend() const { return Backend; }

  /// Executes the whole grid with correct semantics, updating \p Buffers;
  /// arrays it does not bind are allocated zero-filled there. Kernels
  /// containing __globalSync run as one grid-wide SPMD group. Loops run in
  /// full. When \p Races is non-null the run doubles as a dynamic race
  /// sanitizer: same-phase shared-memory conflicts are recorded there (the
  /// cross-check for the static detector in analysis/RaceDetector.h). Only
  /// functional runs log races.
  /// \returns false on execution errors (reported to \p Diags).
  bool runFunctional(const KernelFunction &K, BufferSet &Buffers,
                     DiagnosticsEngine &Diags, RaceLog *Races = nullptr) const;

  /// Executes an unfused multi-kernel pipeline: each stage runs to
  /// completion (a grid-wide barrier between launches) against the one
  /// shared \p Buffers, so a producer's output array is the next stage's
  /// input by name. This is the oracle the fusion transform is tested
  /// against: a fused kernel must reproduce these final outputs bit for
  /// bit. \returns false on the first failing stage.
  bool runPipelineFunctional(const std::vector<const KernelFunction *> &Stages,
                             BufferSet &Buffers, DiagnosticsEngine &Diags,
                             RaceLog *Races = nullptr) const;

  /// Samples block clusters, extrapolates statistics to the whole grid and
  /// estimates the kernel time. Blocks run one at a time, each from zeroed
  /// shared memory and registers. Every array reads lazily zeroed pages the
  /// run owns (only the pages the sampled blocks touch cost memory) and
  /// every scalar its compile-time binding, so the result is a function of
  /// (kernel, device, options) alone: with a cache attached, a structurally
  /// identical run returns the memoized result without executing. With a
  /// \p Memo (sim/BlockMemo.h), blocks an earlier run of the same body
  /// simulated are added from the memo instead of executed; the result is
  /// bit-identical either way. Site-tracking runs ignore the memo. \p
  /// Facts, when given, must hold \p K's hash and its occupancy on this
  /// device; the run then recomputes neither.
  PerfResult runPerformance(const KernelFunction &K, DiagnosticsEngine &Diags,
                            const PerfOptions &Options = PerfOptions(),
                            BlockMemo *Memo = nullptr,
                            const KernelFacts *Facts = nullptr) const;

  /// Interpreter executions through this Simulator that requested the
  /// vector engine but fell back to the scalar walk because the kernel did
  /// not lower to bytecode. Cache hits skip the engine entirely and do not
  /// count. Thread-safe like the run methods.
  uint64_t scalarFallbacks() const {
    return Fallbacks.load(std::memory_order_relaxed);
  }

  /// Blocks performance runs through this Simulator executed, and blocks a
  /// BlockMemo supplied instead. Thread-safe like the run methods.
  uint64_t blocksSimulated() const {
    return BlocksSimulated.load(std::memory_order_relaxed);
  }
  uint64_t blocksReused() const {
    return BlocksReused.load(std::memory_order_relaxed);
  }

private:
  void noteFallback(const Interpreter &Interp) const {
    if (Interp.usedScalarFallback())
      Fallbacks.fetch_add(1, std::memory_order_relaxed);
  }

  DeviceSpec Dev;
  SimCache *Cache = nullptr;
  InterpBackend Backend = InterpBackend::Vector;
  mutable std::atomic<uint64_t> Fallbacks{0};
  mutable std::atomic<uint64_t> BlocksSimulated{0};
  mutable std::atomic<uint64_t> BlocksReused{0};
};

} // namespace gpuc

#endif // GPUC_SIM_SIMULATOR_H
