//===-- sim/BlockMemo.h - Per-block statistics memo -------------*- C++ -*-===//
//
// Part of the gpuc project: a reproduction of "A GPGPU Compiler for Memory
// Optimization and Parallelism Management" (PLDI 2010).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A sampled performance run (Simulator::runPerformance) simulates a few
/// clusters of consecutive blocks and sums their statistics. The layout
/// search's pure block remaps run one kernel body under different block-id
/// permutations — relabelings of one computation, as Bouverot-Dupuis &
/// Sheeran put it — so their samples mostly land on logical blocks an
/// earlier run of the same body already simulated. A BlockMemo keeps each
/// simulated block's SimStats, keyed by its logical (remapped) block id and
/// the loop-sampling settings, and later runs add the memoized statistics
/// instead of simulating the block again.
///
/// Exactness: each block is simulated from zeroed shared memory and
/// registers into a fresh SimStats, and every addend of a run's total is
/// an integer or a dyadic fraction (loop extrapolation divides by
/// LoopSampleCount: 4, or 2 in the probe profile). A memoized block
/// therefore contributes exactly what simulating it would have, and the
/// block-order sum is bit-identical with or without the memo.
///
//===----------------------------------------------------------------------===//

#ifndef GPUC_SIM_BLOCKMEMO_H
#define GPUC_SIM_BLOCKMEMO_H

#include "ast/Kernel.h"
#include "sim/Stats.h"

#include <compare>
#include <map>

namespace gpuc {

/// Per-block SimStats table for the performance runs of one kernel body
/// (one build and its remap copies, for one search). The runs must share
/// the device. Every performance run reads its arrays as zero and its
/// scalars at their compile-time bindings, so the runs differ only in the
/// remap and the loop-sampling settings. Site-tracking runs ignore the
/// memo. The table is not synchronized: the search runs every slot that
/// shares a memo in one task (core/Compiler.cpp), so one lane at a time
/// touches it, in the order a one-lane search does.
class BlockMemo {
public:
  /// True when a block's statistics in such a run depend on nothing but
  /// its logical block id and the loop-sampling settings. Either rule
  /// suffices:
  ///  (V) no value loaded from memory reaches a branch or loop condition,
  ///      a loop bound or step, an array index or an integer divisor, so
  ///      memory contents never steer what executes or where it accesses;
  ///  (D) no global array is both read and written, so no block observes
  ///      another block's (or another run's) stores.
  static bool appliesTo(const KernelFunction &K);

  /// A block's identity across the runs: the interpreter's loop-sampling
  /// settings (the only run options a block's statistics depend on) and
  /// the block id after the launch's remap.
  struct Key {
    int LoopSampleThreshold = 0;
    int LoopSampleCount = 0;
    long long BidX = 0, BidY = 0;
    auto operator<=>(const Key &) const = default;
  };

  bool lookup(const Key &K, SimStats &Out) const;
  void insert(const Key &K, const SimStats &S);

private:
  std::map<Key, SimStats> Blocks;
};

} // namespace gpuc

#endif // GPUC_SIM_BLOCKMEMO_H
