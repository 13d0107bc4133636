//===-- core/AffineLayout.h - Affine index-space layout search --*- C++ -*-===//
//
// Part of the gpuc project: a reproduction of "A GPGPU Compiler for Memory
// Optimization and Parallelism Management" (PLDI 2010).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Affine layout selection, subsuming Section 3.7's two partition-camping
/// remedies. Following Bouverot-Dupuis & Sheeran ("Efficient GPU
/// Implementation of Affine Index Permutations on Arrays"), both the
/// per-block address offset (Figure 9b) and the diagonal block reordering
/// [Ruetsch & Micikevicius] are points of one bounded family of affine
/// index-space permutations:
///
///   - block-id remaps: ebid = (A*bid + C) mod grid, with A drawn from
///     {identity, row/column swap, diagonal skews, their compositions} and
///     C a constant shift. Pure relabelings of which physical block runs
///     which logical tile — always bit-preserving when bijective.
///   - the address-offset rotation: a reduction index i is rotated to
///     (i + (PartitionBytes/4)*bidx) mod RowElems, changing the traversal
///     order (so float reductions are only ULP-comparable) but not the
///     set of touched elements.
///
/// The design-space search (core/Compiler) enumerates the family as its
/// outermost dimension; every point is scored by the full analytical
/// model — coalescing, partition queueing and bank conflicts together, via
/// sim/MemoryModel + sim/Timing — simply by simulating the transformed
/// variant. A compile at fixed merge factors applies the paper's own
/// one-shot choice instead (paperLayoutPoint), which is one of the
/// family's points.
///
//===----------------------------------------------------------------------===//

#ifndef GPUC_CORE_AFFINELAYOUT_H
#define GPUC_CORE_AFFINELAYOUT_H

#include "ast/Kernel.h"
#include "sim/DeviceSpec.h"

#include <string>
#include <vector>

namespace gpuc {

/// What the partition-camping stage detected and applied (reports).
struct PartitionCampResult {
  bool Detected = false;
  bool AppliedOffset = false;   // 1-D grid: address-offset insertion
  bool AppliedDiagonal = false; // 2-D grid: block-id remapping
  int CampingAccesses = 0;
};

/// One point of the bounded affine layout family.
struct LayoutPoint {
  enum class Kind {
    Identity,       ///< no transform (always enumerated first)
    Shift,          ///< constant block-id offset: ebidx = (bidx + 1) % gx
    Swap,           ///< row/column swap: ebidx = bidy, ebidy = bidx
    SkewX,          ///< diagonal skew: ebidx = (bidx + bidy) % gx
    SkewY,          ///< diagonal skew: ebidy = (bidx + bidy) % gy
    Diagonal,       ///< skew ∘ swap — Section 3.7's diagonal reordering
    OffsetRotation, ///< Figure 9b's per-block address-offset rotation
  };
  Kind K = Kind::Identity;
  /// The block-id permutation for every kind except OffsetRotation.
  BlockRemap Remap;

  /// Stable display name ("identity", "offset", "diagonal", ...). Used in
  /// reports, SearchStats and test pins.
  const char *name() const;
  /// True for pure block-id relabelings (bit-preserving by construction);
  /// false for the rotation (reorders reduction traversal: float results
  /// are ULP-comparable, integer/data-movement results stay bit-exact).
  bool pureRemap() const { return K != Kind::OffsetRotation; }
  bool identity() const { return K == Kind::Identity; }

  static LayoutPoint identityPoint() { return LayoutPoint(); }
  static LayoutPoint makeRemap(Kind K, const BlockRemap &R) {
    LayoutPoint P;
    P.K = K;
    P.Remap = R;
    return P;
  }
  static LayoutPoint offsetRotation() {
    LayoutPoint P;
    P.K = Kind::OffsetRotation;
    return P;
  }
};

/// Camping analysis over the kernel's resolved global accesses
/// (core/Accesses): the paper's stride rule plus the gcd-based partial
/// coverage generalization, evaluated both at the kernel's own launch and
/// at scaled per-block strides (block merging multiplies the bidx
/// coefficient, so camping can appear only in merged variants).
struct CampingAnalysis {
  /// Camping at the kernel's own launch (scale factor 1).
  bool Detected = false;
  /// Camping at some scaled stride (a candidate block-merge factor).
  bool PotentialAtMerge = false;
  /// Accesses camping at scale 1.
  int CampingAccesses = 0;
  /// Some camping access sweeps a full row with a unit-coefficient loop —
  /// the precondition for the offset rotation.
  bool OffsetFeasible = false;
};

/// True when a per-block byte stride lands concurrently active blocks on
/// a strict subset of the device's partitions.
bool campedStride(long long StrideBytes, const DeviceSpec &Device);

/// Runs the camping analysis on \p K; \p ScaleFactors are the candidate
/// block-merge degrees whose stride scaling should be probed (always
/// includes 1 implicitly).
CampingAnalysis analyzeCamping(KernelFunction &K, const DeviceSpec &Device,
                               const std::vector<int> &ScaleFactors = {});

/// Bijectivity of \p R over a GX x GY grid. Exact for triangular and
/// diagonal coefficient matrices (per-axis unit-gcd conditions) and for
/// square grids (A invertible mod N iff gcd(det, N) = 1); conservatively
/// false for a fully mixed matrix on a non-square grid.
bool remapLegal(const BlockRemap &R, long long GX, long long GY);

/// Square-grid composition: the remap equivalent to applying \p Inner
/// first, then \p Outer, on an N x N grid (coefficients reduced mod N).
BlockRemap composeRemap(const BlockRemap &Outer, const BlockRemap &Inner,
                        long long N);

/// Square-grid inversion on an N x N grid. \returns false when \p R is
/// not invertible mod N (gcd(det, N) != 1).
bool invertRemap(const BlockRemap &R, long long N, BlockRemap &Out);

/// Enumerates the bounded family for \p K's current launch, identity
/// first (the search's tie-break keeps the earliest candidate, so the
/// identity wins whenever a permutation buys nothing). Non-identity
/// points are enumerated only when \p CA reports camping (detected or
/// potential under merging) unless \p FullFamily is set — the layout
/// fuzz oracle enumerates unconditionally for differential coverage.
std::vector<LayoutPoint> enumerateLayouts(const KernelFunction &K,
                                          const DeviceSpec &Device,
                                          const CampingAnalysis &CA,
                                          bool FullFamily = false);

/// Installs pure-remap point \p P on \p K when it is bijective on K's
/// actual grid; an illegal point leaves the identity in place (merging
/// reshapes grids, so a point legal on the probe can be illegal on a
/// merged variant). \returns true when a remap was installed.
bool installRemap(KernelFunction &K, const LayoutPoint &P);

/// Applies one family point to \p K: installs the block remap (after
/// re-checking legality on K's actual grid — an illegal point degrades to
/// the identity) or performs the address-offset rotation (detection-gated
/// like Section 3.7's remedy: the rotation only fires on a 1-D grid whose
/// camping accesses sweep full rows). \returns what the stage detected
/// and applied.
PartitionCampResult applyLayout(KernelFunction &K, ASTContext &Ctx,
                                const DeviceSpec &Device,
                                const LayoutPoint &P);

/// Section 3.7's one-shot remedy as a family point: the offset rotation on
/// a camping 1-D grid, the diagonal on a camping square 2-D grid, and the
/// identity otherwise (camping on a non-square 2-D grid is reported but
/// left in place). compileVariant applies it when given no point.
LayoutPoint paperLayoutPoint(KernelFunction &K, const DeviceSpec &Device);

} // namespace gpuc

#endif // GPUC_CORE_AFFINELAYOUT_H
