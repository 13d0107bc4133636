//===-- analysis/Ranges.h - Symbolic value intervals ------------*- C++ -*-===//
//
// Part of the gpuc project: a reproduction of "A GPGPU Compiler for Memory
// Optimization and Parallelism Management" (PLDI 2010).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Interval domain of the abstract-interpretation engine. An Interval is a
/// sound enclosure of an integer expression's values over every executing
/// thread, block and loop iteration; the Exact flag additionally promises
/// that both endpoints are *attained* by some execution. Exactness is what
/// separates a "possible" out-of-bounds report from a proven Violation,
/// so only the affine evaluation path — where endpoint attainment follows
/// from the independence of tid/bid/constant-bounds iterators — produces
/// it; generic interval arithmetic drops the flag except where attainment
/// trivially survives (point shifts, negation).
///
/// All arithmetic saturates to the unknown interval on 64-bit overflow.
///
//===----------------------------------------------------------------------===//

#ifndef GPUC_ANALYSIS_RANGES_H
#define GPUC_ANALYSIS_RANGES_H

#include "ast/Affine.h"
#include "ast/Kernel.h"

#include <string>

namespace gpuc {

/// A (possibly unknown) closed integer interval [Lo, Hi].
struct Interval {
  bool Known = false;
  /// Both endpoints are attained by some execution. Cleared by any
  /// operation that cannot prove attainment.
  bool Exact = false;
  long long Lo = 0;
  long long Hi = 0;

  static Interval top() { return {}; }
  static Interval point(long long V) { return {true, true, V, V}; }
  static Interval make(long long Lo, long long Hi, bool Exact = false) {
    return {true, Exact, Lo, Hi};
  }

  bool isPoint() const { return Known && Lo == Hi; }
  bool contains(long long V) const { return Known && Lo <= V && V <= Hi; }
  /// "unknown", "[lo, hi]" (exact) or "~[lo, hi]" (over-approximate).
  std::string str() const;
  bool operator==(const Interval &O) const;
};

/// Convex hull. Exact only when the operands are equal exact intervals
/// (a hull endpoint contributed by one join arm need not be attained —
/// that arm's path may never execute).
Interval joinI(const Interval &A, const Interval &B);

/// Intersection; an empty intersection denotes an unreachable path and
/// collapses to an inexact point. Exact is kept only for the operand the
/// result equals.
Interval meetI(const Interval &A, const Interval &B);

Interval negI(const Interval &A);
Interval addI(const Interval &A, const Interval &B);
Interval subI(const Interval &A, const Interval &B);
Interval mulI(const Interval &A, const Interval &B);
/// C truncating division; unknown when B may be zero.
Interval divI(const Interval &A, const Interval &B);
/// C remainder (sign follows the dividend); unknown when B may be zero.
Interval remI(const Interval &A, const Interval &B);

/// Value intervals for the symbolic (loop-iterator) names appearing in
/// canonical affine forms: a non-owning view that maps a name to its
/// interval (null when it has none) through \p Find, called with \p Ctx.
/// Missing names are unknown.
struct RangeEnv {
  const void *Ctx = nullptr;
  const Interval *(*Find)(const void *Ctx, const std::string &Name) = nullptr;

  Interval lookup(const std::string &Name) const;
};

/// Evaluates an affine form over the launch domain (tidx in
/// [0, BlockDimX-1], bidx in [0, GridDimX-1], ...) and \p Env's iterator
/// intervals. The sum of the per-term extremes is attained when every term
/// is, because tid/bid axes and constant-bounds iterators vary
/// independently — the engine only marks an iterator interval Exact under
/// that discipline, which is what lets linearity turn interval endpoints
/// into witness executions.
Interval rangeOfAffine(const AffineExpr &A, const LaunchConfig &L,
                       const RangeEnv &Env);

} // namespace gpuc

#endif // GPUC_ANALYSIS_RANGES_H
