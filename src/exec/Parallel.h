//===-- exec/Parallel.h - Blocking parallel loop ----------------*- C++ -*-===//
//
// Part of the gpuc project: a reproduction of "A GPGPU Compiler for Memory
// Optimization and Parallelism Management" (PLDI 2010).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A blocking parallel loop over a known index range. The design-space
/// exploration of core/Compiler uses it to compile and test-run kernel
/// variants concurrently (the paper's Section 4 search test-runs a fixed
/// set of candidates independently); the fuzzer runs seeds and gpucc
/// --batch runs files with it.
///
/// Scheduling model: the caller and up to Lanes - 1 helper threads, started
/// for the one loop and joined before it returns, claim indices in
/// ascending order from one shared counter.
///
/// Determinism contract: parallelFor(Lanes, N, Body) invokes Body exactly
/// once for every index in [0, N). Callers that want order-independent
/// results must key results by index and reduce after the join — never by
/// completion order. With one lane, or N = 1, the loop runs inline on the
/// calling thread in index order, which reproduces serial execution
/// bit-for-bit.
///
//===----------------------------------------------------------------------===//

#ifndef GPUC_EXEC_PARALLEL_H
#define GPUC_EXEC_PARALLEL_H

#include <cstddef>
#include <functional>

namespace gpuc {

/// Lanes the host offers (hardware_concurrency, at least 1).
unsigned defaultConcurrency();

/// Runs Body(I) for every I in [0, N) on the calling thread and at most
/// min(Lanes, N) - 1 helper threads, blocking until all complete. Every
/// index runs even when some throw; after the join the exception of the
/// smallest throwing index is rethrown (so failure reporting is
/// deterministic). A nested call from inside a Body runs inline on that
/// thread — nesting is safe but adds no further parallelism.
void parallelFor(unsigned Lanes, size_t N,
                 const std::function<void(size_t)> &Body);

} // namespace gpuc

#endif // GPUC_EXEC_PARALLEL_H
