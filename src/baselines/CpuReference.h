//===-- baselines/CpuReference.h - Gold implementations ---------*- C++ -*-===//
//
// Part of the gpuc project: a reproduction of "A GPGPU Compiler for Memory
// Optimization and Parallelism Management" (PLDI 2010).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// CPU reference implementations and deterministic input generation for
/// every Table 1 algorithm. End-to-end tests compare the simulator's
/// functional output of both the naive and every optimized kernel against
/// these.
///
//===----------------------------------------------------------------------===//

#ifndef GPUC_BASELINES_CPUREFERENCE_H
#define GPUC_BASELINES_CPUREFERENCE_H

#include "baselines/NaiveKernels.h"
#include "sim/Memory.h"

namespace gpuc {

/// Name of the buffer holding the algorithm's result.
const char *outputBufferName(Algo A);

/// Fills every input buffer of algorithm \p A at size \p N with a
/// deterministic pseudo-random pattern (and allocates the outputs).
void initInputs(Algo A, long long N, BufferSet &Buffers);

/// Computes the expected output buffer on the CPU from the inputs already
/// present in \p Buffers.
std::vector<float> cpuReference(Algo A, long long N,
                                const BufferSet &Buffers);

/// Relative-tolerance comparison of \p Got against \p Want: an element
/// matches when |Got - Want| / max(1, |Want|) <= \p RelTol. Equal values
/// and NaN against NaN agree; a NaN on one side, or an infinity against
/// any other value, is a mismatch.
/// \returns number of mismatching elements (0 = equal), or the larger size
/// when the sizes differ.
long long countMismatches(const std::vector<float> &Got,
                          const std::vector<float> &Want,
                          double RelTol = 1e-3);

} // namespace gpuc

#endif // GPUC_BASELINES_CPUREFERENCE_H
