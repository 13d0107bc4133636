//===-- perfbench/src/Workloads.h - The benchmark's workloads ---*- C++ -*-===//
//
// Part of the gpuc project: a reproduction of "A GPGPU Compiler for Memory
// Optimization and Parallelism Management" (PLDI 2010).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Each workload sets up (several times; setup_s is the median), then runs
/// fixed passes of work until the run's seconds are used, checking every
/// output. With tracing on it instead runs untraced passes, one traced
/// pass, and the per-layer probes, and fills Result::Layer.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include "Bench.h"

#include "ast/Kernel.h"

namespace perfbench {

void runSearchCold(const RunConfig &C, Result &R);
void runServeWarm(const RunConfig &C, Result &R);
void runFuzzCampaign(const RunConfig &C, Result &R);

/// Passes until \p Seconds are used, at least \p MinPasses; the last pass
/// may run past \p Seconds. \p Pass returns the wall it measured in ms,
/// leaving out its own scratch set-up and clean-up. \returns those walls.
template <typename PassFn>
Series timedPasses(double Seconds, int MinPasses, PassFn &&Pass) {
  Series Walls;
  auto T0 = Clock::now();
  for (int I = 0;; ++I) {
    const double Elapsed = msSince(T0) / 1000.0;
    if (I >= MinPasses && Elapsed >= Seconds)
      break;
    Walls.add(Pass(I));
  }
  return Walls;
}

/// Sampled-cluster interpreter timings on one kernel, the sim layer's
/// probe: buffer preparation, bytecode lowering, one cluster run with and
/// without the memory model, and the timing estimate. Adds to the sim.*
/// per-layer metrics and records spans under \p Key.
void probeSimulation(const gpuc::KernelFunction &K, Trace &T,
                     const std::string &Key, Result &R);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H
