//===-- core/Report.h - Compilation analysis reports ------------*- C++ -*-===//
//
// Part of the gpuc project: a reproduction of "A GPGPU Compiler for Memory
// Optimization and Parallelism Management" (PLDI 2010).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Human-readable analysis reports: what the coalescing checker saw, what
/// the sharing analysis planned, how the design space ranked, and where
/// the chosen kernel's simulated traffic goes. The paper positions the
/// compiler as a tool "useful for performance analysis and algorithm
/// refinement" — this is that surface, used by the gpucc driver's
/// --report flag and available programmatically.
///
//===----------------------------------------------------------------------===//

#ifndef GPUC_CORE_REPORT_H
#define GPUC_CORE_REPORT_H

#include "core/Compiler.h"

#include <string>

namespace gpuc {

/// Per-access coalescing verdicts of \p K under its current launch.
std::string coalescingReport(KernelFunction &K);

/// The merge plan and camping outcome of a compilation.
std::string planReport(const CompileOutput &Out);

/// The explored design space, one line per variant. Distinguishes
/// measured, pruned (lower bound), infeasible (with the limiting
/// resource) and failed variants.
std::string designSpaceReport(const CompileOutput &Out);

/// Search counters: lanes, candidates, simulations vs. probes vs. pruned,
/// cache traffic, scalar-engine fallbacks and wall-clock (gpucc
/// --search-stats), for one search or a program's aggregate
/// (compileProgram).
std::string searchStatsReport(const SearchStats &S);

/// The fusion legality verdict, placements and fused-vs-unfused decision
/// of a pipeline compilation (gpucc --report on multi-kernel inputs).
std::string fusionReport(const ProgramCompileOutput &Out);

/// Simulated traffic by access expression plus occupancy for \p K on
/// \p Device (runs the performance simulator with site tracking).
std::string trafficReport(const KernelFunction &K, const DeviceSpec &Device);

/// All of the above for a finished compilation.
std::string fullReport(KernelFunction &Naive, const CompileOutput &Out,
                       const DeviceSpec &Device);

} // namespace gpuc

#endif // GPUC_CORE_REPORT_H
